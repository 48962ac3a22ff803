import math

import numpy as np
import pytest

from psroth import (
    WTrickParams,
    WeightedSequence,
    bohr_indicator,
    bohr_set,
    build_lambda,
    build_lambda_h,
    enumerate_ps_primes,
    eval_phi,
    eval_phi_deriv,
    inverse_of,
    pure_power,
    sieve_primes,
    smooth,
    spectrum_and_bohr,
    w_trick,
)

RNG = np.random.default_rng(271828)


def test_w_trick_overrides(table_1e6):
    assert w_trick(100, table_1e6, override_W=2).m == 2
    assert w_trick(100, table_1e6, override_W=3).m == 6
    assert w_trick(100, table_1e6, override_W=5).m == 30
    assert w_trick(100, table_1e6, override_W=7).m == 210


def test_w_trick_auto_clamp(table_1e6):
    # log log 10^8 ~ 2.91, so the quarter floors to 0 and clamps to 1
    p = w_trick(10 ** 8, table_1e6)
    assert p.W == 1 and p.m == 1 and p.b == 0
    with pytest.raises(ValueError):
        w_trick(10, table_1e6)
    assert w_trick(10, table_1e6, override_W=2).m == 2


def test_w_trick_b_validation(table_1e6):
    with pytest.raises(ValueError):
        WTrickParams(2, 2, 0)  # gcd(0, 2) != 1
    assert w_trick(100, table_1e6, override_W=2).b == 1


def test_lambda_basic_support(table_1e6):
    lam = build_lambda(10, WTrickParams(1, 1, 0), table_1e6)
    assert np.flatnonzero(lam.weights).tolist() == [2, 3, 5, 7]
    assert lam.weights[2] == pytest.approx(math.log(2) / 10)


def test_lambda_wtricked_support(table_1e6):
    lam = build_lambda(10, WTrickParams(1, 2, 1), table_1e6)
    assert np.flatnonzero(lam.weights).tolist() == [1, 2, 3, 5, 6, 8, 9]
    assert lam.weights[1] == pytest.approx(math.log(3) / 20)


def test_lambda_mass_near_one(table_1e6):
    lam = build_lambda(10 ** 6, WTrickParams(1, 1, 0), table_1e6)
    assert 0.9 < lam.mass < 1.1


def test_lambda_needs_big_enough_table():
    t = sieve_primes(100)
    with pytest.raises(ValueError):
        build_lambda(1000, WTrickParams(1, 1, 0), t)


@pytest.mark.parametrize("W,m,b", [(1, 2, 1), (2, 4, 1), (3, 12, 5)])
def test_lambda_h_degenerate_matches_lambda(table_1e6, W, m, b):
    # h(x) = x: every prime is a floor-image prime and phi' = 1, so the two
    # measures agree, including the factor phi(m) for non-squarefree m
    inv = inverse_of(pure_power(1.0))
    params = WTrickParams(W, m, b)
    ps = enumerate_ps_primes(inv, m * 899 + b, table_1e6)
    a = build_lambda(900, params, table_1e6)
    b = build_lambda_h(900, params, inv, ps)
    assert np.allclose(a.weights, b.weights, rtol=1e-12)


def test_lambda_h_pure_power_weights(table_1e6):
    inv = inverse_of(pure_power(1.5))
    ps = enumerate_ps_primes(inv, 100, table_1e6)
    lam = build_lambda_h(100, WTrickParams(1, 1, 0), inv, ps)
    assert np.flatnonzero(lam.weights).tolist() == [2, 5, 11, 31, 41, 89]
    dphi = float(eval_phi_deriv(inv, 11.0, 1))
    assert dphi == pytest.approx((2.0 / 3.0) * 11.0 ** (-1.0 / 3.0))
    assert lam.weights[11] == pytest.approx(math.log(11) / (100 * dphi))


def test_lambda_h_mass_trend(table_1e7, inv95, ps95_1e7):
    masses = []
    for N in (10 ** 5, 10 ** 6, 10 ** 7):
        lam = build_lambda_h(N, WTrickParams(1, 1, 0), inv95, ps95_1e7)
        masses.append(lam.mass)
    assert masses[0] < masses[1] < masses[2] < 1.1


def test_lambda_h_max_weight_ratio(table_1e6, inv95):
    # report-style trend: max weight * phi(N) / log^2 N must not grow
    ps = enumerate_ps_primes(inv95, 10 ** 6, table_1e6)
    ratios = []
    for N in (10 ** 4, 10 ** 5, 10 ** 6):
        lam = build_lambda_h(N, WTrickParams(1, 1, 0), inv95, ps)
        phiN = float(eval_phi(inv95, float(N)))
        ratios.append(lam.weights.max() * phiN / math.log(N) ** 2)
    assert ratios[-1] < ratios[0]


def test_bohr_set_pinned():
    assert bohr_set([1], 10, 0.1).tolist() == [0, 1, 9]
    # vacuous constraint
    assert bohr_set([], 10, 0.1).size == 10


def test_spectrum_delta_point_mass():
    d0 = np.zeros(12)
    d0[0] = 1.0
    rep = spectrum_and_bohr(d0, 0.999, 0.3)
    assert rep.frequencies.size == 12  # |F| = 1 everywhere


def test_spectrum_pigeonhole_bound():
    for trial in range(20):
        N = int(RNG.integers(21, 400))
        w = RNG.random(N) * (RNG.random(N) < 0.3)
        if not w.any():
            continue
        w = w / w.sum()
        # random threshold relative to the peak nonzero frequency
        F = np.abs(np.fft.fft(w))
        top = np.sort(F[1:])[-1] if N > 1 else 1.0
        delta = max(1e-6, 0.8 * top)
        eps = float(RNG.uniform(0.1, 0.4))
        rep = spectrum_and_bohr(w, delta, eps)
        assert rep.bohr.size >= eps ** rep.k * N * (1 - 1e-12)
        assert 0 in rep.bohr


def test_smooth_identity_and_average(table_1e6):
    lam = build_lambda(11, WTrickParams(1, 1, 0), table_1e6)
    # B = {0}: double convolution with the delta leaves a unchanged
    rep_delta = spectrum_and_bohr(lam, 1e-9, 0.02)
    assert rep_delta.bohr.tolist() == [0]
    sm = smooth(lam, rep_delta)
    assert np.allclose(sm.weights, lam.weights, atol=1e-15)
    # B = Z_N: smoothing averages completely
    rep_full = spectrum_and_bohr(lam, 10.0, 0.49)
    assert rep_full.frequencies.size == 0 and rep_full.bohr.size == 11
    sm2 = smooth(lam, rep_full)
    assert np.allclose(sm2.weights, lam.mass / 11)


def test_smooth_preserves_mass(table_1e6):
    lam = build_lambda(499, WTrickParams(1, 2, 1), table_1e6)
    rep = spectrum_and_bohr(lam, 0.25 * lam.mass, 0.2)
    sm = smooth(lam, rep)
    assert sm.mass == pytest.approx(lam.mass, rel=1e-9)
    assert np.all(sm.weights >= 0)


def test_smoothed_sup_constant_recorded(table_1e6, inv95):
    # ell-infinity constant of the smoothed measure, reported not asserted
    ps = enumerate_ps_primes(inv95, 3000, table_1e6)
    N = 997
    lam = build_lambda_h(N, WTrickParams(1, 1, 0), inv95, ps)
    rep = spectrum_and_bohr(lam, 0.3 * lam.mass, 0.25)
    sm = smooth(lam, rep)
    c_phi = sm.weights.max() * N
    print(f"recorded C_phi at N={N}: {c_phi:.3f} (|B|={rep.bohr.size}, k={rep.k})")
    assert np.isfinite(c_phi) and c_phi > 0


def test_weighted_sequence_validation():
    with pytest.raises(ValueError):
        WeightedSequence(3, np.array([1.0, 2.0]), "short")
    with pytest.raises(ValueError):
        WTrickParams(1, 2, 2)  # gcd(b, m) != 1
    with pytest.raises(ValueError):
        WTrickParams(1, 2, 5)  # residue out of range
