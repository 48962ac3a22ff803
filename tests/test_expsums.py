import math

import numpy as np
import pytest

from psroth import (
    PhaseParams,
    abel_summation,
    b_coefficient_bound,
    bilinear_check,
    count_in_class,
    default_bilinear_R,
    default_cutoff,
    enumerate_ps_primes,
    error_term_sup,
    exp_sum_direct,
    eval_phi,
    inverse_of,
    mobius_array,
    ps_exponent_spec,
    pure_power,
    sawtooth_expansion,
    sawtooth_phi,
    sieve_primes,
    type_I_bound_check,
    vaughan_coefficients,
    vaughan_decompose,
    vdc_single_bound,
)


@pytest.fixture(scope="module")
def inv95m():
    return inverse_of(ps_exponent_spec(0.95))


@pytest.fixture(scope="module")
def table_2e3():
    return sieve_primes(2048)


def test_sawtooth_values():
    assert sawtooth_phi(0.25) == pytest.approx(-0.25)
    assert sawtooth_phi(0.0) == pytest.approx(-0.5)
    assert sawtooth_phi(1.75) == pytest.approx(0.25)
    assert sawtooth_phi(-0.25) == pytest.approx(0.25)


def test_sawtooth_series_half_point():
    # at t = 1/2 every term sin(pi m) vanishes; the series value is exactly 0
    for M in (10, 1000):
        approx, err = sawtooth_expansion(0.5, M)
        assert approx == pytest.approx(0.0, abs=1e-12)
        assert err == pytest.approx(abs(sawtooth_phi(0.5)), abs=1e-12)


def test_sawtooth_error_envelope():
    # fitted constant in err <= C min(1, 1/(M ||t||)) stable across decades
    t = 0.37
    dist = min(t % 1.0, 1.0 - t % 1.0)
    cs = []
    for M in (100, 1000, 10000):
        _, err = sawtooth_expansion(t, M)
        cs.append(err / min(1.0, 1.0 / (M * dist)))
    print(f"sawtooth fitted C at t=0.37: {[round(c, 4) for c in cs]}")
    assert max(cs) < 1.0
    assert max(cs) / max(min(cs), 1e-12) < 10.0


def test_b_coefficient_bound():
    assert b_coefficient_bound(1, 10) == pytest.approx(math.log(10) / 10)
    assert b_coefficient_bound(100, 10) == pytest.approx(0.001)
    assert b_coefficient_bound(0, 10) == pytest.approx(math.log(10) / 10)
    # crossover |mm| = M: the last two branches coincide at 1/M
    M = 50
    assert 1.0 / M == pytest.approx(min(1.0 / M, M / M ** 2))
    assert b_coefficient_bound(M, M) == pytest.approx(min(math.log(M) / M, 1.0 / M))


def test_phase_params_validation():
    with pytest.raises(ValueError):
        PhaseParams(0.5, 0, 0, 1, 10, 20)       # m = 0
    with pytest.raises(ValueError):
        PhaseParams(0.5, 1, 2, 4, 10, 20)       # gcd(a, q) = 2
    with pytest.raises(ValueError):
        PhaseParams(0.5, 1, 0, 1, 10, 25)       # P1 > 2P
    with pytest.raises(ValueError):
        PhaseParams(1.5, 1, 0, 1, 10, 20)       # xi out of range
    PhaseParams(1.0, 1, 0, 1, 10, 20)           # xi = 1 allowed


def test_exp_sum_phase_collapse(table_2e3):
    # h = x and integer total frequency: every phase factor is 1
    inv = inverse_of(pure_power(1.0))
    pp = PhaseParams(0.0, 1, 0, 1, 100, 200)
    got = exp_sum_direct(inv, pp, table_2e3)
    lam = table_2e3.mangoldt_array()
    psi_diff = float(np.sum(lam[101:201]))
    assert got.imag == pytest.approx(0.0, abs=1e-9)
    assert got.real == pytest.approx(psi_diff, rel=1e-12)


def test_exp_sum_independent_reevaluation(table_2e3):
    # longdouble re-evaluation of the 5 contributing terms in (10, 20]
    inv = inverse_of(pure_power(1.5))
    pp = PhaseParams(0.0, 1, 0, 1, 10, 20)
    got = exp_sum_direct(inv, pp, table_2e3)
    want = 0.0 + 0.0j
    for k, lam in ((11, math.log(11)), (13, math.log(13)), (16, math.log(2)),
                   (17, math.log(17)), (19, math.log(19))):
        ang = 2.0 * np.pi * np.longdouble(k) ** (np.longdouble(2) / 3)
        want += lam * complex(np.cos(ang), np.sin(ang))
    assert abs(got - want) <= 1e-9


def test_parity_class_content(table_2e3):
    # the spec'd q=4, a=2 case conflicts with the gcd invariant; the
    # mathematical content is that Lambda vanishes on 2 mod 4 above k=2
    lam = table_2e3.mangoldt_array()
    ks = np.arange(5, 2001)
    assert np.all(lam[ks[ks % 4 == 2]] == 0.0)


def test_vaughan_residual_small(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    split = vaughan_decompose(inv95m, pp, table_2e3)
    assert split.residual <= 1e-6 * (1.0 + abs(split.direct))
    assert split.recombined == pytest.approx(split.direct, abs=1e-7)


def test_vaughan_residual_with_residue_class(inv95m, table_2e3):
    pp = PhaseParams(0.77, -1, 1, 3, 1000, 2000)
    split = vaughan_decompose(inv95m, pp, table_2e3)
    assert split.residual <= 1e-6 * (1.0 + abs(split.direct))


def test_vaughan_all_type_I(inv95m, table_2e3):
    # v just below P: v^2 covers the whole range, so S3 has no terms at all
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    split = vaughan_decompose(inv95m, pp, table_2e3, v=999.0)
    assert split.S3 == 0.0 + 0.0j
    assert split.residual <= 1e-6 * (1.0 + abs(split.direct))


def test_vaughan_cutoff_above_P(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    with pytest.raises(ValueError):
        vaughan_decompose(inv95m, pp, table_2e3, v=1500.0)


def test_vaughan_degenerate_cutoff(inv95m, table_2e3):
    pp = PhaseParams(0.3, 2, 0, 1, 1000, 2000)
    with pytest.raises(ValueError):
        vaughan_decompose(inv95m, pp, table_2e3, v=1.0)


def test_default_cutoff_formula(inv95m):
    v = default_cutoff(inv95m, 2000)
    assert v == pytest.approx(float(eval_phi(inv95m, 2000.0)) * 2000 ** -0.625)
    assert 1.0 < v < 1000


def test_vaughan_identity_per_n():
    # coefficient-level identity: for n > v the split coefficients re-sum to
    # Lambda(n) exactly; below v the identity genuinely fails for many n,
    # which resolves the stated validity question toward n > v
    L = 10 ** 5
    table = sieve_primes(L)
    lam = table.mangoldt_array()[: L + 1]
    mu = mobius_array(L, table)
    for v in (10, 50, 316):
        pi_arr, xi_arr = vaughan_coefficients(v, v, L, table)
        c = np.zeros(L + 1)
        for l in range(1, v + 1):
            if mu[l]:
                ks = np.arange(1, L // l + 1, dtype=float)
                c[l::l] += mu[l] * np.log(ks)
        for l in range(1, min(v * v, L) + 1):
            if pi_arr[l]:
                c[l::l] -= pi_arr[l]
        for l in range(v + 1, L // (v + 1) + 1):
            if xi_arr[l]:
                kmax = L // l
                if kmax > v:
                    c[l * (v + 1) :: l] += xi_arr[l] * lam[v + 1 : kmax + 1]
        assert np.max(np.abs(c[v + 1 :] - lam[v + 1 :])) < 1e-6
        failures_below = int(np.count_nonzero(
            np.abs(c[1 : v + 1] - lam[1 : v + 1]) > 1e-9))
        print(f"v={v}: identity exact above v; failures at n<=v: "
              f"{failures_below}/{v}")
        assert failures_below > 0


def test_vdc_single_bound_values():
    assert vdc_single_bound(1.0, 1.0, 10.0) == pytest.approx(11.0)
    assert vdc_single_bound(0.25, 1.0, 4.0) == pytest.approx(4.0)
    assert vdc_single_bound(0.25, 2.0, 4.0) > vdc_single_bound(0.25, 1.0, 4.0)
    assert vdc_single_bound(0.25, 1.0, 8.0) > vdc_single_bound(0.25, 1.0, 4.0)
    with pytest.raises(ValueError):
        vdc_single_bound(0.0, 1.0, 1.0)


def test_abel_summation_routes(table_1e6):
    lam = table_1e6.mangoldt_array()[: 10 ** 4 + 1]
    g = lambda t: 1.0 / t
    gp = lambda t: -1.0 / t ** 2
    direct, parts = abel_summation(lam, g, gp, 1.5, 10 ** 4)
    assert parts == pytest.approx(direct, rel=1e-12)
    direct2, parts2 = abel_summation(lam, g, gp, 1.5, 10 ** 4, method="quad")
    assert parts2 == pytest.approx(direct2, rel=1e-6)
    assert direct2 == direct


def test_abel_summation_empty_range(table_1e6):
    lam = table_1e6.mangoldt_array()[:100]
    assert abel_summation(lam, lambda t: t, lambda t: 1.0, 5.2, 5.8) == (0.0, 0.0)


def test_type_I_geometric_oracle():
    # h = x collapses the phase to a geometric series
    inv = inverse_of(pure_power(1.0))
    X, l, mm = 500, 3, 2
    rep0 = type_I_bound_check(inv, l=l, j=0, X=X, mm=mm, alpha=0.3)
    assert rep0.measured == pytest.approx(float(X), rel=1e-12)
    alpha = 0.3137  # keeps theta*X well away from integers
    rep1 = type_I_bound_check(inv, l=l, j=1, X=X, mm=mm, alpha=alpha)
    theta = (alpha + mm) * l
    want = abs(math.sin(math.pi * theta * X) / math.sin(math.pi * theta))
    assert rep1.measured == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_type_I_envelope(inv95m):
    # ratio to the curvature bound stays under a recorded envelope over a
    # frequency grid, and under doubling of X
    worst = 0.0
    for alpha in np.linspace(0.0, 0.9, 10):
        for X in (10 ** 3, 10 ** 4):
            rep = type_I_bound_check(inv95m, l=1, j=1, X=X, mm=3, alpha=alpha)
            worst = max(worst, rep.ratio_type_I)
    print(f"type I worst measured/bound ratio: {worst:.4f}")
    assert worst < 1.0


def test_bilinear_zero_coefficients(inv95m):
    rep = bilinear_check(inv95m, 32, 32, 1, 0.3,
                         D1=np.zeros(32), D2=np.zeros(32))
    assert rep.measured == 0.0
    assert all(rep.details["checks"].values())


def test_bilinear_chain_random(inv95m):
    rng = np.random.default_rng(5)
    for trial in range(6):
        K = int(rng.integers(16, 80))
        L = int(rng.integers(16, 80))
        rep = bilinear_check(inv95m, K, L, 1, float(rng.random()), rng=rng)
        assert all(rep.details["checks"].values()), rep.details
        assert rep.measured <= rep.bound_bilinear * 10  # envelope, loose
        assert abs(rep.details["E0"]) <= rep.details["e0_cap"] * (1 + 1e-9)


def test_bilinear_hypothesis_errors(inv95m):
    with pytest.raises(ValueError, match="hypothesis"):
        bilinear_check(inv95m, 10 ** 6, 10 ** 6, 10 ** 9, 0.1)
    with pytest.raises(ValueError, match="R"):
        bilinear_check(inv95m, 32, 32, 1, 0.1, R=64)


def test_default_bilinear_R_in_range(inv95m):
    for K, L in ((32, 32), (64, 256), (1024, 16)):
        R = default_bilinear_R(inv95m, K, L, 2)
        assert 1 <= R <= K


def test_error_term_identity_map_control(table_1e6):
    inv = inverse_of(pure_power(1.0))
    rep = error_term_sup(inv, 10 ** 5, 1, 0, table_1e6, grid=512)
    assert rep.sup_diff == 0.0
    assert rep.route_gap == 0.0
    assert np.all(rep.per_xi == 0.0)


def test_error_term_empty_class(inv95):
    # no prime or prime power <= 50 is 48 mod 49: every route sums nothing
    rep = error_term_sup(inv95, 50, 49, 48, sieve_primes(50), grid=64)
    assert rep.sup_diff == 0.0
    assert rep.route_gap == 0.0
    assert np.all(rep.per_xi == 0.0) and np.all(rep.per_xi_middle == 0.0)
    assert rep.per_xi.shape == rep.per_xi_middle.shape == (64,)


def test_error_term_zero_frequency_consistency(table_1e6, inv95):
    N = 10 ** 5
    ps = enumerate_ps_primes(inv95, N, table_1e6)
    rep = error_term_sup(inv95, N, 1, 0, table_1e6, grid=256)
    weighted = count_in_class(ps, N, 1, 0, weight="log_over_phiprime")
    plain = count_in_class(table_1e6, N, 1, 0, weight="log")
    assert rep.per_xi[0] == pytest.approx(abs(weighted - plain), rel=1e-9)


def test_error_term_residue_class(table_1e6, inv95):
    N = 10 ** 5
    ps = enumerate_ps_primes(inv95, N, table_1e6)
    rep = error_term_sup(inv95, N, 4, 1, table_1e6, grid=256)
    weighted = count_in_class(ps, N, 4, 1, weight="log_over_phiprime")
    plain = count_in_class(table_1e6, N, 4, 1, weight="log")
    assert rep.per_xi[0] == pytest.approx(abs(weighted - plain), rel=1e-9)


def test_error_term_route_gap_envelope(table_1e6, inv99):
    # the middle-form route differs from the direct difference by the
    # prime-power and constant corrections; envelope recorded from dev runs
    for N in (2 ** 16, 2 ** 18):
        rep = error_term_sup(inv99, N, 1, 0, table_1e6, grid=1024)
        assert rep.route_gap <= 0.5 * math.sqrt(N), N
