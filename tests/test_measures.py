import math
import tracemalloc

import numpy as np
import pytest

from psroth import (
    NumericalError,
    WeightedSequence,
    bohr_indicator,
    bohr_set,
    count_in_class,
    enumerate_ps_primes,
    eval_phi,
    eval_phi_clamped,
    pure_power,
    measures,
    smooth,
    smoothing_bound_chain,
    spectrum_and_bohr,
)

RNG = np.random.default_rng(271828)


def lambda_h_weights(N, spec, ps):
    """log p / (N phi'(p)) at the floor-image primes p < N, 0 elsewhere."""
    p = ps.members[ps.members < N]
    w = np.zeros(N)
    w[p] = np.log(p) / (N * eval_phi_clamped(spec, p))
    return w


def test_lambda_mass_near_one(table_1e6):
    # the prime measure log p / N on p <= N carries mass theta(N)/N
    assert 0.9 < count_in_class(table_1e6, 10 ** 6, 1, 0, "log") / 10 ** 6 < 1.1


def test_lambda_h_pure_power_weights(table_1e6):
    spec = pure_power(1.5)
    ps = enumerate_ps_primes(spec, 100, table_1e6)
    assert ps.members.tolist() == [2, 5, 11, 31, 41, 89]
    # h(x) = x^1.5, so phi'(x) = (2/3) x^(-1/3) in closed form
    dphi = [(2.0 / 3.0) * p ** (-1.0 / 3.0) for p in ps.members.tolist()]
    assert dphi[2] == pytest.approx(float(eval_phi_clamped(spec, 11.0)))
    mass = sum(math.log(p) / d for p, d in zip(ps.members.tolist(), dphi)) / 100
    assert count_in_class(ps, 100, 1, 0, "log_over_phiprime") / 100 == pytest.approx(
        mass, rel=1e-12)


def test_lambda_h_mass_trend(table_1e7, spec95, ps95_1e7):
    masses = [count_in_class(ps95_1e7, N, 1, 0, "log_over_phiprime") / N
              for N in (10 ** 5, 10 ** 6, 10 ** 7)]
    assert masses[0] < masses[1] < masses[2] < 1.1


def test_lambda_h_max_weight_ratio(table_1e6, spec95):
    # report-style trend: max weight * phi(N) / log^2 N must not grow
    ps = enumerate_ps_primes(spec95, 10 ** 6, table_1e6)
    ratios = []
    for N in (10 ** 4, 10 ** 5, 10 ** 6):
        phiN = float(eval_phi(spec95, float(N)))
        ratios.append(lambda_h_weights(N, spec95, ps).max() * phiN / math.log(N) ** 2)
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


def test_smooth_identity_and_average():
    lam = np.zeros(11)
    lam[[2, 3, 5, 7]] = np.log([2, 3, 5, 7]) / 11
    # B = {0}: double convolution with the delta leaves a unchanged
    rep_delta = spectrum_and_bohr(lam, 1e-9, 0.02)
    assert rep_delta.bohr.tolist() == [0]
    sm = smooth(lam, rep_delta)
    assert np.allclose(sm, lam, atol=1e-15)
    # B = Z_N: smoothing averages completely
    rep_full = spectrum_and_bohr(lam, 10.0, 0.49)
    assert rep_full.frequencies.size == 0 and rep_full.bohr.size == 11
    sm2 = smooth(lam, rep_full)
    assert np.allclose(sm2, lam.sum() / 11)


def test_smooth_preserves_mass(table_1e6):
    # log(2n + 1) / (2 N) on the n with 2n + 1 prime
    vals = 2 * np.arange(499) + 1
    lam = np.where(table_1e6.is_prime[vals], np.log(vals) / (2 * 499), 0.0)
    mass = lam.sum()
    rep = spectrum_and_bohr(lam, 0.25 * mass, 0.2)
    sm = smooth(lam, rep)
    assert sm.sum() == pytest.approx(mass, rel=1e-9)
    assert np.all(sm >= 0)


def test_smoothed_sup_constant_recorded(table_1e6, spec95):
    # ell-infinity constant of the smoothed measure, reported not asserted
    ps = enumerate_ps_primes(spec95, 3000, table_1e6)
    N = 997
    lam = lambda_h_weights(N, spec95, ps)
    rep = spectrum_and_bohr(lam, 0.3 * lam.sum(), 0.25)
    sm = smooth(lam, rep)
    c_phi = sm.max() * N
    print(f"recorded C_phi at N={N}: {c_phi:.3f} (|B|={rep.bohr.size}, k={rep.k})")
    assert np.isfinite(c_phi) and c_phi > 0


def test_weighted_sequence_validation():
    with pytest.raises(ValueError):
        WeightedSequence(3, np.array([1.0, 2.0]), "short")
    # plain weights are checked as the class checks its own
    N = 101
    good = np.zeros(N)
    good[[3, 10, 44]] = 1.0
    report = spectrum_and_bohr(good, 0.5, 0.3)
    negative = good.copy()
    negative[7] = -1e-3
    nan = good.copy()
    nan[7] = np.nan
    for bad in (negative, nan, np.stack([good, good])):
        with pytest.raises(ValueError):
            spectrum_and_bohr(bad, 0.5, 0.3)
    for delta in (0.0, -0.5):
        with pytest.raises(ValueError, match="delta"):
            spectrum_and_bohr(good, delta, 0.3)
    for epsilon in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="epsilon"):
            spectrum_and_bohr(good, 0.5, epsilon)
    for bad in (negative, nan, np.stack([good, good]), good[:-1], np.append(good, 0.0)):
        with pytest.raises(ValueError):
            smooth(bad, report)
        with pytest.raises(ValueError):
            smoothing_bound_chain(bad, report)


def _bohr_by_brute_force(freqs, N, epsilon):
    """The x in 0..N-1 with min(t, 1 - t) <= epsilon at t = (x xi mod N) / N
    for every xi, scanned one x at a time in Python integers."""
    return [x for x in range(N)
            if all(min(t, 1.0 - t) <= epsilon
                   for t in ((x * xi % N) / N for xi in freqs))]


def test_bohr_set_matches_brute_force():
    rng = np.random.default_rng(2029)
    cases = [([], 1, 0.1), ([5], 1, 0.1), ([], 17, 0.2), ([0], 17, 0.2),
             ([17, 34, -1], 17, 0.25), ([-3, -40], 31, 0.1)]
    for _ in range(40):
        N = int(rng.integers(1, 400))
        k = int(rng.integers(0, 6))
        freqs = rng.integers(-3 * N, 3 * N, k).tolist()
        cases.append((freqs, N, float(rng.uniform(0.01, 0.5))))
    for freqs, N, eps in cases:
        got = bohr_set(freqs, N, eps)
        assert got.dtype == np.int64
        assert got.tolist() == _bohr_by_brute_force(freqs, N, eps), (freqs, N, eps)


@pytest.mark.parametrize("k", [29, 200])
def test_bohr_set_memory_bounded(k):
    # pruned one frequency at a time, no array is longer than N: the traced
    # peak stays under 8 MiB at the benchmark's N whatever the spectrum size
    N = 200003
    freqs = np.random.default_rng(k).integers(1, N, k)
    tracemalloc.start()
    try:
        bohr_set(freqs, N, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_rechecks_raise_numerical_error(monkeypatch):
    N = 101
    w = np.zeros(N)
    w[[3, 10, 44]] = 1.0
    report = spectrum_and_bohr(w, 0.5, 0.3)
    # an empty Bohr set, below any pigeonhole bound
    monkeypatch.setattr(measures, "bohr_set", lambda freqs, N, eps: np.empty(0, np.int64))
    with pytest.raises(NumericalError, match="pigeonhole"):
        spectrum_and_bohr(w, 0.5, 0.3)
    # a signed "indicator", whose double convolution goes negative
    beta = np.zeros(N)
    beta[[0, 1]] = (1.0, -1.0)
    monkeypatch.setattr(measures, "bohr_indicator", lambda report: beta)
    with pytest.raises(NumericalError, match="negative"):
        smooth(w, report)


def test_bohr_indicator_and_smooth_are_plain_arrays():
    N = 101
    w = np.zeros(N)
    w[[3, 10, 44]] = 1.0
    report = spectrum_and_bohr(w, 0.5, 0.3)
    for out in (bohr_indicator(report), smooth(w, report)):
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (N,)
