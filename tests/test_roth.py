import math
import time
from fractions import Fraction

import numpy as np
import pytest

from psroth import (
    NumericalError,
    WeightedSequence,
    bohr_indicator,
    count_3aps,
    count_in_class,
    dft,
    enumerate_ps_primes,
    error_term_inputs,
    error_term_sup,
    pure_power,
    restriction_ratio,
    roth,
    sieve_primes,
    smooth,
    smoothing_bound_chain,
    spectrum_and_bohr,
    transference_build,
    trilinear_fft,
    varnavides_count,
    zn_fourier,
)
from psroth.roth import _next_prime_in, _refined_norm, _w_trick


def brute_pair_count(A):
    """Ordered pairs (x, z), x != z, x = z (mod 2), with (x+z)/2 in A."""
    s = set(int(x) for x in A)
    return sum(1 for x in s for z in s
               if x != z and (x + z) % 2 == 0 and (x + z) // 2 in s)


def test_integer_progression_basic():
    rep = count_3aps({1, 2, 3}, 10, mode="integer")
    assert rep.size == 3
    assert rep.nontrivial == 2
    assert rep.lam3 == 5
    assert rep.witness == (1, 2, 3)


def test_integer_progression_free():
    rep = count_3aps({1, 2, 4, 5}, 6, mode="integer")
    assert rep.nontrivial == 0
    assert rep.witness is None
    assert rep.lam3 == rep.size == 4


def test_cyclic_mod5():
    rep = count_3aps({0, 1, 2}, 5, mode="cyclic")
    assert rep.lam3 == 5
    assert rep.nontrivial == 2
    assert rep.witness is not None
    x, y, z = rep.witness
    assert (y - x) % 5 == (z - y) % 5


def test_cyclic_full_set():
    N = 15
    rep = count_3aps(range(N), N, mode="cyclic")
    assert rep.lam3 == N * N
    assert rep.nontrivial == N * (N - 1)


def test_integer_count_against_pair_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        N = int(rng.integers(20, 300))
        A = np.flatnonzero(rng.random(N) < 0.3)
        rep = count_3aps(A, N, mode="integer")
        assert rep.nontrivial == brute_pair_count(A)


def _routes(monkeypatch, A, N, mode):
    """count_3aps on each side of the route switch: the difference walk with
    its frequency cross-check, then the frequency route alone."""
    with monkeypatch.context() as mp:
        mp.setattr(roth, "_BRUTE_MAX_N", N)
        walk = count_3aps(A, N, mode=mode)
        mp.setattr(roth, "_BRUTE_MAX_N", N - 1)
        return walk, count_3aps(A, N, mode=mode)


def test_cyclic_fft_matches_brute(monkeypatch):
    rng = np.random.default_rng(3)
    for N in (101, 1009):
        for _ in range(4):
            A = np.flatnonzero(rng.random(N) < 0.25)
            # the walk already cross-checks internally for odd N
            br, ff = _routes(monkeypatch, A, N, "cyclic")
            assert br.lam3 == ff.lam3
            assert br.witness is not None and ff.witness is None


def test_integer_fft_matches_brute_and_pair_oracle(monkeypatch):
    # both sides of N = 4096, where count_3aps switches from the walk to FFT,
    # and a sparse set whose one progression has a large d, which the walk
    # must reach in |A| gathers per d, not N
    rng = np.random.default_rng(12)
    cases = [(np.flatnonzero(rng.random(N) < density), N)
             for N in (600, 4096, 4097, 9000) for density in (0.01, 0.04)]
    k = 2 ** 17
    cases.append((np.array([0, k - 1, 2 * k - 2]), 2 * k - 1))
    for A, N in cases:
        start = time.perf_counter()
        auto = count_3aps(A, N, mode="integer")
        assert time.perf_counter() - start < 2.0
        brute, fft = _routes(monkeypatch, A, N, "integer")
        assert auto.nontrivial == brute_pair_count(A)
        # witnesses too: the FFT route scans d upward like the walk
        assert auto == brute == fft
    assert auto.nontrivial == 2 and auto.witness == (0, k - 1, 2 * k - 2)


def salem_spencer(digits):
    """Numbers below 3^digits whose base-3 digits are all 0 or 1: no 3APs."""
    return [sum(3 ** i for i in range(digits) if k >> i & 1) for k in range(2 ** digits)]


def test_integer_progression_free_above_brute_range(monkeypatch):
    A = salem_spencer(8)
    N = 3 ** 8
    assert N > roth._BRUTE_MAX_N
    for rep in _routes(monkeypatch, A, N, "integer"):
        assert rep.nontrivial == 0 and rep.witness is None
        assert rep.lam3 == rep.size == 256


def test_fft_count_off_integer_raises(monkeypatch):
    exact = zn_fourier._trilinear_from_transforms
    A = np.flatnonzero(np.random.default_rng(4).random(5000) < 0.02)
    # off an integer by 0.5: the rounding guard of the frequency route
    monkeypatch.setattr(zn_fourier, "_trilinear_from_transforms",
                        lambda f, g, h: exact(f, g, h) + 0.5)
    with pytest.raises(NumericalError, match="not near an integer"):
        count_3aps(A, 5000, mode="integer")
    with pytest.raises(NumericalError, match="not near an integer"):
        count_3aps(A[A < 1000], 1000, mode="integer")
    # off by 1.0 passes the rounding guard, so the walk's cross-check catches it
    monkeypatch.setattr(zn_fourier, "_trilinear_from_transforms",
                        lambda f, g, h: exact(f, g, h) + 1.0)
    for N, mode in ((999, "cyclic"), (4095, "cyclic"), (1000, "integer"), (4096, "integer")):
        with pytest.raises(NumericalError, match="routes disagree"):
            count_3aps(A[A < N], N, mode=mode)


def test_count_validation():
    with pytest.raises(ValueError):
        count_3aps({0, 11}, 11, mode="cyclic")
    with pytest.raises(ValueError):
        count_3aps({0, 1}, 9, mode="diagonal")
    for N in (0, -3):
        with pytest.raises(ValueError, match="N must be"):
            count_3aps([], N, mode="integer")
    # cyclic mode needs odd N at every size, on both sides of the walk's
    # range; integer mode counts on Z_{2N-1} and takes every N
    for N in (8, 4096, 4098):
        with pytest.raises(ValueError, match="odd N"):
            count_3aps({0, 1}, N, mode="cyclic")
        assert count_3aps({0, 1, 2}, N, mode="integer").nontrivial == 2


def _triple_loop(A, N, mode):
    """(lam3, nontrivial, witness) by trying every x and d: cyclic
    d in 1..N-1 mod N, or integer d != 0 with all three terms in A; the
    witness has the smallest positive d, then the smallest x."""
    s = set(A)
    ds = range(1, N) if mode == "cyclic" else [d for d in range(1 - N, N) if d]
    aps = [(x, y, z) for d in ds for x in range(N)
           for y, z in [(x + d, x + 2 * d) if mode == "integer"
                        else ((x + d) % N, (x + 2 * d) % N)]
           if x in s and y in s and z in s]
    forward = [(x, y, z) for x, y, z in aps if mode == "cyclic" or y > x]
    witness = min(forward, key=lambda ap: ((ap[1] - ap[0]) % N, ap[0]), default=None)
    return len(s) + len(aps), len(aps), witness


def test_counts_and_witness_against_triple_loop():
    rng = np.random.default_rng(20)
    for N in (7, 11, 31):
        for density in (0.2, 0.5, 0.8):
            for _ in range(5):
                A = np.flatnonzero(rng.random(N) < density).tolist()
                for mode in ("cyclic", "integer"):
                    rep = count_3aps(A, N, mode=mode)
                    assert (rep.lam3, rep.nontrivial, rep.witness) == \
                        _triple_loop(A, N, mode)


def test_empty_set_counts():
    rep = count_3aps([], 11, mode="cyclic")
    assert rep.lam3 == 0 and rep.nontrivial == 0 and rep.witness is None


# -- averaged subprogression counts -------------------------------------------

def test_varnavides_full_set():
    rep = varnavides_count(range(11), 11, 5, d_list=[1, 2, 3])
    assert rep.good_pairs == 11 * 3
    assert rep.Z_lower == Fraction(33, 25)


def test_varnavides_empty_set():
    rep = varnavides_count([], 11, 5, threshold=1.0, d_list=[1, 2])
    assert rep.good_pairs == 0
    assert rep.Z_lower == 0


def test_varnavides_averaging_identity():
    """The averaging step: for each d the counts sum to M |A'| and none
    exceeds M, so at the default threshold M |A'| / (2N) at least |A'| / 2
    of the a are good."""
    rng = np.random.default_rng(7)
    N, M = 101, 5
    A = rng.choice(N, size=30, replace=False)
    for d in range(1, N):
        counts = roll_counts(A, N, M, d)
        assert int(counts.sum()) == M * 30
        rep = varnavides_count(A, N, M, d_list=[d])
        assert rep.good_pairs == int(np.count_nonzero(counts >= rep.threshold))
        assert 2 * rep.good_pairs >= 30


def roll_counts(A, N, M, d):
    """Per-a counts |A' cap {a, a+d, ..., a+(M-1)d}| by np.roll: the reference."""
    mask = np.zeros(N, dtype=np.int64)
    mask[np.asarray(A, dtype=np.int64)] = 1
    return sum(np.roll(mask, -i * d) for i in range(M))


def test_varnavides_matches_roll_reference():
    rng = np.random.default_rng(21)
    for N, M in ((101, 5), (257, 40), (1000, 3), (1009, 1009)):
        A = np.flatnonzero(rng.random(N) < 0.3)
        d_list = [1, 2, 7, N - 1, N, N + 3, 2 * N + 5]
        want = {d: int(np.count_nonzero(roll_counts(A, N, M, d) >= M * A.size / (2 * N)))
                for d in d_list}
        for d in d_list:
            assert varnavides_count(A, N, M, d_list=[d]).good_pairs == want[d], (N, M, d)
        assert varnavides_count(A, N, M, d_list=d_list).good_pairs == sum(want.values())


def test_varnavides_counts_above_int16():
    N, M = 40000, 33000
    rep = varnavides_count(range(N), N, M, d_list=[1])
    assert rep.good_pairs == N
    # without 0 in the set, exactly the M windows through 0 fall below M
    rep = varnavides_count(range(1, N), N, M, threshold=M, d_list=[1])
    assert rep.good_pairs == N - M


@pytest.mark.parametrize("A, N, M, d_list", [
    ("dense", 1009, 8, None),        # every d
    ("dense", 5003, 8, None),        # the stride sample
    ("empty", 1009, 5, None),
    ("dense", 101, 5, [7]),          # fewer d than threads
    ("dense", 101, 5, [3, 7]),
    ("dense", 101, 5, []),
], ids=["every-d", "stride", "empty", "one-d", "two-d", "no-d"])
def test_varnavides_threads_equal(A, N, M, d_list, fast_switching):
    rng = np.random.default_rng(N)
    A = np.flatnonzero(rng.random(N) < 0.1) if A == "dense" else []
    want = varnavides_count(A, N, M, None, d_list, threads=1)
    for threads in (2, 3):
        assert varnavides_count(A, N, M, None, d_list, threads=threads) == want, threads


def test_varnavides_bad_threads_scans_nothing(monkeypatch):
    scanned = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero",
                        lambda *a, **k: scanned.append(1) or count_nonzero(*a, **k))
    with pytest.raises(ValueError):
        varnavides_count(range(0, 101, 3), 101, 5, threads=0)
    assert not scanned
    varnavides_count(range(0, 101, 3), 101, 5, d_list=[1, 2], threads=2)
    assert len(scanned) == 2


def test_varnavides_validation():
    with pytest.raises(ValueError):
        varnavides_count([0], 10, 2)
    with pytest.raises(ValueError):
        varnavides_count([0], 10, 11)
    with pytest.raises(ValueError):
        varnavides_count([10], 10, 3)


# -- transference --------------------------------------------------------------

def test_w_trick_overrides(table_1e6):
    assert [_w_trick(1000, table_1e6, W)[1] for W in (2, 3, 5, 7)] == [2, 6, 30, 210]


def test_w_trick_auto_clamp(table_1e6):
    # log log 10^8 ~ 2.91, so the quarter floors to 0 and clamps to 1
    assert _w_trick(10 ** 8, table_1e6, None) == (1, 1)
    assert _w_trick(10, table_1e6, 2) == (2, 2)


def test_w_trick_rejects_primorial_above_half_n(table_1e6):
    # m = 210 fits n = 420 exactly and not n = 419
    assert _w_trick(420, table_1e6, 7) == (7, 210)
    with pytest.raises(ValueError, match="W=7 .*m=210"):
        _w_trick(419, table_1e6, 7)
    with pytest.raises(ValueError):
        _w_trick(1000, table_1e6, 0)


def test_transfer_trivial_modulus(spec95, table_1e6):
    rep = transference_build(spec95, table_1e6, 10 ** 4)
    assert rep.W == 1 and rep.m == 1 and rep.b == 0
    assert rep.mass == rep.window_mass
    assert rep.mass > 0
    ps = enumerate_ps_primes(spec95, 10 ** 4, table_1e6)
    window = ps.members[(ps.members > 5000) & (ps.members <= 10 ** 4)]
    assert np.array_equal(rep.A, window)


def test_transfer_override(spec95, table_1e6):
    n = 10 ** 5
    rep = transference_build(spec95, table_1e6, n, override_W=2)
    assert rep.m == 2 and rep.b == 1
    assert rep.N == 100003
    assert math.ceil(2 * n / rep.m) <= rep.N <= 4 * n // rep.m
    assert table_1e6.is_prime[rep.N]
    assert rep.A.min() >= 1 and rep.A.max() <= rep.N // 2
    # every odd member carries its weight over: window mass is preserved
    assert rep.mass == pytest.approx(rep.window_mass, rel=1e-12)


@pytest.mark.parametrize("W", [3, 5])
def test_transfer_window_mass_spans_every_class(spec95, table_1e6, W):
    n = 10 ** 5
    rep = transference_build(spec95, table_1e6, n, override_W=W)
    phi_m = {3: 2, 5: 8}[W]
    # the best of phi(m) unit classes holds at least their mean
    assert rep.window_mass > rep.mass >= rep.window_mass / phi_m
    # both masses again as differences of class sums of log p / phi'(p)
    ps = enumerate_ps_primes(spec95, n, table_1e6)

    def window_sum(q, a):
        return (count_in_class(ps, n, q, a, "log_over_phiprime")
                - count_in_class(ps, n // 2, q, a, "log_over_phiprime"))

    scale = phi_m / (rep.m * rep.N)
    assert rep.window_mass == pytest.approx(scale * window_sum(1, 0), rel=1e-12)
    assert rep.mass == pytest.approx(scale * window_sum(rep.m, rep.b), rel=1e-12)


def test_transfer_preserves_progressions(spec95, table_1e6):
    n = 2000
    rep = transference_build(spec95, table_1e6, n, override_W=2)
    m, b = rep.m, rep.b
    picked = rep.A * m + b
    down = count_3aps(rep.A, int(rep.A.max()) + 1, mode="integer")
    up = count_3aps(picked, int(picked.max()) + 1, mode="integer")
    assert down.nontrivial == up.nontrivial
    assert down.size == up.size


def test_next_prime_in():
    assert _next_prime_in(200000, 200100) == 200003
    assert _next_prime_in(0, 2) == 2
    with pytest.raises(NumericalError):
        _next_prime_in(24, 28)


def test_transfer_validation(spec95, table_1e6):
    with pytest.raises(ValueError):
        transference_build(spec95, table_1e6, 8)
    with pytest.raises(ValueError, match="m=2310"):
        transference_build(spec95, table_1e6, 2000, override_W=11)
    with pytest.raises(ValueError, match="table too small"):
        transference_build(spec95, sieve_primes(2), 100, override_W=3)


# -- restriction ensemble -------------------------------------------------------

def test_restriction_control_and_determinism(spec95, table_1e6):
    rep1 = restriction_ratio(spec95, table_1e6, 2000, 3.0, 8, 123)
    rep2 = restriction_ratio(spec95, table_1e6, 2000, 3.0, 8, 123)
    # direct summation at 64 grid points against the transform
    assert abs(rep1.control_ratio - 1.0) <= 1e-9
    assert np.array_equal(rep1.ratios, rep2.ratios)
    assert rep1.max_ratio < 1.0
    assert np.all(rep1.ratios > 0.5)
    assert rep1.grid == 16000


def _streamed_norm(positions, weights, grid, r):
    # restriction_ratio's route for one weight row: the streamed doubled grid
    total, even, _ = zn_fourier.grid_power_sums(positions, [weights], 2 * grid, r)
    return _refined_norm(total[0], even[0], 2 * grid, r)


def test_restriction_global_modulation(spec95, table_1e6):
    ps = enumerate_ps_primes(spec95, 2000, table_1e6)
    ones = np.ones(ps.members.size, dtype=complex)
    base = _streamed_norm(ps.members, ones, 8192, 3.0)
    rotated = _streamed_norm(ps.members, np.exp(0.7j) * ones, 8192, 3.0)
    assert rotated == pytest.approx(base, rel=1e-12)


def _dense_norm(positions, weights, grid, r):
    # the doubled grid held whole: one transform, then the guarded norm
    pw = np.abs(zn_fourier.sparse_fourier_on_grid(positions, weights, 2 * grid)) ** r
    return _refined_norm(pw.sum(), pw[::2].sum(), pw.size, r)


@pytest.mark.parametrize("N, grid, r", [
    (10 ** 5, 8 * 10 ** 5, 3.0),   # the restrict default: 50 rows of 32000
    (2000, 8009, 3.0),             # grid prime, so S = 2
    (2000, 16000, 4.5),
])
def test_streamed_norm_matches_dense(spec95, table_1e6, N, grid, r):
    pos = enumerate_ps_primes(spec95, N, table_1e6).members
    rng = np.random.default_rng(N + grid)
    coeff = np.exp(2j * np.pi * rng.random(pos.size))
    for w in (coeff, np.ones(pos.size, dtype=complex)):
        got = _streamed_norm(pos, w, grid, r)
        assert got == pytest.approx(_dense_norm(pos, w, grid, r), rel=1e-12)


def test_restriction_ratios_match_dense_route(spec95, table_1e6):
    N, r, trials, seed = 2000, 3.0, 4, 77
    rep = restriction_ratio(spec95, table_1e6, N, r, trials, seed)
    pos = enumerate_ps_primes(spec95, N, table_1e6).members
    *seqs, _ = np.random.SeedSequence(seed).spawn(trials + 1)
    denom = _dense_norm(pos, np.ones(pos.size, dtype=complex), 8 * N, r)
    for t, seq in enumerate(seqs):
        rng = np.random.Generator(np.random.Philox(seq))
        coeff = np.exp(1j * 2.0 * np.pi * rng.random(pos.size))
        want = _dense_norm(pos, coeff, 8 * N, r) / denom
        assert rep.ratios[t] == pytest.approx(want, rel=1e-12)


def test_restriction_threads_bitwise_equal(spec95, table_1e6):
    one = restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5, threads=1)
    two = restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5, threads=2)
    assert np.array_equal(one.ratios, two.ratios)
    assert one.control_ratio == two.control_ratio
    with pytest.raises(ValueError):
        restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5, threads=0)


def test_restriction_passes_and_threads_bitwise_equal(spec95, table_1e6, monkeypatch):
    # one pass over the grid rows or several, on any thread count, gives
    # bitwise the same ratios and control
    want = restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5)
    got = restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5, threads=3)
    assert got.ratios.tobytes() == want.ratios.tobytes()
    assert got.control_ratio == want.control_ratio
    n = enumerate_ps_primes(spec95, 2000, table_1e6).members.size
    calls = []
    real = zn_fourier.grid_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(zn_fourier, "grid_power_sums", counted)
    monkeypatch.setattr(roth, "_COEFF_BYTES", 3 * 16 * n)
    for threads in (1, 2):
        calls.clear()
        got = restriction_ratio(spec95, table_1e6, 2000, 3.0, 7, 5, threads=threads)
        assert calls == [3, 3, 2]
        assert got.ratios.tobytes() == want.ratios.tobytes()
        assert got.control_ratio == want.control_ratio


def test_refinement_guard_raises(spec95, table_1e6, monkeypatch):
    # 1 - e(j/2) vanishes on the even (base) points and is 2 on the odd ones
    with pytest.raises(NumericalError):
        _streamed_norm(np.array([0, 4096]), np.array([1.0, -1.0]), 4096, 3.0)
    real = zn_fourier.grid_power_sums

    def skewed(*args, **kwargs):
        total, even, vals = real(*args, **kwargs)
        return total, 0.9 * even, vals

    monkeypatch.setattr(zn_fourier, "grid_power_sums", skewed)
    for threads in (1, 2):
        with pytest.raises(NumericalError):
            restriction_ratio(spec95, table_1e6, 2000, 3.0, 3, 1, threads=threads)


def test_restriction_validation(spec95, table_1e6):
    with pytest.raises(ValueError):
        restriction_ratio(spec95, table_1e6, 2000, 0.0, 5, 1)
    with pytest.raises(ValueError):
        restriction_ratio(spec95, table_1e6, 2000, 3.0, 0, 1)
    with pytest.raises(ValueError, match="no floor-image primes"):
        restriction_ratio(spec95, table_1e6, 1, 3.0, 5, 1)


# -- spectral decay and smoothing ----------------------------------------------

def sup_decay(spec, table, N_list):
    """Sup over nonzero grid frequencies of |F[lambda_h - lambda]| on {0..N-1}
    (W = 1) for each N, read off the error term's route one, and the log-log
    slope of the sups."""
    inputs = error_term_inputs(spec, max(N_list) - 1, 1, 0, table)
    sups = [float(np.max(error_term_sup(inputs, N - 1).per_xi[1:])) / N
            for N in N_list]
    slope = np.polyfit(np.log(N_list), np.log(np.maximum(sups, 1e-300)), 1)[0]
    return sups, float(slope)


def test_sup_decay_identity_map(table_1e6):
    spec = pure_power(1.0)
    sups, slope = sup_decay(spec, table_1e6, [10 ** 4, 10 ** 5])
    assert all(s == 0.0 for s in sups)
    assert abs(slope) < 1e-9


def test_sup_decay_negative_slope(spec95, table_1e6):
    sups, slope = sup_decay(spec95, table_1e6, [10 ** 4, 3 * 10 ** 4, 10 ** 5])
    assert sups[0] > sups[1] > sups[2] > 0
    print(f"sup decay slope: {slope:.4f}")
    assert slope < -0.2


def test_smoothing_chain_random_triples():
    rng = np.random.default_rng(17)
    N = 1009
    for trial in range(10):
        w = rng.random(N) * (rng.random(N) < 0.05)
        a = WeightedSequence(N, w, "test")
        report = spectrum_and_bohr(a, 0.4 * a.mass, 0.3)
        out = smoothing_bound_chain(a, report)
        assert out["identity_gap"] <= 1e-9
        assert abs(out["frequency_sum"]) <= out["triangle_bound"] + 1e-9
        assert abs(out["difference"]) <= out["triangle_bound"] + 1e-9


def test_smoothing_chain_bitwise_the_separate_transforms():
    # the chain transforms a and beta once; it matches bitwise the composition
    # of smooth with a fresh trilinear_fft or dft for every quantity
    rng = np.random.default_rng(23)
    N = 1009
    for _ in range(3):
        w = rng.random(N) * (rng.random(N) < 0.05)
        report = spectrum_and_bohr(w, 0.4 * w.sum(), 0.3)
        beta = bohr_indicator(report)
        a1 = smooth(w, report)
        lam3_a = trilinear_fft(*([w.astype(complex)] * 3))
        lam3_a1 = trilinear_fft(*([a1.astype(complex)] * 3))
        Fa = dft(w.astype(complex))
        Fb = dft(beta.astype(complex))
        idx = (-2 * np.arange(N)) % N
        mult = Fb ** 4 * Fb[idx] ** 2 - 1.0
        freq_sum = complex(np.sum(Fa ** 2 * Fa[idx] * mult) / N)
        diff = lam3_a1 - lam3_a
        triangle = float(np.sum(np.abs(Fa) ** 2 * np.abs(Fa[idx]) * np.abs(mult)) / N)
        assert smoothing_bound_chain(w, report) == {
            "difference": diff, "frequency_sum": freq_sum,
            "identity_gap": abs(diff - freq_sum), "triangle_bound": triangle}


def test_smoothing_chain_takes_four_transforms(monkeypatch):
    # F[a], F[beta], one inverse of F[a] F[beta]^2 for a1, and F[a1]
    rng = np.random.default_rng(31)
    N = 1009
    w = rng.random(N) * (rng.random(N) < 0.05)
    report = spectrum_and_bohr(w, 0.4 * w.sum(), 0.3)
    lengths = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(x, *args, _fn=getattr(np.fft, name), **kwargs):
            lengths.append(np.shape(x)[-1])
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    smoothing_bound_chain(w, report)
    assert lengths == [N] * 4


def test_smoothing_chain_degenerate_bohr():
    # beta concentrated at 0 smooths nothing: the difference vanishes
    N = 101
    w = np.zeros(N)
    w[[3, 10, 44]] = 1.0
    a = WeightedSequence(N, w, "test")
    report = spectrum_and_bohr(a, 0.5, 1e-3)  # tiny eps forces B = {0}
    out = smoothing_bound_chain(a, report)
    assert out["identity_gap"] <= 1e-9


def test_smoothing_chain_takes_plain_arrays():
    rng = np.random.default_rng(29)
    N = 1009
    w = rng.random(N) * (rng.random(N) < 0.05)
    report = spectrum_and_bohr(w, 0.4 * w.sum(), 0.3)
    assert smoothing_bound_chain(w, report) == smoothing_bound_chain(
        WeightedSequence(N, w, "test"), report)


def test_smoothing_chain_even_N():
    a = WeightedSequence(10, np.ones(10), "test")
    report = spectrum_and_bohr(a, 0.5, 0.3)
    with pytest.raises(ValueError):
        smoothing_bound_chain(a, report)
