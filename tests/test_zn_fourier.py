import numpy as np
import pytest

from psroth import zn_fourier

from psroth import (
    dft,
    fourier_on_grid,
    grid_power_sums,
    inverse_dft,
    sparse_fourier_on_grid,
    trilinear_direct,
    trilinear_fft,
)

RNG = np.random.default_rng(314159)


def dft_matrix_oracle(vals):
    # direct O(N^2) definition, nothing shared with the implementation
    N = len(vals)
    xs = np.arange(N)
    W = np.exp(-2j * np.pi * np.outer(xs, xs) / N)
    return W @ np.asarray(vals, dtype=complex)


def random_complex(N):
    return RNG.standard_normal(N) + 1j * RNG.standard_normal(N)


@pytest.mark.parametrize("N", [1, 2, 5, 32, 64, 101, 128, 257, 1009])
def test_dft_matches_matrix_oracle(N):
    f = random_complex(N)
    got = dft(f)
    want = dft_matrix_oracle(f)
    scale = np.max(np.abs(want)) or 1.0
    assert np.max(np.abs(got - want)) < 1e-9 * scale


def test_delta_and_constant():
    d0 = np.zeros(7, dtype=complex)
    d0[0] = 1.0
    assert np.allclose(dft(d0), np.ones(7))
    ones = np.ones(7, dtype=complex)
    F = dft(ones)
    assert F[0] == pytest.approx(7)
    assert np.max(np.abs(F[1:])) < 1e-12


@pytest.mark.parametrize("N", [32, 101, 1009])
def test_inversion_scaling(N):
    f = random_complex(N)
    back = inverse_dft(dft(f))
    assert np.max(np.abs(back - N * f)) < 1e-9 * N * np.max(np.abs(f))


@pytest.mark.parametrize("N", [32, 101, 1009])
def test_parseval(N):
    f = random_complex(N)
    lhs = np.sum(np.abs(f) ** 2)
    rhs = np.sum(np.abs(dft(f)) ** 2) / N
    assert lhs == pytest.approx(rhs, rel=1e-9)


ENTRY_POINTS = {
    "dft": dft,
    "inverse_dft": inverse_dft,
    "trilinear_fft": lambda x: trilinear_fft(x, np.ones(x.size), np.ones(x.size)),
    "trilinear_direct": lambda x: trilinear_direct(x, np.ones(x.size), np.ones(x.size)),
}


@pytest.mark.parametrize("bad", [np.empty(0, dtype=complex),
                                 np.array([np.inf, 1.0, 1.0], dtype=complex),
                                 np.array([np.nan, 1.0, 1.0], dtype=complex)],
                         ids=["empty", "inf", "nan"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_input_rejected(name, bad):
    with pytest.raises(ValueError):
        ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("N", [5, 101, 1009])
def test_trilinear_agreement(N):
    for _ in range(8):
        f, g, h = (random_complex(N) for _ in range(3))
        # a repeated argument takes the path that transforms it once
        for args in ((f, g, h), (f, f, h), (f, g, f), (f, f, f)):
            a = trilinear_fft(*args)
            b = trilinear_direct(*args)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1.0), N


def test_trilinear_pinned_values():
    d0 = np.zeros(5, dtype=complex)
    d0[0] = 1.0
    assert trilinear_fft(d0, d0, d0) == pytest.approx(1.0)
    ones = np.ones(5, dtype=complex)
    assert trilinear_fft(ones, ones, ones) == pytest.approx(25.0)
    ind = np.zeros(5, dtype=complex)
    ind[[0, 1, 2]] = 1.0
    assert trilinear_fft(ind, ind, ind) == pytest.approx(5.0)
    assert trilinear_direct(ind, ind, ind) == pytest.approx(5.0)


def test_trilinear_indicator_brute():
    # brute force over all (x, d) for a random indicator
    N = 101
    mask = RNG.random(N) < 0.3
    cnt = sum(1 for x in range(N) for d in range(N)
              if mask[x] and mask[(x + d) % N] and mask[(x + 2 * d) % N])
    a = np.where(mask, 1.0 + 0j, 0.0)
    assert trilinear_fft(a, a, a) == pytest.approx(cnt, abs=1e-6)
    assert trilinear_direct(a, a, a) == pytest.approx(cnt, abs=1e-6)
    assert cnt >= int(mask.sum())  # diagonal d=0 floor


def python_trilinear(f, g, h):
    """sum_{x,d} f(x) g(x+d) h(x+2d) by a pure-Python double loop."""
    N = len(f)
    return sum(f[x] * g[(x + d) % N] * h[(x + 2 * d) % N]
               for x in range(N) for d in range(N))


def test_trilinear_direct_takes_no_transform(monkeypatch):
    # the oracle must not share the frequency route's machinery
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route took a transform")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    for N in (1, 2, 6, 101, 1009):
        f, g, h = (random_complex(N) for _ in range(3))
        assert np.isfinite(trilinear_direct(f, g, h))
    for N in list(range(1, 32, 2)) + [2, 4, 6, 10, 16, 30]:
        f, g, h = (random_complex(N) for _ in range(3))
        want = python_trilinear(f, g, h)
        assert abs(trilinear_direct(f, g, h) - want) <= 1e-12 * max(abs(want), 1.0), N


@pytest.mark.parametrize("N", [5, 101, 1009])
def test_trilinear_fft_one_call_per_form(N, monkeypatch):
    f, g, h = (random_complex(N) for _ in range(3))
    F = {id(v): np.fft.fft(v) for v in (f, g, h)}
    idx = (-2 * np.arange(N)) % N
    shapes = []
    fft = np.fft.fft

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recording)
    for args, shape in (((f, f, f), (N,)), ((f, g, f), (2, N)),
                        ((f, f, h), (2, N)), ((f, g, h), (3, N))):
        shapes.clear()
        got = trilinear_fft(*args)
        # one call, on the distinct inputs only, and rows bitwise the single-call transforms
        assert shapes == [shape], args
        Ff, Fg, Fh = (F[id(v)] for v in args)
        assert got == complex(np.sum(Ff * Fg[idx] * Fh) / N)


def test_trilinear_even_N_rejected():
    ones = np.ones(6, dtype=complex)
    with pytest.raises(ValueError):
        trilinear_fft(ones, ones, ones)


def test_fourier_on_grid_sign_convention():
    # positive-exponent transform: F(xi) = sum f(n) e^{2 pi i n xi}
    f = np.array([1.0, 1.0], dtype=complex)
    G = 64
    got = fourier_on_grid(f, G)
    xs = np.arange(G) / G
    want_sq = 2.0 + 2.0 * np.cos(2 * np.pi * xs)
    assert np.max(np.abs(np.abs(got) ** 2 - want_sq)) < 1e-12


def test_fourier_on_grid_matches_conjugated_dft():
    N = 32
    f = random_complex(N)
    grid_vals = fourier_on_grid(f, N)
    assert np.max(np.abs(grid_vals - np.conj(dft(np.conj(f))))) < 1e-9


def test_fourier_on_grid_delta():
    f = np.array([1.0 + 0j])
    assert np.allclose(fourier_on_grid(f, 17), np.ones(17))


def test_fourier_on_grid_support_longer_than_grid():
    # folding: indices collapse mod grid size
    f = np.zeros(10, dtype=complex)
    f[7] = 1.0
    got = fourier_on_grid(f, 3)
    xs = np.arange(3) / 3
    want = np.exp(2j * np.pi * 7 * xs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sparse_fourier_on_grid():
    G = 16
    positions = np.array([3, 100, 2 ** 40])
    weights = np.array([1.0, -2.0, 0.5])
    got = sparse_fourier_on_grid(positions, weights, G)
    xs = np.arange(G) / G
    # e(p j/G) = e((p mod G) j/G); fold before exponentiating, otherwise the
    # oracle itself drowns in argument-reduction error at p = 2^40
    want = sum(w * np.exp(2j * np.pi * (p % G) * xs)
               for p, w in zip(positions, weights))
    assert np.max(np.abs(got - want)) < 1e-9


def _dense_power_sums(positions, weights, G, r, at):
    vals = sparse_fourier_on_grid(positions, weights, G)
    pw = np.abs(vals) ** r
    return pw.sum(), pw[::2].sum(), vals[at]


def _one_row(positions, weights, G, r, at=()):
    # grid_power_sums for a single weight row
    total, even, vals = grid_power_sums(positions, [weights], G, r, at=at)
    return total[0], even[0], vals[0]


@pytest.mark.parametrize("G, r, row_length", [
    (2 * 8009, 3.0, None),  # G/2 prime: two rows of prime length 8009
    (1 << 18, 4.5, None),   # four rows of 2^16
    (6, 1.0, None),         # two rows of 3
    (1 << 13, 3.0, 16),     # 512 rows of 16
])
def test_grid_power_sums_match_dense(G, r, row_length, monkeypatch):
    if row_length:
        monkeypatch.setattr(zn_fourier, "_ROW_LENGTH", row_length)
        assert zn_fourier._row_count(G) == G // row_length
    n = min(3000, 4 * G)
    positions = np.sort(RNG.choice(5 * G, size=n, replace=False))  # folds
    weights = np.exp(2j * np.pi * RNG.random(n)) * RNG.random(n)
    at = RNG.choice(G, size=min(G, 64), replace=False)
    total, even, vals = _one_row(positions, weights, G, r, at=at)
    ref_total, ref_even, ref_vals = _dense_power_sums(positions, weights, G, r, at)
    assert total == pytest.approx(ref_total, rel=1e-12)
    assert even == pytest.approx(ref_even, rel=1e-12)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * np.max(np.abs(ref_vals))


@pytest.mark.parametrize("r", [2, 3.0, 4.5])
def test_grid_power_sums_bitwise_row_by_row(r, monkeypatch):
    # the reused row buffers give bitwise the sums of a fresh transform and a
    # fresh |row| ** r per row (r = 2 takes numpy's square for both)
    monkeypatch.setattr(zn_fourier, "_ROW_LENGTH", 64)
    G = 1 << 12
    positions = RNG.integers(0, 2 ** 40, 500)
    weights = np.exp(2j * np.pi * RNG.random(500))
    S = zn_fourier._row_count(G)
    rows = [sparse_fourier_on_grid(
        positions, weights * np.exp(2j * np.pi * (positions % G * s % G / G)), G // S)
        for s in range(S)]
    sums = np.array([np.sum(np.abs(row) ** r) for row in rows])
    total, even, vals = _one_row(positions, weights, G, r, at=[3, G - 1])
    assert (total, even) == (float(sums.sum()), float(sums[::2].sum()))
    assert vals.tolist() == [rows[3 % S][3 // S], rows[(G - 1) % S][(G - 1) // S]]


@pytest.mark.parametrize("r", [2, 3.0, 4.5])
@pytest.mark.parametrize("G", [1 << 12, 2 * 1031])   # S = 64, and S = 2
def test_grid_power_sums_stacked_rows_bitwise(r, G, monkeypatch, fast_switching):
    # a stack of weight rows, on any thread count, gives bitwise one one-row
    # call per row: the shared twist and the deal of grid rows change no bit
    monkeypatch.setattr(zn_fourier, "_ROW_LENGTH", 64)
    positions = RNG.integers(0, 2 ** 40, 500)
    W = np.exp(2j * np.pi * RNG.random((4, 500))) * RNG.random((4, 500))
    W[0] = 1.0
    at = [3, 64, G - 1]
    want = [_one_row(positions, w, G, r, at=at) for w in W]
    for threads in (1, 2, 3, 5):
        totals, evens, vals = grid_power_sums(positions, W, G, r, at=at,
                                              threads=threads)
        assert totals.tolist() == [t for t, _, _ in want]
        assert evens.tolist() == [e for _, e, _ in want]
        assert vals.tobytes() == np.array([v for _, _, v in want]).tobytes()
    with pytest.raises(ValueError):
        grid_power_sums(positions, W, G, r, threads=0)
    with pytest.raises(ValueError):
        grid_power_sums(positions, W[:, :-1], G, r)


def test_row_count():
    # complex rows near 512 KB: 32000 points at both of criterion 6's grids
    assert zn_fourier._row_count(1_600_000) == 50
    assert zn_fourier._row_count(3_200_000) == 100
    assert zn_fourier._row_count(1 << 20) == 32
    assert zn_fourier._row_count(2 * 8009) == 2
    assert zn_fourier._row_count(2 * 200003) == 2
    assert zn_fourier._row_count(2) == 2


def test_grid_power_sums_edge_cases():
    total, even, vals = _one_row([], [], 1 << 17, 3.0, at=[0, 5])
    assert total == even == 0.0 and np.all(vals == 0)
    # no weight rows: empty sums and values
    total, even, vals = grid_power_sums([1, 2], np.empty((0, 2)), 16, 3.0, at=[0])
    assert total.shape == even.shape == (0,) and vals.shape == (0, 1)
    for bad in (dict(grid_size=15), dict(grid_size=0), dict(r=0.0), dict(at=[16]),
                dict(weights=[[1]]), dict(weights=[1, 1]), dict(weights=[[[1, 1]]])):
        args = dict(positions=[1, 2], weights=[[1, 1]], grid_size=16, r=3.0)
        args.update(bad)
        with pytest.raises(ValueError):
            grid_power_sums(**args)


def test_real_weights_fold_bitwise_as_complex():
    # real weights fold as reals; the transform is bitwise the complex one,
    # signed zeros included
    positions = np.concatenate([RNG.integers(0, 2 ** 40, 3000), [5, 5, 5, 1029]])
    weights = np.concatenate([RNG.standard_normal(3000), [0.0, -0.0, 1e-300, -2.5]])
    for G in (1024, 1000, 7):
        got = sparse_fourier_on_grid(positions, weights, G)
        want = sparse_fourier_on_grid(positions, weights.astype(complex), G)
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
