"""Discrete Fourier analysis on Z_N and on integer grids.

Conventions.  On Z_N the forward transform is

    F[f](xi) = sum_x f(x) e(-xi x / N),        e(t) = exp(2 pi i t),

with inverse f(x) = N^{-1} sum_xi F(xi) e(+xi x / N).  On the integers the
grid transform uses the opposite sign, F_Z[f](t) = sum_n f(n) e(+n t) at
t = j/grid; dft of its grid values is grid times f folded mod grid.

Functions on Z_N are plain 1-d complex128 arrays.  Every transform is numpy's
FFT, which handles every length N, prime N included, one call per trilinear
form; the oracle trilinear_direct takes none.  grid_power_sums streams
grid transforms row by row for L^r norms of grids too large to hold: one
pass over the grid rows serves a whole stack of weight rows, and the grid
rows run on the package's ordered pool, run.in_order.
"""

from __future__ import annotations

import math

import numpy as np

from . import run


def _values(f):
    """f as a complex128 array; rejects empty, multi-dimensional or non-finite input."""
    vals = np.asarray(f, dtype=np.complex128)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("expected a nonempty 1-d array")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return vals


def _same_length(*arrays):
    if any(a.size != arrays[0].size for a in arrays):
        raise ValueError("lengths differ")
    return arrays[0].size


def dft(f):
    """Forward transform on Z_N for any N."""
    return np.fft.fft(_values(f))


def trilinear_fft(f, g, h):
    """sum_{x,d in Z_N} f(x) g(x+d) h(x+2d) through the frequency identity
    N^{-1} sum_xi F[f](xi) F[g](-2xi) F[h](xi); N must be odd so that
    xi -> -2xi permutes Z_N.  Its distinct inputs are the rows of one
    transform call (numpy plans each call afresh); a lone one is unstacked."""
    fv, gv, hv = _values(f), _values(g), _values(h)
    N = _same_length(fv, gv, hv)
    if N % 2 == 0:
        raise ValueError("N must be odd")
    rows = [fv] + [v for a, v in ((g, gv), (h, hv)) if a is not f]
    F = np.fft.fft(fv)[None] if len(rows) == 1 else np.fft.fft(np.stack(rows), axis=1)
    Fg = F[0] if g is f else F[1]
    Fh = F[0] if h is f else F[-1]
    return _trilinear_from_transforms(F[0], Fg, Fh)


def _trilinear_from_transforms(Ff, Fg, Fh):
    """The frequency sum of trilinear_fft, N^{-1} sum_xi Ff(xi) Fg(-2xi) Fh(xi),
    from transforms the caller already holds (odd N)."""
    N = Ff.size
    idx = (-2 * np.arange(N)) % N
    return complex(np.sum(Ff * Fg[idx] * Fh) / N)


def trilinear_direct(f, g, h):
    """Same trilinear form by direct summation, with no transform; the oracle.

    With y = x + d it is sum_y g(y) c(2y mod N) for the cyclic convolution
    c(z) = sum_x f(x) h(z - x mod N), taken by np.convolve's O(N^2) lag sums
    over h tiled twice: O(N) memory, any N >= 1.
    """
    fv, gv, hv = _values(f), _values(g), _values(h)
    N = _same_length(fv, gv, hv)
    c = np.convolve(np.tile(hv, 2), fv, mode="valid")[1:]
    return complex(gv @ c[2 * np.arange(N) % N])


def _fold_and_transform(positions, weights, grid_size):
    """sum_k w_k e(+p_k j/grid) for j = 0..grid-1.

    The phase only depends on p mod grid, so supports larger than the grid
    fold exactly onto residues before one inverse-sign transform.  Real
    weights fold as reals (numpy's add.at casting each real to complex is
    slow) and the folded grid is cast once: the real parts add in the same
    order and the imaginary parts stay +0.0, so the transform is bitwise the
    one of the same weights as complex.
    """
    grid_size = int(grid_size)
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    pos = np.asarray(positions, dtype=np.int64)
    w = np.asarray(weights)
    if w.dtype != np.float64:
        w = w.astype(np.complex128, copy=False)
    if pos.ndim != 1 or w.shape != pos.shape:
        raise ValueError("positions and weights must be matching 1-d arrays")
    folded = np.zeros(grid_size, dtype=w.dtype)
    np.add.at(folded, pos % grid_size, w)
    folded = folded.astype(np.complex128, copy=False)
    return np.fft.ifft(folded, norm="forward", out=folded)


# grid_power_sums cuts its grid into rows of about this many points: a
# complex row of 512 KB, which stays in cache through its transform
_ROW_LENGTH = (512 << 10) // np.dtype(np.complex128).itemsize


def _row_count(grid_size):
    """The even divisor S of grid_size whose row length grid_size/S lies
    nearest _ROW_LENGTH by ratio (so twice a prime gives S = 2)."""
    divisors = (d for k in range(1, math.isqrt(grid_size) + 1) if grid_size % k == 0
                for d in (k, grid_size // k))
    return min((S for S in divisors if S % 2 == 0),
               key=lambda S: (abs(math.log(grid_size / S / _ROW_LENGTH)), S))


def grid_power_sums(positions, weights, grid_size, r, at=(), threads=1):
    """L^r data of F_t(j) = sum_k w_tk e(+p_k j/grid) on an even grid, streamed.

    weights holds one row w_t per transform F_t over the same positions.
    Returns, as arrays over t, sum_j |F_t(j)|^r over j = 0..grid-1 and the
    same sum over even j, and F_t at the indices `at` as one row per t,
    while holding one row of the grid at a time.  Each row's results are
    bitwise what a call with that row alone returns.
    With grid = S*L, S even, the grid row s = 0..S-1 holds j = S*c + s, and

        F(S c + s) = sum_k w_k e(p_k s/grid) e(p_k c/L),   c = 0..L-1,

    the twisted weights w_k e(p_k s/grid) folded mod L (exact for any p) and
    transformed at length L.  The twist is taken once per grid row and shared
    by its weight rows.  As S is even, j and s have the same parity: the
    even rows together are the base grid F(2i/grid), i = 0..grid/2-1, whose
    power sum comes out on the side.  F(j) is read from grid row j mod S,
    column j // S.  S is the even divisor of the grid whose row length is
    nearest _ROW_LENGTH; grid/2 prime gives S = 2.

    The grid rows run on `threads` threads (run.in_order), each with its own
    row buffers; a row's sums land in its own slots, added in row order, so
    the result is bitwise the same for every thread count.
    """
    grid_size = int(grid_size)
    if grid_size < 2 or grid_size % 2:
        raise ValueError("grid_size must be even and >= 2")
    if r <= 0:
        raise ValueError("r must be positive")
    pos = np.asarray(positions, dtype=np.int64)
    W = np.asarray(weights, dtype=np.complex128)
    if pos.ndim != 1 or W.ndim != 2 or W.shape[1] != pos.size:
        raise ValueError("weights must hold one row per transform over the 1-d positions")
    at = np.asarray(at, dtype=np.int64)
    if at.ndim != 1 or np.any((at < 0) | (at >= grid_size)):
        raise ValueError("indices must lie in [0, grid_size)")
    S = _row_count(grid_size)
    L = grid_size // S
    shift, fold, at_row = pos % grid_size, pos % L, at % S

    def work(s):
        row, power = np.empty(L, dtype=np.complex128), np.empty(L)
        twist = np.exp(2j * np.pi * (shift * s % grid_size / grid_size))
        cols = at[at_row == s] // S
        sums, values = np.empty(W.shape[0]), np.empty((W.shape[0], cols.size), complex)
        for t in range(W.shape[0]):
            row[:] = 0
            np.add.at(row, fold, W[t] * twist)
            np.fft.ifft(row, norm="forward", out=row)
            # in-place ** takes the same ufunc as |row| ** r (square for r = 2)
            np.abs(row, out=power)
            power **= r
            sums[t] = np.sum(power)
            values[t] = row[cols]
        return sums, values

    # numpy's FFT releases the GIL, so the rows' transforms run in parallel
    sums, values = np.empty((W.shape[0], S)), np.empty((W.shape[0], at.size), complex)
    for s, (row_sums, row_values) in enumerate(run.in_order(work, range(S), threads)):
        sums[:, s] = row_sums
        values[:, at_row == s] = row_values
    return sums.sum(axis=1), sums[:, ::2].sum(axis=1), values


def fourier_on_grid(values, grid_size):
    """F_Z[f](j/grid) = sum_n f(n) e(+ n j / grid) for j = 0..grid-1.

    f is the finitely supported sequence values[n] at n = 0..len-1.
    """
    positions = np.arange(np.size(values), dtype=np.int64)
    return _fold_and_transform(positions, values, grid_size)


def sparse_fourier_on_grid(positions, weights, grid_size):
    """fourier_on_grid for a sparsely supported sequence: sum_k w_k e(+p_k j/grid)."""
    return _fold_and_transform(positions, weights, grid_size)
