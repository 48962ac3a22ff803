"""Discrete Fourier analysis on Z_N and on integer grids.

Conventions.  On Z_N the forward transform is

    F[f](xi) = sum_x f(x) e(-xi x / N),        e(t) = exp(2 pi i t),

and inverse_dft returns sum_xi F(xi) e(+xi x / N) = N * f(x), i.e. without
the 1/N normalization.  On the integers the grid transform uses the opposite
sign, F_Z[f](t) = sum_n f(n) e(+n t), evaluated at t = j/grid.

Functions on Z_N are plain 1-d complex128 arrays.  Every transform is numpy's
FFT, which handles every length N, prime N included.  grid_power_sums streams
a grid transform row by row for L^r norms of grids too large to hold.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def inverse_dft(F):
    """Unnormalized inverse: applying it to dft(f) returns N * f."""
    return np.fft.ifft(_values(F), norm="forward")


def convolve(f, g):
    """Cyclic convolution (f*g)(x) = sum_y f(x-y) g(y) via the product rule."""
    fv, gv = _values(f), _values(g)
    _same_length(fv, gv)
    return np.fft.ifft(np.fft.fft(fv) * np.fft.fft(gv))


def trilinear_fft(f, g, h):
    """sum_{x,d in Z_N} f(x) g(x+d) h(x+2d) through the frequency identity
    N^{-1} sum_xi F[f](xi) F[g](-2xi) F[h](xi); N must be odd so that
    xi -> -2xi permutes Z_N.  An argument passed again as g or h is
    transformed once."""
    fv, gv, hv = _values(f), _values(g), _values(h)
    N = _same_length(fv, gv, hv)
    if N % 2 == 0:
        raise ValueError("N must be odd")
    Ff = np.fft.fft(fv)
    Fg = Ff if g is f else np.fft.fft(gv)
    Fh = Ff if h is f else np.fft.fft(hv)
    idx = (-2 * np.arange(N)) % N
    return complex(np.sum(Ff * Fg[idx] * Fh) / N)


def trilinear_direct(f, g, h):
    """Same trilinear form by the O(N^2) double sum; the oracle route.

    Row x of G holds g(x+d) and row x of H holds h(x+2d) for d = 0..N-1, both
    strided views into tiled copies, so the sum needs O(N) extra memory.
    """
    fv, gv, hv = _values(f), _values(g), _values(h)
    N = _same_length(fv, gv, hv)
    G = sliding_window_view(np.tile(gv, 2), N)[:N]
    H = sliding_window_view(np.tile(hv, 3), 2 * N - 1)[:N, ::2]
    return complex(fv @ np.einsum("xd,xd->x", G, H))


def _positions_and_weights(positions, weights):
    """int64 positions and weights, float64 weights kept real, others complex."""
    pos = np.asarray(positions, dtype=np.int64)
    w = np.asarray(weights)
    if w.dtype != np.float64:
        w = w.astype(np.complex128, copy=False)
    if pos.shape != w.shape or pos.ndim != 1:
        raise ValueError("positions and weights must be matching 1-d arrays")
    return pos, w


def _fold_and_transform(positions, weights, grid_size, out=None):
    """sum_k w_k e(+p_k j/grid) for j = 0..grid-1.

    The phase only depends on p mod grid, so supports larger than the grid
    fold exactly onto residues before one inverse-sign transform.  Real
    weights fold as reals (numpy's add.at casting each real to complex is
    slow) and the folded grid is cast once: the real parts add in the same
    order and the imaginary parts stay +0.0, so the transform is bitwise the
    one of the same weights as complex.  out, when given, is a zeroed
    complex128 array of grid_size that the weights fold into and that is
    transformed in place, for callers that reuse one buffer.
    """
    grid_size = int(grid_size)
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    pos, w = _positions_and_weights(positions, weights)
    folded = np.zeros(grid_size, dtype=w.dtype) if out is None else out
    np.add.at(folded, pos % grid_size, w)
    folded = folded.astype(np.complex128, copy=False)
    return np.fft.ifft(folded, norm="forward", out=folded)


# grid_power_sums cuts its grid into rows of about this many points
_ROW_LENGTH = 1 << 16


def _row_count(grid_size):
    """The even divisor S of grid_size whose row length grid_size/S lies
    nearest _ROW_LENGTH by ratio (so twice a prime gives S = 2)."""
    divisors = (d for k in range(1, math.isqrt(grid_size) + 1) if grid_size % k == 0
                for d in (k, grid_size // k))
    return min((S for S in divisors if S % 2 == 0),
               key=lambda S: (abs(math.log(grid_size / S / _ROW_LENGTH)), S))


def grid_power_sums(positions, weights, grid_size, r, at=()):
    """L^r data of F(j) = sum_k w_k e(+p_k j/grid) on an even grid, streamed.

    Returns (sum_j |F(j)|^r over j = 0..grid-1, the same sum over even j,
    F at the indices `at`) while holding one row of the grid at a time, in
    one complex and one real buffer reused by every row.
    With grid = S*L, S even, the row s = 0..S-1 holds j = S*c + s, and

        F(S c + s) = sum_k w_k e(p_k s/grid) e(p_k c/L),   c = 0..L-1,

    one _fold_and_transform of the twisted weights w_k e(p_k s/grid) onto
    length L (the fold mod L is exact for any p).  As S is even, j and s
    have the same parity: the even rows together are the base grid F(2i/grid),
    i = 0..grid/2-1, whose power sum comes out on the side.  F(j) is read from
    row j mod S, column j // S.  S is the even divisor of the grid whose row
    length is nearest _ROW_LENGTH; grid/2 prime gives S = 2.
    """
    grid_size = int(grid_size)
    if grid_size < 2 or grid_size % 2:
        raise ValueError("grid_size must be even and >= 2")
    if r <= 0:
        raise ValueError("r must be positive")
    pos, w = _positions_and_weights(positions, weights)
    at = np.asarray(at, dtype=np.int64)
    if at.ndim != 1 or np.any((at < 0) | (at >= grid_size)):
        raise ValueError("indices must lie in [0, grid_size)")
    S = _row_count(grid_size)
    L = grid_size // S
    shift = pos % grid_size
    sums = np.empty(S)
    values = np.empty(at.size, dtype=np.complex128)
    row, power = np.empty(L, dtype=np.complex128), np.empty(L)
    for s in range(S):
        twisted = w * np.exp(2j * np.pi * (shift * s % grid_size / grid_size))
        row[:] = 0
        _fold_and_transform(pos, twisted, L, out=row)
        # in-place ** takes the same ufunc as |row| ** r (square for r = 2)
        np.abs(row, out=power)
        power **= r
        sums[s] = np.sum(power)
        in_row = at % S == s
        values[in_row] = row[at[in_row] // S]
    return float(sums.sum()), float(sums[::2].sum()), values


def fourier_on_grid(values, grid_size):
    """F_Z[f](j/grid) = sum_n f(n) e(+ n j / grid) for j = 0..grid-1.

    f is the finitely supported sequence values[n] at n = 0..len-1.
    """
    positions = np.arange(np.size(values), dtype=np.int64)
    return _fold_and_transform(positions, values, grid_size)


def sparse_fourier_on_grid(positions, weights, grid_size):
    """fourier_on_grid for a sparsely supported sequence: sum_k w_k e(+p_k j/grid)."""
    return _fold_and_transform(positions, weights, grid_size)
