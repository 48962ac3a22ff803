"""Discrete Fourier analysis on Z_N and on integer grids.

Conventions.  On Z_N the forward transform is

    F[f](xi) = sum_x f(x) e(-xi x / N),        e(t) = exp(2 pi i t),

and inverse_dft returns sum_xi F(xi) e(+xi x / N) = N * f(x), i.e. without
the 1/N normalization.  On the integers the grid transform uses the opposite
sign, F_Z[f](t) = sum_n f(n) e(+n t), evaluated at t = j/grid.

Functions on Z_N are plain 1-d complex128 arrays.  Every transform is numpy's
FFT, which handles every length N, prime N included.
"""

from __future__ import annotations

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
    return complex(np.einsum("x,xd,xd->", fv, G, H))


def _fold_and_transform(positions, weights, grid_size):
    """sum_k w_k e(+p_k j/grid) for j = 0..grid-1.

    The phase only depends on p mod grid, so supports larger than the grid
    fold exactly onto residues before one inverse-sign transform.
    """
    grid_size = int(grid_size)
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    pos = np.asarray(positions, dtype=np.int64) % grid_size
    w = np.asarray(weights, dtype=np.complex128)
    if pos.shape != w.shape or pos.ndim != 1:
        raise ValueError("positions and weights must be matching 1-d arrays")
    folded = np.bincount(pos, weights=w.real, minlength=grid_size) + \
        1j * np.bincount(pos, weights=w.imag, minlength=grid_size)
    return np.fft.ifft(folded, norm="forward")


def fourier_on_grid(values, grid_size, offset=0):
    """F_Z[f](j/grid) = sum_n f(n) e(+ n j / grid) for j = 0..grid-1.

    f is the finitely supported sequence values[k] at n = offset + k.
    """
    positions = int(offset) + np.arange(np.size(values), dtype=np.int64)
    return _fold_and_transform(positions, values, grid_size)


def sparse_fourier_on_grid(positions, weights, grid_size):
    """fourier_on_grid for a sparsely supported sequence: sum_k w_k e(+p_k j/grid)."""
    return _fold_and_transform(positions, weights, grid_size)
