"""Weights on {0..N-1}: large spectra, Bohr sets and smoothing.

Weights are plain float arrays, checked by _weights; the W-trick measure of
the floor-image primes is roth.transference_build's.  spectrum_and_bohr
computes large-coefficient frequencies by exhaustive scan and the Bohr set
B = {x : ||x xi / N|| <= eps for all xi}, pruned one frequency at a time,
and rechecks the pigeonhole bound |B| >= eps^k N.  smooth convolves twice
with the normalized Bohr indicator, through one product F[a] F[beta]^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import zn_fourier
from .errors import NumericalError


@dataclass
class WeightedSequence:
    """Nonnegative weights on {0..N-1} with a provenance tag."""

    N: int
    weights: np.ndarray
    tag: str

    def __post_init__(self):
        self.weights = _weights(self.weights, self.N)

    @property
    def mass(self):
        return float(np.sum(self.weights))


def _weights(a, N=None):
    """a (or a WeightedSequence's weights) as a float array; ValueError
    unless it is 1-d, finite, nonnegative and, given N, of length N."""
    w = np.asarray(a.weights if isinstance(a, WeightedSequence) else a, dtype=float)
    if w.ndim != 1 or N is not None and w.size != N:
        raise ValueError("weights must be 1-d, of length N when N is given")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    return w


@dataclass
class SpectrumReport:
    """Large spectrum and Bohr set of a weighted sequence."""

    N: int
    frequencies: np.ndarray
    bohr: np.ndarray

    @property
    def k(self):
        return int(self.frequencies.size)


def bohr_set(freqs, N, epsilon):
    """{x : ||x*xi/N|| <= epsilon for every xi in freqs}, ascending int64:
    from all of 0..N-1, each frequency in turn keeps only the survivors x
    with ||x*xi/N|| <= epsilon, so no array is longer than N."""
    xs = np.arange(N, dtype=np.int64)
    for xi in np.asarray(freqs, dtype=np.int64):
        frac = xs * xi % N / N
        xs = xs[np.minimum(frac, 1.0 - frac) <= epsilon]
    return xs


def spectrum_and_bohr(a, delta, epsilon):
    """Exhaustive large spectrum {xi : |F[a](xi)| >= delta} and its Bohr set.

    The construction-time recheck raises NumericalError below the pigeonhole
    bound |B| >= eps^k N (with a 1e-12 relative float guard).
    """
    if not (0 < delta):
        raise ValueError("delta must be positive")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    weights = _weights(a)
    F = zn_fourier.dft(weights)
    N = weights.size
    freqs = np.flatnonzero(np.abs(F) >= delta).astype(np.int64)
    bohr = bohr_set(freqs, N, epsilon)
    lower = epsilon ** freqs.size * N * (1.0 - 1e-12)
    if bohr.size < lower:
        raise NumericalError(
            f"Bohr set size {bohr.size} below pigeonhole bound {lower}")
    return SpectrumReport(N, freqs, bohr)


def bohr_indicator(report):
    """beta = 1_B / |B| as a float array."""
    w = np.zeros(report.N)
    w[report.bohr] = 1.0 / report.bohr.size
    return w


def smooth(a, report):
    """a1 = a * beta * beta (double cyclic convolution, mass preserved)."""
    return _smoothed_with_transforms(a, report)[2]


def _smoothed_with_transforms(a, report):
    """(F[a], F[beta], a * beta * beta): smooth's result with the transforms
    it took, which the smoothing chain reuses.  The double convolution is
    the one inverse transform (np.fft.ifft, with its 1/N) of F[a] F[beta]^2,
    and a1 is its real part clamped at 0: a1 comes from real space.
    """
    Fa = zn_fourier.dft(_weights(a, report.N))
    Fb = zn_fourier.dft(bohr_indicator(report))
    out = np.fft.ifft(Fa * Fb ** 2).real
    if np.min(out) < -1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise NumericalError("convolution produced materially negative weights")
    return Fa, Fb, np.maximum(out, 0.0)
