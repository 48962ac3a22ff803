"""Weights on {0..N-1}: large spectra, Bohr sets and smoothing.

The weights come as a plain float array or a WeightedSequence; the W-trick
measure of the floor-image primes is roth.transference_build's.
spectrum_and_bohr computes large-coefficient frequencies by exhaustive scan
and the corresponding Bohr set B = {x : ||x xi / N|| <= eps for all xi}; the
pigeonhole lower bound |B| >= eps^k N is rechecked on construction.
smoothing convolves twice with the normalized Bohr indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import zn_fourier

# bohr_set scans the x in chunks of this many points
_CHUNK = 1 << 16


@dataclass
class WeightedSequence:
    """Nonnegative weights on {0..N-1} with a provenance tag."""

    N: int
    weights: np.ndarray
    tag: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.N,):
            raise ValueError("weights must have shape (N,)")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        self.weights = w

    @property
    def mass(self):
        return float(np.sum(self.weights))


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
    """{x : ||x*xi/N|| <= epsilon for every xi in freqs}, exhaustive scan."""
    freqs = np.asarray(freqs, dtype=np.int64)
    blocks = []
    for lo in range(0, N, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, N), dtype=np.int64)
        frac = (xs[None, :] * freqs[:, None]) % N / N
        dist = np.minimum(frac, 1.0 - frac)
        good = np.all(dist <= epsilon, axis=0) if freqs.size else np.ones(xs.size, bool)
        blocks.append(xs[good])
    return np.concatenate(blocks) if blocks else np.empty(0, np.int64)


def spectrum_and_bohr(a, delta, epsilon):
    """Exhaustive large spectrum {xi : |F[a](xi)| >= delta} and its Bohr set.

    The construction-time recheck asserts the pigeonhole bound
    |B| >= eps^k N (with a 1e-12 relative float guard).
    """
    if not (0 < delta):
        raise ValueError("delta must be positive")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    weights = a.weights if isinstance(a, WeightedSequence) else np.asarray(a)
    F = zn_fourier.dft(weights.astype(complex))
    N = weights.size
    freqs = np.flatnonzero(np.abs(F) >= delta).astype(np.int64)
    bohr = bohr_set(freqs, N, epsilon)
    lower = epsilon ** freqs.size * N * (1.0 - 1e-12)
    if bohr.size < lower:
        raise AssertionError(
            f"Bohr set size {bohr.size} below pigeonhole bound {lower}")
    return SpectrumReport(N, freqs, bohr)


def bohr_indicator(report):
    """beta = 1_B / |B| as a weighted sequence."""
    w = np.zeros(report.N)
    w[report.bohr] = 1.0 / report.bohr.size
    return WeightedSequence(report.N, w, "bohr")


def smooth(a, report):
    """a1 = a * beta * beta (double cyclic convolution, mass preserved)."""
    return WeightedSequence(report.N, _smoothed_with_transforms(a, report)[2], "smoothed")


def _smoothed_with_transforms(a, report):
    """(F[a], F[beta], the weights of a * beta * beta): smooth's result with the
    transforms it took, which the smoothing chain reuses.

    Both convolutions take the product rule with F[beta] transformed once:
    step = a * beta from F[a] F[beta], then step * beta from F[step] F[beta],
    each inverse np.fft.ifft with its 1/N, so step(x) = sum_y a(x-y) beta(y).
    """
    weights = a.weights if isinstance(a, WeightedSequence) else np.asarray(a, dtype=float)
    if weights.size != report.N:
        raise ValueError("length mismatch")
    Fa = zn_fourier.dft(weights.astype(complex))
    Fb = zn_fourier.dft(bohr_indicator(report).weights.astype(complex))
    step = np.fft.ifft(Fa * Fb)
    out = np.fft.ifft(np.fft.fft(step) * Fb).real
    tiny = -1e-12 * max(1.0, float(np.max(np.abs(out))))
    if np.min(out) < tiny:
        raise AssertionError("convolution produced materially negative weights")
    return Fa, Fb, np.maximum(out, 0.0)
