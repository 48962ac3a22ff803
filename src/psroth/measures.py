"""Normalized prime measures on {0..N-1}, spectra, Bohr sets, smoothing.

build_lambda puts weight phi(m) * log(m n + b) / (m N) on the n whose
image m n + b is prime; build_lambda_h keeps only images in a floor-image
prime set and divides each weight by phi'(m n + b), compensating the thinner
set so both measures carry unit mass asymptotically.  The W-trick parameters
(W, m = product of primes <= W, residue b) strip small-prime bias before the
transference step; WTrickParams.phi_m supplies phi(m) to every measure.

spectrum_and_bohr computes large-coefficient frequencies by exhaustive scan
and the corresponding Bohr set B = {x : ||x xi / N|| <= eps for all xi}; the
pigeonhole lower bound |B| >= eps^k N is rechecked on construction.
smoothing convolves twice with the normalized Bohr indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hfun, sieve, zn_fourier

# bohr_set scans the x in chunks of this many points
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WTrickParams:
    W: int
    m: int
    b: int

    def __post_init__(self):
        if self.W < 1 or self.m < 1:
            raise ValueError("W and m must be >= 1")
        if not (0 <= self.b < self.m):
            raise ValueError("b must be a residue mod m")
        if math.gcd(self.b, self.m) != 1:
            raise ValueError("need gcd(b, m) = 1")

    @property
    def phi_m(self):
        """Euler phi of m, the numerator of the W-trick factor phi(m)/m."""
        return sieve._totient(self.m)


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
    delta: float
    epsilon: float
    frequencies: np.ndarray
    bohr: np.ndarray

    @property
    def k(self):
        return int(self.frequencies.size)


def w_trick(N, table, override_W=None):
    """W = floor(log log N / 4) clamped to >= 1 (or the override), m the
    primorial of W, and the unit residue b = 0 for m = 1, else 1."""
    N = int(N)
    if N < 16 and override_W is None:
        raise ValueError("N too small to derive W; pass override_W")
    if override_W is not None:
        W = int(override_W)
        if W < 1:
            raise ValueError("override_W must be >= 1")
    else:
        W = max(1, math.floor(math.log(math.log(N)) / 4.0))
    m = 1
    for p in _primes_upto(W, table):
        m *= int(p)
    return WTrickParams(W, m, 0 if m == 1 else 1)


def _primes_upto(W, table):
    if table.limit < W:
        raise ValueError("table too small for W")
    return table.primes[table.primes <= W]


def build_lambda(N, params, table):
    """Prime-measure weights phi(m) log(mn+b) / (mN) on {0..N-1}."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    top = params.m * (N - 1) + params.b
    if top > table.limit:
        raise ValueError(f"need table limit >= {top}")
    ns = np.arange(N, dtype=np.int64)
    vals = params.m * ns + params.b
    w = np.zeros(N)
    hit = table.is_prime[vals]
    w[hit] = params.phi_m * np.log(vals[hit]) / (params.m * N)
    return WeightedSequence(N, w, "lambda")


def build_lambda_h(N, params, inv, ps):
    """Same as build_lambda but restricted to floor-image primes and
    compensated by 1/phi'(mn+b)."""
    N = int(N)
    top = params.m * (N - 1) + params.b
    if top > ps.limit:
        raise ValueError(f"need enumerated prime set covering {top}")
    ns = np.arange(N, dtype=np.int64)
    vals = params.m * ns + params.b
    hit = np.isin(vals, ps.members)
    w = np.zeros(N)
    if np.any(hit):
        pv = vals[hit].astype(float)
        dphi = hfun.eval_phi_clamped(inv, pv)
        w[hit] = params.phi_m * np.log(pv) / (params.m * N * dphi)
    return WeightedSequence(N, w, "lambda_h")


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
    report = SpectrumReport(N, float(delta), float(epsilon), freqs, bohr)
    lower = epsilon ** report.k * N * (1.0 - 1e-12)
    if bohr.size < lower:
        raise AssertionError(
            f"Bohr set size {bohr.size} below pigeonhole bound {lower}")
    return report


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
    each inverse normalized as zn_fourier.convolve's.
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
