"""Three-term progression counting, transference, and restriction ensembles.

count_3aps counts ordered progressions (x, x+d, x+2d) with d != 0, either
cyclically in Z_N or inside the integers: by the frequency-side trilinear form
(integer sets embedded in Z_{2N-1}), and up to N = 4096 also by brute force
over the differences, the two routes checked against each other.

transference_build runs the downshift: pick W and the primorial m, choose the
residue b carrying the most derivative-compensated weight, move the window
(n/2, n] of floor-image primes into {1..N/2} for a prime modulus N in
[2n/m, 4n/m], and report the measure mass the image set carries.

varnavides_count tallies how many length-M subprogressions of Z_N meet a set
densely, exposing the averaging identity and the good-pair count that feed
the positive-proportion lower bound.

restriction_ratio draws random unimodular coefficients on the floor-prime
frequencies and compares L^r norms against the unsigned extremizer on a
Riemann grid, with a doubling refinement guard on every accepted norm and a
direct-summation control on the extremizer's transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hfun, measures, sieve, zn_fourier
from .errors import NumericalError


@dataclass
class ApReport:
    N: int
    size: int
    lam3: int
    nontrivial: int
    witness: tuple | None
    mode: str


_BRUTE_MAX_N = 4096


def _progression_hits(mask, mode):
    """Yield (d, hits) for d = 1, 2, ...; hits[x] marks x, x+d, x+2d all in the set.

    Cyclic shifts are slices of the doubled mask; integer mode runs d up to
    (N-1)/2 on plain slices, one d standing for the pair d and -d.
    """
    N = mask.size
    if mode == "cyclic":
        mask2 = np.concatenate([mask, mask])
        for d in range(1, N):
            s = 2 * d % N
            yield d, mask & mask2[d:d + N] & mask2[s:s + N]
    else:
        for d in range(1, (N - 1) // 2 + 1):
            yield d, mask[:N - 2 * d] & mask[d:N - d] & mask[2 * d:]


def _witness(x, d, N):
    return (x, (x + d) % N, (x + 2 * d) % N)


def _fft_lam3(mask, mode):
    """Lam3(1_A) by the frequency route: on Z_N in cyclic mode, on Z_M with
    M = 2N - 1 in integer mode, where x + z = 2y mod M forces x + z = 2y."""
    N = mask.size
    z = np.zeros(N if mode == "cyclic" else 2 * N - 1, dtype=complex)
    z[:N] = mask
    return zn_fourier.trilinear_fft(z, z, z)


def _rounded(c):
    """The integer a trilinear count approximates; raises unless it is within 0.25."""
    lam3 = round(c.real)
    if abs(c.real - lam3) > 0.25 or abs(c.imag) > 0.25:
        raise NumericalError(f"frequency-route count {c} is not near an integer")
    return int(lam3)


def count_3aps(A, N, mode="cyclic", method="auto"):
    """Ordered 3-progression count for A inside Z_N or [0, N).

    method 'brute' walks every difference and cross-checks against the
    frequency route (on Z_N for odd N in cyclic mode; on Z_{2N-1} in integer
    mode, where cyclic and integer progressions coincide).  'fft' uses the
    frequency route alone: no witness in cyclic mode, while integer mode scans
    d upward only until the first progression for its witness (smallest d,
    then smallest x, as brute force reports it).  'auto' picks brute up to
    N = 4096 and fft above, in both modes.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode not in ("cyclic", "integer"):
        raise ValueError("mode must be 'cyclic' or 'integer'")
    if method not in ("brute", "fft", "auto"):
        raise ValueError("method must be 'brute', 'fft' or 'auto'")
    idx = np.unique(np.asarray(sorted(A), dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise ValueError("elements out of range")
    mask = np.zeros(N, dtype=bool)
    mask[idx] = True
    size = int(idx.size)
    if method == "auto":
        method = "brute" if N <= _BRUTE_MAX_N else "fft"
    if method == "fft":
        if mode == "cyclic" and N % 2 == 0:
            raise ValueError("frequency route needs odd N")
        lam3 = _rounded(_fft_lam3(mask, mode))
        witness = None
        if mode == "integer" and lam3 > size:
            for d, hits in _progression_hits(mask, mode):
                x = int(np.argmax(hits))
                if hits[x]:
                    witness = _witness(x, d, N)
                    break
        return ApReport(N, size, lam3, lam3 - size, witness, mode)
    witness = None
    nontrivial = 0
    for d, hits in _progression_hits(mask, mode):
        c = int(np.count_nonzero(hits))
        # in integer mode d stands for d and -d, the reversed progression
        nontrivial += c if mode == "cyclic" else 2 * c
        if c and witness is None:
            witness = _witness(int(np.flatnonzero(hits)[0]), d, N)
    lam3 = size + nontrivial
    if mode == "integer" or N % 2 == 1:
        fft_lam3 = _fft_lam3(mask, mode)
        if abs(fft_lam3.real - lam3) > 1e-6 * max(1.0, lam3) or abs(fft_lam3.imag) > 1e-6:
            raise NumericalError(
                f"trilinear routes disagree: brute {lam3} vs fft {fft_lam3}")
    return ApReport(N, size, lam3, nontrivial, witness, mode)


# -- transference ------------------------------------------------------------

@dataclass
class TransferReport:
    A: np.ndarray
    params: measures.WTrickParams
    N: int
    mass: float
    window_mass: float
    n: int


def _next_prime_in(start, stop):
    """Smallest prime in [start, stop], each candidate tested by trial division."""
    for cand in range(max(2, int(start)), int(stop) + 1):
        if sieve._factorize(cand) == [cand]:
            return cand
    raise NumericalError(f"no prime in [{start}, {stop}]")


def transference_build(inv, table, n, override_W=None, A0=None, ps=None):
    """Downshift the window (n/2, n] of floor-image primes into {1..N/2}.

    Returns the image set, the (W, m, b) parameters with b chosen by maximal
    compensated weight, the prime modulus N, the measure mass carried by the
    image, and the unrestricted mass of the whole window for comparison.
    """
    n = int(n)
    if n < 16:
        raise ValueError("n must be >= 16")
    wt = measures.w_trick(n, table, override_W=override_W)
    W, m = wt.W, wt.m
    if ps is None:
        ps = sieve.enumerate_ps_primes(inv, n, table)
    window = ps.members[(ps.members > n // 2) & (ps.members <= n)]
    dphi_window = hfun.eval_phi_clamped(inv, window)
    if A0 is None:
        A0, dphi_A0 = window, dphi_window
    else:
        A0 = np.asarray(sorted(A0), dtype=np.int64)
        if not np.all(np.isin(A0, ps.members)):
            raise ValueError("A0 must be a subset of the floor-image primes")
        A0 = A0[(A0 > n // 2) & (A0 <= n)]
        dphi_A0 = dphi_window[np.searchsorted(window, A0)]

    best_b, best_w = None, -1.0
    for b in range(m):
        if math.gcd(b, m) != 1:
            continue
        sel = A0 % m == b
        wgt = float(np.sum(np.log(A0[sel].astype(float)) / dphi_A0[sel]))
        if wgt > best_w:
            best_b, best_w = b, wgt
    params = measures.WTrickParams(W, m, best_b)
    N = _next_prime_in(math.ceil(2 * n / m), 4 * n // m)
    sel = A0 % m == params.b
    picked = A0[sel]
    A = (picked - params.b) // m
    if A.size and (A.min() < 1 or A.max() > N // 2):
        raise NumericalError("image set escaped {1..N/2}")

    def mass_of(ks, dphi):
        return float(np.sum(params.phi_m * np.log(ks.astype(float)) / (m * N * dphi)))

    in_class = window % m == params.b
    return TransferReport(A, params, N, mass_of(picked, dphi_A0[sel]),
                          mass_of(window[in_class], dphi_window[in_class]), n)


# -- positive-proportion counting ---------------------------------------------

@dataclass
class VarnavidesReport:
    per_d_counts: dict
    identity_ok: bool
    good_pairs: int
    Z_lower: Fraction
    threshold: float


def varnavides_count(Aprime, N, M, threshold=None, d_list=None,
                     d_keep=(1, 2, 3, 5, 7)):
    """Count length-M subprogressions P_{a,d} meeting A' at least threshold
    times, over all a in Z_N and d in d_list (default: every d in [1, N-1]
    up to N = 4096, a deterministic stride sample beyond).

    The averaging identity sum_a |A' cap P_{a,d}| = M |A'| is checked exactly
    for every scanned d; full per-a count vectors are kept for d in d_keep.
    """
    N, M = int(N), int(M)
    if not (3 <= M <= N):
        raise ValueError("need 3 <= M <= N")
    idx = np.unique(np.asarray(sorted(Aprime), dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise ValueError("elements out of range")
    if d_list is None:
        stride = max(1, (N - 1) // 2048)
        d_list = range(1, N, stride)
    # per-a counts lie in [0, M]: the smallest unsigned dtype holding M keeps
    # the M slice additions cheap without wrapping
    dtype = np.min_scalar_type(M)
    mask2 = np.zeros(2 * N, dtype=dtype)
    mask2[idx] = 1
    mask2[N:] = mask2[:N]
    sizeA = int(idx.size)
    if threshold is None:
        threshold = M * sizeA / (2.0 * N)
    per_d = {}
    good_pairs = 0
    identity_ok = True
    # counts are integers, so counts >= threshold iff counts >= ceil(threshold),
    # a comparison numpy makes without converting counts to float
    cut = math.ceil(threshold) if math.isfinite(threshold) else threshold
    counts = np.empty(N, dtype=dtype)
    for d in d_list:
        # counts[a] = sum_i 1_A'(a + i d), each term a slice of the doubled mask
        counts[:] = mask2[:N]
        for i in range(1, M):
            s = i * d % N
            counts += mask2[s:s + N]
        if int(counts.sum(dtype=np.int64)) != M * sizeA:
            identity_ok = False
        good_pairs += int(np.count_nonzero(counts >= cut))
        if d in d_keep:
            per_d[d] = counts.astype(np.int64)
    return VarnavidesReport(per_d, identity_ok, good_pairs,
                            Fraction(good_pairs, M * M), float(threshold))


# -- restriction ensemble ----------------------------------------------------

@dataclass
class RestrictionReport:
    ratios: np.ndarray
    max_ratio: float
    control_ratio: float
    grid: int
    r: float
    trials: int
    seed: int


def _refined_norm(vals2, r):
    """L^r Riemann norm of transform values on the doubled grid, guarded by
    comparing with the base-grid norm (the even-index subset)."""
    pw = np.abs(vals2) ** r
    norm2 = float(np.mean(pw) ** (1.0 / r))
    norm1 = float(np.mean(pw[::2]) ** (1.0 / r))
    if norm2 > 0 and abs(norm2 - norm1) / norm2 >= 1e-3:
        raise NumericalError(
            f"grid refinement moved the L^{r} norm by {abs(norm2-norm1)/norm2:.2e}")
    return norm2


def _norm_with_refinement(positions, weights, grid, r):
    """_refined_norm of sum_k w_k e(p_k xi) on the doubled grid."""
    return _refined_norm(
        zn_fourier.sparse_fourier_on_grid(positions, weights, 2 * grid), r)


def _extremizer_norm(positions, grid, r, rng):
    """_refined_norm of the unsigned sum sum_p e(p xi), and a control: the L^r
    mean of that sum taken directly at seeded points j of the doubled grid
    over the same mean of the transform at those points."""
    vals2 = zn_fourier.sparse_fourier_on_grid(
        positions, np.ones(positions.size, dtype=complex), 2 * grid)
    size = vals2.size
    js = rng.choice(size, size=min(64, size), replace=False)
    direct = np.array([abs(np.exp(2j * np.pi * (j * positions % size / size)).sum())
                       for j in js])
    control = (np.mean(direct ** r) / np.mean(np.abs(vals2[js]) ** r)) ** (1.0 / r)
    return _refined_norm(vals2, r), float(control)


def restriction_ratio(inv, table, N, r, trials, seed, grid=None):
    """Random-coefficient L^r ratios against the unsigned extremizer.

    Each trial draws independent unimodular coefficients on the floor-image
    primes up to N and measures ||sum a_p e(p xi)||_r / ||sum e(p xi)||_r on
    a Riemann grid (default 8N, at least 4N).  The control ratio compares the
    extremizer's transform with direct summation at 64 seeded grid points
    (1 up to rounding); its points come from a child seed after the trials'.
    """
    N = int(N)
    if r <= 0:
        raise ValueError("r must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if grid is None:
        grid = 8 * N
    grid = int(grid)
    if grid < 4 * N:
        raise ValueError("grid must be at least 4N")
    ps = sieve.enumerate_ps_primes(inv, N, table)
    pos = ps.members
    if pos.size == 0:
        raise ValueError("no floor-image primes up to N")
    *seqs, control_seq = np.random.SeedSequence(seed).spawn(trials + 1)
    denom, control = _extremizer_norm(
        pos, grid, r, np.random.Generator(np.random.Philox(control_seq)))
    ratios = np.empty(trials)
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(seqs[t]))
        coeff = np.exp(1j * 2.0 * np.pi * rng.random(pos.size))
        ratios[t] = _norm_with_refinement(pos, coeff, grid, r) / denom
    return RestrictionReport(ratios, float(np.max(ratios)), control,
                             grid, float(r), trials, seed)


# -- spectral decay and the smoothing chain ----------------------------------

def fourier_sup_decay(inv, table, N_list, params=None, grid=4096):
    """Sup over nonzero grid frequencies of |F_Z[lambda_h - lambda](j/grid)|
    for each N, plus the log-log slope of the sups."""
    if params is None:
        params = measures.WTrickParams(1, 1, 0)
    rows = []
    for N in N_list:
        N = int(N)
        lam = measures.build_lambda(N, params, table)
        ps = sieve.enumerate_ps_primes(inv, params.m * (N - 1) + params.b, table)
        lam_h = measures.build_lambda_h(N, params, inv, ps)
        diff = lam_h.weights - lam.weights
        F = zn_fourier.fourier_on_grid(diff.astype(complex), grid)
        rows.append((N, float(np.max(np.abs(F[1:])))))
    slope = math.nan
    if len(rows) >= 2:
        xs = np.log([n for n, _ in rows])
        ys = np.log([max(s, 1e-300) for _, s in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


def smoothing_bound_chain(a, report):
    """Identity and triangle chain for the double-smoothing error.

    Lam3(a1,a1,a1) - Lam3(a,a,a) equals the frequency sum
    N^{-1} sum_xi F[a](xi)^2 F[a](-2xi) (F[beta](xi)^4 F[beta](-2xi)^2 - 1),
    and in absolute value is at most the same sum with every factor replaced
    by its modulus.  Returns the three quantities and the identity gap.
    """
    N = a.N
    if N % 2 == 0:
        raise ValueError("need odd N")
    beta = measures.bohr_indicator(report)
    a1 = measures.smooth(a, report)
    lam3_a = zn_fourier.trilinear_fft(*([a.weights.astype(complex)] * 3))
    lam3_a1 = zn_fourier.trilinear_fft(*([a1.weights.astype(complex)] * 3))
    Fa = zn_fourier.dft(a.weights.astype(complex))
    Fb = zn_fourier.dft(beta.weights.astype(complex))
    idx = (-2 * np.arange(N)) % N
    mult = Fb ** 4 * Fb[idx] ** 2 - 1.0
    freq_sum = complex(np.sum(Fa ** 2 * Fa[idx] * mult) / N)
    diff = lam3_a1 - lam3_a
    identity_gap = abs(diff - freq_sum)
    triangle = float(np.sum(np.abs(Fa) ** 2 * np.abs(Fa[idx]) * np.abs(mult)) / N)
    return {"difference": diff, "frequency_sum": freq_sum,
            "identity_gap": identity_gap, "triangle_bound": triangle}
