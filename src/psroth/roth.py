"""Three-term progression counting, transference, and restriction ensembles.

count_3aps counts ordered progressions (x, x+d, x+2d) with d != 0, either
cyclically in Z_N (odd N) or inside the integers, by the frequency-side
trilinear form on one odd modulus: Z_N, or Z_{2N-1} for integer sets, whose
cyclic progressions are the integer ones.  Up to N = 4096 a walk over the
differences counts again and must agree exactly; the walk reads the set's
mask only at the set's positions, so one difference costs |A|, not N.

transference_build runs the W-trick downshift: pick W and the primorial m,
choose the unit residue b carrying the most derivative-compensated weight,
move the window (n/2, n] of floor-image primes in that class into {1..N/2}
for a prime modulus N in [2n/m, 4n/m], and report the measure mass, with
weight phi(m) log p / (m N phi'(p)), of the image and of the whole window.

varnavides_count tallies the pairs (a, d) whose length-M subprogression of Z_N
meets a set densely, the good-pair count that feeds the positive-proportion
lower bound; each d sums M slices of the doubled mask, and its d run in
blocks on run.in_order.

restriction_ratio draws random unimodular coefficients on the floor-prime
frequencies and compares L^r norms against the unsigned extremizer on a
Riemann grid, with a doubling refinement guard on every accepted norm and a
direct-summation control on the extremizer's transform; the doubled grid is
streamed row by row, once for all the trials and the extremizer, and its rows
run on the package's ordered pool, run.in_order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hfun, measures, run, sieve, zn_fourier
from .errors import NumericalError


@dataclass
class ApReport:
    N: int
    size: int
    lam3: int
    nontrivial: int
    witness: tuple | None


_BRUTE_MAX_N = 4096
# gathers per block of the difference walk (a block holds at least one d)
_WALK_GATHERS = 2 ** 16


def _progression_hits(idx, M, d_top):
    """Yield (ds, hits) over blocks of d = 1..d_top; hits[i, j] marks
    x, x+d, x+2d (mod M) all in the set, for x = idx[i] and d = ds[j], where
    idx is the ascending set in [0, M).  The set's mask, doubled in Z_M
    (2 d_top < M), is read only at the set's positions, so a block costs
    idx.size * ds.size, not M * ds.size.  Blocks double from one d up to
    about _WALK_GATHERS gathers."""
    mask2 = np.zeros(2 * M, dtype=bool)
    mask2[idx] = mask2[idx + M] = True
    x = idx[:, None]
    cap = max(1, _WALK_GATHERS // max(1, idx.size))
    lo, width = 1, 1
    while lo <= d_top:
        ds = np.arange(lo, min(lo + width, d_top + 1), dtype=np.int64)
        yield ds, mask2[x + ds] & mask2[x + 2 * ds]
        lo += ds.size
        width = min(2 * width, cap)


def _rounded(c):
    """The integer a trilinear count approximates; raises unless it is within 0.25."""
    lam3 = round(c.real)
    if abs(c.real - lam3) > 0.25 or abs(c.imag) > 0.25:
        raise NumericalError(f"frequency-route count {c} is not near an integer")
    return int(lam3)


def _index_set(A, N):
    """The distinct elements of A, ascending as int64; raises unless they lie in [0, N)."""
    idx = np.unique(np.asarray(sorted(A), dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        raise ValueError("elements out of range")
    return idx


def count_3aps(A, N, mode="cyclic"):
    """Ordered 3-progression count for A inside Z_N (odd N) or [0, N).

    Both modes count on one odd modulus M: M = N in cyclic mode, M = 2N - 1
    in integer mode, where x + z = 2y mod M forces x + z = 2y, so the
    integer progressions of [0, N) are exactly the cyclic ones of Z_M.  The
    frequency route (the trilinear form of 1_A on Z_M) always counts.  Up to
    N = _BRUTE_MAX_N the differences d = 1..(N-1)/2 are walked as well, each
    hit standing for d and -d (the same progression reversed), and the two
    counts must agree exactly.  The walk reads the mask only at the set's
    positions, |A| gathers per d, in blocks of d.  The witness is the
    progression with the smallest d, then the smallest x; above _BRUTE_MAX_N
    integer mode walks only until it finds it, and cyclic mode reports none.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode not in ("cyclic", "integer"):
        raise ValueError("mode must be 'cyclic' or 'integer'")
    if mode == "cyclic" and N % 2 == 0:
        raise ValueError("cyclic mode needs odd N")
    idx = _index_set(A, N)
    M = N if mode == "cyclic" else 2 * N - 1
    z = np.zeros(M, dtype=complex)
    z[idx] = 1.0
    size = int(idx.size)
    lam3 = _rounded(zn_fourier.trilinear_fft(z, z, z))
    checked = N <= _BRUTE_MAX_N
    walked = checked or (mode == "integer" and lam3 > size)
    witness = None
    nontrivial = 0
    for ds, hits in _progression_hits(idx, M, (N - 1) // 2 if walked else 0):
        if witness is None and hits.any():
            # the smallest d with a hit, then its smallest x (idx ascends)
            j = int(np.argmax(hits.any(axis=0)))
            x, d = int(idx[np.argmax(hits[:, j])]), int(ds[j])
            witness = (x, (x + d) % M, (x + 2 * d) % M)
            if not checked:
                break
        # every progression has difference d or -d in 1..(N-1)/2, in both modes
        nontrivial += 2 * int(np.count_nonzero(hits))
    if checked and size + nontrivial != lam3:
        raise NumericalError(
            f"progression routes disagree: walk {size + nontrivial} vs frequency {lam3}")
    return ApReport(N, size, lam3, lam3 - size, witness)


# -- transference ------------------------------------------------------------

@dataclass
class TransferReport:
    A: np.ndarray
    W: int
    m: int
    b: int
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


def _w_trick(n, table, override_W):
    """(W, m): W = floor(log log n / 4) clamped to >= 1 (or the override) and
    m the product of the primes up to W, at most n/2."""
    if override_W is None:
        W = max(1, math.floor(math.log(math.log(n)) / 4.0))
    else:
        W = int(override_W)
        if W < 1:
            raise ValueError("override_W must be >= 1")
    if table.limit < W:
        raise ValueError("table too small for W")
    m = math.prod(int(p) for p in table.primes[table.primes <= W])
    if 2 * m > n:
        raise ValueError(f"W={W} is too large for n={n}: its primorial m={m} "
                         f"exceeds n/2")
    return W, m


def transference_build(inv, table, n, override_W=None):
    """Downshift the window (n/2, n] of floor-image primes into {1..N/2}.

    Returns the image set, W, the primorial m, the unit residue b with the
    most compensated weight log p / phi'(p), the prime modulus N, the
    measure mass carried by the image, and the mass of the whole window
    under the same weight for comparison.
    """
    n = int(n)
    if n < 16:
        raise ValueError("n must be >= 16")
    W, m = _w_trick(n, table, override_W)
    ps = sieve.enumerate_ps_primes(inv, n, table)
    window = ps.members[(ps.members > n // 2) & (ps.members <= n)]
    dphi = hfun.eval_phi_clamped(inv, window)
    residues = window % m
    share = np.log(window.astype(float)) / dphi
    # the first unit class of maximal weight
    b = max((c for c in range(m) if math.gcd(c, m) == 1),
            key=lambda c: float(np.sum(share[residues == c])))
    N = _next_prime_in(math.ceil(2 * n / m), 4 * n // m)
    sel = residues == b
    A = (window[sel] - b) // m
    if A.size and (A.min() < 1 or A.max() > N // 2):
        raise NumericalError("image set escaped {1..N/2}")
    phi_m = sieve._totient(m)

    def mass_of(ks, dphi):
        return float(np.sum(phi_m * np.log(ks.astype(float)) / (m * N * dphi)))

    return TransferReport(A, W, m, b, N, mass_of(window[sel], dphi[sel]),
                          mass_of(window, dphi), n)


# -- positive-proportion counting ---------------------------------------------

@dataclass
class VarnavidesReport:
    good_pairs: int
    Z_lower: Fraction
    threshold: float


def varnavides_count(Aprime, N, M, threshold=None, d_list=None, threads=1):
    """Count length-M subprogressions P_{a,d} meeting A' at least threshold
    times, over all a in Z_N and d in d_list (default: every d in [1, N-1]
    up to N = 4096, a deterministic stride sample beyond).

    d_list runs in `threads` contiguous blocks on run.in_order.
    """
    N, M = int(N), int(M)
    if not (3 <= M <= N):
        raise ValueError("need 3 <= M <= N")
    idx = _index_set(Aprime, N)
    if d_list is None:
        d_list = range(1, N, max(1, (N - 1) // 2048))
    # per-a counts lie in [0, M]: the smallest unsigned dtype holding M keeps
    # the M slice additions cheap without wrapping
    dtype = np.min_scalar_type(M)
    mask2 = np.zeros(2 * N, dtype=dtype)
    mask2[idx] = mask2[idx + N] = 1
    if threshold is None:
        threshold = M * idx.size / (2.0 * N)
    # counts are integers, so counts >= threshold iff counts >= ceil(threshold),
    # a comparison numpy makes without converting counts to float
    cut = math.ceil(threshold) if math.isfinite(threshold) else threshold

    def scan(ds):
        """The good pairs over the d of ds."""
        good = 0
        counts = np.empty(N, dtype=dtype)
        for d in ds:
            # counts[a] = sum_i 1_A'(a + i d), each term a slice of the doubled mask
            counts[:] = mask2[:N]
            for i in range(1, M):
                s = i * d % N
                counts += mask2[s:s + N]
            good += int(np.count_nonzero(counts >= cut))
        return good

    ds = list(d_list)
    n = max(1, min(int(threads), len(ds)))
    blocks = [ds[len(ds) * b // n:len(ds) * (b + 1) // n] for b in range(n)]
    # numpy's slice additions release the GIL, so the blocks scan in parallel
    good_pairs = sum(run.in_order(scan, blocks, threads))
    return VarnavidesReport(good_pairs, Fraction(good_pairs, M * M), float(threshold))


# -- restriction ensemble ----------------------------------------------------

@dataclass
class RestrictionReport:
    ratios: np.ndarray
    max_ratio: float
    control_ratio: float
    grid: int


def _refined_norm(total, even, size, r):
    """L^r Riemann norm from the power sums over a doubled grid of `size`
    points, guarded by comparing with the base-grid norm (the even indices)."""
    norm2 = float((total / size) ** (1.0 / r))
    norm1 = float((even / (size // 2)) ** (1.0 / r))
    if norm2 > 0 and abs(norm2 - norm1) / norm2 >= 1e-3:
        raise NumericalError(
            f"grid refinement moved the L^{r} norm by {abs(norm2-norm1)/norm2:.2e}")
    return norm2


def _control_ratio(positions, size, r, js, at_js):
    """The L^r mean of the unsigned sum sum_p e(p j/size) taken directly at the
    points js over the same mean of its transform at_js at those points."""
    direct = np.array([abs(np.exp(2j * np.pi * (j * positions % size / size)).sum())
                       for j in js])
    return float((np.mean(direct ** r) / np.mean(np.abs(at_js) ** r)) ** (1.0 / r))


# restriction_ratio's weight rows per pass over the grid rows, in bytes
_COEFF_BYTES = 8 << 20


def restriction_ratio(inv, table, N, r, trials, seed, threads=1):
    """Random-coefficient L^r ratios against the unsigned extremizer.

    Each trial draws independent unimodular coefficients on the floor-image
    primes up to N and measures ||sum a_p e(p xi)||_r / ||sum e(p xi)||_r on
    a Riemann grid of grid = 8N points.  Every norm is taken on the doubled
    grid G = 2*grid, streamed by zn_fourier.grid_power_sums: with G = S*L
    and S even, row s holds the points j = s mod S and is one
    length-L transform, so no G-point array is formed.  The even rows are
    exactly the base grid, whose norm the refinement guard compares with.
    The extremizer's ones and the trials' coefficients are one matrix of
    weight rows, so each pass over the grid rows serves every norm; a matrix
    above _COEFF_BYTES is cut into several passes.  The control ratio
    compares the extremizer's transform with direct summation at 64 seeded
    grid points (1 up to rounding); its points come from a child seed after
    the trials'.

    The grid rows run on `threads` threads (grid_power_sums' run.in_order).
    Each row sum has its own slot, added in row order, so the ratios are the
    same for every thread count and every pass size.
    """
    N = int(N)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = 8 * N
    ps = sieve.enumerate_ps_primes(inv, N, table)
    pos = ps.members
    if pos.size == 0:
        raise ValueError("no floor-image primes up to N")
    *seqs, control_seq = np.random.SeedSequence(seed).spawn(trials + 1)
    size = 2 * grid
    js = np.random.Generator(np.random.Philox(control_seq)).choice(
        size, size=min(64, size), replace=False)

    def weight_row(t):
        """Row 0 is the extremizer's ones, row t the coefficients of trial t."""
        if t == 0:
            return np.ones(pos.size, dtype=complex)
        rng = np.random.Generator(np.random.Philox(seqs[t - 1]))
        return np.exp(1j * 2.0 * np.pi * rng.random(pos.size))

    per_pass = max(1, _COEFF_BYTES // (pos.size * np.dtype(complex).itemsize))
    norms = []
    for lo in range(0, trials + 1, per_pass):
        W = np.empty((min(per_pass, trials + 1 - lo), pos.size), dtype=complex)
        for i, w in enumerate(W):
            w[:] = weight_row(lo + i)
        totals, evens, values = zn_fourier.grid_power_sums(
            pos, W, size, r, at=js, threads=threads)
        if lo == 0:
            control = _control_ratio(pos, size, r, js, values[0])
        norms += [_refined_norm(tot, ev, size, r)
                  for tot, ev in zip(totals, evens)]
    ratios = np.array(norms[1:]) / norms[0]
    return RestrictionReport(ratios, float(np.max(ratios)), control, grid)


# -- the smoothing chain -----------------------------------------------------

def smoothing_bound_chain(a, report):
    """Identity and triangle chain for the double-smoothing error.

    Lam3(a1,a1,a1) - Lam3(a,a,a) equals the frequency sum
    N^{-1} sum_xi F[a](xi)^2 F[a](-2xi) (F[beta](xi)^4 F[beta](-2xi)^2 - 1),
    and in absolute value is at most the same sum with every factor replaced
    by its modulus.  Returns the three quantities and the identity gap.
    a is a plain weight array (measures._weights checks it).
    """
    N = report.N
    if N % 2 == 0:
        raise ValueError("need odd N")
    # a and beta are transformed once; a1 = a * beta * beta comes from real
    # space and is transformed again, so the identity compares two routes
    Fa, Fb, a1 = measures._smoothed_with_transforms(a, report)
    Fa1 = zn_fourier.dft(a1)
    lam3_a = zn_fourier._trilinear_from_transforms(Fa, Fa, Fa)
    lam3_a1 = zn_fourier._trilinear_from_transforms(Fa1, Fa1, Fa1)
    idx = (-2 * np.arange(N)) % N
    mult = Fb ** 4 * Fb[idx] ** 2 - 1.0
    freq_sum = complex(np.sum(Fa ** 2 * Fa[idx] * mult) / N)
    diff = lam3_a1 - lam3_a
    identity_gap = abs(diff - freq_sum)
    triangle = float(np.sum(np.abs(Fa) ** 2 * np.abs(Fa[idx]) * np.abs(mult)) / N)
    return {"difference": diff, "frequency_sum": freq_sum,
            "identity_gap": identity_gap, "triangle_bound": triangle}
