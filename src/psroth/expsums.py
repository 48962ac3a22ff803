"""Exponential sums with prime-supported coefficients and curved phases.

The central object is the weighted sum

    S = sum_{P < k <= P1, k = a (mod q)} Lambda(k) e(xi k + m phi(k)),

with phi the inverse of a growth spec.  exp_sum_direct evaluates it by brute
force with compensated summation.  vaughan_decompose rewrites it through the
combinatorial prime-sum identity into four ranged pieces S1 - S21 - S22 + S3
(logarithm-weighted, two convolution-weighted, and one genuinely bilinear)
and reports the reconstruction residual.  Each piece is a sum over n = k*l,
so it is kept as one row of coefficients on n.  The rows depend on the range
(P, P1] and the cutoff alone, so they are built once per range and shared by
all draws of it; each draw's class a mod q takes phi once per n of the class
and one exactly rounded dot product per piece.

error_term_sup compares the derivative-compensated floor-prime sum with the
plain prime sum on a frequency grid (the quantity whose smallness drives the
whole transference argument) and also returns the sawtooth middle form that
links the two routes.  error_term_inputs builds the data it reads once (the
enumeration's members, the prime powers from sieve.prime_powers, and both
routes' weights from one blocked inversion of phi), so a ladder of N shares
one build at its top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hfun, run, sieve, zn_fourier

TWO_PI = 2.0 * np.pi
# prime powers per block of error_term_inputs' phi inversion
_PHI_BLOCK = 2 ** 16


@dataclass(frozen=True)
class PhaseParams:
    """Frequency xi in [0,1], nonzero phase multiplier m, residue class a
    mod q, and the dyadic range (P, P1]."""

    xi: float
    m: int
    a: int
    q: int
    P: int
    P1: int

    def __post_init__(self):
        if not (0.0 <= self.xi <= 1.0):
            raise ValueError("xi must lie in [0, 1]")
        if int(self.m) == 0:
            raise ValueError("phase multiplier m must be nonzero")
        if self.q < 1 or not (0 <= self.a < self.q):
            raise ValueError("need a residue 0 <= a < q")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("need gcd(a, q) = 1")
        if not (0 < self.P < self.P1 <= 2 * self.P):
            raise ValueError("need 0 < P < P1 <= 2P")


@dataclass
class VaughanSplit:
    v: float
    S1: complex
    S21: complex
    S22: complex
    S3: complex
    direct: complex
    residual: float

    @property
    def recombined(self):
        return self.S1 - self.S21 - self.S22 + self.S3


class ErrorTermReport(NamedTuple):
    sup_diff: float
    per_xi: np.ndarray
    per_xi_middle: np.ndarray
    route_gap: float


# -- sawtooth ----------------------------------------------------------------

def sawtooth_phi(t):
    """Phi(t) = {t} - 1/2, vectorized; Phi(integer) = -1/2."""
    t = np.asarray(t, dtype=float)
    out = t - np.floor(t) - 0.5
    return out if out.ndim else float(out)


# -- phases and direct sums --------------------------------------------------

def _phase(spec, alpha, mm, vals):
    """e(alpha * k + mm * phi(k)) elementwise over integer vals."""
    vals = np.asarray(vals, dtype=np.int64)
    ph = alpha * vals.astype(float) + mm * hfun.eval_phi_clamped(spec, vals, 0)
    return np.exp(1j * TWO_PI * ph)


def _csum(z):
    """Compensated (exactly rounded) sum of a complex array.  fsum reads the
    parts through memoryviews: plain floats one at a time, about twice as
    fast as iterating the arrays and with no list of the values."""
    return complex(math.fsum(memoryview(z.real)), math.fsum(memoryview(z.imag)))


def exp_sum_direct(spec, pp, table):
    """Brute-force evaluation of the ranged weighted sum."""
    if pp.P1 > table.limit:
        raise ValueError("P1 beyond table limit")
    ks, lam = sieve.prime_powers(table, pp.P1, pp.q, pp.a)
    i = np.searchsorted(ks, pp.P, side="right")
    ks, lam = ks[i:], lam[i:]
    return _csum(lam * _phase(spec, pp.xi, pp.m, ks))


# -- the four-piece split ----------------------------------------------------

def default_cutoff(spec, P1):
    """v = phi(P1) * P1^(-5/8), the balanced choice for the split ranges."""
    return float(hfun.eval_phi(spec, float(P1))) * float(P1) ** (-0.625)


def _split_coefficients(P, P1, v, pk, pl, mu, pi_arr, xi_arr):
    """The split's coefficients on n in (P, P1], a (4, P1 - P) array with
    column n - P - 1: row j is what piece j (S1, S21, S22, S3) puts on
    e(xi n + m phi(n)).  Each term adds its weight at n = k*l: mu(l) log k
    and Pi[l] for l <= v, Pi[l] for v < l <= v^2, and Xi[l] Lambda(k) for
    v < l <= P1/v and the prime powers k > v in pk (weights pl).  The
    multiples of l in the range are one strided view, and within one l the
    prime powers' columns are distinct, so plain += adds every term once."""
    vi = int(math.floor(v))
    c = np.zeros((4, P1 - P))
    for l in range(1, int(math.floor(min(v * v, P1))) + 1):
        cols = slice((P // l + 1) * l - P - 1, None, l)
        if l <= vi and mu[l]:
            ks = np.arange(P // l + 1, P1 // l + 1, dtype=float)
            c[0, cols] += int(mu[l]) * np.log(ks)
        if pi_arr[l] != 0.0:
            c[1 if l <= vi else 2, cols] += pi_arr[l]
    for l in range(vi + 1, int(math.floor(P1 / v)) + 1):
        if xi_arr[l]:
            i, j = np.searchsorted(pk, (max(P // l + 1, vi + 1), P1 // l + 1))
            c[3, pk[i:j] * l - P - 1] += int(xi_arr[l]) * pl[i:j]
    return c


def _dot(row, z):
    """Exactly rounded sum of row * z over the nonzero entries of row alone.
    The zero entries add only signed zeros, and on Python 3.11 fsum of no
    values or of zeros alone is +0.0, so the bits are those of the sum over
    every entry; at the default cutoff most columns of S22 and S3 are 0."""
    nz = np.flatnonzero(row)
    return _csum(row[nz] * z[nz])


def vaughan_decompose(spec, draws, table, v=None):
    """Split the ranged weighted sum of each draw into S1 - S21 - S22 + S3
    and compare against the direct evaluation; one VaughanSplit per draw.

    The draws (PhaseParams) share one range (P, P1], and the split's
    coefficients depend on that range and v alone, so the prime powers, the
    Moebius and Pi/Xi tables and _split_coefficients' rows are built once
    per call and shared by all draws.  Every piece is a sum over n = k*l in
    (P, P1], so the class a mod q is read off n itself: phi is taken once
    per n of the draw's class, and each piece is one exactly rounded dot
    product of its row's nonzero class columns with those phases (_dot).
    The direct sum takes the same phases at the prime powers, so the
    residual is the rounding of the four rows alone.
    """
    if not draws or any((pp.P, pp.P1) != (draws[0].P, draws[0].P1) for pp in draws):
        raise ValueError("need at least one draw, all over one range (P, P1]")
    P, P1 = draws[0].P, draws[0].P1
    if v is None:
        v = default_cutoff(spec, P1)
    if v <= 1.0:
        raise ValueError(f"cutoff v={v} is degenerate (need v > 1)")
    if v >= P:
        raise ValueError(f"cutoff v={v} must stay below P={P}")
    if P1 > table.limit:
        raise ValueError("P1 beyond table limit")
    pk, pl = sieve.prime_powers(table, P1)
    mu = sieve.mobius_array(int(math.floor(v)), table)
    L = int(math.floor(max(v * v, P1 / v)))
    pi_arr, xi_arr = sieve.vaughan_coefficients(v, min(L, table.limit), table, mu)
    c = _split_coefficients(P, P1, v, pk, pl, mu, pi_arr, xi_arr)
    splits = []
    for pp in draws:
        first = P + 1 + (pp.a - P - 1) % pp.q
        z = _phase(spec, pp.xi, pp.m, np.arange(first, P1 + 1, pp.q))
        S1, S21, S22, S3 = (_dot(row[first - P - 1 :: pp.q], z) for row in c)
        direct = exp_sum_direct(spec, pp, table)
        splits.append(VaughanSplit(float(v), S1, S21, S22, S3, direct,
                                   abs(S1 - S21 - S22 + S3 - direct)))
    return splits


# -- the two-route error term ------------------------------------------------

class ErrorTermInputs(NamedTuple):
    """Everything the error term reads up to limit in one class a mod q.

    ks are the prime powers k <= limit in the class, ascending, with the
    middle form's weights mid_weights = Lambda(k) (Phi(-phi(k+1)) -
    Phi(-phi(k))) / phi'(k) (phi' clamped to h(x0)); members are the class's
    floor-image primes with their weights log(p)/phi'(p); primes are the
    class's primes.
    """

    limit: int
    ks: np.ndarray
    mid_weights: np.ndarray
    members: np.ndarray
    member_weights: np.ndarray
    primes: np.ndarray


def error_term_inputs(spec, top, q, a, table, threads=1):
    """The error term's data up to top: enumeration, prime powers and weights.

    The prime powers of the class and their Lambda come from
    sieve.prime_powers, and the class's primes are the prime powers the
    table flags as prime; after that the table is no longer read, so a
    caller that passes it in the call itself (cmd_errsweep) frees it here,
    before the inversion.  phi is inverted only at each prime power k and at
    k + 1: phi'(k) = 1/h'(phi(k)) by the inverse-function rule, and the
    members, primes of the same class, read their phi' from it.  The
    inversion runs over blocks of _PHI_BLOCK of the sorted k on `threads`
    threads (run.in_order), and each block turns its slice of Lambda into
    the middle form's weights in place and writes its members' weights, so
    phi, phi(k + 1) and phi' live one block at a time.  phi is elementwise
    and each Newton point stops on its own, so the values depend on neither
    the block size nor the thread count.  The enumeration runs on `threads`
    threads too.
    """
    top = int(top)
    if top > table.limit:
        raise ValueError("N beyond table limit")
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError("need q >= 1 and gcd(a, q) = 1")
    members = sieve.enumerate_ps_primes(spec, top, table, threads).members
    members = members[members % q == a % q]
    ks, weights = sieve.prime_powers(table, top, q, a)
    primes = ks[table.is_prime[ks]]
    del table
    # each member's place among the k: the members are prime powers of the class
    at = np.searchsorted(ks, members)
    member_weights = np.empty(members.size)

    def invert(i):
        j = i + _PHI_BLOCK
        kf = ks[i:j].astype(float)
        phi = hfun.eval_phi_clamped(spec, kf, 0)
        kf += 1.0
        saw = sawtooth_phi(-hfun.eval_phi_clamped(spec, kf, 0)) - sawtooth_phi(-phi)
        dphi = 1.0 / hfun.eval_h_deriv(spec, phi, 1)
        # in place, in the formula's order: (Lambda * saw) / phi'
        weights[i:j] *= saw
        weights[i:j] /= dphi
        lo, hi = np.searchsorted(at, (i, j))
        member_weights[lo:hi] = np.log(members[lo:hi]) / dphi[at[lo:hi] - i]

    list(run.in_order(invert, range(0, ks.size, _PHI_BLOCK), threads))
    return ErrorTermInputs(top, ks, weights, members, member_weights, primes)


def error_term_sup(inputs, N, grid=4096):
    """Sup over the xi-grid of the floor-prime vs plain-prime weighted gap.

    Route one: sum_{p in P_h, p <= N, p = a (q)} log(p)/phi'(p) e(xi p)
             - sum_{p prime <= N, p = a (q)} log(p) e(xi p).
    Route two (middle form): the sawtooth-difference sum over prime powers,
    sum_k Lambda_{a,q}(k)/phi'(k) (Phi(-phi(k+1)) - Phi(-phi(k))) e(xi k).

    Returns the sup of route one, both per-xi profiles, and the sup gap
    between the routes.  inputs is error_term_inputs(spec, top, q, a, table)
    for the class a mod q and some top >= N.  Every array in it is sorted by
    k and every value is elementwise, so the prefixes up to N are bit for
    bit the data built at N: a ladder of N builds (and inverts phi) once at
    its top.
    """
    N = int(N)
    if N > inputs.limit:
        raise ValueError(f"N={N} beyond the inputs' limit {inputs.limit}")
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be >= 2")
    d = inputs
    nk = np.searchsorted(d.ks, N, side="right")
    nm = np.searchsorted(d.members, N, side="right")
    pr = d.primes[: np.searchsorted(d.primes, N, side="right")]
    A = zn_fourier.sparse_fourier_on_grid(d.members[:nm], d.member_weights[:nm], grid)
    B = zn_fourier.sparse_fourier_on_grid(pr, np.log(pr), grid)
    C = zn_fourier.sparse_fourier_on_grid(d.ks[:nk], d.mid_weights[:nk], grid)
    per_xi = np.abs(A - B)
    per_xi_middle = np.abs(C)
    route_gap = float(np.max(np.abs(A - B - C)))
    return ErrorTermReport(float(np.max(per_xi)), per_xi, per_xi_middle, route_gap)
