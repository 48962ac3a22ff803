"""Prime tables, arithmetic functions, and floor-image prime sets.

PrimeTable wraps a blockwise sieve of Eratosthenes: primality flags indexed by
value over [0, limit] and the sorted primes, plus a cached von Mangoldt array
for the exponential-sum sweeps.  The scalar von Mangoldt, Moebius, and Euler
phi functions factor their argument by trial division and never read the
table beyond its limit check.

PsPrimeSet enumerates the primes hit by floor(h(n)) for a growth spec h.  The
membership test for a single prime p uses the floor identity

    floor(-phi(p)) - floor(-phi(p+1)) == 1,

equivalent to an integer n landing in [phi(p), phi(p+1)), which characterizes
membership exactly once consecutive phi values are less than 1 apart.  Floors
within max(1e-9, 4 ulp) of an integer are recomputed in extended precision
before deciding; where phi(p) or phi(p+1) is that close to an integer, h in
extended precision at the neighbouring n decides instead.  Below the small-p
threshold (first p with phi(p+1) - phi(p) < 1/2) membership comes from direct
enumeration and disagreements with the floor identity are logged rather than
asserted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import hfun
from .errors import DomainError, NumericalError, ResourceError

log = logging.getLogger(__name__)

_BLOCK = 1 << 20
_DEFAULT_BUDGET = 1 << 27


def _near_int(x):
    """True where x lies within max(1e-9, 4 ulp(|x|)) of an integer."""
    return np.abs(x - np.rint(x)) < np.maximum(1e-9, 4 * np.spacing(np.abs(x)))


# -- prime table -------------------------------------------------------------

@dataclass
class PrimeTable:
    limit: int
    is_prime: np.ndarray
    primes: np.ndarray
    _mangoldt: np.ndarray | None = field(default=None, repr=False)

    def mangoldt_array(self):
        """Lambda(n) for all n <= limit, cached."""
        if self._mangoldt is None:
            lam = np.zeros(self.limit + 1)
            lam[self.primes] = np.log(self.primes)
            for p in self.primes[self.primes <= math.isqrt(self.limit)]:
                pk = int(p) * int(p)
                lp = math.log(int(p))
                while pk <= self.limit:
                    lam[pk] = lp
                    pk *= int(p)
            self._mangoldt = lam
        return self._mangoldt


def sieve_primes(limit, budget=_DEFAULT_BUDGET):
    """Blockwise sieve of Eratosthenes into primality flags over [0, limit]."""
    limit = int(limit)
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > budget:
        raise ResourceError(f"limit {limit} exceeds budget {budget}")
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p:: p] = False
    small = np.flatnonzero(base)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for lo in range(0, limit + 1, _BLOCK):
        hi = min(lo + _BLOCK, limit + 1)
        for p in small:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                is_prime[start:hi:p] = False
    return PrimeTable(limit, is_prime, np.flatnonzero(is_prime).astype(np.int64))


def _factorize(n):
    """Prime factors of n >= 1 in ascending order, with multiplicity."""
    n = int(n)
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n):
    out = n = int(n)
    for p in set(_factorize(n)):
        out = out // p * (p - 1)
    return out


def _checked(n, table):
    n = int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    if n > table.limit:
        raise ValueError(f"n={n} beyond table limit {table.limit}")
    return n


def mangoldt(n, table):
    """log p if n is a prime power p^k, else 0."""
    fac = _factorize(_checked(n, table))
    if fac and fac[0] == fac[-1]:
        return math.log(fac[0])
    return 0.0


def mobius(n, table):
    fac = _factorize(_checked(n, table))
    if len(set(fac)) < len(fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n, table):
    return _totient(_checked(n, table))


def mobius_array(limit, table):
    """mu(n) for all n <= limit (limit <= table.limit)."""
    if limit > table.limit:
        raise ValueError("limit beyond table")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in table.primes:
        p = int(p)
        if p > limit:
            break
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p:: p * p] = 0
    return mu


def vaughan_coefficients(v, w, L, table):
    """Arrays (Pi, Xi) on [0, L] for the combinatorial prime-sum split.

    Pi[l] = sum over factorizations l = r*s with r <= v, s <= w of
    Lambda(r)*mu(s); Xi[l] = sum of mu(d) over divisors d > w of l.
    """
    L = int(L)
    if L > table.limit:
        raise ValueError("L beyond table limit")
    if v < 1 or w < 1:
        raise ValueError("v and w must be >= 1")
    lam = table.mangoldt_array()
    wi = min(int(w), L)
    mu = mobius_array(wi, table) if wi >= 1 else np.zeros(1, np.int8)
    pi = np.zeros(L + 1)
    for s in range(1, wi + 1):
        ms = int(mu[s])
        if ms == 0:
            continue
        rmax = min(int(v), L // s)
        if rmax < 1:
            continue
        pi[s: s * rmax + 1: s] += ms * lam[1: rmax + 1]
    xi = np.zeros(L + 1, dtype=np.int64)
    if L >= 1:
        xi[1] = 1
    for d in range(1, wi + 1):
        md = int(mu[d])
        if md:
            xi[d::d] -= md
    return pi, xi


def count_in_class(source, N, q, a, weight="unit"):
    """Weighted count of primes p <= N with p = a (mod q).

    source is a PrimeTable (weights unit/log) or PsPrimeSet (additionally
    log_over_phiprime, the derivative-compensated weight log(p)/phi'(p)).
    """
    if math.gcd(int(a), int(q)) != 1:
        raise ValueError("need gcd(a, q) = 1")
    if isinstance(source, PsPrimeSet):
        ps = source.members
        if N > source.limit:
            raise ValueError("N beyond enumerated limit")
    else:
        ps = source.primes
        if N > source.limit:
            raise ValueError("N beyond table limit")
    ps = ps[(ps <= N) & (ps % q == a % q)]
    if weight == "unit":
        return int(ps.size)
    if weight == "log":
        return float(np.sum(np.log(ps))) if ps.size else 0.0
    if weight == "log_over_phiprime":
        if not isinstance(source, PsPrimeSet):
            raise ValueError("log_over_phiprime needs a PsPrimeSet source")
        if ps.size == 0:
            return 0.0
        dphi = hfun.eval_phi_clamped(source.inv, ps)
        return float(np.sum(np.log(ps) / dphi))
    raise ValueError(f"unknown weight {weight!r}")


# -- floor-image prime sets --------------------------------------------------

@dataclass
class PsPrimeSet:
    inv: hfun.InverseSpec
    limit: int
    members: np.ndarray
    witnesses: np.ndarray
    p_min: float

    def member_mask(self, upto):
        mask = np.zeros(int(upto) + 1, dtype=bool)
        mask[self.members[self.members <= upto]] = True
        return mask

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n_witness_index", "p_prime"])
            for n, p in zip(self.witnesses, self.members):
                wr.writerow([int(n), int(p)])


def _floor_guarded_h(inv, ns):
    """floor(h(n)) with extended-precision recomputation near integers."""
    spec = inv.parent
    hs = hfun.eval_h(spec, ns.astype(float))
    risky = _near_int(hs)
    floors = np.floor(hs)
    if np.any(risky):
        hs_ld = hfun.eval_h(spec, ns[risky].astype(np.longdouble))
        floors[risky] = np.floor(hs_ld).astype(float)
    return floors


def _floor_identity(inv, ps):
    """Vectorized floor(-phi(p)) - floor(-phi(p+1)) == 1 with the guard.

    Where phi(p) or phi(p+1) lies within the guard of an integer, phi cannot
    tell on which side of it the integer falls (its exponent is rounded apart
    from h's, and an exact h(n) = p needs phi(p) = n exactly), so p is decided
    by h in longdouble: the first n with h(n) >= p is rint(phi(p)) or the next
    integer, and p is an image iff floor(h(n)) = p there.
    """
    ps = np.asarray(ps, dtype=np.int64)
    fp = hfun.eval_phi(inv, ps.astype(float))
    fp1 = hfun.eval_phi(inv, (ps + 1).astype(float))
    out = np.floor(-fp) - np.floor(-fp1) == 1
    risky = _near_int(fp) | _near_int(fp1)
    if np.any(risky):
        spec, p = inv.parent, ps[risky]
        n = np.maximum(np.rint(fp[risky]), math.ceil(spec.x0)).astype(np.longdouble)
        n = np.where(hfun.eval_h(spec, n) >= p, n, n + 1)
        out[risky] = np.floor(hfun.eval_h(spec, n)) == p
    return out


def ps_member(inv, p):
    """Floor-identity membership test for a single prime p >= ceil(h(x0))."""
    p = int(p)
    if p < math.ceil(inv.y0):
        raise DomainError(f"p={p} below ceil(h(x0))={math.ceil(inv.y0)}")
    return bool(_floor_identity(inv, np.asarray([p]))[0])


def small_p_threshold(inv, gap=0.5, cap=2 ** 62):
    """First p with phi(p+1) - phi(p) < gap; inf if the gap never shrinks.

    The gap is decreasing (phi concave), so a doubling search plus bisection
    locates the integer boundary.  Evaluated in longdouble: near 2^53 the
    double-precision phi difference is pure rounding noise.
    """
    def gap_at(p):
        ph = hfun.eval_phi(inv, np.array([p, p + 1], dtype=np.longdouble))
        return float(ph[1] - ph[0])

    lo = max(2, math.ceil(inv.y0))
    if gap_at(lo) < gap:
        return lo
    hi = lo
    while gap_at(hi) >= gap:
        hi *= 2
        if hi > cap:
            return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap_at(mid) < gap:
            hi = mid
        else:
            lo = mid
    return hi


def enumerate_ps_primes(inv, N, table):
    """All primes p <= N of the form floor(h(n)), with first witnesses.

    Cross-validates every member against the floor identity above the
    small-p threshold; below it, disagreements are logged only.
    """
    N = int(N)
    if N > table.limit:
        raise ValueError("N beyond table limit")
    spec = inv.parent
    n_start = max(1, math.ceil(spec.x0))
    if hfun.eval_h(spec, float(n_start)) >= N + 1:
        return PsPrimeSet(inv, N, np.empty(0, np.int64), np.empty(0, np.int64),
                          small_p_threshold(inv))
    n_end = int(np.floor(hfun.eval_phi(inv, float(N + 1))))
    while hfun.eval_h(spec, float(n_end + 1)) < N + 1:
        n_end += 1
    while n_end >= n_start and hfun.eval_h(spec, float(n_end)) >= N + 1:
        n_end -= 1
    ns = np.arange(n_start, n_end + 1, dtype=np.int64)
    floors = _floor_guarded_h(inv, ns)
    ps = floors.astype(np.int64)
    keep = (ps >= 2) & (ps <= N)
    ns, ps = ns[keep], ps[keep]
    keep = table.is_prime[ps]
    ns, ps = ns[keep], ps[keep]
    if ps.size:
        first = np.ones(ps.size, dtype=bool)
        first[1:] = ps[1:] != ps[:-1]
        ns, ps = ns[first], ps[first]
    p_min = small_p_threshold(inv)
    above = ps[ps >= p_min] if ps.size else ps
    above = above[above >= math.ceil(inv.y0)]
    if above.size:
        ok = _floor_identity(inv, above)
        if not np.all(ok):
            raise NumericalError(
                f"floor identity rejects {int(np.sum(~ok))} enumerated members, "
                f"first p={int(above[~ok][0])}")
    below = ps[(ps < p_min) & (ps >= math.ceil(inv.y0))] if ps.size else ps
    if below.size:
        # sufficiently-large regime not reached: enumeration decides, the
        # floor identity is informational here
        ok = _floor_identity(inv, below)
        log.info("%d members below small-p threshold %s; floor identity "
                 "disagreements there: %d (logged, not asserted)",
                 int(below.size), p_min, int(np.sum(~ok)))
    return PsPrimeSet(inv, N, ps, ns, p_min)
