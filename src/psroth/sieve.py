"""Prime tables, arithmetic functions, and floor-image prime sets.

One segment-sieve kernel gives the primality flags of any [lo, hi] from the
base primes up to sqrt(hi), sieving in chunks of _BLOCK integers.
PrimeTable holds its flags over [0, limit] and the sorted primes.
prime_powers, the one builder of the von Mangoldt weight, lists the prime
powers of a residue class up to some top with Lambda(k); the direct sums,
the prime-sum split, its coefficients and the error term read it, and
PrimeTable.mangoldt_array scatters it into a dense array.  The scalar von
Mangoldt and Moebius functions, the tests' oracles, factor their argument by
trial division and never read the table beyond its limit check.

PsPrimeSet holds the primes hit by floor(h(n)) for a growth spec h, which
enumerate_ps_primes finds block by block over the n-range, each block in
cache-sized sub-blocks.  A sub-block goes through every step in turn: its
guarded floors (_floor_guarded_h, the one place floor(h(n)) is taken over a
range of n), its values in [2, N], their primality and the first n of each
prime; only the kept rows outlive it, so no array spans a block.  Primality
is one lookup into the flags of the block's values: a table's, or the value
segment the block reaches, sieved once.  A block dedupes against
floor(h(lo - 1)) and raises its own floor-identity rejections, so it needs
no other block.  Members are int64, witnesses int32 while n < 2^31, and
to_csv writes the same bytes for either witness dtype.
The blocks, and PsPrimeSet.to_csv's blocks of rows, can run on threads
through run.in_order, which hands their results back in order.
The membership test for a single prime p uses the floor identity

    floor(-phi(p)) - floor(-phi(p+1)) == 1,

equivalent to an integer n landing in [phi(p), phi(p+1)), which characterizes
membership exactly once consecutive phi values are less than 1 apart.  Floors
within max(1e-9, 4 ulp of the sub-block's largest value) of an integer are
recomputed before deciding: exactly in integers for a pure power n^(a/b)
whose double exponent rounds a/b (the guard then also covers that rounding),
in extended precision otherwise; where phi(p) or phi(p+1) is that close to
an integer, the recomputed floor of h at the neighbouring n decides instead.
Below the small-p threshold (first p with phi(p+1) - phi(p) < 1/2)
membership comes from direct enumeration and disagreements with the floor
identity are logged rather than asserted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hfun, run
from .errors import DomainError, NumericalError, ResourceError

log = logging.getLogger(__name__)

_BLOCK = 1 << 20
# n per sub-block of enumerate_ps_primes' blocks: the arrays of each step
# (512 KB for 8 bytes per n) stay in cache
_SUB_BLOCK = 1 << 16
# rows per joined run of blocks in enumerate_ps_primes (32 MB of members,
# 16 MB of int32 witnesses)
_JOIN = 1 << 22
_DEFAULT_BUDGET = 1 << 27


def _near_int(x, slack=0.0):
    """True where x lies within max(1e-9, 4 ulp(max |x|) + slack) of an integer.

    One tolerance serves all of x, taken at its largest magnitude, so it is
    never narrower than 4 ulp(|x|) at any element, only wider where x spans
    binades; the enumeration passes sub-blocks of h, whose values span one
    or two.
    """
    x = np.asarray(x)
    top = max(x.max(initial=0.0), -x.min(initial=0.0))
    tol = max(1e-9, 4 * float(np.spacing(top)) + slack)
    return abs(np.rint(x) - x) < tol


# -- prime table -------------------------------------------------------------

@dataclass
class PrimeTable:
    limit: int
    is_prime: np.ndarray
    primes: np.ndarray

    def mangoldt_array(self):
        """Lambda(n) for all n <= limit: prime_powers scattered into a dense
        array of 8 bytes per integer, built afresh on each call."""
        lam = np.zeros(self.limit + 1)
        ks, lam_k = prime_powers(self, self.limit)
        lam[ks] = lam_k
        return lam


def _segment_flags(lo, hi, small):
    """Primality flags of the integers lo..hi (index i is lo + i).

    small holds, ascending, every prime <= sqrt(hi) (larger ones are
    skipped).  The segment is sieved in chunks of _BLOCK integers, so each
    prime's strides stay inside a cache-sized chunk.
    """
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for c_lo in range(lo, hi + 1, _BLOCK):
        c_hi = min(c_lo + _BLOCK, hi + 1)
        for p in small:
            if p * p >= c_hi:
                break
            start = max(p * p, -(-c_lo // p) * p)
            flags[start - lo:c_hi - lo:p] = False
    return flags


def _primes_to(m):
    """The primes <= m as a list of ints, segment-sieved over their own base
    primes (the primes <= sqrt(m), found the same way)."""
    if m < 2:
        return []
    return np.flatnonzero(_segment_flags(0, m, _primes_to(math.isqrt(m)))).tolist()


def sieve_primes(limit, budget=_DEFAULT_BUDGET):
    """Primality flags over [0, limit] and the primes, by the segment sieve."""
    limit = int(limit)
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > budget:
        raise ResourceError(f"limit {limit} exceeds budget {budget}")
    is_prime = _segment_flags(0, limit, _primes_to(math.isqrt(limit)))
    return PrimeTable(limit, is_prime, np.flatnonzero(is_prime).astype(np.int64, copy=False))


def prime_powers(table, top, q=1, a=0):
    """The prime powers k <= top with k = a (mod q), ascending, and Lambda(k).

    Lambda is np.log over the primes and math.log(p) at the higher powers p^j,
    which only the primes up to sqrt(top) reach.  Those few powers go into
    the ascending primes at their searchsorted places, so the result is
    built by one copy of the class's primes, with no sort of the whole list.
    """
    top = int(top)
    if top > table.limit:
        raise ValueError(f"top={top} beyond table limit {table.limit}")
    r = a % q
    primes = table.primes[: np.searchsorted(table.primes, top, side="right")]
    if q > 1:
        primes = primes[primes % q == r]
    powers = []
    for p in table.primes[: np.searchsorted(table.primes, math.isqrt(top), side="right")]:
        p = int(p)
        pj, lp = p * p, math.log(p)
        while pj <= top:
            if pj % q == r:
                powers.append((pj, lp))
            pj *= p
    powers.sort()
    high = np.array([k for k, _ in powers], dtype=np.int64)
    at = np.searchsorted(primes, high)
    ks = np.insert(primes, at, high)
    lam = np.log(ks)
    # the m-th power (from 0) lands m places after its place among the primes
    lam[at + np.arange(high.size)] = [lp for _, lp in powers]
    return ks, lam


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


def vaughan_coefficients(v, L, table, mu=None):
    """Arrays (Pi, Xi) on [0, L] for the combinatorial prime-sum split.

    Pi[l] = sum over factorizations l = r*s with r, s <= v of
    Lambda(r)*mu(s); Xi[l] = sum of mu(d) over divisors d > v of l.
    mu, when given, is mobius_array(n, table) for some n >= min(int(v), L),
    so a caller that holds one already is not given a second build.
    """
    L = int(L)
    if L > table.limit:
        raise ValueError("L beyond table limit")
    if v < 1:
        raise ValueError("v must be >= 1")
    vi = min(int(v), L)
    pk, pl = prime_powers(table, vi)
    if mu is None:
        mu = mobius_array(vi, table) if vi >= 1 else np.zeros(1, np.int8)
    pi = np.zeros(L + 1)
    for s in range(1, vi + 1):
        ms = int(mu[s])
        if ms == 0:
            continue
        n = np.searchsorted(pk, min(vi, L // s), side="right")
        pi[s * pk[:n]] += ms * pl[:n]
    xi = np.zeros(L + 1, dtype=np.int64)
    if L >= 1:
        xi[1] = 1
    for d in range(1, vi + 1):
        md = int(mu[d])
        if md:
            xi[d::d] -= md
    return pi, xi


def count_in_class(source, N, q, a, weight="unit"):
    """Weighted count of primes p <= N with p = a (mod q).

    source is a PrimeTable (weights unit/log) or PsPrimeSet (additionally
    log_over_phiprime, the derivative-compensated weight log(p)/phi'(p)).
    """
    if q < 1 or math.gcd(int(a), int(q)) != 1:
        raise ValueError("need q >= 1 and gcd(a, q) = 1")
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
        return float(np.sum(np.log(ps)))
    if weight == "log_over_phiprime":
        if not isinstance(source, PsPrimeSet):
            raise ValueError("log_over_phiprime needs a PsPrimeSet source")
        dphi = hfun.eval_phi_clamped(source.spec, ps)
        return float(np.sum(np.log(ps) / dphi))
    raise ValueError(f"unknown weight {weight!r}")


# -- floor-image prime sets --------------------------------------------------

@dataclass
class PsPrimeSet:
    spec: hfun.FunctionSpec
    limit: int
    members: np.ndarray
    witnesses: np.ndarray
    p_min: float

    def to_csv(self, path, threads=1):
        """Write the (witness, member) rows in csv.writer's format (CRLF line
        ends), in blocks of 2^16 rows.

        Both columns ascend, so their digit counts are constant on runs of
        rows cut at the powers of ten.  Each run is one uint8 matrix of
        digits, comma and CRLF, written as its bytes.  The blocks are
        formatted on `threads` threads (run.in_order) and written in order.
        """
        block = 1 << 16

        def formatted(i):
            ns, ps = self.witnesses[i:i + block], self.members[i:i + block]
            cuts = np.union1d(np.searchsorted(ns, _POW10), np.searchsorted(ps, _POW10))
            bounds = np.union1d(cuts, [0, ns.size]).tolist()
            runs = []
            for lo, hi in zip(bounds, bounds[1:]):
                wn, wp = len(str(ns[lo])), len(str(ps[lo]))
                rows = np.empty((hi - lo, wn + wp + 3), dtype=np.uint8)
                _put_digits(ns[lo:hi], rows[:, :wn])
                rows[:, wn] = ord(",")
                _put_digits(ps[lo:hi], rows[:, wn + 1:-2])
                rows[:, -2:] = (ord("\r"), ord("\n"))
                runs.append(rows)
            return runs

        blocks = run.in_order(formatted, range(0, self.members.size, block), threads)
        with open(path, "wb") as fh:
            fh.write(b"n_witness_index,p_prime\r\n")
            for runs in blocks:
                fh.writelines(runs)


# 10, 100, ..., 10^18: where a nonnegative int64 gains a digit
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _put_digits(vals, out):
    """ASCII decimal digits of the nonnegative vals into the uint8 columns of
    out, one row per value, each value exactly as wide as out."""
    for col in range(out.shape[1] - 1, -1, -1):
        vals, digit = np.divmod(vals, 10)
        out[:, col] = digit + ord("0")


def _rational_exponent(spec):
    """a/b as a Fraction when h(n) = n^(a/b) and the double c rounds a/b.

    Only pure powers with C_h = 1 whose c round-trips through
    Fraction(c).limit_denominator(10**4) qualify, b = 1 excepted (n^1 is exact
    in floating point); every other spec gives None.
    """
    if spec.kind != "pure_power" or spec.C_h != 1.0:
        return None
    frac = Fraction(spec.c).limit_denominator(10 ** 4)
    return frac if frac.denominator > 1 and float(frac) == spec.c else None


def _rounding_slack(top, exponent, exact):
    """Bound on |x^exponent - x^exact| for 1 <= x <= top, about top^exponent
    ln top |exponent - exact|; 0 when exact is None."""
    if exact is None or top <= 1:
        return 0.0
    top = float(top)
    return top ** exponent * math.log(top) * float(abs(Fraction(exponent) - exact))


def _risky_floors(spec, ns):
    """floor(h(n)) at integer n whose double h(n) is too near an integer.

    For a rational exponent (_rational_exponent) the floor is exact: the
    largest k with k^b <= n^a, in Python integers, started from h in
    longdouble.  Every other spec takes the floor of h in longdouble.
    """
    floors = np.floor(hfun.eval_h(spec, np.asarray(ns, dtype=np.longdouble))).astype(float)
    exact = _rational_exponent(spec)
    if exact is None:
        return floors
    a, b = exact.numerator, exact.denominator
    for i, (n, k) in enumerate(zip(np.asarray(ns, dtype=np.int64).tolist(),
                                   floors.astype(np.int64).tolist())):
        na = n ** a
        while k ** b > na:
            k -= 1
        while (k + 1) ** b <= na:
            k += 1
        floors[i] = k
    return floors


def _floor_guarded_h(spec, lo, hi):
    """floor(h(n)) for the integers lo <= n < hi, as int64.

    The range is taken in one piece with one near-integer tolerance
    (_near_int), so callers keep it to a sub-block of _SUB_BLOCK n, whose
    float arrays stay in cache; the floors near an integer come from
    _risky_floors.  The guard covers the double's rounding and, for a
    rational exponent, the distance of h at the double c from h at a/b,
    taken at hi - 1.
    """
    slack = _rounding_slack(hi - 1, spec.c, _rational_exponent(spec))
    # n < 2^53, so the float n are exact
    ns = np.arange(lo, hi, dtype=float)
    hs = hfun.eval_h(spec, ns)
    risky = _near_int(hs, slack)
    floors = np.floor(hs, out=hs)
    if np.any(risky):
        floors[risky] = _risky_floors(spec, ns[risky])
    return floors.astype(np.int64)


def _floor_identity(spec, ps):
    """Vectorized floor(-phi(p)) - floor(-phi(p+1)) == 1 with the guard.

    Where phi(p) or phi(p+1) lies within the guard of an integer (widened,
    for a rational exponent a/b, by the distance of phi at the double gamma
    from phi at b/a), phi cannot tell on which side of it the integer falls
    (its exponent is rounded apart from h's, and an exact h(n) = p needs
    phi(p) = n exactly), so p is decided by _risky_floors: the first n with
    h(n) >= p is rint(phi(p)) or the next integer, and p is an image iff
    floor(h(n)) = p there.
    """
    ps = np.asarray(ps, dtype=np.int64)
    fp = hfun.eval_phi(spec, ps.astype(float))
    fp1 = hfun.eval_phi(spec, (ps + 1).astype(float))
    out = np.floor(-fp) - np.floor(-fp1) == 1
    exact = _rational_exponent(spec)
    slack = _rounding_slack(ps.max(initial=0) + 1, spec.gamma,
                            None if exact is None else 1 / exact)
    risky = _near_int(fp, slack) | _near_int(fp1, slack)
    if np.any(risky):
        p = ps[risky]
        n = np.maximum(np.rint(fp[risky]), math.ceil(spec.x0))
        at_n, at_next = _risky_floors(spec, n), _risky_floors(spec, n + 1)
        out[risky] = np.where(at_n >= p, at_n, at_next) == p
    return out


def ps_member(spec, p):
    """Floor-identity membership test for a single prime p >= ceil(h(x0))."""
    p = int(p)
    if p < math.ceil(spec.y0):
        raise DomainError(f"p={p} below ceil(h(x0))={math.ceil(spec.y0)}")
    return bool(_floor_identity(spec, np.asarray([p]))[0])


def small_p_threshold(spec):
    """First p with phi(p+1) - phi(p) < 1/2; inf if none lies below 2^62.

    The gap is decreasing (phi concave), so a doubling search plus bisection
    locates the integer boundary.  Evaluated in longdouble: near 2^53 the
    double-precision phi difference is pure rounding noise.
    """
    def gap_at(p):
        ph = hfun.eval_phi(spec, np.array([p, p + 1], dtype=np.longdouble))
        return float(ph[1] - ph[0])

    lo = max(2, math.ceil(spec.y0))
    if gap_at(lo) < 0.5:
        return lo
    hi = lo
    while gap_at(hi) >= 0.5:
        hi *= 2
        if hi > 2 ** 62:
            return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap_at(mid) < 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def enumerate_ps_primes(spec, N, table=None, threads=1):
    """All primes p <= N of the form floor(h(n)), with first witnesses.

    Walks the n-range in blocks of _BLOCK integers, and each block in
    sub-blocks of _SUB_BLOCK n, so no array spans a block, let alone the
    range.  Each sub-block takes its guarded floors (_floor_guarded_h), its
    values in [2, N], their primality and the first n of each prime, and
    keeps only those rows.  A block dedupes against floor(h(lo - 1)), the
    previous block's last floor, so a p whose run of n straddles a boundary
    keeps only its first witness.
    Primality is one lookup into the flags of the block's values [first
    value in [2, N], min(N, last value)]: a view of table when one is given,
    else that segment sieved with the base primes up to sqrt(N).
    Each block checks its members against the floor identity: above the
    small-p threshold it raises NumericalError naming the first rejected p;
    below it, disagreements are summed over the blocks and logged only.
    The blocks run on `threads` threads (run.in_order), each holding one
    sub-block's arrays, one value segment and its kept rows; in_order raises
    the earliest block's error and the join takes the blocks in n order, so
    the result and the errors are the same for every thread count.
    Members are int64; witnesses are int32 when the last n is below 2^31,
    else int64.
    """
    N = int(N)
    if table is not None and N > table.limit:
        raise ValueError("N beyond table limit")
    p_min = small_p_threshold(spec)
    n_start = max(1, math.ceil(spec.x0))
    if hfun.eval_h(spec, float(n_start)) >= N + 1:
        return PsPrimeSet(spec, N, np.empty(0, np.int64), np.empty(0, np.int32), p_min)
    n_end = int(np.floor(hfun.eval_phi(spec, float(N + 1))))
    while hfun.eval_h(spec, float(n_end + 1)) < N + 1:
        n_end += 1
    while n_end >= n_start and hfun.eval_h(spec, float(n_end)) >= N + 1:
        n_end -= 1
    witness_dtype = np.int32 if n_end < 2 ** 31 else np.int64
    p_lo = math.ceil(spec.y0)
    small = _primes_to(math.isqrt(N)) if table is None else None

    def floor_at(n):
        return int(_floor_guarded_h(spec, n, n + 1)[0])

    def block(lo):
        """The block's members (first since floor(h(lo - 1))), their
        witnesses, and how many members lie in [p_lo, p_min) and how many of
        those the floor identity rejects; raises on a rejected member at or
        above p_min.  Above and below p_min the identity runs on separate
        arrays, as its guard is taken at an array's largest value."""
        hi = min(lo + _BLOCK, n_end + 1)
        parts = [(np.empty(0, np.int64), np.empty(0, witness_dtype))]
        flags = None
        prev = -1 if lo == n_start else floor_at(lo - 1)
        for s in range(lo, hi, _SUB_BLOCK):
            vals = _floor_guarded_h(spec, s, min(s + _SUB_BLOCK, hi))
            # the floors ascend, so the values in [2, N] are one slice of them
            i, j = np.searchsorted(vals, [2, N + 1]).tolist()
            if i == j:
                continue
            vals = vals[i:j]
            if flags is None:
                # the flags run from the block's first value in [2, N],
                # known once a sub-block's floors are, to the block's last
                # floor, which bounds the values of the rest
                base, top = int(vals[0]), min(N, floor_at(hi - 1))
                flags = (_segment_flags(base, top, small) if table is None
                         else table.is_prime[base:top + 1])
            keep = flags[vals - base]
            keep &= np.diff(vals, prepend=prev) != 0
            prev = int(vals[-1])
            at = np.flatnonzero(keep)
            parts.append((vals[at], (at + (s + i)).astype(witness_dtype)))
        ps, ns = (np.concatenate(col) for col in zip(*parts))
        ok = np.ones(ps.size, dtype=bool)
        checked = ps >= p_lo
        for part in (checked & (ps >= p_min), checked & (ps < p_min)):
            if np.any(part):
                ok[part] = _floor_identity(spec, ps[part])
        bad = ~ok & (ps >= p_min)
        if np.any(bad):
            raise NumericalError(
                f"floor identity rejects enumerated member p={int(ps[bad][0])} "
                f"({int(np.sum(bad))} rejected in its block of n)")
        sub = checked & (ps < p_min)
        return ps, ns, int(np.sum(sub)), int(np.sum(sub & ~ok))

    # blocks since the last join, and the joined runs of them as [members,
    # witnesses]: a run of _JOIN rows is large enough that the allocator maps
    # it apart from the heap, so it goes back to the system once poured
    pending, runs, rows = [], [], 0
    below = below_bad = 0
    blocks = range(n_start, n_end + 1, _BLOCK)
    for ps, ns, n_below, n_bad in run.in_order(block, blocks, threads):
        below += n_below
        below_bad += n_bad
        pending.append((ps, ns))
        rows += ps.size
        if rows >= _JOIN:
            runs.append([np.concatenate(col) for col in zip(*pending)])
            pending, rows = [], 0
    if pending:
        runs.append([np.concatenate(col) for col in zip(*pending)])
        pending.clear()   # the blocks go before _pour copies their run
    if below:
        # sufficiently-large regime not reached: enumeration decides, the
        # floor identity is informational here
        log.info("%d members below small-p threshold %s; floor identity "
                 "disagreements there: %d (logged, not asserted)",
                 below, p_min, below_bad)
    return PsPrimeSet(spec, N, _pour(runs, 0, np.int64),
                      _pour(runs, 1, witness_dtype), p_min)


def _pour(runs, col, dtype):
    """Column col of the runs joined into one array of dtype.  Each run's
    column is dropped once copied, so the join holds little more than its
    result."""
    out = np.empty(sum(run[col].size for run in runs), dtype=dtype)
    lo = 0
    for run in runs:
        out[lo:lo + run[col].size] = run[col]
        lo += run[col].size
        run[col] = None
    return out
