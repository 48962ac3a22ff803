"""Exponential sums with prime-supported coefficients and curved phases.

The central object is the weighted sum

    S = sum_{P < k <= P1, k = a (mod q)} Lambda(k) e(xi k + m phi(k)),

with phi the inverse of a growth spec.  exp_sum_direct evaluates it by brute
force with compensated summation.  vaughan_decompose rewrites it through the
combinatorial prime-sum identity into four ranged pieces S1 - S21 - S22 + S3
(logarithm-weighted, two convolution-weighted, and one genuinely bilinear)
and reports the reconstruction residual.

The bound checkers measure single sums and bilinear blocks against the
second-derivative test and the differencing chain: Cauchy-Schwarz, then
per-row Weyl differencing, then the triangle inequality, each step recorded
with its slack so a failed inequality names the step that broke.

error_term_sup compares the derivative-compensated floor-prime sum with the
plain prime sum on a frequency grid (the quantity whose smallness drives the
whole transference argument) and also returns the sawtooth middle form that
links the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import hfun, sieve, zn_fourier
from .errors import DomainError

TWO_PI = 2.0 * np.pi


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


@dataclass
class BoundReport:
    measured: float
    bound_type_I: float = math.nan
    bound_bilinear: float = math.nan
    ratio_type_I: float = math.nan
    ratio_bilinear: float = math.nan
    details: dict = field(default_factory=dict)


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


def sawtooth_expansion(t, M):
    """Truncated Fourier series of the sawtooth and its absolute error.

    sum_{0<|mm|<=M} e(-mm t) / (2 pi i mm) = -sum_{mm=1..M} sin(2 pi mm t)/(pi mm).
    """
    M = int(M)
    if M < 1:
        raise ValueError("M must be >= 1")
    t = np.asarray(t, dtype=float)
    ms = np.arange(1, M + 1)
    approx = -np.sum(np.sin(TWO_PI * np.multiply.outer(t, ms)) / (np.pi * ms), axis=-1)
    err = np.abs(sawtooth_phi(t) - approx)
    if approx.ndim == 0:
        return float(approx), float(err)
    return approx, err


def b_coefficient_bound(mm, M):
    """Envelope min(log M / M, 1/|mm|, M/mm^2) for the smoothed coefficients."""
    M = int(M)
    if M < 2:
        raise ValueError("M must be >= 2")
    if mm == 0:
        return math.log(M) / M
    return min(math.log(M) / M, 1.0 / abs(mm), M / mm ** 2)


# -- phases and direct sums --------------------------------------------------

def _phase(inv, alpha, mm, vals):
    """e(alpha * k + mm * phi(k)) elementwise over integer vals."""
    vals = np.asarray(vals, dtype=np.int64)
    ph = alpha * vals.astype(float) + mm * hfun.eval_phi_clamped(inv, vals, 0)
    return np.exp(1j * TWO_PI * ph)


def _csum(z):
    """Compensated (exactly rounded) sum of a complex array."""
    return complex(math.fsum(z.real), math.fsum(z.imag))


def exp_sum_direct(inv, pp, table):
    """Brute-force evaluation of the ranged weighted sum."""
    if pp.P1 > table.limit:
        raise ValueError("P1 beyond table limit")
    ks = np.arange(pp.P + 1, pp.P1 + 1, dtype=np.int64)
    ks = ks[ks % pp.q == pp.a]
    lam = table.mangoldt_array()[ks]
    keep = lam > 0
    ks, lam = ks[keep], lam[keep]
    if ks.size == 0:
        return 0.0 + 0.0j
    return _csum(lam * _phase(inv, pp.xi, pp.m, ks))


# -- the four-piece split ----------------------------------------------------

def default_cutoff(inv, P1):
    """v = phi(P1) * P1^(-5/8), the balanced choice for the split ranges."""
    return float(hfun.eval_phi(inv, float(P1))) * float(P1) ** (-0.625)


def _split_plain(inv, alpha, mm, P, P1, v, table, lam, mu, pi_arr, xi_arr):
    """Components of the split for the plain Lambda-sum at frequency alpha."""
    vi = int(math.floor(v))
    s1 = 0.0 + 0.0j
    s21 = 0.0 + 0.0j
    s22 = 0.0 + 0.0j
    s3 = 0.0 + 0.0j
    l_top = int(math.floor(min(v * v, P1)))
    for l in range(1, l_top + 1):
        klo = P // l + 1
        khi = P1 // l
        if khi < klo:
            continue
        ks = np.arange(klo, khi + 1, dtype=np.int64)
        ph = _phase(inv, alpha, mm, ks * l)
        if l <= vi:
            ml = int(mu[l])
            if ml:
                s1 += ml * _csum(np.log(ks.astype(float)) * ph)
            if pi_arr[l] != 0.0:
                s21 += pi_arr[l] * _csum(ph)
        elif pi_arr[l] != 0.0:
            s22 += pi_arr[l] * _csum(ph)
    l3_top = int(math.floor(P1 / v))
    for l in range(vi + 1, l3_top + 1):
        if xi_arr[l] == 0:
            continue
        klo = max(P // l + 1, vi + 1)
        khi = P1 // l
        if khi < klo:
            continue
        ks = np.arange(klo, khi + 1, dtype=np.int64)
        wk = lam[ks]
        keep = wk > 0
        if not np.any(keep):
            continue
        ks, wk = ks[keep], wk[keep]
        s3 += int(xi_arr[l]) * _csum(wk * _phase(inv, alpha, mm, ks * l))
    return s1, s21, s22, s3


def vaughan_decompose(inv, pp, table, v=None):
    """Split the ranged weighted sum into S1 - S21 - S22 + S3 and compare
    against the direct evaluation."""
    if v is None:
        v = default_cutoff(inv, pp.P1)
    if v <= 1.0:
        raise ValueError(f"cutoff v={v} is degenerate (need v > 1)")
    if v >= pp.P:
        raise ValueError(f"cutoff v={v} must stay below P={pp.P}")
    if pp.P1 > table.limit:
        raise ValueError("P1 beyond table limit")
    lam = table.mangoldt_array()
    vi = int(math.floor(v))
    mu = sieve.mobius_array(vi, table)
    L = int(math.floor(max(v * v, pp.P1 / v)))
    pi_arr, xi_arr = sieve.vaughan_coefficients(v, v, min(L, table.limit), table)
    tot = [0.0 + 0.0j] * 4
    for s in range(pp.q):
        coeff = np.exp(-1j * TWO_PI * s * pp.a / pp.q) / pp.q
        parts = _split_plain(inv, pp.xi + s / pp.q, pp.m, pp.P, pp.P1, v,
                             table, lam, mu, pi_arr, xi_arr)
        for i in range(4):
            tot[i] += coeff * parts[i]
    direct = exp_sum_direct(inv, pp, table)
    recombined = tot[0] - tot[1] - tot[2] + tot[3]
    return VaughanSplit(float(v), tot[0], tot[1], tot[2], tot[3], direct,
                        abs(recombined - direct))


# -- bound checks ------------------------------------------------------------

def vdc_single_bound(eta, r, interval_len):
    """Second-derivative-test envelope r * |I| * eta^(1/2) + eta^(-1/2)."""
    if eta <= 0 or r < 1 or interval_len < 0:
        raise ValueError("need eta > 0, r >= 1, interval_len >= 0")
    return r * interval_len * math.sqrt(eta) + 1.0 / math.sqrt(eta)


def abel_summation(u, g, g_prime, a, b, method="exact"):
    """Recompute sum_{a<n<=b} u[n] g(n) as U(b)g(b) - int_a^b U(t)g'(t) dt.

    U(t) = sum_{a<n<=t} u[n] is a step function, so the integral splits over
    the pieces [n_i, n_{i+1}) on which U is constant.  method="exact" applies
    the fundamental theorem per piece (the only float error is rounding);
    method="quad" integrates g' per piece with adaptive quadrature, giving a
    genuinely independent route through g_prime.  Returns (direct, by_parts).
    """
    u = np.asarray(u, dtype=float)
    lo = math.floor(a) + 1
    hi = math.floor(b)
    ns = np.arange(lo, hi + 1)
    if ns.size == 0:
        return 0.0, 0.0
    direct = math.fsum(u[n] * g(n) for n in ns)
    U = np.cumsum(u[ns])
    pieces = np.append(ns.astype(float), float(b))
    if method == "exact":
        integral = math.fsum(U[i] * (g(pieces[i + 1]) - g(pieces[i]))
                             for i in range(ns.size))
    elif method == "quad":
        from scipy.integrate import quad
        integral = math.fsum(
            U[i] * quad(g_prime, pieces[i], pieces[i + 1], epsabs=1e-12)[0]
            for i in range(ns.size))
    else:
        raise ValueError(f"unknown method {method!r}")
    return direct, float(U[-1]) * g(float(b)) - integral


def type_I_bound_check(inv, l, j, X, mm, alpha):
    """Measure |sum_{k<=X} e(alpha j k l + mm phi(k l))| against the
    curvature envelope |mm|^(1/2) log(lX) lX (sigma(lX) phi(lX))^(-1/2)."""
    l, X = int(l), int(X)
    if l < 1 or X < 2:
        raise ValueError("need l >= 1 and X >= 2")
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    if mm == 0:
        raise ValueError("mm must be nonzero")
    ks = np.arange(1, X + 1, dtype=np.int64)
    ph = _phase(inv, alpha * j, mm, ks * l)
    measured = abs(_csum(ph))
    y = float(l) * X
    sig = _sigma_at(inv, y)
    vp = float(hfun.eval_phi(inv, y))
    bound = math.sqrt(abs(mm)) * math.log(y) * y / math.sqrt(sig * vp)
    return BoundReport(measured, bound_type_I=bound,
                       ratio_type_I=measured / bound if bound > 0 else math.inf,
                       details={"sigma": sig, "phi": vp})


def _sigma_at(inv, y):
    # h = x has no curvature: sigma is undefined and every curvature bound
    # degenerates, so report nan instead of raising
    try:
        sig, _ = hfun.sigma_tau(inv, float(max(y, inv.y0)))
    except DomainError:
        return math.nan
    return float(sig)


def default_bilinear_R(inv, K, L, mm):
    """Offset count R = ceil(|mm|^(-1/3) K^(-1/3) (sigma*phi)(KL)^(1/3)),
    clamped into [1, K]."""
    y = float(K) * L
    r = (abs(mm) * K) ** (-1.0 / 3.0) * (_sigma_at(inv, y) * float(hfun.eval_phi(inv, y))) ** (1.0 / 3.0)
    return min(int(K), max(1, math.ceil(r)))


def bilinear_check(inv, K, L, mm, alpha, R=None, D1=None, D2=None, rng=None):
    """Measure a bilinear block sum over (K, 2K] x (L, 2L] and verify each
    link of the differencing chain, then compare against the final envelope.

    Hypothesis failures (|mm| * min(K,L) > sigma*phi(KL), phi(KL) > min^4,
    R > K) raise ValueError naming the offender.
    """
    K, L = int(K), int(L)
    if K < 2 or L < 2:
        raise ValueError("need K, L >= 2")
    if mm == 0:
        raise ValueError("mm must be nonzero")
    if D1 is None or D2 is None:
        rng = rng or np.random.Generator(np.random.Philox(7))
        if D1 is None:
            D1 = np.exp(1j * TWO_PI * rng.random(L))
        if D2 is None:
            D2 = np.exp(1j * TWO_PI * rng.random(K))
    D1 = np.asarray(D1, dtype=np.complex128)
    D2 = np.asarray(D2, dtype=np.complex128)
    if D1.shape != (L,) or D2.shape != (K,):
        raise ValueError("D1 must have length L and D2 length K")
    y = float(K) * L
    sig = _sigma_at(inv, y)
    vp = float(hfun.eval_phi(inv, y))
    failures = []
    if abs(mm) * min(K, L) > sig * vp * (1 + 1e-12):
        failures.append(f"|mm|*min(K,L)={abs(mm)*min(K,L)} > sigma*phi={sig*vp}")
    if vp > float(min(K, L)) ** 4 * (1 + 1e-12):
        failures.append(f"phi(KL)={vp} > min(K,L)^4={float(min(K,L))**4}")
    if R is None:
        R = default_bilinear_R(inv, K, L, mm)
    R = int(R)
    if not (1 <= R <= K):
        failures.append(f"R={R} outside [1, K]")
    if failures:
        raise ValueError("hypothesis failed: " + "; ".join(failures))
    ls = np.arange(L + 1, 2 * L + 1, dtype=np.int64)
    ks = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    # phase matrix over the block, k rows, l columns
    kl = np.multiply.outer(ks, ls)
    ph = np.exp(1j * TWO_PI * (alpha * kl.astype(float)
                               + mm * hfun.eval_phi_clamped(inv, kl, 0)))
    inner = D2[:, None] * ph
    col = np.sum(inner, axis=0)
    B = complex(np.sum(D1 * col))
    T = float(np.sum(np.abs(col) ** 2))
    # E_r = sum_l sum_k z_k conj(z_{k+r}), z_k = D2(k) e(alpha k l + mm phi(k l))
    E = {}
    for r in range(-R, R + 1):
        if r >= 0:
            prod = inner[: K - r if r else K] * np.conj(inner[r:])
        else:
            prod = inner[-r:] * np.conj(inner[: K + r])
        E[r] = complex(np.sum(prod))
    e0_cap = L * float(np.sum(np.abs(D2) ** 2))
    w_sum = sum((1.0 - abs(r) / R) * E[r] for r in range(-R, R + 1))
    cauchy_rhs = float(np.sum(np.abs(D1) ** 2)) * T
    wvdc_rhs = (K + R) / R * w_sum.real
    tri_rhs = E[0].real + sum(abs(E[r]) for r in range(-R, R + 1) if r != 0)
    slack = 1e-9
    checks = {
        "e0_within_cap": abs(E[0]) <= e0_cap * (1 + slack),
        "cauchy": abs(B) ** 2 <= cauchy_rhs * (1 + slack),
        "weyl_differencing": T <= wvdc_rhs * (1 + slack) + slack,
        "triangle": w_sum.real <= tri_rhs * (1 + slack) + slack,
    }
    bound = (abs(mm) ** (1.0 / 6.0) * math.log(L) ** 2 * math.log(K) ** 2
             * (sig * vp) ** (-1.0 / 6.0) * float(min(K, L)) ** (1.0 / 6.0) * K * L)
    measured = abs(B)
    return BoundReport(
        measured, bound_bilinear=bound,
        ratio_bilinear=measured / bound if bound > 0 else math.inf,
        details={"R": R, "E0": E[0], "e0_cap": e0_cap,
                 "cauchy_lhs": abs(B) ** 2, "cauchy_rhs": cauchy_rhs,
                 "wvdc_lhs": T, "wvdc_rhs": wvdc_rhs,
                 "triangle_lhs": w_sum.real, "triangle_rhs": tri_rhs,
                 "checks": checks, "sigma": sig, "phi": vp})


# -- the two-route error term ------------------------------------------------

def error_term_sup(inv, N, q, a, table, grid=4096):
    """Sup over the xi-grid of the floor-prime vs plain-prime weighted gap.

    Route one: sum_{p in P_h, p <= N, p = a (q)} log(p)/phi'(p) e(xi p)
             - sum_{p prime <= N, p = a (q)} log(p) e(xi p).
    Route two (middle form): the sawtooth-difference sum over prime powers,
    sum_k Lambda_{a,q}(k)/phi'(k) (Phi(-phi(k+1)) - Phi(-phi(k))) e(xi k).

    Returns the sup of route one, both per-xi profiles, and the sup gap
    between the routes.
    """
    N = int(N)
    if N > table.limit:
        raise ValueError("N beyond table limit")
    if math.gcd(a, q) != 1:
        raise ValueError("need gcd(a, q) = 1")
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be >= 2")
    ps = sieve.enumerate_ps_primes(inv, N, table)
    mem = ps.members[(ps.members % q == a % q)]
    w_h = np.log(mem.astype(float)) / hfun.eval_phi_clamped(inv, mem)
    A = zn_fourier.sparse_fourier_on_grid(mem, w_h.astype(complex), grid)
    pr = table.primes[(table.primes <= N) & (table.primes % q == a % q)]
    B = zn_fourier.sparse_fourier_on_grid(
        pr, np.log(pr.astype(float)).astype(complex), grid)
    lam = table.mangoldt_array()
    ks = np.flatnonzero(lam[: N + 1] > 0).astype(np.int64)
    ks = ks[ks % q == a % q]
    kf = ks.astype(float)
    phi_k = hfun.eval_phi_clamped(inv, kf, 0)
    phi_k1 = hfun.eval_phi_clamped(inv, kf + 1.0, 0)
    saw = sawtooth_phi(-phi_k1) - sawtooth_phi(-phi_k)
    w_mid = lam[ks] * saw / hfun.eval_phi_clamped(inv, kf)
    C = zn_fourier.sparse_fourier_on_grid(ks, w_mid.astype(complex), grid)
    per_xi = np.abs(A - B)
    per_xi_middle = np.abs(C)
    route_gap = float(np.max(np.abs(A - B - C)))
    return ErrorTermReport(float(np.max(per_xi)), per_xi, per_xi_middle, route_gap)
