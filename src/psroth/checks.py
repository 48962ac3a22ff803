"""Exact-identity suite: every machine-checkable identity in the package.

Each check returns (name, passed, detail); a randomized check fixes its own
seed.  run_all executes the whole suite; the command line prints one line per
check and the acceptance tests assert on the same results, so the two entry
points cannot drift apart.
"""

from __future__ import annotations

import math

import numpy as np

from . import expsums, hfun, measures, roth, sieve, zn_fourier


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def check_trilinear_routes():
    """FFT trilinear form vs the O(N^2) double sum on random triples."""
    rng = _rng(2026)
    worst = 0.0
    for N in (5, 101, 1009):
        for _ in range(50):
            f, g, h = (rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(3))
            a = zn_fourier.trilinear_fft(f, g, h)
            b = zn_fourier.trilinear_direct(f, g, h)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return "trilinear_fft_vs_direct", worst <= 1e-9, f"worst rel err {worst:.3e}"


def check_inversion_and_parseval():
    """inverse_dft(dft(f)) = N f and sum|f|^2 = N^{-1} sum|F|^2."""
    rng = _rng(2027)
    worst = 0.0
    for N in (32, 101, 1009):
        f = rng.normal(size=N) + 1j * rng.normal(size=N)
        F = zn_fourier.dft(f)
        back = zn_fourier.inverse_dft(F) / N
        worst = max(worst, float(np.max(np.abs(back - f))))
        pars = abs(np.sum(np.abs(f) ** 2) - np.sum(np.abs(F) ** 2) / N)
        worst = max(worst, pars / max(1.0, float(np.sum(np.abs(f) ** 2))))
    return "inversion_and_parseval", worst <= 1e-9, f"worst err {worst:.3e}"


def check_bohr_pigeonhole():
    """|B(R, eps)| >= eps^k N for spectra of random restricted measures, and
    B equal to a per-x scan of ||x xi / N|| <= eps in exact integers."""
    rng = _rng(2028)
    ok = True
    detail = []
    # delta sits just under the top nonzero peaks so k stays small but > 1
    for N, delta_frac, eps in ((101, 0.43, 0.15), (257, 0.29, 0.2), (1009, 0.18, 0.1)):
        w = rng.random(N) * (rng.random(N) < 0.2)
        a = w / w.sum()
        rep = measures.spectrum_and_bohr(a, delta_frac * a.sum(), eps)
        lower = eps ** rep.k * N
        # min(r, N - r) / N <= eps, r = x xi mod N, with eps = num / den
        xis, (num, den) = rep.frequencies.tolist(), eps.as_integer_ratio()
        scan = [x for x in range(N)
                if all(min(x * xi % N, N - x * xi % N) * den <= num * N for xi in xis)]
        ok &= rep.bohr.size >= lower * (1 - 1e-12) and rep.bohr.tolist() == scan
        detail.append(f"N={N}: |B|={rep.bohr.size} >= {lower:.3f} (k={rep.k})")
    return "bohr_pigeonhole", ok, "; ".join(detail)


def check_varnavides_identity():
    """sum_a |A' cap P_{a,d}| = M |A'| exactly for every d."""
    rng = _rng(2029)
    ok = True
    for N, M in ((101, 8), (101, 5)):
        A = np.flatnonzero(rng.random(N) < 0.3)
        rep = roth.varnavides_count(A, N, M)
        ok &= rep.identity_ok
    return "varnavides_identity", ok, "exact integer identity over all d"


def check_lam3_decomposition():
    """count_3aps's Lam3(1_A) = |A| + nontrivial against the O(N^2) double sum."""
    rng = _rng(2030)
    ok = True
    for N in (101, 1009):
        for _ in range(5):
            A = np.flatnonzero(rng.random(N) < 0.25)
            rep = roth.count_3aps(A, N, mode="cyclic")
            ind = np.zeros(N)
            ind[A] = 1.0
            ok &= rep.lam3 == round(zn_fourier.trilinear_direct(ind, ind, ind).real)
    return "lam3_decomposition", ok, "lam3 = |A| + nontrivial, both routes"


def check_vaughan_residual():
    """Four-piece split reassembles the direct sum at P = 10^3."""
    rng = _rng(2031)
    inv = hfun.inverse_of(hfun.ps_exponent_spec(0.95))
    table = sieve.sieve_primes(2048)
    draws = []
    for _ in range(10):
        xi = float(rng.random())
        m = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        q = int(rng.choice([1, 1, 2, 3]))
        a = 0 if q == 1 else int(rng.choice([r for r in range(q) if math.gcd(r, q) == 1]))
        draws.append(expsums.PhaseParams(xi, m, a, q, 1000, 2000))
    worst = max(s.residual / max(1.0, abs(s.direct))
                for s in expsums.vaughan_decompose(inv, draws, table))
    return "vaughan_residual", worst <= 1e-12, f"worst rel residual {worst:.3e}"


def check_floor_identity_matches_enumeration():
    """Membership by floor identity vs direct enumeration, h = x^(3/2)."""
    inv = hfun.inverse_of(hfun.pure_power(1.5))
    table = sieve.sieve_primes(3000)
    ps = sieve.enumerate_ps_primes(inv, 3000, table)
    primes = table.primes[table.primes >= ps.p_min]
    listed = np.isin(primes, ps.members)
    bad = [int(p) for p, m in zip(primes, listed) if sieve.ps_member(inv, int(p)) != m]
    return "floor_identity_vs_enumeration", not bad, \
        f"checked {primes.size} primes" + (f", mismatches {bad[:5]}" if bad else "")


def check_chebyshev_identity():
    """sum_{d | n} Lambda(d) = log n for n <= 2000."""
    ks, lam = sieve.prime_powers(sieve.sieve_primes(2000), 2000)
    # acc[n] gains Lambda(d) for the prime powers d | n in ascending d
    acc = np.zeros(2001)
    for d, w in zip(ks.tolist(), lam.tolist()):
        acc[d::d] += w
    worst = max(abs(acc[n] - math.log(n)) for n in range(2, 2001))
    return "chebyshev_identity", worst <= 1e-9, f"worst abs err {worst:.3e}"


ALL_CHECKS = (
    check_trilinear_routes,
    check_inversion_and_parseval,
    check_bohr_pigeonhole,
    check_varnavides_identity,
    check_lam3_decomposition,
    check_vaughan_residual,
    check_floor_identity_matches_enumeration,
    check_chebyshev_identity,
)


def run_all():
    results = []
    for fn in ALL_CHECKS:
        try:
            name, passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            name, passed, detail = fn.__name__, False, f"raised {exc!r}"
        results.append((name, bool(passed), detail))
    return results
