"""Acceptance gate: eight measured criteria, one verdict line each.

Each test prints `criterion N: PASS/FAIL (measured detail)` and enforces the
runtime ceiling it was specified with.  The headline statements are
asymptotic, so the gate rests on exact identities, oracle equivalence, and
measured trends at desk scale.
"""

import math
import time

import numpy as np

from psroth import checks, expsums, hfun, measures, roth, sieve


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    results = checks.run_all()
    elapsed = time.perf_counter() - t0
    failed = [name for name, passed, _ in results if not passed]
    ok = not failed and elapsed < 60
    _verdict(1, ok, f"{len(results)} checks, failed={failed}, {elapsed:.1f}s")


# criterion 2's central differences in longdouble: the step, as a fraction
# of the point, per derivative order, and the bound on each derivative's
# relative error, about 10x the worst measured over the five example specs
# at x0 2^1..2^7 (h' 1.3e-13, h'' 2.3e-9, h''' 1.7e-6, phi' 1.7e-13,
# phi'' 3.2e-9)
_CD_STEPS = {1: 1e-6, 2: 1e-4, 3: 1e-3}
_CD_BOUNDS = {"h'": 1.5e-12, "h''": 2.5e-8, "h'''": 2e-5, "phi'": 2e-12, "phi''": 3e-8}


def _central_difference(f, x, order):
    """The order-th derivative of f at x by a central difference in
    longdouble, returned as float."""
    x = np.asarray(x, dtype=np.longdouble)
    s = x * np.longdouble(_CD_STEPS[order])
    if order == 1:
        d = (f(x + s) - f(x - s)) / (2 * s)
    elif order == 2:
        d = (f(x + s) - 2 * f(x) + f(x - s)) / (s * s)
    else:
        d = (f(x + 2 * s) - 2 * f(x + s) + 2 * f(x - s) - f(x - 2 * s)) / (2 * s ** 3)
    return d.astype(float)


def test_criterion_2_function_identities():
    t0 = time.perf_counter()
    worst = 0.0
    worst_fd = 0.0
    # the recursions write each derivative through one theta formula on both
    # sides; the central differences of h and phi are a second route
    worst_cd = dict.fromkeys(_CD_BOUNDS, 0.0)
    for spec in hfun.example_specs().values():
        xs = spec.x0 * 2.0 ** np.arange(1, 8)
        for i in (1, 2, 3):
            lhs = xs * hfun.eval_h_deriv(spec, xs, i)
            prev = hfun.eval_h(spec, xs) if i == 1 else hfun.eval_h_deriv(spec, xs, i - 1)
            rhs = prev * (spec.c - i + 1 + hfun.theta_h(spec, xs, i))
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
        inv = hfun.inverse_of(spec)
        ys = hfun.eval_h(spec, xs)
        lhs = ys * hfun.eval_phi_deriv(inv, ys, 1)
        rhs = hfun.eval_phi(inv, ys) * (inv.gamma + hfun.theta_phi(inv, ys, 1))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
        sig, tau = hfun.sigma_tau(inv, ys)
        lhs = ys * hfun.eval_phi_deriv(inv, ys, 2)
        rhs = hfun.eval_phi_deriv(inv, ys, 1) * sig * tau
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))))
        step = xs * 1e-5
        fd = (hfun.eval_h(spec, xs + step) - hfun.eval_h(spec, xs - step)) / (2 * step)
        d1 = hfun.eval_h_deriv(spec, xs, 1)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - d1) / np.abs(d1))))
        for order in (1, 2, 3):
            exact = hfun.eval_h_deriv(spec, xs, order)
            cd = _central_difference(lambda x: hfun.eval_h(spec, x), xs, order)
            name = "h" + "'" * order
            worst_cd[name] = max(worst_cd[name], float(np.max(np.abs(cd - exact) / np.abs(exact))))
        for order in (1, 2):
            exact = hfun.eval_phi_deriv(inv, ys, order)
            cd = _central_difference(lambda y: hfun.eval_phi(inv, y), ys, order)
            name = "phi" + "'" * order
            worst_cd[name] = max(worst_cd[name], float(np.max(np.abs(cd - exact) / np.abs(exact))))
    elapsed = time.perf_counter() - t0
    cd_ok = all(worst_cd[name] <= bound for name, bound in _CD_BOUNDS.items())
    ok = worst <= 1e-9 and worst_fd <= 1e-6 and cd_ok and elapsed < 10
    cd = ", ".join(f"{name} {err:.1e}" for name, err in worst_cd.items())
    _verdict(2, ok, f"identity rel err {worst:.2e}, fd rel err {worst_fd:.2e}, "
                    f"central difference rel err {cd}, {elapsed:.1f}s")


def test_criterion_3_density_band(inv95, table_1e7, ps95_1e7):
    t0 = time.perf_counter()

    def ratio(N):
        cnt = int(np.count_nonzero(ps95_1e7.members <= N))
        return cnt * math.log(N) / float(hfun.eval_phi(inv95, float(N)))

    r7, r5 = ratio(10 ** 7), ratio(10 ** 5)
    # internal calibration: the same statistic for the full primes
    pi7 = int(np.count_nonzero(table_1e7.primes <= 10 ** 7))
    calib = pi7 * math.log(10 ** 7) / 10 ** 7
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= r7 <= 1.20 and abs(r7 - 1) < abs(r5 - 1) and elapsed < 300
    _verdict(3, ok, f"ratio@1e7 {r7:.4f}, ratio@1e5 {r5:.4f}, "
                    f"plain-prime calibration {calib:.4f}, {elapsed:.1f}s")


def test_criterion_4_residue_equidistribution(ps95_1e7):
    t0 = time.perf_counter()
    c1 = sieve.count_in_class(ps95_1e7, 10 ** 7, 4, 1)
    c3 = sieve.count_in_class(ps95_1e7, 10 ** 7, 4, 3)
    spread = abs(c1 - c3) / max(c1, c3)
    elapsed = time.perf_counter() - t0
    ok = spread <= 0.10 and elapsed < 300
    _verdict(4, ok, f"classes {c1} vs {c3}, spread {spread:.4%}, {elapsed:.1f}s")


def test_criterion_5_error_term_decay(inv99):
    t0 = time.perf_counter()
    Ns = [2 ** k for k in range(16, 23)]
    table = sieve.sieve_primes(Ns[-1])
    # one build at the top of the ladder, as errsweep does
    inputs = expsums.error_term_inputs(inv99, Ns[-1], 1, 0, table)
    sups = [expsums.error_term_sup(inputs, N, grid=4096).sup_diff for N in Ns]
    slope = float(np.polyfit(np.log(Ns), np.log(sups), 1)[0])
    invx = hfun.inverse_of(hfun.pure_power(1.0))
    inputs = expsums.error_term_inputs(invx, Ns[-1], 1, 0, table)
    control = [expsums.error_term_sup(inputs, N, grid=4096).sup_diff for N in Ns]
    elapsed = time.perf_counter() - t0
    ok = slope < 1.0 and all(c == 0.0 for c in control) and elapsed < 1800
    _verdict(5, ok, f"slope {slope:.4f}, control sups {set(control)}, {elapsed:.1f}s")


def test_criterion_6_restriction_stability(inv95, table_1e6):
    t0 = time.perf_counter()
    rep1 = roth.restriction_ratio(inv95, table_1e6, 10 ** 5, 3.0, 50, 20260814)
    rep2 = roth.restriction_ratio(inv95, table_1e6, 2 * 10 ** 5, 3.0, 50, 20260814)
    growth = rep2.max_ratio / rep1.max_ratio
    elapsed = time.perf_counter() - t0
    ok = (growth < 1.5
          and abs(rep1.control_ratio - 1) <= 1e-6
          and abs(rep2.control_ratio - 1) <= 1e-6
          and elapsed < 1200)
    _verdict(6, ok, f"max {rep1.max_ratio:.4f} -> {rep2.max_ratio:.4f}, "
                    f"growth {growth:.3f}, controls "
                    f"{rep1.control_ratio}, {rep2.control_ratio}, {elapsed:.1f}s")


def test_criterion_7_transference_smoke(inv95, table_1e6):
    t0 = time.perf_counter()
    rep = roth.transference_build(inv95, table_1e6, 10 ** 5)
    n, m = rep.n, rep.m
    in_range = rep.A.size > 0 and rep.A.min() >= 1 and rep.A.max() <= rep.N // 2
    prime_ok = bool(table_1e6.is_prime[rep.N])
    window_ok = math.ceil(2 * n / m) <= rep.N <= 4 * n // m
    # pigeonhole: the heaviest of the phi(m) unit classes carries at least
    # their average share of the window (all of it when m = 1)
    mass_ok = rep.mass >= rep.window_mass / sieve._totient(m) * (1 - 1e-12)
    elapsed = time.perf_counter() - t0
    ok = in_range and prime_ok and window_ok and mass_ok and elapsed < 120
    _verdict(7, ok, f"N={rep.N}, |A|={rep.A.size}, mass {rep.mass:.4f} vs "
                    f"window {rep.window_mass:.4f}, {elapsed:.1f}s")


def test_criterion_8_upper_bound_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    N = 1009
    worst_slack = -math.inf
    worst_gap = 0.0
    for _ in range(10):
        w = rng.random(N) * (rng.random(N) < 0.05)
        a = measures.WeightedSequence(N, w, "test")
        report = measures.spectrum_and_bohr(a, 0.4 * a.mass, 0.3)
        out = roth.smoothing_bound_chain(a, report)
        worst_slack = max(worst_slack,
                          abs(out["difference"]) - out["triangle_bound"])
        worst_gap = max(worst_gap, out["identity_gap"])
    elapsed = time.perf_counter() - t0
    ok = worst_slack <= 1e-9 and worst_gap <= 1e-9 and elapsed < 60
    _verdict(8, ok, f"max(|diff| - bound) {worst_slack:.2e}, identity gap "
                    f"{worst_gap:.2e}, {elapsed:.1f}s")
