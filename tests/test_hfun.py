import math

import numpy as np
import pytest

from psroth import (
    ConvergenceError,
    DomainError,
    eval_h,
    eval_h_deriv,
    eval_phi,
    eval_phi_deriv,
    example_specs,
    iterated_log,
    power_explog,
    power_log,
    ps_exponent_spec,
    pure_power,
    sigma_tau,
    spec_from_config,
    spec_to_config,
    theta_h,
    theta_phi,
    vtheta,
)
from psroth import hfun
from psroth.hfun import FunctionSpec, vtheta_d1, vtheta_d2

ALL = list(example_specs().items())
# the examples plus the edges of the family: c = 1 at depths 1 and 3, c near 2
# with a negative log power, and a decaying exp-log factor
EDGES = ALL + [("il1", iterated_log(1)), ("il3", iterated_log(3)),
               ("pl_1.9", power_log(1.9, -3.0)),
               ("pe_1.05", power_explog(1.05, -0.5, 0.9))]


def dyadic_grid(spec, decades=6, per=4):
    lo = spec.x0 * 1.5
    return lo * 2.0 ** np.linspace(0.0, decades * math.log2(10.0), decades * per)


def test_pure_power_values():
    spec = pure_power(1.5)
    assert eval_h(spec, 4.0) == pytest.approx(8.0, rel=1e-12)
    assert eval_h_deriv(spec, 4.0, 1) == pytest.approx(3.0, rel=1e-12)
    assert eval_h_deriv(spec, 4.0, 2) == pytest.approx(0.375, rel=1e-12)


def test_power_log_fixed_point():
    # natural normalization: h(x) = x log x exactly, so h(e) = e
    spec = power_log(1.0, 1.0, x0=2.0)
    assert eval_h(spec, math.e) == pytest.approx(math.e, rel=1e-12)
    assert eval_h(spec, 10.0) == pytest.approx(10.0 * math.log(10.0), rel=1e-12)


def anchor(spec):
    """h(x0) = C_h * x0^c * l(x0), l written out from each kind's definition
    in scalar math: the one point where l's normalization enters, kept apart
    from eval_h so that a wrong overall factor there shows too."""
    el = math.log(spec.x0)
    if spec.kind == "pure_power":
        l0 = 1.0
    elif spec.kind == "power_log":
        l0 = el ** spec.A
    elif spec.kind == "power_explog":
        l0 = math.exp(spec.A * el ** spec.B)
    else:
        l0 = el
        for _ in range(spec.m - 1):
            l0 = math.log(l0)
    return spec.C_h * spec.x0 ** spec.c * l0


def quadrature_h(spec, xs):
    """h(x) = h(x0) * (x/x0)^c * exp(integral_{x0}^{x} vtheta(t)/t dt), the
    oracle for the closed forms: it reads only the anchor and vtheta.

    With u = log t the integral is that of vtheta(e^u) du, taken by composite
    20-point Gauss-Legendre on panels at most 0.5 wide in u.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    h0, u0 = anchor(spec), math.log(spec.x0)
    out = []
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        u1 = math.log(x)
        edges = np.linspace(u0, u1, max(1, math.ceil(2.0 * (u1 - u0))) + 1)
        half = np.diff(edges)[:, None] / 2.0
        u = (edges[:-1, None] + half) + half * nodes
        integral = float(np.sum(half * weights * vtheta(spec, np.exp(u))))
        out.append(h0 * (x / spec.x0) ** spec.c * math.exp(integral))
    return np.array(out)


def test_closed_form_vs_quadrature():
    # the integral defining the slowly varying part, done two ways
    for name, spec in EDGES:
        xs = dyadic_grid(spec)
        a = eval_h(spec, xs)
        b = quadrature_h(spec, xs)
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12, name


def test_power_log_direct_formula():
    spec = power_log(1.05, 2.0)
    x = 100.0
    expect = x ** 1.05 * math.log(x) ** 2
    assert eval_h(spec, x) == pytest.approx(expect, rel=1e-12)
    assert quadrature_h(spec, x)[0] == pytest.approx(expect, rel=1e-12)


def test_derivative_recursion_identity():
    # x h^(i) = h^(i-1) (alpha_i + theta_i) with alpha_i = c - i + 1
    for name, spec in ALL:
        xs = dyadic_grid(spec)
        prev = eval_h(spec, xs)
        for i in (1, 2, 3):
            lhs = xs * eval_h_deriv(spec, xs, i)
            rhs = prev * (spec.c - i + 1 + theta_h(spec, xs, i))
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-9, (name, i)
            prev = eval_h_deriv(spec, xs, i)


def test_theta_matches_ratio():
    for name, spec in ALL:
        xs = dyadic_grid(spec)
        prev = eval_h(spec, xs)
        for i in (1, 2, 3):
            cur = eval_h_deriv(spec, xs, i)
            ratio_theta = xs * cur / prev - (spec.c - i + 1)
            rec_theta = theta_h(spec, xs, i)
            scale = np.maximum(np.abs(rec_theta), 1.0)
            assert np.max(np.abs(ratio_theta - rec_theta) / scale) < 1e-9, (name, i)
            prev = cur


def test_derivatives_vs_finite_difference():
    for name, spec in ALL:
        xs = np.array([50.0, 500.0, 5000.0])
        xs = np.maximum(xs, spec.x0 * 2.0)
        step = xs * 1e-5
        for i in (1, 2, 3):
            f = (lambda z: eval_h(spec, z)) if i == 1 else (
                lambda z: eval_h_deriv(spec, z, i - 1))
            fd = (f(xs + step) - f(xs - step)) / (2 * step)
            d = eval_h_deriv(spec, xs, i)
            assert np.max(np.abs(d - fd) / np.abs(d)) < 1e-6, (name, i)


def test_power_log_second_derivative_fd():
    spec = power_log(1.0, 1.0)
    x = 50.0
    step = x * 1e-5
    fd = (eval_h_deriv(spec, x + step, 1) - eval_h_deriv(spec, x - step, 1)) / (2 * step)
    assert eval_h_deriv(spec, x, 2) == pytest.approx(fd, rel=1e-6)


def test_inverse_round_trip():
    for name, spec in ALL + [("pp", pure_power(1.5))]:
        xs = np.array([max(2.0, spec.x0), 10.0 + spec.x0, 1e4])
        ys = eval_h(spec, xs)
        back = eval_phi(spec, ys)
        assert np.max(np.abs(back - xs) / xs) < 1e-10, name
        # and the other composition on a y grid
        ys2 = spec.y0 * np.array([1.5, 20.0, 3e4])
        there = eval_h(spec, eval_phi(spec, ys2))
        assert np.max(np.abs(there - ys2) / ys2) < 1e-9, name


@pytest.mark.parametrize("name,spec", EDGES, ids=[e[0] for e in EDGES])
def test_inverse_sweep_from_domain_start(name, spec):
    # y from just above h(x0) to 1e17 h(x0): Newton converges everywhere,
    # phi is nondecreasing and h(phi(y)) returns y to roundoff
    ys = spec.y0 * np.concatenate([[1 + 1e-12, 1 + 1e-9, 1 + 1e-6],
                                  1.0 + np.logspace(-3, 17, 400)])
    x = eval_phi(spec, ys)
    assert np.all(np.diff(x) >= 0), name
    assert np.max(np.abs(eval_h(spec, x) - ys) / ys) < 1e-13, name


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="longdouble has no extra precision on this platform")
def test_phi_longdouble_residual():
    # the sieve's floor guards rely on phi being accurate to longdouble roundoff
    for name, spec in ALL:
        ys = np.longdouble(spec.y0) * np.logspace(0.1, 15, 120, dtype=np.longdouble)
        x = eval_phi(spec, ys)
        assert x.dtype == np.longdouble, name
        assert np.max(np.abs(eval_h(spec, x) - ys) / ys) <= 1e-17, name


def test_phi_budget_exhausted_raises_with_bracket(monkeypatch):
    monkeypatch.setattr(hfun, "_NEWTON_ITER", 1)
    spec = power_log(1.2, 2.0)
    with pytest.raises(ConvergenceError) as info:
        eval_phi(spec, spec.y0 * np.array([10.0, 1e6]))
    lo, hi = info.value.bracket
    assert spec.x0 <= lo <= hi < math.inf


def test_phi_pinned_value():
    # bisection-to-1e-12 oracle for 10^(2/3)
    spec = pure_power(1.5)
    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 1.5 < 10.0:
            lo = mid
        else:
            hi = mid
    assert eval_phi(spec, 10.0) == pytest.approx(0.5 * (lo + hi), abs=1e-11)
    assert eval_phi(spec, 10.0) == pytest.approx(4.641588834, abs=1e-8)
    assert eval_phi(spec, 8.0) == pytest.approx(4.0, rel=1e-12)


def test_phi_derivative_identities():
    for name, spec in ALL:
        ys = spec.y0 * 2.0 ** np.arange(1, 20, dtype=float)
        phi = eval_phi(spec, ys)
        d1 = eval_phi_deriv(spec, ys, 1)
        # y phi' = phi (gamma + theta)
        rhs = phi * (spec.gamma + theta_phi(spec, ys, 1))
        assert np.max(np.abs(ys * d1 - rhs) / np.abs(rhs)) < 1e-9, name
        # phi' = 1 / h'(phi)
        assert np.max(np.abs(d1 * eval_h_deriv(spec, phi, 1) - 1.0)) < 1e-9, name


def test_phi_prime_pinned():
    spec = pure_power(1.5)
    assert eval_phi_deriv(spec, 8.0, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    y = 8.0
    ratio = y * eval_phi_deriv(spec, y, 1) / eval_phi(spec, y)
    assert ratio == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_phi_second_derivative_fd():
    spec = power_log(1.0, 1.0)
    y = 200.0
    step = y * 1e-5
    fd = (eval_phi_deriv(spec, y + step, 1) - eval_phi_deriv(spec, y - step, 1)) / (2 * step)
    assert eval_phi_deriv(spec, y, 2) == pytest.approx(fd, rel=1e-6)


def test_sigma_tau_reconstruction():
    # y phi'' = phi' sigma tau, all kinds
    for name, spec in ALL:
        ys = spec.y0 * 2.0 ** np.arange(2, 24, dtype=float)
        s, t = sigma_tau(spec, ys)
        lhs = ys * eval_phi_deriv(spec, ys, 2)
        rhs = eval_phi_deriv(spec, ys, 1) * s * t
        scale = np.maximum(np.abs(lhs), 1e-300)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9, name


def test_sigma_tau_c1_shape():
    spec = power_log(1.0, 1.0)
    ys = 100.0 * 2.0 ** np.arange(0, 20, dtype=float)
    s, t = sigma_tau(spec, ys)
    assert np.all(s > 0) and np.all(np.diff(s) < 0)
    # envelope recorded from a dev sweep of the same grid: -tau in [0.59, 0.88]
    assert np.all((-t > 0.3) & (-t < 1.5))


def test_sigma_tau_c_above_one():
    spec = pure_power(1.5)
    s, _ = sigma_tau(spec, np.array([10.0, 1e4, 1e8]))
    assert np.all(s == 1.0)


def test_sigma_tau_degenerate_identity():
    spec = pure_power(1.0)
    with pytest.raises(DomainError):
        sigma_tau(spec, 100.0)


def test_monotone_normalized_ratio():
    # x * phi(x)^(-delta) strictly increasing, delta = c - 0.01 (1 at c=1)
    for name, spec in ALL:
        delta = 1.0 if spec.c == 1.0 else spec.c - 0.01
        ys = spec.y0 * 2.0 ** np.linspace(0.5, 30, 60)
        vals = ys * eval_phi(spec, ys) ** (-delta)
        assert np.all(np.diff(vals) > 0), name


def test_domain_errors():
    spec = power_log(1.2, 2.0)
    with pytest.raises(DomainError):
        eval_h(spec, spec.x0 * 0.5)
    with pytest.raises(DomainError):
        eval_phi(spec, spec.y0 * 0.5)
    with pytest.raises(ValueError):
        eval_h_deriv(spec, 10.0, 4)
    with pytest.raises(ValueError, match="1, 2 or 3"):
        theta_h(spec, 10.0, 4)
    for fn in (eval_phi_deriv, theta_phi):
        with pytest.raises(ValueError, match="1 or 2"):
            fn(spec, 100.0, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        pure_power(2.0)      # c must stay below 2
    with pytest.raises(ValueError):
        pure_power(0.9)      # and at least 1
    with pytest.raises(ValueError):
        ps_exponent_spec(0.4)
    with pytest.raises(ValueError):
        FunctionSpec(kind="nonsense", c=1.2)
    # every kind has closed forms: there is no generic kind of callables
    with pytest.raises(ValueError):
        FunctionSpec(kind="generic", c=1.2)
    # params are exactly the ones the kind reads, every number finite
    for kind, params in (("pure_power", {"A": 1.0}), ("power_log", {"A": 1.0, "B": 0.5}),
                         ("power_log", {})):
        with pytest.raises(ValueError, match="takes params"):
            FunctionSpec(kind, 1.2, params=params)
    for bad in (dict(c=math.nan), dict(C_h=math.inf), dict(x0=math.inf), dict(x0="3"),
                dict(c=True)):
        with pytest.raises(ValueError, match="finite number"):
            FunctionSpec(**{"kind": "pure_power", "c": 1.2, **bad})
    with pytest.raises(ValueError, match="integer"):
        FunctionSpec("iterated_log", 1.0, params={"m": 2.0})
    for C_h in (0.0, -1.0):
        with pytest.raises(ValueError, match="C_h must be positive"):
            pure_power(1.2, C_h=C_h)
    for B in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="B"):
            power_explog(1.2, 0.7, B)
    for kind_args in (dict(c=1.0, params={"m": 0}), dict(c=1.5, params={"m": 1})):
        with pytest.raises(ValueError, match="iterated_log is a c = 1 kind"):
            FunctionSpec("iterated_log", **kind_args)
    with pytest.raises(ValueError, match="no default x0"):
        iterated_log(4)
    assert iterated_log(4, x0=1e5).x0 == 1e5


def test_ps_exponent_round_trip():
    spec = ps_exponent_spec(0.95)
    assert spec.gamma == pytest.approx(0.95, rel=1e-12)
    ys = np.array([100.0, 1e6])
    assert np.allclose(eval_phi(spec, ys), ys ** 0.95, rtol=1e-12)


def test_config_round_trip():
    for name, spec in ALL:
        again = spec_from_config(spec_to_config(spec))
        assert again == spec, name
    # A has one spelling: power_log reads no field C
    cfg = spec_to_config(power_log(1.0, 1.5))
    cfg["params"] = {"C": 1.5}
    with pytest.raises(ValueError, match="takes params"):
        spec_from_config(cfg)


def test_iterated_log_depths():
    for m in (1, 2, 3):
        spec = iterated_log(m)
        xs = dyadic_grid(spec, decades=4)
        d = eval_h_deriv(spec, xs, 1)
        step = xs * 1e-5
        fd = (eval_h(spec, xs + step) - eval_h(spec, xs - step)) / (2 * step)
        assert np.max(np.abs(d - fd) / np.abs(d)) < 1e-6, m


def test_vtheta_derivative_consistency():
    # closed-form vtheta' and vtheta'' vs finite differences of vtheta
    for name, spec in ALL:
        xs = np.array([30.0, 300.0, 3000.0])
        xs = np.maximum(xs, spec.x0 * 3.0)
        step = xs * 1e-5
        d1 = vtheta_d1(spec, xs)
        fd1 = (vtheta(spec, xs + step) - vtheta(spec, xs - step)) / (2 * step)
        assert np.max(np.abs(d1 - fd1) / np.maximum(np.abs(d1), 1e-12)) < 1e-5, name
        d2 = vtheta_d2(spec, xs)
        fd2 = (vtheta_d1(spec, xs + step) - vtheta_d1(spec, xs - step)) / (2 * step)
        assert np.max(np.abs(d2 - fd2) / np.maximum(np.abs(d2), 1e-15)) < 1e-5, name
    # a pure power has vtheta = 0, and so do its derivatives
    for fn in (vtheta, vtheta_d1, vtheta_d2):
        zeros = fn(pure_power(1.5), np.array([3, 30, 300]))
        assert zeros.dtype == float and zeros.tolist() == [0.0] * 3


def test_phi_growth_ratio_recorded():
    # phi(2y)/phi(y) -> 2^gamma from below-ish; recorded, loose band asserted
    spec = ps_exponent_spec(0.95)
    ys = 10.0 ** np.arange(2, 9, dtype=float)
    ratio = eval_phi(spec, 2 * ys) / eval_phi(spec, ys)
    assert np.allclose(ratio, 2.0 ** 0.95, rtol=1e-9)
    spec = power_log(1.0, 1.5)
    r2 = eval_phi(spec, 2 * ys) / eval_phi(spec, ys)
    assert np.all((r2 > 1.5) & (r2 < 2.0))


def test_domain_start_computed_once(monkeypatch):
    # y0 = h(x0) is the one scalar h evaluation; phi's domain check and the
    # clamp read it on every call, so it must be computed once per spec
    real = hfun.eval_h
    scalar_calls = []

    def counting(spec, x):
        if np.ndim(x) == 0:
            scalar_calls.append(float(x))
        return real(spec, x)

    monkeypatch.setattr(hfun, "eval_h", counting)
    for spec in (hfun.ps_exponent_spec(0.95), hfun.power_log(1.2, 2.0, x0=3.0)):
        scalar_calls.clear()
        ks = np.arange(1, 200)
        for _ in range(5):
            hfun.eval_phi(spec, np.array([50.0, 1e4]))
            hfun.eval_phi_clamped(spec, ks)
            hfun.eval_phi_clamped(spec, ks, 0)
        assert scalar_calls == [spec.x0]
        assert spec.y0 == float(real(spec, spec.x0))
