"""Regularly varying growth functions h(x) = C * x^c * l(x) and their inverses.

A FunctionSpec describes a smooth increasing convex function through its
exponent c in [1, 2), a scale constant, a domain start x0, and a perturbation
vtheta driving the slowly varying factor

    l(x) = exp( integral_{x0}^{x} vtheta(t) / t dt ).

Built-in kinds cover the standard examples:

    pure_power     h(x) = C * x^c                      vtheta = 0
    power_log      h(x) = C * x^c * log(x)^A           vtheta = A / log x
    power_explog   h(x) = C * x^c * exp(A * log(x)^B)  vtheta = A*B*log(x)^(B-1)
    iterated_log   h(x) = C * x * l_m(x)               vtheta = 1/(l_1*...*l_m)

where l_m is the m-fold iterated logarithm.  The generic kind requires user
callables for vtheta and its first two derivatives and evaluates l(x) by
adaptive quadrature.

Derivatives come from the first-order recursion

    x * h^(i)(x) = h^(i-1)(x) * (c - i + 1 + theta_i(x)),

with theta_1 = vtheta and theta_i built from vtheta and its first two
derivatives.  The inverse phi is the closed form for pure powers and one
monotone Newton iteration otherwise; its derivatives use the inverse-function
rule, and eval_phi_clamped holds the clamp of below-domain integers up to
h(x0) that the prime measures use.  All evaluators are numpy-vectorized and
dtype-preserving: longdouble inputs stay longdouble, which backs the guarded
floor computations in the sieve module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError

KINDS = ("pure_power", "power_log", "power_explog", "iterated_log", "generic")

# Default domain starts.  pure_power is globally defined so x0=1; the log
# kinds need log x bounded away from 0; iterated_log additionally needs
# l_m(x0) > 0, h(x0) >= 1 and convexity at x0.
_DEFAULT_X0 = {"pure_power": 1.0, "power_log": 3.0, "power_explog": 3.0,
               "generic": 3.0}
_ITERLOG_X0 = {1: 3.0, 2: 4.0, 3: 20.0}


def _iterlogs(x, m):
    """l_m(x) and the partial products P_j = l_1*...*l_j for j = 1..m."""
    cur = np.log(x)
    parts = [cur]
    for _ in range(m - 1):
        cur = np.log(cur)
        parts.append(parts[-1] * cur)
    return cur, parts


@dataclass(frozen=True)
class FunctionSpec:
    """Growth function h(x) = C_h * x^c * l(x) on [x0, infinity).

    params holds the kind-specific extras: A (and B for power_explog) for the
    log-corrected kinds, integer m for iterated_log.  The generic kind takes
    vtheta/vtheta_d1/vtheta_d2 callables instead.
    """

    kind: str
    c: float
    C_h: float = 1.0
    x0: float | None = None
    params: dict = field(default_factory=dict)
    vtheta_fn: object = None
    vtheta_d1_fn: object = None
    vtheta_d2_fn: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not (1.0 <= self.c < 2.0):
            raise ValueError(f"c must lie in [1, 2), got {self.c}")
        if not self.C_h > 0:
            raise ValueError("C_h must be positive")
        if self.kind == "power_explog":
            b = self.params.get("B")
            if b is None or not (0.0 < b < 1.0):
                raise ValueError("power_explog needs params['B'] in (0, 1)")
            if "A" not in self.params:
                raise ValueError("power_explog needs params['A']")
        if self.kind == "power_log" and "A" not in self.params:
            raise ValueError("power_log needs params['A']")
        if self.kind == "iterated_log":
            m = self.params.get("m")
            if not isinstance(m, int) or m < 1:
                raise ValueError("iterated_log needs integer params['m'] >= 1")
            if self.c != 1.0:
                raise ValueError("iterated_log is a c = 1 kind")
        if self.kind == "generic" and not all(
                callable(f) for f in (self.vtheta_fn, self.vtheta_d1_fn, self.vtheta_d2_fn)):
            raise ValueError("generic kind needs vtheta, vtheta_d1 and vtheta_d2 callables")
        if self.x0 is None:
            if self.kind == "iterated_log":
                m = self.params["m"]
                if m not in _ITERLOG_X0:
                    raise ValueError(f"no default x0 for iterated_log m={m}; pass x0 explicitly")
                object.__setattr__(self, "x0", _ITERLOG_X0[m])
            else:
                object.__setattr__(self, "x0", _DEFAULT_X0[self.kind])
        if not self.x0 >= 1.0:
            raise ValueError("x0 must be >= 1")

    @property
    def A(self):
        return self.params.get("A", 0.0)

    @property
    def B(self):
        return self.params.get("B", 0.0)

    @property
    def m(self):
        return self.params.get("m", 1)


def pure_power(c, C_h=1.0, x0=1.0):
    return FunctionSpec("pure_power", c, C_h, x0)


def power_log(c, A, C_h=1.0, x0=None):
    return FunctionSpec("power_log", c, C_h, x0, {"A": float(A)})


def power_explog(c, A, B, C_h=1.0, x0=None):
    return FunctionSpec("power_explog", c, C_h, x0, {"A": float(A), "B": float(B)})


def iterated_log(m, C_h=1.0, x0=None):
    return FunctionSpec("iterated_log", 1.0, C_h, x0, {"m": int(m)})


def ps_exponent_spec(gamma):
    """Pure power with inverse exponent gamma: h(x) = x^(1/gamma)."""
    if not (0.5 < gamma <= 1.0):
        raise ValueError("gamma must lie in (1/2, 1]")
    return pure_power(1.0 / gamma)


def example_specs():
    """The five worked examples of the family, one per parameter regime."""
    return {
        "h1": power_log(1.2, 2.0),
        "h2": power_explog(1.2, 0.7, 0.5),
        "h3": power_log(1.0, 1.5),
        "h4": power_explog(1.0, 1.2, 0.5),
        "h5": iterated_log(2),
    }


# -- vtheta and its derivatives, closed form per kind ------------------------

def vtheta(spec, x):
    x = np.asarray(x)
    if spec.kind == "pure_power":
        return np.zeros_like(x, dtype=x.dtype if x.dtype.kind == "f" else float)
    if spec.kind == "power_log":
        return spec.A / np.log(x)
    if spec.kind == "power_explog":
        return spec.A * spec.B * np.log(x) ** (spec.B - 1.0)
    if spec.kind == "iterated_log":
        return 1.0 / _iterlogs(x, spec.m)[1][-1]
    return np.asarray(spec.vtheta_fn(x))


def vtheta_d1(spec, x):
    x = np.asarray(x)
    if spec.kind == "pure_power":
        return np.zeros_like(x, dtype=x.dtype if x.dtype.kind == "f" else float)
    if spec.kind == "power_log":
        el = np.log(x)
        return -spec.A / (x * el * el)
    if spec.kind == "power_explog":
        el = np.log(x)
        return spec.A * spec.B * (spec.B - 1.0) * el ** (spec.B - 2.0) / x
    if spec.kind == "iterated_log":
        parts = _iterlogs(x, spec.m)[1]
        g = sum(1.0 / p for p in parts)
        return -(1.0 / parts[-1]) * g / x
    return np.asarray(spec.vtheta_d1_fn(x))


def vtheta_d2(spec, x):
    x = np.asarray(x)
    if spec.kind == "pure_power":
        return np.zeros_like(x, dtype=x.dtype if x.dtype.kind == "f" else float)
    if spec.kind == "power_log":
        el = np.log(x)
        return spec.A * (el + 2.0) / (x * x * el ** 3)
    if spec.kind == "power_explog":
        el = np.log(x)
        return (spec.A * spec.B * (spec.B - 1.0) * el ** (spec.B - 3.0)
                * (spec.B - 2.0 - el) / (x * x))
    if spec.kind == "iterated_log":
        parts = _iterlogs(x, spec.m)[1]
        inv = [1.0 / p for p in parts]
        g = sum(inv)
        # s = sum_j (1/P_j) * sum_{i<=j} (1/P_i)
        s = 0.0
        run = 0.0
        for v in inv:
            run = run + v
            s = s + v * run
        return (1.0 / parts[-1]) * (g * g + g + s) / (x * x)
    return np.asarray(spec.vtheta_d2_fn(x))


# -- evaluation of h and its derivatives -------------------------------------

def eval_h(spec, x):
    """h(x) in closed form for the built-in kinds, quadrature for generic."""
    x = np.asarray(x)
    _check_hdomain(spec, x)
    if spec.kind == "pure_power":
        return spec.C_h * x ** spec.c
    if spec.kind == "power_log":
        return spec.C_h * x ** spec.c * np.log(x) ** spec.A
    if spec.kind == "power_explog":
        return spec.C_h * x ** spec.c * np.exp(spec.A * np.log(x) ** spec.B)
    if spec.kind == "iterated_log":
        return spec.C_h * x * _iterlogs(x, spec.m)[0]
    return eval_h_quadrature(spec, x)


def eval_h_quadrature(spec, x):
    """h(x) through the integral form C * (x/x0)^c * h(x0)-anchored l(x).

    Independent of the closed forms above (adaptive Gauss-Kronrod on
    vtheta(t)/t), so it doubles as the oracle for eval_h in tests.
    """
    from scipy.integrate import quad
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    _check_hdomain(spec, xs)
    anchor = _anchor_value(spec)
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        integral, _ = quad(lambda t: float(vtheta(spec, t)) / t, spec.x0, xi,
                           epsabs=1e-12, epsrel=1e-12, limit=200)
        out[i] = anchor * (xi / spec.x0) ** spec.c * math.exp(integral)
    return out[0] if scalar else out


def _anchor_value(spec):
    """h(x0); for the generic kind this is C_h * x0^c by convention."""
    if spec.kind == "generic":
        return spec.C_h * spec.x0 ** spec.c
    return float(eval_h(spec, spec.x0))


def _check_hdomain(spec, x):
    if np.any(np.asarray(x) < spec.x0 * (1.0 - 1e-12)):
        raise DomainError(f"x below domain start x0={spec.x0}")


def theta_h(spec, x, i):
    """theta_i(x) of the derivative recursion, i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    x = np.asarray(x)
    if spec.kind == "pure_power":
        return np.zeros_like(np.asarray(x, dtype=float))
    v = vtheta(spec, x)
    if i == 1:
        return v
    d1 = vtheta_d1(spec, x)
    t2 = v + x * d1 / (spec.c + v)
    if i == 2:
        return t2
    d2 = vtheta_d2(spec, x)
    cv = spec.c + v
    t2p = d1 + ((d1 + x * d2) * cv - x * d1 * d1) / (cv * cv)
    return t2 + x * t2p / (spec.c - 1.0 + t2)


def _h_and_deriv(spec, x):
    """h(x) and h'(x) = h(x) * (c + theta_1(x)) / x from one evaluation of h."""
    h = eval_h(spec, x)
    return h, h * (spec.c + theta_h(spec, x, 1)) / x


def eval_h_deriv(spec, x, i):
    """h^(i)(x) for i in {1, 2, 3} via the theta recursion."""
    if i not in (1, 2, 3):
        raise ValueError("i must be 1, 2 or 3")
    x = np.asarray(x)
    _, d = _h_and_deriv(spec, x)
    if i == 1:
        return d
    d = d * (spec.c - 1.0 + theta_h(spec, x, 2)) / x
    if i == 2:
        return d
    return d * (spec.c - 2.0 + theta_h(spec, x, 3)) / x


# -- the inverse -------------------------------------------------------------

# Newton stops once each step is at most _NEWTON_TOL * max(x, 1), and
# raises ConvergenceError if that takes more than _NEWTON_ITER steps
_NEWTON_TOL = 1e-12
_NEWTON_ITER = 200


@dataclass(frozen=True)
class InverseSpec:
    """Inverse phi of a FunctionSpec: phi(h(x)) = x on [h(x0), infinity)."""

    parent: FunctionSpec

    @property
    def gamma(self):
        return 1.0 / self.parent.c

    @functools.cached_property
    def y0(self):
        """h(x0), the start of phi's domain; computed once per spec."""
        return float(eval_h(self.parent, self.parent.x0))


def inverse_of(spec):
    return InverseSpec(spec)


def _check_phidomain(inv, y):
    y0 = inv.y0
    if np.any(np.asarray(y) < y0 * (1.0 - 1e-12)):
        raise DomainError(f"y below domain start h(x0)={y0}")


def eval_phi(inv, y):
    """phi(y), dtype-preserving: longdouble in, longdouble out.

    Pure powers use the closed form.  Other kinds run one Newton iteration
    in double precision from an upper bracket, where it descends monotonically
    onto the root because h is convex and increasing; longdouble input then
    gets 4 more steps in longdouble.  Raises ConvergenceError, carrying the
    last bracket, when the bracket or Newton runs out of steps.
    """
    spec = inv.parent
    yarr = np.asarray(y)
    scalar = yarr.ndim == 0
    longdouble = yarr.dtype == np.longdouble
    _check_phidomain(inv, yarr)
    if spec.kind == "pure_power":
        out = (yarr / np.asarray(spec.C_h, dtype=yarr.dtype if longdouble else float)) ** \
            np.asarray(inv.gamma, dtype=yarr.dtype if longdouble else float)
        out = np.maximum(out, spec.x0)
        return out if not scalar else out[()]
    x = _newton_phi(inv, np.atleast_1d(yarr))
    return x[0] if scalar else x.reshape(yarr.shape)


def _newton_step(spec, x, y):
    """One Newton step for h(x) = y, kept inside the domain; also the step."""
    h, dh = _h_and_deriv(spec, x)
    step = (h - y) / dh
    return np.maximum(x - step, spec.x0), step


def _newton_phi(inv, y):
    spec = inv.parent
    ys = y.astype(float)
    x = np.maximum(spec.x0, (ys / spec.C_h) ** inv.gamma)
    for _ in range(128):
        low = eval_h(spec, x) < ys
        if not np.any(low):
            break
        x = np.where(low, x * 2.0, x)
    else:
        raise ConvergenceError("bracket growth failed", bracket=(float(x.min()), float(x.max())))
    done = np.zeros(ys.shape, dtype=bool)
    for _ in range(_NEWTON_ITER):
        xn, step = _newton_step(spec, x, ys)
        done |= np.abs(step) <= _NEWTON_TOL * np.maximum(x, 1.0)
        x = np.where(done, x, xn)
        if np.all(done):
            break
    else:
        raise ConvergenceError(
            f"Newton failed for {int(np.sum(~done))} points near y={float(ys[~done][0])}",
            bracket=(float(np.min(x[~done])), float(np.max(x[~done]))))
    # one polish step: quadratic convergence squares the residual, leaving
    # the root accurate to roundoff (the floor guards rely on this)
    x = _newton_step(spec, x, ys)[0]
    if y.dtype == np.longdouble:
        x = x.astype(np.longdouble)
        for _ in range(4):
            x = _newton_step(spec, x, y)[0]
    return x


def eval_phi_deriv(inv, y, i):
    """phi^(i)(y) for i in {1, 2} by the inverse-function rule."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    spec = inv.parent
    x = eval_phi(inv, y)
    d1 = 1.0 / eval_h_deriv(spec, x, 1)
    if i == 1:
        return d1
    return -eval_h_deriv(spec, x, 2) * d1 ** 3


def eval_phi_clamped(inv, k, i=1):
    """phi^(i)(max(k, h(x0))) at integers k, for i in {0, 1, 2}.

    Floor-image members and phase arguments can lie below h(x0), outside
    phi's domain: at most floor(h(x0)), e.g. the member 1 = floor(h(1)) for
    pure powers.  Those values are clamped up to h(x0).  This is the one
    place that policy lives; the prime measures weight each member k by
    log(k) / eval_phi_clamped(inv, k).
    """
    y = np.maximum(np.asarray(k, dtype=float), inv.y0)
    return eval_phi(inv, y) if i == 0 else eval_phi_deriv(inv, y, i)


def theta_phi(inv, y, i=1):
    """theta_i(y) of the inverse recursion y*phi^(i) = phi^(i-1)*(gamma-i+1+theta_i)."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    spec = inv.parent
    x = eval_phi(inv, y)
    v = vtheta(spec, x)
    t1 = 1.0 / (spec.c + v) - inv.gamma
    if i == 1:
        return t1
    return t1 - vtheta_d1(spec, x) * x / (spec.c + v) ** 2


def sigma_tau(inv, y):
    """Factor y*phi''(y) = phi'(y)*sigma(y)*tau(y).

    For c = 1 specs, sigma(y) = vtheta(phi(y)) isolates the slowly varying
    decay rate and tau is bounded between negative constants; for c > 1 the
    convention is sigma = 1 and tau = gamma - 1 + theta_2(y).
    """
    spec = inv.parent
    if spec.c == 1.0:
        if spec.kind == "pure_power":
            raise DomainError("sigma/tau undefined for the degenerate h(x)=x")
        x = eval_phi(inv, y)
        v = vtheta(spec, x)
        sigma = v
        tau = -(1.0 / (1.0 + v)
                + vtheta_d1(spec, x) * x / (v * (1.0 + v) ** 2))
        return sigma, tau
    ones = np.ones_like(np.asarray(y, dtype=float))
    return ones if np.ndim(y) else 1.0, inv.gamma - 1.0 + theta_phi(inv, y, 2)


# -- config records ----------------------------------------------------------

def spec_to_config(spec):
    """Serializable record: {kind, c, C_h, x0, params:{A,B,m}}."""
    if spec.kind == "generic":
        raise ValueError("generic specs carry callables and do not serialize")
    rec = {"kind": spec.kind, "c": spec.c, "C_h": spec.C_h, "x0": spec.x0}
    if spec.params:
        rec["params"] = dict(spec.params)
    return rec


def spec_from_config(rec):
    rec = dict(rec)
    params = dict(rec.get("params") or {})
    # c = 1 texts usually write the log coefficient as C; accept the alias
    if "C" in params and "A" not in params:
        params["A"] = params.pop("C")
    if "m" in params:
        params["m"] = int(params["m"])
    try:
        return FunctionSpec(rec["kind"], float(rec["c"]),
                            float(rec.get("C_h", 1.0)),
                            rec.get("x0"), params)
    except KeyError as exc:
        raise ValueError(f"function config missing field {exc}") from exc
