"""
The regularly varying function family and its inverse
=====================================================

Five worked members h(x) = C_h x^c l(x), their derivative recursions, and
the inverse phi with its own recursion.  Everything here is exact structure:
each identity should hold to roundoff.
"""

import numpy as np

from psroth import hfun

# the five example kinds, one per parameter regime
specs = hfun.example_specs()
for name, spec in specs.items():
    print(f"{name}: kind={spec.kind} c={spec.c} params={spec.params or {}}")

# h and its first derivative on a dyadic grid, for the c=1 log kind
spec = specs["h3"]
xs = spec.x0 * 2.0 ** np.arange(0, 6)
print("\nh3(x) = x log^1.5 x on a dyadic grid:")
for x, h, d in zip(xs, hfun.eval_h(spec, xs), hfun.eval_h_deriv(spec, xs, 1)):
    print(f"  x={x:10.1f}  h={h:14.4f}  h'={d:8.4f}")

# the recursion x h^(i) = h^(i-1) (c - i + 1 + theta_i) at i = 1, 2, 3
print("\nrecursion residuals |x h^(i) - h^(i-1)(c-i+1+theta_i)| / |..|:")
for i in (1, 2, 3):
    lhs = xs * hfun.eval_h_deriv(spec, xs, i)
    prev = hfun.eval_h(spec, xs) if i == 1 else hfun.eval_h_deriv(spec, xs, i - 1)
    rhs = prev * (spec.c - i + 1 + hfun.theta_h(spec, xs, i))
    print(f"  i={i}: {np.max(np.abs(lhs - rhs) / np.abs(rhs)):.2e}")

# the inverse: phi(h(x)) = x, plus its own recursion y phi' = phi (gamma + theta)
ys = hfun.eval_h(spec, xs)
round_trip = hfun.eval_phi(spec, ys)
print(f"\ninverse round trip max rel err: "
      f"{np.max(np.abs(round_trip - xs) / xs):.2e}")
lhs = ys * hfun.eval_phi_deriv(spec, ys, 1)
rhs = hfun.eval_phi(spec, ys) * (spec.gamma + hfun.theta_phi(spec, ys, 1))
print(f"y phi' identity max rel err:    "
      f"{np.max(np.abs(lhs - rhs) / np.abs(rhs)):.2e}")

# sigma and tau factor the second derivative: y phi'' = phi' sigma tau.
# For c = 1 kinds sigma is the slowly varying rate and decays; tau stays
# pinned between negative constants.
sig, tau = hfun.sigma_tau(spec, ys)
print("\nsigma (decaying) and -tau (bounded) along the grid:")
for y, s, t in zip(ys, sig, tau):
    print(f"  y={y:14.2f}  sigma={s:8.5f}  -tau={-t:8.5f}")
