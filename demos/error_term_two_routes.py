"""
The weighted error term, measured along two routes
==================================================

Route one compares the derivative-compensated sum over floor-image primes
against the plain prime sum at every grid frequency.  Route two rewrites the
same difference through the sawtooth of -phi.  The sup should grow strictly
slower than N, and the h(x) = x control is identically zero.
"""

import math

import numpy as np

from psroth import expsums, hfun, sieve

inv = hfun.inverse_of(hfun.ps_exponent_spec(0.99))
Ns = [2 ** k for k in range(16, 21)]
table = sieve.sieve_primes(Ns[-1])
# the enumeration and the inversion of phi are built once, at the largest N;
# every smaller N reads their prefixes
inputs = expsums.error_term_inputs(inv, Ns[-1], 1, 0, table)

print("N, sup |difference|, sup/N, route gap:")
sups = []
for N in Ns:
    rep = expsums.error_term_sup(inputs, N, grid=2048)
    sups.append(rep.sup_diff)
    print(f"  2^{round(math.log2(N))}: {rep.sup_diff:10.1f}  "
          f"{rep.sup_diff / N:.5f}  {rep.route_gap:8.1f}")

slope = float(np.polyfit(np.log(Ns), np.log(sups), 1)[0])
print(f"\nfitted log-log slope: {slope:.4f}  (< 1 means a power saving)")

# control: for h(x) = x the floor image is every prime and both weights
# collapse to log p, so the difference vanishes identically
invx = hfun.inverse_of(hfun.pure_power(1.0))
rep = expsums.error_term_sup(expsums.error_term_inputs(invx, Ns[0], 1, 0, table),
                             Ns[0], grid=2048)
print(f"h(x)=x control: sup={rep.sup_diff} route_gap={rep.route_gap}")
