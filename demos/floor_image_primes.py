"""
Primes in the floor image of h
==============================

p is kept when floor(-phi(p)) - floor(-phi(p+1)) = 1, i.e. when some integer
n has floor(h(n)) = p.  The density of the kept primes tracks phi(N)/log N
and the residue classes equidistribute.
"""

import math

import numpy as np

from psroth import hfun, sieve

# h(x) = x^(1/0.95): the classical floor-image construction
spec = hfun.ps_exponent_spec(0.95)
table = sieve.sieve_primes(10 ** 6)
ps = sieve.enumerate_ps_primes(spec, 10 ** 6, table)
print(f"members up to 1e6: {ps.members.size} of {table.primes.size} primes")
print(f"first ten: {ps.members[:10].tolist()}")

# membership is a floor identity, checkable per prime
for p in (2, 3, 5, 7, 11, 13):
    print(f"  ps_member({p}) = {sieve.ps_member(spec, p)}")

# density ratio pi_h(N) log N / phi(N) drifts toward 1 as N grows
print("\ndensity ratio against phi(N)/log N:")
for N in (10 ** 4, 10 ** 5, 10 ** 6):
    cnt = int(np.count_nonzero(ps.members <= N))
    target = float(hfun.eval_phi(spec, float(N))) / math.log(N)
    print(f"  N=10^{round(math.log10(N))}: count={cnt:6d}  ratio={cnt / target:.4f}")

# the two invertible classes mod 4 carry nearly equal counts
c1 = sieve.count_in_class(ps, 10 ** 6, 4, 1)
c3 = sieve.count_in_class(ps, 10 ** 6, 4, 3)
print(f"\nmod 4 split: {c1} vs {c3} "
      f"(spread {abs(c1 - c3) / max(c1, c3):.3%})")

# below the small-p threshold the gap phi(p+1) - phi(p) exceeds 1/2 and the
# floor identity can misfire; enumeration there comes from the direct image
print(f"\nsmall-p threshold for gamma=0.95: {sieve.small_p_threshold(spec):.0f}")
print(f"small-p threshold for gamma=0.99: {sieve.small_p_threshold(hfun.ps_exponent_spec(0.99))}")
