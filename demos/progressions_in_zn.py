"""
Counting three-term progressions two ways
=========================================

The trilinear form N^{-1} sum_xi F[f](xi) F[g](-2xi) F[h](xi) counts ordered
progressions (x, x+d, x+2d) in Z_N.  The direct walk over differences gives
the same integers, plus an explicit witness.
"""

import numpy as np

from psroth import count_3aps, trilinear_fft, varnavides_count

# a small set with exactly one progression (two ordered copies)
rep = count_3aps({1, 2, 3, 7}, 11, mode="cyclic")
print(f"A = {{1,2,3,7}} in Z_11: lam3={rep.lam3} "
      f"nontrivial={rep.nontrivial} witness={rep.witness}")

# integer mode looks only inside [0, N): {1, 2, 4, 5} is progression-free
rep = count_3aps({1, 2, 4, 5}, 6, mode="integer")
print(f"A = {{1,2,4,5}} integers: nontrivial={rep.nontrivial} "
      f"witness={rep.witness}")

# frequency route and difference walk agree on random sets: count_3aps takes
# the trilinear form of the indicator 1_A and, at this N, also walks the
# differences, raising unless the two counts are equal
rng = np.random.default_rng(1)
N = 1009
A = np.flatnonzero(rng.random(N) < 0.2)
walk = count_3aps(A, N, mode="cyclic")
indicator = np.zeros(N)
indicator[A] = 1.0
freq = trilinear_fft(indicator, indicator, indicator)
print(f"\nrandom |A|={A.size} in Z_{N}: difference walk lam3={walk.lam3}, "
      f"frequency route lam3={freq.real:.6f}")

# the averaging step: every length-M subprogression P_{a,d} meets a dense
# set about M |A| / N times on average, so a positive proportion of the
# (a, d) pairs carry at least half that
M = 9
v = varnavides_count(A, N, M)
print(f"\nlength-{M} subprogressions: threshold={v.threshold:.2f}")
print(f"good pairs: {v.good_pairs} of {N * (N - 1)} "
      f"(identity holds for every d: {v.identity_ok})")
print(f"implied lower bound Z >= good/(M*M) = {v.Z_lower} "
      f"~ {float(v.Z_lower):.1f}")
