"""
From floor-image primes to a dense set in Z_N
=============================================

The downshift: fix W and the primorial m of primes up to W, pick the residue
b mod m carrying the most derivative-compensated weight, map the window
(n/2, n] of floor-image primes through k -> (k - b)/m, and land inside
{1..N/2} for a prime modulus N in [2n/m, 4n/m].  The image keeps a positive
share of the measure, which is what the density increment machinery needs.
"""

import numpy as np

from psroth import hfun, measures, roth, sieve

inv = hfun.inverse_of(hfun.ps_exponent_spec(0.95))
table = sieve.sieve_primes(10 ** 6)

rep = roth.transference_build(inv, table, 10 ** 5, override_W=2)
print(f"n=1e5, W={rep.W}: m={rep.m} b={rep.b} "
      f"N={rep.N}")
print(f"|A|={rep.A.size}, A within [1, N/2]: "
      f"[{rep.A.min()}, {rep.A.max()}] vs {rep.N // 2}")
print(f"measure mass: {rep.mass:.4f} of window {rep.window_mass:.4f}")

# count progressions in the image set
ap = roth.count_3aps(rep.A, rep.N, mode="cyclic")
print(f"ordered 3APs in the image: {ap.lam3} ({ap.nontrivial} nontrivial)")

# the smoothing step behind the upper-bound chain: convolve twice with the
# normalized indicator of a Bohr set of the large spectrum
N = 1009
rng = np.random.default_rng(5)
w = rng.random(N) * (rng.random(N) < 0.05)
report = measures.spectrum_and_bohr(w, 0.4 * w.sum(), 0.25)
print(f"\nZ_{N} toy measure: spectrum size k={report.k}, "
      f"Bohr set size {report.bohr.size} "
      f"(pigeonhole floor {0.25 ** report.k * N:.1f})")
out = roth.smoothing_bound_chain(w, report)
print(f"smoothing shifts lam3 by {abs(out['difference']):.4f}; "
      f"triangle bound {out['triangle_bound']:.4f}; "
      f"identity gap {out['identity_gap']:.2e}")

# restriction ensemble: random unimodular coefficients on the floor-image
# frequencies never beat the all-ones extremizer by much
rr = roth.restriction_ratio(inv, table, 2 * 10 ** 4, 3.0, 10, 7)
print(f"\nrestriction ratios at N=2e4 (r=3, 10 draws): "
      f"max={rr.max_ratio:.4f} control={rr.control_ratio}")
