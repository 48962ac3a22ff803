"""
Splitting a weighted prime sum into smooth and bilinear pieces
==============================================================

The ranged sum sum_{P<k<=P1} Lambda(k) e(xi k + m phi(k)) splits as
S1 - S21 - S22 + S3 through the classical coefficient identity.  The split
re-sums to the direct evaluation to roundoff.  vaughan_decompose takes a list
of draws over one range and builds the split's coefficient rows once for all
of them; a single split is a list of one.
"""

from psroth import expsums, hfun, sieve

inv = hfun.inverse_of(hfun.ps_exponent_spec(0.95))
table = sieve.sieve_primes(4000)

# one split in full detail
pp = expsums.PhaseParams(xi=0.3, m=2, a=0, q=1, P=1000, P1=2000)
split, = expsums.vaughan_decompose(inv, [pp], table)
print(f"cutoff v = {split.v:.3f}")
for name, val in (("S1", split.S1), ("S21", split.S21),
                  ("S22", split.S22), ("S3", split.S3)):
    print(f"  {name:4s} = {val:.6f}")
print(f"direct     = {split.direct:.6f}")
print(f"recombined = {split.recombined:.6f}")
print(f"residual   = {split.residual:.2e}")


# draws over the same range share one build of the coefficient rows
draws = [expsums.PhaseParams(xi=0.1 * j, m=1, a=1, q=2, P=1000, P1=2000)
         for j in range(1, 6)]
for pp, split in zip(draws, expsums.vaughan_decompose(inv, draws, table)):
    print(f"xi = {pp.xi:.1f}: |direct| = {abs(split.direct):9.3f}, "
          f"residual = {split.residual:.2e}")
