"""
Determinants as chi products
============================

The absolute determinant of the scaled Gaussian symmetric matrix
factorizes into independent chi variables — so it can be sampled in
O(n) draws instead of an O(n^3) decomposition.  The factorization is
checked against dense determinants, a Mellin-transform closed form, and
the normal limit of the normalized log-determinant.
"""

import math

import numpy as np
from scipy import special

from goesv import determinant, gaps
from goesv.streams import RandStream

# factored vs dense at small order ------------------------------------

n, reps = 5, 30_000
fac = determinant.logdet_batch(RandStream(5, 0), n, 1, reps)
den = determinant.logdet_dense_batch(RandStream(5, 1), n, 1, reps)
rep = gaps.ks_two_sample(fac, den)
print("factored vs dense log|det| at n = %d: KS p = %.3f" % (n, rep.p_value))

# the dense route costs a decomposition per sample; the factored route
# is a handful of chi draws
print("factored sample mean %.4f, dense %.4f" % (fac.mean(), den.mean()))

# Mellin closed form --------------------------------------------------

# the leading factor of the even-order determinant has an explicit
# Mellin transform; at s = 3, m = 1 it equals 7 exactly
print("\nMellin transform at (s, m) = (3, 1):", determinant.mellin_eta_even(3.0, 1))
for s in (1.0, 1.5, 2.0):
    print("  (s, m) = (%.1f, 3): %.6f" % (s, determinant.mellin_eta_even(s, 3)))

# the normal limit ----------------------------------------------------

# normalized statistic: (log|det| - log(n!)/2 + log(n)/4) / sqrt(log n / beta)
n, reps = 2000, 20_000
logs = determinant.logdet_batch(RandStream(6), n, 1, reps)
stat = determinant.clt_statistic_batch(logs, n, 1)
dist = gaps.ks_one_sample(stat, special.ndtr).ks_distance
print("\nreal case, n = %d: KS distance to N(0,1) = %.4f" % (n, dist))
print("  sample mean %+.4f, sample variance %.4f" % (stat.mean(), stat.var(ddof=1)))

# the complex-Hermitian case converges much more slowly: its statistic
# carries an order-one variance excess over the halved scale, visible
# here as a distance that refuses to drop near zero
logs = determinant.logdet_batch(RandStream(7), n, 2, reps)
stat = determinant.clt_statistic_batch(logs, n, 2)
dist = gaps.ks_one_sample(stat, special.ndtr).ks_distance
print("complex case, n = %d: KS distance = %.4f" % (n, dist))
print("  sample mean %+.4f, sample variance %.4f" % (stat.mean(), stat.var(ddof=1)))
print("  (the mean and variance offsets decay like 1/sqrt(log n) and")
print("   1/log n, so the limit is correct but very slow)")

# exact moments of the fluctuation sum back this up
for beta in (1, 2):
    mean, var = determinant.z_moments_exact(500, beta)
    print("exact fluctuation-sum moments at n = 500, case %d: mean %.4f, var %.4f"
          % (beta, mean, var))
print("the case-1 variance is exactly twice the case-2 variance:",
      math.isclose(determinant.z_moments_exact(500, 1)[1],
                   2 * determinant.z_moments_exact(500, 2)[1]))

# odd orders also carry a sign: an independent fair coin
sign, logabs = determinant.signed_logdet_goe_odd_batch(RandStream(8), 5, 20_000)
print("\nodd-order sign: fraction positive = %.4f" % np.mean(sign > 0))
