"""
Closed-form spectral densities
==============================

For small orders the package evaluates the joint density of the
decimated spectrum (odd locations t, even locations s), its two
marginals, and the conditional law of t given s — all in closed form.
This script checks their masses by quadrature and shows the signed-sum
identity behind them.
"""

import numpy as np
from scipy import integrate

from goesv import densities
from goesv.streams import RandStream

ctx2 = densities.DensityContext.for_order(2)
ctx3 = densities.DensityContext.for_order(3)

# order 2: one t, one s with t >= s >= 0 ------------------------------

val = densities.joint_density_ts([2.0], [1.0], ctx2)
print("joint density at (t, s) = (2, 1):", round(val, 6))

mass, _ = integrate.dblquad(
    lambda t, s: densities.joint_density_ts([t], [s], ctx2),
    0.0, np.inf, lambda s: s, lambda s: np.inf,
)
print("its mass over t >= s >= 0:        %.8f" % mass)

# marginals integrate to one as well
mass, _ = integrate.quad(lambda s: densities.even_marginal([s], ctx2), 0, np.inf)
print("even-marginal mass (order 2):     %.8f" % mass)
mass, _ = integrate.quad(lambda t: densities.odd_marginal([t], ctx2), 0, np.inf)
print("odd-marginal mass (order 2):      %.8f" % mass)

# conditional law of t given s = 1: supported on t > 1
mass, _ = integrate.quad(
    lambda t: densities.conditional_t_given_s([t], [1.0], ctx2), 1.0, np.inf
)
print("conditional mass at s = 1:        %.8f" % mass)

# the signed-sum determinant ------------------------------------------

# the densities rest on an alternating sum over sign patterns that
# factors in closed form; the ratio to the plain interlaced product is
# exactly 2^n
rng = RandStream(4).rng
print("\nsigned-sum vs factored determinant")
for n in (2, 3, 4, 5, 6):
    sigma = np.sort(np.abs(rng.standard_normal(n)))
    lhs = densities.signed_sum_D(sigma)
    rhs = densities.factored_D(sigma)
    print("  n = %d: relative gap %.2e" % (n, abs(lhs - rhs) / rhs))

# integrating the odd locations out of the joint recovers the even
# marginal (and conversely), here checked at a random configuration
sv = np.sort(np.abs(np.linalg.eigvalsh((lambda x: (x + x.T) / 2)(rng.standard_normal((5, 5))))))[::-1]
t, s = sv[0::2], sv[1::2]
ctx5 = densities.DensityContext.for_order(5)
print("\nintegrate-out residuals at a random order-5 configuration")
for label, mode, values in (("odd out ", "odd_to_even", s), ("even out", "even_to_odd", t)):
    res, est = densities.integrate_out_check(mode, values, ctx5)
    print("  %s: %.2e (rule error estimate %.1e)" % (label, res, est))
