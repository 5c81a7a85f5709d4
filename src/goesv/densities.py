"""Exact density evaluators for |GOE_n| singular values and decimations.

Everything is parametrized by the order n = 2m + mu (n <= 8; see
normalization_c).  The evaluators cover:

* the joint density of all singular values, in descending (t, s)
  coordinates and in ascending (x, y) coordinates;
* the conditional density of the odd-location values given the evens;
* the marginal of the even-location values (the anti-GUE density) and
  the determinantal marginal of the odd-location values;
* the sign-vector sum D and its closed product form, whose ratio
  identifies the combinatorial constant 2^n;
* quadrature checks of the two interlaced integrate-out identities.

The evaluators take points as arrays of shape (..., k), one configuration
along the last axis, and return an array over the leading axes; a single
point (shape (k,)) returns a float.  Products of differences are formed
in log space with signs by the one helper in interlace
(`_log_vandermonde`), so they neither overflow nor underflow before the
final exponential.

Normalizations are *computed*, not transcribed: the ordered-simplex
integral collapses, by the bilinear determinant identity, to a Hankel
determinant of one-dimensional Gaussian moments.  Those moments, the
unit masses and the integrate-out identities are evaluated on fixed
Gauss-Legendre rules (`gauss_legendre`): the integrands are polynomials
times e^{-|z|^2/2}, analytic, so the rules converge geometrically, and
doubling the order gives the error estimate.  Tests cross-check against
direct simplex quadrature at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .dense import ParityFrame
from .interlace import XYCoords, _log_vandermonde, _vals

_HALF_PI = np.sqrt(np.pi / 2.0)

# Fixed Gauss-Legendre rules: values use 2 * _RULE_ORDER nodes per
# variable, and the difference to the _RULE_ORDER-node rule is the error
# estimate.  A half-line [lo, inf) is cut at max(lo, 0) + _TAIL_SPAN, where
# e^{-z^2/2} times the polynomial factors reachable at n <= 8 is below
# 1e-30.  The integrand sees at most _SLAB_POINTS points per call, so
# memory does not grow with the order or the dimension.
_RULE_ORDER = 32
_TAIL_SPAN = 14.0
_SLAB_POINTS = 4096


def _out(values):
    """A float for a single point, the array over the leading axes otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def _weakly_descending(z):
    """z_1 >= z_2 >= ... >= 0 along the last axis (true when it is empty)."""
    inside = (z[..., 1:] <= z[..., :-1]).all(axis=-1)
    return inside & (z[..., -1] >= 0) if z.shape[-1] else inside


def g_factor(a, z):
    """The weighted Vandermonde factor prod z_k^a e^{-z_k^2/2} times the
    Vandermonde of ascending squares; z descending, result nonnegative."""
    z = np.asarray(z, dtype=float)
    return _out(np.where(_weakly_descending(z), np.exp(_log_g_factor(a, z)), 0.0))


def _log_g_factor(a, z):
    """log g_factor(a, z) for weakly descending nonnegative z, which the
    callers check; a tie, or a zero with a > 0, gives -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        squares = z * z
        # prod_{j<k}(z_j^2 - z_k^2) is positive on the support: take its log size.
        log = _log_vandermonde(squares)[1] - 0.5 * squares.sum(axis=-1)
        return log + a * np.log(z).sum(axis=-1) if a else log


@lru_cache(maxsize=None)
def _legendre_rule(order):
    return np.polynomial.legendre.leggauss(order)


def _tensor_rule(f, limits, order):
    nodes, weights = _legendre_rule(order)
    dim = len(limits)
    size = order**dim
    total = 0.0
    for start in range(0, size, _SLAB_POINTS):
        flat = np.arange(start, min(start + _SLAB_POINTS, size))
        index = np.unravel_index(flat, (order,) * dim)
        # One row per variable: f gets the (p, d) transpose, whose
        # reductions over a point's coordinates run along contiguous rows.
        points = np.empty((dim, flat.size))
        weight = np.ones(flat.size)
        for i, (lo, hi) in enumerate(limits):
            node = index[i]
            lo = lo(*points[:i]) if callable(lo) else lo
            if callable(hi):
                hi = hi(*points[:i])
            elif hi == np.inf:
                hi = np.maximum(lo, 0.0) + _TAIL_SPAN
            half = 0.5 * (hi - lo)
            points[i] = lo + half * (nodes[node] + 1.0)
            weight *= half * weights[node]
        total += float(weight @ f(points.T))
    return total


def gauss_legendre(f, limits):
    """Integral of f over a nested domain on tensor Gauss-Legendre rules.

    limits holds one (lo, hi) pair per variable, outermost first.  Each
    end is a number or a function of the outer variables (one array per
    variable, outermost first), e.g. [(0, inf), (0, lambda t1: t1)] for
    t1 >= t2 >= 0; a constant hi may be inf.  f maps a (p, d) array of
    points, the columns in the order of limits, to p values.

    Returns (value, estimate): the value on 2 * _RULE_ORDER nodes per
    variable and its distance to the _RULE_ORDER-node value.
    """
    if not limits:
        value = float(f(np.empty((1, 0)))[0])
        return value, 0.0
    fine = _tensor_rule(f, limits, 2 * _RULE_ORDER)
    return fine, abs(fine - _tensor_rule(f, limits, _RULE_ORDER))


@lru_cache(maxsize=None)
def normalization_c(n):
    """Normalization constant of the Gaussian-weight |Vandermonde| density
    of order n, accurate to about 1e-14 relative.

    The ordered-simplex integral of the even-location marginal reduces to
    (1/2^n n! delta_mu) times a Hankel determinant of the moments
    integral_0^inf s^{2k+2mu} e^{-s^2} ds, each computed on the fixed
    Gauss-Legendre rule.  Restricted to 1 <= n <= 8 as a cost guard.
    """
    if not 1 <= n <= 8:
        raise ValueError("normalization is supported for orders 1..8 only")
    frame = ParityFrame.from_order(n)
    m, mu = frame.m, frame.mu
    moments = np.empty(max(2 * m - 1, 0))
    for k in range(moments.size):
        moments[k], _ = gauss_legendre(
            lambda s, p=2 * k + 2 * mu: s[:, 0] ** p * np.exp(-s[:, 0] ** 2), [(0.0, np.inf)]
        )
    hankel = np.array([[moments[i + j] for j in range(m)] for i in range(m)])
    j_det = float(np.linalg.det(hankel)) if m else 1.0
    delta_mu = _HALF_PI**mu
    return 1.0 / (2.0**n * math.factorial(n) * delta_mu * j_det)


@dataclass(frozen=True)
class DensityContext:
    """Per-order constants shared by all density evaluators."""

    frame: ParityFrame
    c_n: float
    a_n: float
    delta_mu: float

    @classmethod
    def for_order(cls, n):
        frame = ParityFrame.from_order(n)
        c_n = normalization_c(n)
        delta_mu = _HALF_PI**frame.mu
        a_n = c_n * delta_mu * 2.0**n * math.factorial(n) / math.factorial(frame.m)
        return cls(frame=frame, c_n=c_n, a_n=a_n, delta_mu=delta_mu)

    def __post_init__(self):
        if self.c_n <= 0 or self.a_n <= 0:
            raise ValueError("normalization constants must be positive")


def _moment_rows(kappa, length, x):
    """(x^kappa, x^{kappa+2}, ..., x^{kappa+2 length-2}) e^{-x^2/2} along a
    new last axis; for kappa = -1 the first entry is -sqrt(pi/2) erf(x/sqrt 2)."""
    x = np.asarray(x, dtype=float)[..., None]
    powers = kappa + 2 * np.arange(length)
    with np.errstate(divide="ignore"):
        out = x**powers * np.exp(-0.5 * x * x)
    if kappa == -1 and length:
        out[..., 0] = -_HALF_PI * special.erf(x[..., 0] / np.sqrt(2.0))
    return out


@dataclass(frozen=True)
class EKappaVector:
    """The column (x^kappa, x^{kappa+2}, ..., x^{kappa+2n-2})' e^{-x^2/2},
    with the kappa = -1 first entry replaced by -sqrt(pi/2) erf(x/sqrt 2)."""

    kappa: int
    length: int
    x: float

    def __post_init__(self):
        if self.kappa not in (-1, 0, 1):
            raise ValueError("kappa must be -1, 0, or 1")
        if self.length < 0:
            raise ValueError("length must be nonnegative")

    @property
    def values(self):
        return _moment_rows(self.kappa, self.length, self.x)


def _split(t, s, frame):
    t = _vals(t)
    s = _vals(s)
    if t.shape[-1] != frame.mhat or s.shape[-1] != frame.m:
        raise ValueError("coordinate lengths must match the context order")
    return t, s


def _interlaces(t, s):
    """Weak interlacing t_1 >= s_1 >= t_2 >= ... (>= 0) along the last
    axis, lengths mhat/m."""
    shape = np.broadcast_shapes(t.shape[:-1], s.shape[:-1])
    merged = np.empty(shape + (t.shape[-1] + s.shape[-1],))
    merged[..., 0::2] = t
    merged[..., 1::2] = s
    return _weakly_descending(merged)


def log_joint_density_ts(t, s, ctx):
    """Log of the joint density in descending decimated coordinates."""
    frame = ctx.frame
    t, s = _split(t, s, frame)
    mu = frame.mu
    log = math.log(ctx.c_n) + frame.n * math.log(2.0) + math.lgamma(frame.n + 1)
    log = log + _log_g_factor(mu, s) + _log_g_factor(1 - mu, t)
    return _out(np.where(_interlaces(t, s), log, -np.inf))


def joint_density_ts(t, s, ctx):
    """Joint density of the odd/even split (t, s); zero off the
    interlacing support."""
    return _out(np.exp(log_joint_density_ts(t, s, ctx)))


def _log_xy_product(x, y):
    """(sign, log|.|) of Delta(x^2) prod(y) Delta(y^2), x and y ascending."""
    sign_x, log_x = _log_vandermonde(x**2)
    sign_y, log_y = _log_vandermonde(y**2)
    with np.errstate(divide="ignore"):
        log_y = log_y + np.sum(np.log(np.abs(y)))
    return sign_x * sign_y * np.prod(np.sign(y)), log_x + log_y


def joint_density_xy(xy, ctx):
    """Joint density in ascending interlaced coordinates: constants times
    (prod e^{-x^2/2} Delta(x^2)) (prod y e^{-y^2/2} Delta(y^2))."""
    x = np.asarray(xy.x if isinstance(xy, XYCoords) else xy[0], dtype=float)
    y = np.asarray(xy.y if isinstance(xy, XYCoords) else xy[1], dtype=float)
    frame = ctx.frame
    if x.size != frame.mhat or y.size != frame.m:
        raise ValueError("coordinate lengths must match the context order")
    merged = np.empty(x.size + y.size)
    merged[0::2] = x
    merged[1::2] = y
    if merged[0] < 0 or np.any(np.diff(merged) < 0):
        return 0.0
    sign, log = _log_xy_product(x, y)
    log += math.log(ctx.c_n * math.factorial(frame.n) * 2.0**frame.n)
    return float(sign * np.exp(log - 0.5 * (np.sum(x**2) + np.sum(y**2))))


def conditional_t_given_s(t, s, ctx):
    """Density of the odd-location values given the evens: a ratio of
    weighted Vandermonde factors scaled by 1/delta_mu."""
    frame = ctx.frame
    t, s = _split(t, s, frame)
    mu = frame.mu
    with np.errstate(invalid="ignore"):
        log = -math.log(ctx.delta_mu) + _log_g_factor(1 - mu, t) - _log_g_factor(mu, s)
        return _out(np.where(_interlaces(t, s), np.exp(log), 0.0))


def log_even_marginal(s, ctx):
    """Log marginal density of the even-location values (the squared
    weighted Vandermonde form)."""
    s = _vals(s)
    frame = ctx.frame
    if s.shape[-1] != frame.m:
        raise ValueError("expected m even-location values")
    log = math.log(ctx.delta_mu * ctx.c_n) + frame.n * math.log(2.0)
    log = log + math.lgamma(frame.n + 1) + 2.0 * _log_g_factor(frame.mu, s)
    return _out(np.where(_weakly_descending(s), log, -np.inf))


def even_marginal(s, ctx):
    return _out(np.exp(log_even_marginal(s, ctx)))


def _bordered_dets(t, frame):
    """The two bordered determinants at descending t (..., mhat).

    Columns sit at the ascending arguments (t_mhat, ..., t_1); the first
    mhat-1 rows are moment rows of index 1-mu.  The gamma matrix closes
    with the next moment row, t^{1-mu+2mhat-2} e^{-t^2/2}; the delta matrix
    with the flat row, 1 for odd orders and sqrt(pi/2) erf(t/sqrt 2) for
    even ones.  Returns (det_gamma, det_delta), each over the leading axes.
    """
    cols = t[..., ::-1]
    # Indexed (..., column, row): the transposes, which have the same determinants.
    gamma = _moment_rows(1 - frame.mu, frame.mhat, cols)
    delta = gamma.copy()
    delta[..., -1] = 1.0 if frame.mu else _HALF_PI * special.erf(cols / math.sqrt(2.0))
    det_gamma, det_delta = np.linalg.det(np.stack([gamma, delta]))
    return det_gamma, det_delta


def odd_marginal(t, ctx):
    """Marginal density of the odd-location values: the product of two
    bordered determinants differing only in their closing rows."""
    t = _vals(t)
    frame = ctx.frame
    if t.shape[-1] != frame.mhat:
        raise ValueError("expected mhat odd-location values")
    det_gamma, det_delta = _bordered_dets(t, frame)
    value = ctx.c_n * math.factorial(frame.n) * 2.0**frame.n * det_gamma * det_delta
    return _out(np.where(_weakly_descending(t), value, 0.0))


def log_odd_marginal(t, ctx):
    value = np.asarray(odd_marginal(t, ctx))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _out(np.where(value > 0, np.log(value), -np.inf))


def signed_sum_D(sigma):
    """The sign-vector sum over all 2^n choices: sum of theta(eps) times
    the Vandermonde at (eps_1 sigma_1, ..., eps_n sigma_n), where theta
    is the product of the even-position signs; sigma ascending."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size
    if n > 16:
        raise ValueError("sign-vector sum is exponential; order capped at 16")
    total = 0.0
    for start in range(0, 1 << n, _SLAB_POINTS):
        masks = np.arange(start, min(start + _SLAB_POINTS, 1 << n))[:, None]
        eps = 1.0 - 2.0 * ((masks >> np.arange(n)) & 1)
        sign, log = _log_vandermonde(eps * sigma)
        total += float(np.sum(np.prod(eps[:, 1::2], axis=1) * sign * np.exp(log)))
    return total


def factored_D(sigma):
    """Closed form of the sign-vector sum: 2^n Delta(x^2) prod(y) Delta(y^2)
    in ascending interlaced coordinates."""
    sigma = np.asarray(sigma, dtype=float)
    sign, log = _log_xy_product(sigma[0::2], sigma[1::2])
    return float(sign * np.exp(sigma.size * math.log(2.0) + log))


def integrate_out_check(mode, values, ctx):
    """Fixed Gauss-Legendre residual of the two interlaced integrate-out
    identities.

    mode "odd_to_even": integrate the odd-side weighted Vandermonde factor
    over its interlacing box around the given evens s; the closed form is
    delta_mu times the even-side factor at s.

    mode "even_to_odd": integrate the even-side factor over the box nested
    inside the given odds t; the closed form is the bordered determinant
    with the flat/erf closing row.

    Returns (|numeric - closed|, the doubling error estimate of numeric);
    see gauss_legendre.
    """
    frame = ctx.frame
    m, mhat, mu = frame.m, frame.mhat, frame.mu
    v = _vals(values)
    if mode == "odd_to_even":
        if v.size != m:
            raise ValueError("expected m even-location values")
        shat = np.concatenate([v, [0.0]]) if mu else v
        limits = [(shat[j], np.inf if j == 0 else shat[j - 1]) for j in range(mhat)]
        numeric, estimate = gauss_legendre(lambda t: g_factor(1 - mu, t), limits)
        closed = ctx.delta_mu * g_factor(mu, v)
    elif mode == "even_to_odd":
        if v.size != mhat:
            raise ValueError("expected mhat odd-location values")
        that = v if mu else np.concatenate([v, [0.0]])
        limits = [(that[j + 1], that[j]) for j in range(m)]
        numeric, estimate = gauss_legendre(lambda s: g_factor(mu, s), limits)
        closed = _bordered_dets(v, frame)[1]
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return float(abs(numeric - closed)), estimate
