"""Determinant factorizations and the log-determinant CLT experiment.

With M = sqrt(2) G for a Gaussian symmetric (beta = 1) or Hermitian
(beta = 2) matrix G of order n = 2m + mu, the magnitude of det M is a
product of independent chi variables:

    beta = 1:  |det M| = eta1 * xi_3^2 * xi_5^2 * ... * xi_{2mhat-1}^2,
               eta1 = xi_1 sqrt(xi_1^2 + 2 xi_n^2)  (mu = 0),
               eta1 = sqrt(2) xi_1                  (mu = 1);

    beta = 2:  |det M| = eta2 * prod xi_k xitilde_k  (odd k, 3..2mhat-1),
               eta2 = xi_1 xi_{n+1}  (mu = 0),   eta2 = xi_1  (mu = 1),

with xi_k, xitilde_k independent chi_k draws.  All products are
accumulated in log space (linear |det| overflows past n ~ 150).  The
module also provides the Mellin transform of eta1 at even order via a
Gauss hypergeometric series at argument 1/2, the normalized CLT
statistic (log|det M| - log(n!)/2 + log(n)/4) / sqrt(log(n)/beta), its
leading-factor/chi-sum decomposition Y + Z, exact digamma/trigamma
moments of the chi logs, and, for beta = 2, the exact finite-n law of
log|det M| (cumulants, characteristic function and Gil-Pelaez CDF) for
calibrating tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .dense import _goe_stack, _gue_stack
from .streams import _chunk_limit, _chunks

_LOG2 = math.log(2.0)


def _check_beta(beta):
    if beta not in (1, 2):
        raise ValueError("beta must be 1 or 2")


@dataclass(frozen=True)
class DetSample:
    """One determinant magnitude |det M|, kept with its log."""

    absdet: float
    logdet: float
    n: int
    beta: int
    method: str

    def __post_init__(self):
        _check_beta(self.beta)
        if self.method not in ("dense", "factored"):
            raise ValueError("method must be 'dense' or 'factored'")
        if not math.isfinite(self.logdet):
            raise ValueError("logdet must be finite")
        if not self.absdet > 0:
            raise ValueError("absdet must be positive")
        if math.isfinite(self.absdet) and abs(math.log(self.absdet) - self.logdet) > 1e-9:
            raise ValueError("logdet must equal log(absdet)")


@dataclass(frozen=True)
class CltStat:
    """The normalized log-determinant statistic."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("statistic must be finite")


def _odd_degrees(mhat):
    """The chi degrees 3, 5, ..., 2*mhat - 1 of the square factors."""
    return np.arange(3.0, 2 * mhat, 2.0)


def logdet_batch(stream, n, beta, size):
    """(size,) log|det M| for beta = 1 or 2, sampled from the chi factorization."""
    y, z = clt_yz_batch(stream, n, beta, size)
    return y + z


def sample_absdet_factored(stream, n, beta):
    """One |det M| draw (beta = 1 or 2) from the independent-chi product."""
    if n < 1:
        raise ValueError("order must be >= 1")
    logdet = float(logdet_batch(stream, n, beta, 1)[0])
    return DetSample(math.exp(logdet), logdet, n, beta, method="factored")


def logdet_dense_batch(stream, n, beta, size):
    """Dense oracle: log|det(sqrt(2) G)| over Gaussian symmetric (beta = 1)
    or Hermitian (beta = 2) samples G."""
    _check_beta(beta)
    stack = _goe_stack if beta == 1 else _gue_stack
    out = np.empty(size)
    # a Hermitian entry is two floats
    for lo, hi in _chunks(size, _chunk_limit(beta * n * n)):
        _, out[lo:hi] = np.linalg.slogdet(np.sqrt(2.0) * stack(stream.rng, n, hi - lo))
    return out


def signed_logdet_goe_odd_batch(stream, n, size):
    """(sign, log|det M|) pairs for odd n: the chi_1 leading factor is
    replaced by a standard normal, making the sign a fair coin independent
    of the magnitude.  All the normals are drawn before the chi-squares."""
    if n % 2 == 0:
        raise ValueError("signed determinant sampling requires odd order")
    degrees = _odd_degrees((n + 1) // 2)
    g = stream.rng.standard_normal(size)
    logabs = 0.5 * _LOG2 + np.log(np.abs(g))
    for lo, hi in _chunks(size, _chunk_limit(degrees.size)):
        chisq = stream.rng.chisquare(degrees, size=(hi - lo, degrees.size))
        logabs[lo:hi] += np.sum(np.log(chisq), axis=1)
    return np.where(g < 0, -1.0, 1.0), logabs


def hyp2f1_half(a, b, c):
    """Gauss hypergeometric series at argument 1/2, truncated when the
    next term falls below 1e-16 of the partial sum."""
    total = term = 1.0
    k = 0
    while True:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * 0.5
        total += term
        k += 1
        if term == 0.0 or abs(term) < 1e-16 * abs(total):
            return total
        if k > 10_000:
            raise RuntimeError("hypergeometric series failed to converge")


def mellin_eta_even(s, m):
    """Mellin transform E[eta1^(s-1)] of the beta = 1 leading factor at
    even order n = 2m:

        2^{3(s-1)/2} Gamma(s/2) Gamma(s+m-1/2)
        / (Gamma(1/2) Gamma(s/2+m)) * 2F1(s/2, (1-s)/2; s/2+m; 1/2).
    """
    if s <= 0:
        raise ValueError("transform parameter must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    logpre = 1.5 * (s - 1.0) * _LOG2
    logpre += special.gammaln(s / 2.0) + special.gammaln(s + m - 0.5)
    logpre -= special.gammaln(0.5) + special.gammaln(s / 2.0 + m)
    return float(np.exp(logpre) * hyp2f1_half(s / 2.0, (1.0 - s) / 2.0, s / 2.0 + m))


def _clt_center_scale(n, beta):
    """The CLT centring log(n!)/2 - log(n)/4 and scale sqrt(log(n)/beta)."""
    if n < 2:
        raise ValueError("order must be >= 2")
    _check_beta(beta)
    return 0.5 * math.lgamma(n + 1.0) - 0.25 * math.log(n), math.sqrt(math.log(n) / beta)


def clt_statistic(logdet, n, beta):
    """Normalize log|det M|: subtract log(n!)/2 - log(n)/4, divide by
    sqrt(log(n)/beta)."""
    center, scale = _clt_center_scale(n, beta)
    return CltStat(value=float((logdet - center) / scale))


def clt_statistic_batch(logdet, n, beta):
    """Vectorized clt_statistic over an array of log determinants."""
    center, scale = _clt_center_scale(n, beta)
    return (np.asarray(logdet, dtype=float) - center) / scale


def _chisquare_rows(rng, df, out):
    """Fill the (rows, len(df)) array out with chi-square draws of degrees
    df per row: the numbers rng.chisquare(df, size=out.shape) gives, as
    numpy draws a chi-square of df degrees as 2 * standard_gamma(df / 2)."""
    rng.standard_gamma(df / 2.0, out=out)
    out *= 2.0
    return out


def clt_yz_batch(stream, n, beta, size):
    """Arrays (y, z): y the log leading factor, z the chi-log sum; their
    sum is distributed as the factored log|det M|.  Each sample's
    chi-squares are one row of degrees: 1, then n (beta = 1) or n + 1
    (beta = 2) at even n, then the odd degrees, twice for beta = 2."""
    _check_beta(beta)
    mu = n % 2
    lead = [1.0] if mu else [1.0, float(n if beta == 1 else n + 1)]
    degrees = _odd_degrees((n + 1) // 2)
    df = np.concatenate([lead] + [degrees] * beta)
    y = np.empty(size)
    z = np.empty(size)
    limit = _chunk_limit(df.size)
    work = np.empty((min(size, limit), df.size))
    for lo, hi in _chunks(size, limit):
        chisq = _chisquare_rows(stream.rng, df, work[: hi - lo])
        if beta == 2:
            y[lo:hi] = 0.5 * np.sum(np.log(chisq[:, : len(lead)]), axis=1)
        elif mu:
            y[lo:hi] = 0.5 * _LOG2 + 0.5 * np.log(chisq[:, 0])
        else:
            # eta1 = xi_1 sqrt(xi_1^2 + 2 xi_n^2)
            y[lo:hi] = 0.5 * np.log(chisq[:, 0]) + 0.5 * np.log(chisq[:, 0] + 2.0 * chisq[:, 1])
        logs = np.log(chisq[:, len(lead) :], out=chisq[:, len(lead) :])
        z[lo:hi] = np.sum(logs, axis=1) / beta
    return y, z


def clt_decomposition(stream, n, beta):
    """One (Y, Z) draw; Y + Z is a factored log|det M| sample."""
    if n < 2:
        raise ValueError("order must be >= 2")
    y, z = clt_yz_batch(stream, n, beta, 1)
    return float(y[0]), float(z[0])


# ---------------------------------------------------------------------------
# exact chi-log moments, for calibrating the CLT tests


def log_chi_mean(k):
    """E[log chi_k] = (psi(k/2) + log 2) / 2."""
    return 0.5 * (special.digamma(k / 2.0) + _LOG2)


def log_chi_var(k):
    """Var[log chi_k] = psi'(k/2) / 4."""
    return 0.25 * special.polygamma(1, k / 2.0)


def z_moments_exact(n, beta):
    """Exact (mean, variance) of the chi-log sum Z for order n."""
    mhat = (n + 1) // 2
    degrees = _odd_degrees(mhat)
    if degrees.size == 0:
        return 0.0, 0.0
    mean = float(np.sum(2.0 * log_chi_mean(degrees)))
    var1 = float(np.sum(4.0 * log_chi_var(degrees)))
    return (mean, var1) if beta == 1 else (mean, 0.5 * var1)


# ---------------------------------------------------------------------------
# exact finite-n law of log|det M| for beta = 2
#
# log|det M| is a sum of independent halved log chi-squares: shape 1/2
# (xi_1), shape (n+1)/2 at even n (xi_{n+1}), and every shape k/2 for odd
# k = 3..2mhat-1 twice (xi_k, xitilde_k).  A halved log chi-square of shape
# a has E[exp(iu log(chi^2)/2)] = 2^{iu/2} Gamma(a + iu/2) / Gamma(a) and
# cumulants kappa_j = psi^{(j-1)}(a) / 2^j for j >= 2.  beta = 1 at even n
# would need the Mellin transform of eta1 at complex argument; it is not
# implemented.

# Gil-Pelaez midpoint grid, in units of the standard deviation: the step
# 2 pi / 64 aliases mass at distance 64 standard deviations, and the span
# 40 cuts the characteristic function where even its slowest (n = 1)
# decay, exp(-pi u / 4), has fallen below 1e-12.
_GP_STEP = 2.0 * math.pi / 64.0
_GP_SPAN = 40.0


def _check_exact_beta(beta):
    if beta != 2:
        raise ValueError("the exact log-determinant law is implemented for beta = 2 only")


def _gue_shapes(n):
    """(leading, paired): Gamma shapes of the chi-square factors; each
    paired shape enters twice."""
    if n < 1:
        raise ValueError("order must be >= 1")
    leading = np.array([0.5] if n % 2 else [0.5, (n + 1) / 2.0])
    return leading, _odd_degrees((n + 1) // 2) / 2.0


def _polygamma_run(k, x, count):
    """sum_{j < count} psi^(k)(x + j), telescoped through G(t + 1) - G(t) =
    psi^(k)(t) with G = (t-1) psi(t) - t (k = 0) or (t-1) psi^(k)(t) +
    k psi^(k-1)(t) (k >= 1), so its cost does not grow with count."""

    def g(t):
        if k == 0:
            return (t - 1.0) * special.digamma(t) - t
        return (t - 1.0) * special.polygamma(k, t) + k * special.polygamma(k - 1, t)

    return float(g(x + count) - g(x))


def logdet_cumulants_exact(n, beta):
    """Exact cumulants (kappa_1, ..., kappa_4) of log|det M|."""
    _check_exact_beta(beta)
    leading, paired = _gue_shapes(n)
    out = []
    for j in range(1, 5):
        k = j - 1
        run = 2.0 * _polygamma_run(k, 1.5, paired.size)
        total = float(np.sum(special.polygamma(k, leading))) + run
        if j == 1:
            out.append(0.5 * (total + (leading.size + 2 * paired.size) * _LOG2))
        else:
            out.append(total / 2.0**j)
    return np.array(out)


def clt_cumulants_exact(n, beta):
    """Exact (mean, variance, skewness, excess kurtosis) of the normalized
    statistic clt_statistic_batch(log|det M|, n, beta)."""
    center, scale = _clt_center_scale(n, beta)
    k1, k2, k3, k4 = logdet_cumulants_exact(n, beta)
    return (k1 - center) / scale, k2 / scale**2, k3 / k2**1.5, k4 / k2**2


def logdet_logcf_exact(u, n, beta):
    """log E[exp(iu (log|det M| - E log|det M|))] at real u, summed term by
    term as log Gamma(a + iu/2) - log Gamma(a) - (iu/2) psi(a)."""
    _check_exact_beta(beta)
    leading, paired = _gue_shapes(n)
    half = 0.5j * np.asarray(u, dtype=float)[..., None]

    def terms(a):
        return special.loggamma(a + half) - special.gammaln(a) - half * special.digamma(a)

    out = np.sum(terms(leading), axis=-1)
    for lo, hi in _chunks(paired.size, _chunk_limit(half.size)):
        out = out + 2.0 * np.sum(terms(paired[lo:hi]), axis=-1)
    return out


def logdet_cdf_exact(y, n, beta, refine=1):
    """Exact P(log|det M| <= y) by Gil-Pelaez inversion,

        F(y) = 1/2 - (1/pi) int_0^inf Im[exp(-ity) phi(t)] / t dt,

    on the midpoint grid t = (j + 1/2) h / sd, j < refine^2 span / step,
    with h = step / refine and sd the standard deviation of log|det M|;
    refine = 2 halves the step and doubles the span."""
    k1, k2, _, _ = logdet_cumulants_exact(n, beta)
    nodes = np.arange(math.ceil(refine**2 * _GP_SPAN / _GP_STEP)) + 0.5
    t = nodes * _GP_STEP / (refine * math.sqrt(k2))
    phi = np.exp(logdet_logcf_exact(t, n, beta)) / (math.pi * nodes)
    y = np.asarray(y, dtype=float)
    flat = y.ravel() - k1
    out = np.empty(flat.shape)
    for lo, hi in _chunks(flat.size, _chunk_limit(2 * t.size)):
        ty = np.multiply.outer(flat[lo:hi], t)
        # Im[exp(-ity) phi(t)] = cos(ty) Im phi - sin(ty) Re phi
        out[lo:hi] = 0.5 - np.cos(ty) @ phi.imag + np.sin(ty) @ phi.real
    return np.clip(out, 0.0, 1.0).reshape(y.shape)


def clt_cdf_exact(x, n, beta, refine=1):
    """Exact CDF of the normalized statistic clt_statistic_batch(., n, beta)."""
    center, scale = _clt_center_scale(n, beta)
    return logdet_cdf_exact(center + scale * np.asarray(x, dtype=float), n, beta, refine)
