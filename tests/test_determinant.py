"""Determinant factorization, Mellin transform cross-checks, and the
log-determinant limit statistic."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from goesv.determinant import (
    CltStat,
    DetSample,
    clt_cdf_exact,
    clt_decomposition,
    clt_statistic,
    clt_statistic_batch,
    clt_yz_batch,
    hyp2f1_half,
    log_chi_mean,
    log_chi_var,
    logdet_batch,
    logdet_cdf_exact,
    logdet_cumulants_exact,
    logdet_dense_batch,
    mellin_eta_even,
    sample_absdet_factored,
    signed_logdet_goe_odd_batch,
    z_moments_exact,
)
from goesv.gaps import ks_one_sample, ks_two_sample
from goesv.streams import RandStream, chi_cdf, chi_pdf, sample_chi


# ---------------------------------------------------------------------------
# containers


def test_det_sample_validation():
    s = DetSample(absdet=math.e, logdet=1.0, n=3, beta=1, method="factored")
    assert s.absdet == math.e
    with pytest.raises(ValueError):
        DetSample(absdet=1.0, logdet=5.0, n=3, beta=1, method="factored")
    with pytest.raises(ValueError):
        DetSample(absdet=1.0, logdet=0.0, n=3, beta=3, method="factored")
    with pytest.raises(ValueError):
        DetSample(absdet=1.0, logdet=0.0, n=3, beta=1, method="qr")
    with pytest.raises(ValueError):
        DetSample(absdet=-1.0, logdet=0.0, n=3, beta=1, method="dense")
    with pytest.raises(ValueError):
        CltStat(value=math.nan)


def test_factored_samplers_return_consistent_records():
    s = sample_absdet_factored(RandStream(0), 5, 1)
    assert s.beta == 1 and s.method == "factored" and s.n == 5
    assert s.absdet == pytest.approx(math.exp(s.logdet))
    s = sample_absdet_factored(RandStream(0), 4, 2)
    assert s.beta == 2 and s.method == "factored"
    with pytest.raises(ValueError):
        sample_absdet_factored(RandStream(0), 0, 1)


def test_log_det_samplers_take_beta_one_or_two():
    for beta in (0, 3):
        for draw in (
            lambda: logdet_batch(RandStream(0), 4, beta, 10),
            lambda: logdet_dense_batch(RandStream(0), 4, beta, 10),
            lambda: sample_absdet_factored(RandStream(0), 4, beta),
        ):
            with pytest.raises(ValueError, match="beta"):
                draw()


# ---------------------------------------------------------------------------
# the chi-product factorization against the dense oracle


def test_order_one_factored_law():
    # n=1: |det M| = sqrt(2) |N(0,1)|, i.e. chi_1 scaled by sqrt(2).
    x = np.exp(logdet_batch(RandStream(1), 1, 1, 20_000))
    from goesv.gaps import ks_one_sample

    report = ks_one_sample(x, lambda v: chi_cdf(v / math.sqrt(2.0), 1))
    assert report.p_value > 1e-3


def test_factored_matches_dense_small_orders():
    for n, seed in ((4, 2), (5, 3)):
        fac = logdet_batch(RandStream(seed, 0), n, 1, 20_000)
        den = logdet_dense_batch(RandStream(seed, 1), n, 1, 20_000)
        assert ks_two_sample(fac, den).p_value > 1e-3, n


def test_factored_matches_dense_small_orders_hermitian():
    for n, seed in ((4, 4), (5, 5)):
        fac = logdet_batch(RandStream(seed, 0), n, 2, 20_000)
        den = logdet_dense_batch(RandStream(seed, 1), n, 2, 20_000)
        assert ks_two_sample(fac, den).p_value > 1e-3, n


def test_order_two_absdet_mean_quadrature():
    # E|det M_2| = E[xi_1 sqrt(xi_1^2 + 2 xi_2^2)] by direct 2-d quadrature.
    expect, _ = integrate.dblquad(
        lambda y, x: x * math.sqrt(x * x + 2.0 * y * y) * chi_pdf(x, 1) * chi_pdf(y, 2),
        0, np.inf, 0, np.inf,
    )
    x = np.exp(logdet_batch(RandStream(6), 2, 1, 50_000))
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - expect) < 3.0 * se
    # The same mean in closed form, the oracle `goesv det` uses.
    assert mellin_eta_even(2.0, 1) == pytest.approx(expect, rel=1e-10)
    assert mellin_eta_even(2.0, 1) == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, rel=1e-14)


def test_order_two_hermitian_absdet_mean(chi_mean):
    # beta=2, n=2: |det M| = xi_1 xi_3 with independent factors, so the
    # mean is the product of the chi means.
    x = np.exp(logdet_batch(RandStream(7), 2, 2, 50_000))
    expect = chi_mean(1) * chi_mean(3)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - expect) < 3.0 * se


def test_signed_odd_determinant_symmetry():
    sign, logabs = signed_logdet_goe_odd_batch(RandStream(8), 5, 40_000)
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    # fair coin
    p = np.mean(sign > 0)
    assert abs(p - 0.5) < 3.0 * math.sqrt(0.25 / sign.size)
    # sign independent of magnitude: signed log-magnitudes keep the law
    assert ks_two_sample(logabs[sign > 0], logabs[sign < 0]).p_value > 1e-3
    # the signed determinant is symmetric: its law matches its mirror
    signed = sign * np.exp(logabs)
    assert ks_two_sample(signed, -signed).p_value > 1e-3
    # magnitude law matches the plain factored sampler
    plain = logdet_batch(RandStream(9), 5, 1, 40_000)
    assert ks_two_sample(logabs, plain).p_value > 1e-3
    with pytest.raises(ValueError):
        signed_logdet_goe_odd_batch(RandStream(0), 4, 10)


def test_large_order_stays_finite_in_log_space():
    logs = logdet_batch(RandStream(10), 400, 1, 50)
    assert np.all(np.isfinite(logs))
    # crude location check against the growth of log(n!)/2
    center = 0.5 * math.lgamma(401.0) - 0.25 * math.log(400.0)
    spread = math.sqrt(math.log(400.0))
    assert abs(np.mean(logs) - center) < 6.0 * spread


# ---------------------------------------------------------------------------
# Mellin transform of the even-order leading factor


def test_hyp2f1_matches_library():
    for a, b, c in ((0.5, 0.25, 2.0), (1.5, -1.0, 3.0), (2.0, 0.0, 1.5), (1.0, -2.5, 4.0)):
        assert hyp2f1_half(a, b, c) == pytest.approx(
            float(special.hyp2f1(a, b, c, 0.5)), rel=1e-12
        )


def test_mellin_normalization_at_s_one():
    for m in range(1, 7):
        assert mellin_eta_even(1.0, m) == pytest.approx(1.0, rel=1e-12)


def test_mellin_exact_small_case():
    # s=3, m=1: prefactor 10 times the terminating series 1 - 3/10 gives 7.
    assert mellin_eta_even(3.0, 1) == pytest.approx(7.0, rel=1e-12)


def test_mellin_against_monte_carlo():
    # eta for even order 2m is xi_1 sqrt(xi_1^2 + 2 xi_{2m}^2); its (s-1)th
    # moment must match the closed form.
    stream = RandStream(11)
    for m in (1, 3):
        xi1 = sample_chi(stream, 1, 200_000)
        xin = sample_chi(stream, 2 * m, 200_000)
        eta = xi1 * np.sqrt(xi1**2 + 2.0 * xin**2)
        for s in (1.5, 2.0, 3.0):
            vals = eta ** (s - 1.0)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - mellin_eta_even(s, m)) < 3.5 * se, (m, s)


def test_mellin_validation():
    with pytest.raises(ValueError):
        mellin_eta_even(0.0, 1)
    with pytest.raises(ValueError):
        mellin_eta_even(2.0, 0)


# ---------------------------------------------------------------------------
# the limit statistic


def test_clt_statistic_centering_and_scale():
    n = 50
    center = 0.5 * math.lgamma(n + 1.0) - 0.25 * math.log(n)
    assert clt_statistic(center, n, 1).value == pytest.approx(0.0)
    one = clt_statistic(center + math.sqrt(math.log(n)), n, 1).value
    assert one == pytest.approx(1.0, rel=1e-12)
    # halving the variance (beta=2) stretches the statistic by sqrt(2)
    two = clt_statistic(center + math.sqrt(math.log(n)), n, 2).value
    assert two == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        clt_statistic(0.0, 1, 1)
    with pytest.raises(ValueError):
        clt_statistic(0.0, 10, 3)
    batch = clt_statistic_batch(np.array([center, center]), n, 1)
    assert np.allclose(batch, 0.0)


def test_yz_decomposition_sums_to_logdet():
    # The split consumes the stream in exactly the same order as the plain
    # sampler, so Y + Z reproduces it draw for draw.
    for beta in (1, 2):
        for n in (6, 7):
            y, z = clt_yz_batch(RandStream(12, n), n, beta, 500)
            whole = logdet_batch(RandStream(12, n), n, beta, 500)
            assert np.allclose(y + z, whole, rtol=1e-12)


def test_clt_decomposition_scalar():
    y, z = clt_decomposition(RandStream(13), 8, 1)
    assert np.isfinite(y) and np.isfinite(z)


def test_leading_term_tracks_half_log_n():
    # For even orders the log leading factor grows like (1/2) log n.
    n = 4000
    y, _ = clt_yz_batch(RandStream(14), n, 1, 4_000)
    ratio = np.mean(y) / math.log(n)
    assert abs(ratio - 0.5) < 0.05


def test_chi_log_moments_exact():
    # E[log chi_k] and Var[log chi_k] against numerical quadrature.
    for k in (1, 3, 8):
        mean, _ = integrate.quad(lambda x: math.log(x) * chi_pdf(x, k), 0, np.inf)
        var, _ = integrate.quad(
            lambda x, mu=mean: (math.log(x) - mu) ** 2 * chi_pdf(x, k), 0, np.inf
        )
        assert log_chi_mean(k) == pytest.approx(mean, abs=1e-9)
        assert log_chi_var(k) == pytest.approx(var, abs=1e-9)


def test_chi_mean_exact(chi_mean):
    for k in (1, 2, 7):
        mean, _ = integrate.quad(lambda x: x * chi_pdf(x, k), 0, np.inf)
        assert chi_mean(k) == pytest.approx(mean, abs=1e-10)


def test_z_moments_match_monte_carlo():
    n = 50
    for beta, seed in ((1, 15), (2, 16)):
        _, z = clt_yz_batch(RandStream(seed), n, beta, 100_000)
        mean, var = z_moments_exact(n, beta)
        se_mean = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - mean) < 3.5 * se_mean
        # variance of the sample variance for a sum of log-chis is close
        # to Gaussian: se ~ var * sqrt(2/(N-1))
        se_var = z.var(ddof=1) * math.sqrt(2.0 / (z.size - 1))
        assert abs(z.var(ddof=1) - var) < 4.0 * se_var


def test_beta_one_z_variance_doubles_beta_two():
    # The real-case chi-log sum has exactly twice the variance of the
    # complex case and the same mean.
    for n in (40, 41):
        m1, v1 = z_moments_exact(n, 1)
        m2, v2 = z_moments_exact(n, 2)
        assert m1 == m2
        assert v1 == pytest.approx(2.0 * v2, rel=1e-12)


def test_z_variance_tracks_log_growth():
    # Var Z for beta=1 behaves like log(2 mhat - 1) with an O(1) remainder;
    # at n = 1000 the ratio is within 15 percent of one.
    n = 1000
    _, v1 = z_moments_exact(n, 1)
    mhat = (n + 1) // 2
    assert abs(v1 / math.log(2.0 * mhat - 1.0) - 1.0) < 0.15


def test_statistic_histogram_is_near_normal_beta_one():
    # Moderate-size check that the normalized statistic is close to normal
    # for beta = 1 at n = 2000 (the full-budget version is the acceptance
    # gate; this is a smoke version at 10^4 samples).
    n = 2000
    logs = logdet_batch(RandStream(17), n, 1, 10_000)
    stats = clt_statistic_batch(logs, n, 1)
    from goesv.gaps import ks_one_sample

    report = ks_one_sample(stats, special.ndtr)
    assert report.ks_distance < 0.05


# ---------------------------------------------------------------------------
# the exact beta = 2 law


def test_exact_cdf_order_one_is_half_log_chi_square():
    # At n = 1, log|det M| = log(chi_1^2) / 2, so P(. <= y) is the regularized
    # lower incomplete gamma P(1/2, exp(2y)/2).
    y = np.linspace(-10.0, 3.0, 27)
    exact = special.gammainc(0.5, np.exp(2.0 * y) / 2.0)
    assert np.max(np.abs(logdet_cdf_exact(y, 1, 2) - exact)) < 1e-10


def test_exact_cdf_matches_factored_and_dense_samples():
    for n in (4, 5):
        cdf = lambda y, n=n: logdet_cdf_exact(y, n, 2)
        fact = logdet_batch(RandStream(18, n), n, 2, 20_000)
        dense = logdet_dense_batch(RandStream(19, n), n, 2, 20_000)
        assert ks_one_sample(fact, cdf).p_value > 1e-3, n
        assert ks_one_sample(dense, cdf).p_value > 1e-3, n


def test_exact_cdf_is_grid_converged():
    # Halving the quadrature step and doubling the span moves the CDF by
    # less than 1e-8, at a small odd, a small even and the CLT order.
    for n in (3, 10, 2000):
        x = np.linspace(-5.0, 5.0, 41)
        coarse = clt_cdf_exact(x, n, 2)
        fine = clt_cdf_exact(x, n, 2, refine=2)
        assert np.max(np.abs(fine - coarse)) < 1e-8, n


def test_exact_cumulants_match_polygamma_sums():
    # The telescoped sums equal the term-by-term polygamma sums over every
    # chi-square factor.
    for n in (1, 2, 9, 10, 301):
        mhat = (n + 1) // 2
        paired = np.arange(3.0, 2 * mhat, 2.0) / 2.0
        shapes = np.concatenate([[0.5], [] if n % 2 else [(n + 1) / 2.0], paired, paired])
        direct = [0.5 * np.sum(special.digamma(shapes) + math.log(2.0))]
        direct += [np.sum(special.polygamma(j - 1, shapes)) / 2.0**j for j in (2, 3, 4)]
        assert np.allclose(logdet_cumulants_exact(n, 2), direct, rtol=1e-12, atol=0.0), n


def test_exact_law_is_beta_two_only():
    with pytest.raises(ValueError):
        logdet_cdf_exact(0.0, 4, 1)
    with pytest.raises(ValueError):
        logdet_cumulants_exact(5, 1)
