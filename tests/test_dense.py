"""Dense reference samplers and their spectral laws."""

import numpy as np
import pytest
from scipy import special

from goesv.dense import (
    ParityFrame,
    SortedSpectrum,
    ague_batch,
    ague_singular_values,
    collapse_pairs,
    goe_abs_batch,
    goe_eigenvalues_batch,
    gue_abs_batch,
    gue_singular_values,
    lue_batch,
    lue_count_batch,
    lue_eigenvalues,
    sample_goe,
    sample_gue,
    sample_skew,
    singular_values,
    symmetric_eigenvalues,
)
from goesv.gaps import ks_one_sample, ks_two_sample
from goesv.streams import RandStream, chi_cdf

SQRT_HALF = np.sqrt(0.5)


# ---------------------------------------------------------------------------
# frames and spectra


def test_parity_frame_decomposition():
    for n in range(1, 10):
        frame = ParityFrame.from_order(n)
        assert frame.n == 2 * frame.m + frame.mu
        assert frame.mhat == frame.m + frame.mu
        assert frame.m == n // 2
        assert frame.mu == n % 2
    with pytest.raises(ValueError):
        ParityFrame.from_order(0)


def test_sorted_spectrum_validation():
    SortedSpectrum([3.0, 2.0, 1.0], 3, "test")
    with pytest.raises(ValueError):
        SortedSpectrum([1.0, 2.0], 2, "test")
    with pytest.raises(ValueError):
        SortedSpectrum([1.0, -0.5], 2, "test")
    signed = SortedSpectrum([1.0, -0.5], 2, "test", signed=True)
    assert signed.values[-1] == -0.5


# ---------------------------------------------------------------------------
# symmetric / skew / Hermitian samplers


def test_goe_sample_is_symmetric_with_pinned_variances():
    stream = RandStream(0)
    g = sample_goe(stream, 5)
    assert np.array_equal(g, g.T)
    diag = np.array([np.diag(sample_goe(stream, 4)) for _ in range(5_000)]).ravel()
    off = np.array([sample_goe(stream, 4)[0, 1] for _ in range(20_000)])
    assert abs(diag.var(ddof=1) - 1.0) < 0.05
    assert abs(off.var(ddof=1) - 0.5) < 0.025


def test_goe_order_one_is_standard_normal():
    stream = RandStream(1)
    x = np.array([sample_goe(stream, 1)[0, 0] for _ in range(20_000)])
    report = ks_one_sample(x, special.ndtr)
    assert report.p_value > 1e-3


def test_goe_trace_square_moment():
    # E[trace(G^2)] is the sum of the entry variances: n on the diagonal
    # plus n(n-1)/2 pairs of variance 1/2 each side, i.e. n(n+1)/2.
    eigs = goe_eigenvalues_batch(RandStream(2), 4, 20_000)
    traces = np.sum(eigs**2, axis=1)
    se = traces.std(ddof=1) / np.sqrt(traces.size)
    assert abs(traces.mean() - 10.0) < 3.0 * se


def test_skew_sample_structure():
    stream = RandStream(3)
    a = sample_skew(stream, 5)
    assert np.array_equal(a, -a.T)
    assert np.all(np.diag(a) == 0.0)
    dets = [np.linalg.det(sample_skew(stream, 3)) for _ in range(50)]
    assert np.max(np.abs(dets)) < 1e-12


def test_skew_offdiagonal_law():
    stream = RandStream(4)
    x = np.abs([sample_skew(stream, 2)[0, 1] for _ in range(20_000)])
    report = ks_one_sample(np.asarray(x), lambda v: chi_cdf(v / SQRT_HALF, 1))
    assert report.p_value > 1e-3


def test_gue_sample_is_hermitian_with_pinned_variance():
    stream = RandStream(5)
    g = sample_gue(stream, 4)
    assert np.allclose(g, np.conj(g.T))
    offs = np.array([sample_gue(stream, 3)[0, 1] for _ in range(20_000)])
    assert abs(np.mean(np.abs(offs) ** 2) - 0.5) < 0.02
    diags = np.array([sample_gue(stream, 2)[1, 1].real for _ in range(20_000)])
    assert abs(diags.var(ddof=1) - 0.5) < 0.02


def test_gue_order_one_magnitude_law():
    x = gue_abs_batch(RandStream(6), 1, 20_000).ravel()
    report = ks_one_sample(x, lambda v: chi_cdf(v / SQRT_HALF, 1))
    assert report.p_value > 1e-3


# ---------------------------------------------------------------------------
# spectral solvers


def test_symmetric_eigenvalues_pinned_cases():
    spec = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.values, [3.0, 2.0, 1.0])
    spec = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.values, [1.0, -1.0])
    assert spec.signed
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eigenvalues_trace_identity():
    g = sample_goe(RandStream(7), 6)
    spec = symmetric_eigenvalues(g)
    trace = np.trace(g)
    assert abs(np.sum(spec.values) - trace) <= 1e-10 * max(1.0, abs(trace))


def test_singular_values_pinned_cases():
    assert np.allclose(singular_values(np.array([[2.0, 0.0]])).values, [2.0])
    assert np.allclose(singular_values(np.diag([1.0, 3.0])).values, [3.0, 1.0])
    with pytest.raises(ValueError):
        singular_values(np.empty((0, 2)))


def test_singular_values_frobenius_identity():
    mat = RandStream(8).rng.standard_normal((4, 5))
    spec = singular_values(mat)
    assert spec.values.size == 4
    frob2 = np.sum(mat**2)
    assert abs(np.sum(spec.values**2) - frob2) <= 1e-10 * frob2


# ---------------------------------------------------------------------------
# collapsed skew spectra


def test_ague_counts_and_validation():
    stream = RandStream(9)
    assert ague_singular_values(stream, 3).values.size == 1
    assert ague_singular_values(stream, 5).values.size == 2
    assert ague_singular_values(stream, 8).values.size == 4
    with pytest.raises(ValueError):
        ague_singular_values(stream, 1)


def test_ague_order_two_law():
    # The single collapsed value of the 2x2 skew sample has density
    # (2/sqrt(pi)) e^{-s^2}, i.e. CDF erf(s).
    x = ague_batch(RandStream(10), 2, 20_000).ravel()
    report = ks_one_sample(x, special.erf)
    assert report.p_value > 1e-3


def test_skew_singular_values_pair_up():
    stream = RandStream(11)
    for n in (6, 7):
        for _ in range(200):
            a = sample_skew(stream, n)
            s = np.linalg.svd(a, compute_uv=False)
            tol = 1e-8 * s[0]
            nonzero = s[s > tol]
            assert nonzero.size % 2 == 0
            pairs = nonzero.reshape(-1, 2)
            assert np.all(pairs[:, 0] - pairs[:, 1] <= tol)


def test_collapse_pairs_drops_surplus_zero():
    values = np.array([2.0, 2.0, 1.0, 1.0, 1e-18])
    collapsed = collapse_pairs(values, 5)
    assert np.allclose(collapsed, [2.0, 1.0])


def test_gue_magnitudes_sorted_nonnegative():
    spec = gue_singular_values(RandStream(12), 5)
    assert spec.values.size == 5
    assert np.all(spec.values >= 0)
    assert np.all(np.diff(spec.values) <= 0)


# ---------------------------------------------------------------------------
# Laguerre sampler


def test_lue_order_one_gamma_laws():
    x = lue_batch(RandStream(13), 1, -0.5, 20_000).ravel()
    report = ks_one_sample(x, lambda v: special.gammainc(0.5, v))
    assert report.p_value > 1e-3
    y = lue_batch(RandStream(14), 1, 0.5, 20_000).ravel()
    se = y.std(ddof=1) / np.sqrt(y.size)
    assert abs(y.mean() - 1.5) < 3.0 * se


def test_lue_positivity_and_validation():
    spec = lue_eigenvalues(RandStream(15), 3, 0.5)
    assert np.all(spec.values > 0)
    assert spec.values.size == 3
    with pytest.raises(ValueError):
        lue_eigenvalues(RandStream(0), 2, -1.0)
    with pytest.raises(ValueError):
        lue_eigenvalues(RandStream(0), 0, 0.5)
    # a = inf, or an a whose chi degree 2(a + m) overflows, would draw nan
    # eigenvalues
    for a in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError):
            lue_batch(RandStream(0), 2, a, 3)


@pytest.mark.parametrize("m", (1, 2, 5, 50))
@pytest.mark.parametrize("a", (-0.5, 0.5, 1.0))
def test_lue_count_batch_counts_the_eigenvalues_of_lue_batch(m, a):
    for x in (1e-3, 0.5, 1.0, 3.0, np.inf):
        counts = lue_count_batch(RandStream(22, m), m, a, 500, x)
        eigs = lue_batch(RandStream(22, m), m, a, 500)
        assert counts.shape == (500,)
        assert np.array_equal(counts, np.sum(eigs < x, axis=1)), x
    with pytest.raises(ValueError):
        lue_count_batch(RandStream(0), m, a, 3, -1.0)
    with pytest.raises(ValueError):
        lue_count_batch(RandStream(0), m, -1.0, 3, 1.0)


def test_collapsed_skew_matches_squared_laguerre():
    # The collapsed skew spectrum of order n, squared, is the Laguerre
    # ensemble at a = mu - 1/2; per-location two-sample KS at n in {4, 5}.
    for n, seed in ((4, 16), (5, 17)):
        m, mu = n // 2, n % 2
        skew_sq = ague_batch(RandStream(seed, 0), n, 100_000) ** 2
        lag = lue_batch(RandStream(seed, 1), m, mu - 0.5, 100_000)
        for j in range(m):
            report = ks_two_sample(skew_sq[:, j], lag[:, j])
            assert report.p_value > 1e-3, (n, j, report)


# ---------------------------------------------------------------------------
# batch kernels agree with the scalar paths


def test_batch_kernels_match_scalar_distributions():
    n = 4
    stream = RandStream(18)
    scalar = np.array([
        np.sort(np.abs(symmetric_eigenvalues(sample_goe(stream, n)).values))[::-1]
        for _ in range(4_000)
    ])
    batch = goe_abs_batch(RandStream(19), n, 4_000)
    for j in range(n):
        assert ks_two_sample(scalar[:, j], batch[:, j]).p_value > 1e-3


def test_gue_batch_matches_scalar_distribution():
    n = 3
    stream = RandStream(20)
    scalar = np.array([gue_singular_values(stream, n).values for _ in range(4_000)])
    batch = gue_abs_batch(RandStream(21), n, 4_000)
    for j in range(n):
        assert ks_two_sample(scalar[:, j], batch[:, j]).p_value > 1e-3
