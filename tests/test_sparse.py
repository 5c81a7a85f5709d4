"""Sparse models: bordered, tridiagonal, and the coupled bidiagonal pairs.

The entry layouts of the bidiagonal pairs are pinned against hand-frozen
matrices at small orders (the dominant hazard is an off-by-one in a chi
degree), then against per-entry sample means at larger orders, and finally
against the dense reference sampler in distribution.
"""

import numpy as np
import pytest
from scipy import special

from goesv.dense import (
    SortedSpectrum,
    _sturm_count,
    ague_batch,
    collapse_pairs,
    goe_abs_batch,
    goe_eigenvalues_batch,
    sample_goe,
    symmetric_eigenvalues,
)
from goesv.gaps import ks_one_sample, ks_two_sample
from goesv.sparse import (
    BidiagMatrix,
    BorderedModel,
    _b_pair_layout,
    _pair_matrices,
    _r_pair_layout,
    b_pair_sv_batch,
    bidiag_singular_values,
    build_B_pair,
    build_R_pair,
    decimate,
    goe_count_batch,
    h_sv_batch,
    r_pair_sv_batch,
    sample_bordered_H,
    sample_tridiagonal_T,
    t_count_batch,
    t_sv_batch,
)
from goesv.streams import RandStream, chi_cdf

S2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# containers


def test_bidiag_geometry_and_toarray():
    upper = BidiagMatrix(diag=[1.0, 2.0], offdiag=[5.0, 6.0], rows=2, cols=3)
    assert np.array_equal(upper.toarray(), [[1.0, 5.0, 0.0], [0.0, 2.0, 6.0]])
    assert np.array_equal(upper.superdiag, [5.0, 6.0])
    lower = BidiagMatrix(diag=[1.0, 2.0], offdiag=[7.0, 8.0], rows=3, cols=2, lower=True)
    assert np.array_equal(lower.toarray(), [[1.0, 0.0], [7.0, 2.0], [0.0, 8.0]])
    square = BidiagMatrix(diag=[1.0, 2.0], offdiag=[3.0], rows=2, cols=2)
    assert np.array_equal(square.toarray(), [[1.0, 3.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        BidiagMatrix(diag=[1.0], offdiag=[], rows=2, cols=2)
    with pytest.raises(ValueError):
        BidiagMatrix(diag=[1.0, 2.0], offdiag=[3.0, 4.0], rows=2, cols=2)
    with pytest.raises(ValueError):
        BidiagMatrix(diag=[np.inf], offdiag=[], rows=1, cols=1)
    with pytest.raises(ValueError):
        lower.superdiag


def test_decimate_pinned_examples():
    pair = decimate(SortedSpectrum([5.0, 4.0, 3.0, 2.0, 1.0], 5, "x"))
    assert np.array_equal(pair.t.values, [5.0, 3.0, 1.0])
    assert np.array_equal(pair.s.values, [4.0, 2.0])
    assert pair.frame.mu == 1
    pair = decimate(SortedSpectrum([2.0, 1.0], 2, "x"))
    assert np.array_equal(pair.t.values, [2.0])
    assert np.array_equal(pair.s.values, [1.0])
    with pytest.raises(ValueError):
        decimate(SortedSpectrum([1.0, -1.0], 2, "x", signed=True))
    with pytest.raises(ValueError):
        decimate(SortedSpectrum([2.0, 1.0], 3, "x"))


# ---------------------------------------------------------------------------
# bordered model


def test_bordered_model_validation_and_kinds():
    stream = RandStream(0)
    h = sample_bordered_H(stream, 4)
    assert h.border.size == 4
    assert np.all(h.border[1:] == 0.0) and h.border[0] > 0.0
    assert np.array_equal(h.skew, -h.skew.T)
    assert h.matrix().shape == (4, 5)
    g = sample_bordered_H(stream, 4, border_kind="gaussian")
    assert np.any(g.border[1:] != 0.0)
    with pytest.raises(ValueError):
        sample_bordered_H(stream, 3, border_kind="uniform")
    with pytest.raises(ValueError):
        BorderedModel(border=np.ones(2), skew=np.ones((2, 2)))


def test_bordered_order_one_is_chi_1():
    sv = h_sv_batch(RandStream(1), 1, 20_000).ravel()
    assert ks_one_sample(sv, lambda v: chi_cdf(v, 1)).p_value > 1e-3


def test_bordered_matches_dense_goe_magnitudes():
    for n, seed in ((3, 2), (4, 3), (6, 4)):
        ref = goe_abs_batch(RandStream(seed, 0), n, 20_000)
        h = h_sv_batch(RandStream(seed, 1), n, 20_000)
        for j in range(n):
            assert ks_two_sample(ref[:, j], h[:, j]).p_value > 1e-3, (n, j)


def test_bordered_border_kinds_agree():
    chi = h_sv_batch(RandStream(5, 0), 4, 20_000)
    gau = h_sv_batch(RandStream(5, 1), 4, 20_000, border_kind="gaussian")
    for j in range(4):
        assert ks_two_sample(chi[:, j], gau[:, j]).p_value > 1e-3


# ---------------------------------------------------------------------------
# tridiagonal model


def test_tridiagonal_structure_and_degrees(chi_mean):
    t = sample_tridiagonal_T(RandStream(6), 5)
    assert np.all(np.diag(t) == 0.0)
    assert np.array_equal(t, t.T)
    stream = RandStream(6, 1)
    off = np.array([np.diag(sample_tridiagonal_T(stream, 5), 1)
                    for _ in range(20_000)])
    # off-diagonal j carries chi_{n-1-j}/sqrt(2), top to bottom
    for j, deg in enumerate((4, 3, 2, 1)):
        se = off[:, j].std(ddof=1) / np.sqrt(off.shape[0])
        assert abs(off[:, j].mean() - chi_mean(deg) / S2) < 5.0 * se, (j, deg)
    with pytest.raises(ValueError):
        sample_tridiagonal_T(RandStream(0), 1)


def test_tridiagonal_order_two_law():
    sv = t_sv_batch(RandStream(7), 2, 20_000).ravel()
    assert ks_one_sample(sv, lambda v: chi_cdf(v * S2, 1)).p_value > 1e-3


def test_tridiagonal_matches_collapsed_skew():
    tri = t_sv_batch(RandStream(8, 0), 5, 20_000)
    skew = ague_batch(RandStream(8, 1), 5, 20_000)
    assert tri.shape == skew.shape
    for j in range(tri.shape[1]):
        assert ks_two_sample(tri[:, j], skew[:, j]).p_value > 1e-3


@pytest.mark.parametrize("n", (2, 3, 4, 5, 9, 40, 401))
def test_tridiagonal_golub_kahan_reduction(n):
    # The half-size bidiagonal gives the collapsed singular values of the
    # full T drawn from the same chi rows.
    half = t_sv_batch(RandStream(9, n), n, 4)
    stream = RandStream(9, n)
    tri = np.array([sample_tridiagonal_T(stream, n) for _ in range(4)])
    full = collapse_pairs(np.linalg.svd(tri, compute_uv=False), n)
    assert full.shape == half.shape
    assert np.max(np.abs(half - full)) <= 1e-13 * np.max(full)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 9, 100, 101))
def test_t_count_batch_counts_the_spectra_of_t_sv_batch(n):
    # odd n gives T's rectangular m x (m + 1) Golub-Kahan bidiagonal
    for x in (1e-3, 0.5, 1.0, 3.0, np.inf):
        counts = t_count_batch(RandStream(11, n), n, 500, x)
        spectra = t_sv_batch(RandStream(11, n), n, 500)
        assert counts.shape == (500,)
        assert np.array_equal(counts, np.sum(spectra < x, axis=1)), x


def test_t_count_batch_counts_a_zero_pivot_as_negative():
    # At n = 3, T's Golub-Kahan bidiagonal is 1 x 2 with diagonal c_1 = T[0, 1],
    # and its one singular value sqrt(c_1^2 + c_2^2) exceeds c_1.  At x = c_1
    # the sweep's second pivot -x - c_1^2 / -x is exactly zero; counted as
    # non-negative it would give a count of -1.
    x = sample_tridiagonal_T(RandStream(0), 3)[0, 1]
    assert x * x / x == x  # the pivot is an exact zero at this seed
    assert np.array_equal(t_count_batch(RandStream(0), 3, 1, x), [0])


def test_t_count_batch_validation():
    assert np.array_equal(t_count_batch(RandStream(0), 6, 4, 0.0), np.zeros(4))
    for x in (-1.0, np.nan):
        with pytest.raises(ValueError):
            t_count_batch(RandStream(0), 6, 4, x)


def _chi_square_cdf(df):
    return lambda x: special.gammainc(df / 2.0, x / 2.0)


@pytest.mark.parametrize("n", (2, 5, 9))
def test_tridiagonal_trace_law(n):
    # T's eigenvalues are +-sigma (and 0 at odd n), so 2 sum sigma^2 is the
    # squared Frobenius norm 2 sum_k chi_k^2 / 2 ~ chi^2_{n(n-1)/2}.
    trace = 2.0 * np.sum(t_sv_batch(RandStream(10, n), n, 20_000) ** 2, axis=1)
    assert ks_one_sample(trace, _chi_square_cdf(n * (n - 1) / 2)).p_value > 1e-3


# ---------------------------------------------------------------------------
# tridiagonal GOE (Dumitriu-Edelman)


def _tridiag_goe_draws(stream, n, size):
    """The kernel's draws replayed: (size, n) diagonals, then the
    (size, n-1) off-diagonals tau_{n-1}, ..., tau_1 over sqrt(2)."""
    diag = stream.rng.standard_normal((size, n))
    off = np.sqrt(stream.rng.standard_gamma(np.arange(n - 1, 0, -1) / 2.0, size=(size, n - 1)))
    return diag, off


def _tridiag(diag, off):
    """(size, n, n) symmetric tridiagonals from (size, n) and (size, n-1) rows."""
    n = diag.shape[1]
    mats = np.zeros((diag.shape[0], n, n))
    mats[:, np.arange(n), np.arange(n)] = diag
    mats[:, np.arange(n - 1), np.arange(1, n)] = off
    mats[:, np.arange(1, n), np.arange(n - 1)] = off
    return mats


@pytest.mark.parametrize("n", (1, 2, 3, 9, 100, 101))
def test_tridiag_goe_matches_dense_solve_of_its_matrix(n):
    # goe_count_batch counts the eigenvalues of the matrix its draws make
    eig = np.linalg.eigvalsh(_tridiag(*_tridiag_goe_draws(RandStream(11, n), n, 500)))
    for s in (1e-3, 0.3, 1.0, 3.0, np.inf):
        counts = goe_count_batch(RandStream(11, n), n, 500, s)
        assert counts.shape == (500,)
        assert np.array_equal(counts, np.sum((eig > -s) & (eig < s), axis=1)), s


def test_goe_count_batch_validation():
    for s in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            goe_count_batch(RandStream(0), 4, 3, s)


@pytest.mark.parametrize("n", (1, 2, 5, 9))
def test_tridiag_goe_trace_law(n):
    # sum lambda^2 = sum d_i^2 + 2 sum_k chi_k^2 / 2 ~ chi^2_{n(n+1)/2}, the
    # squared Frobenius norm of the dense GOE as well; checked on the
    # entries the count kernel draws (the test above ties them to it)
    diag, off = _tridiag_goe_draws(RandStream(12, n), n, 20_000)
    trace = np.sum(diag**2, axis=1) + 2.0 * np.sum(off**2, axis=1)
    assert ks_one_sample(trace, _chi_square_cdf(n * (n + 1) / 2)).p_value > 1e-3


@pytest.mark.parametrize("n", (5, 9))
def test_tridiag_goe_matches_dense_goe(n):
    # the counts of goe_count_batch against those of the dense GOE
    ref = goe_eigenvalues_batch(RandStream(13, 1), n, 20_000)
    for s in (0.3, 1.0, 2.0, 4.0):
        tri = goe_count_batch(RandStream(13, 0), n, 20_000, s)
        dense = np.sum((ref > -s) & (ref < s), axis=1)
        assert ks_two_sample(tri, dense).p_value > 1e-3, (n, s)


@pytest.mark.parametrize(
    "diag, off2, x",
    (
        ((1.0, 1.0, 0.0), (4.0, 9.0), 1.0),  # first pivot exactly zero
        ((2.0, 0.5, 3.0, -1.0), (1.0, 2.0, 0.5), 2.0),  # zero pivot, then +inf
        ((0.0, 0.0, 0.0), (4.0, 9.0), 0.0),  # x is the eigenvalue 0
        ((0.0, 0.0), (1.0,), 1.0),  # x is the eigenvalue 1
        ((0.0, 0.0), (1.0,), -1.0),  # x is the eigenvalue -1
    ),
)
def test_sturm_count_on_exact_zero_pivots(diag, off2, x):
    # an exact zero pivot counts as negative, so an eigenvalue exactly at x
    # counts as below it; the plain form (a - x) - b^2/q would count the
    # first case's zero pivot twice and return 3
    diag, off2 = np.array(diag), np.array(off2)
    eig = np.linalg.eigvalsh(_tridiag(diag[None], np.sqrt(off2)[None])[0])
    expected = np.sum(eig <= x + 1e-12)
    assert _sturm_count(x, diag[:, None], off2[:, None]).tolist() == [expected]


# ---------------------------------------------------------------------------
# rectangular bidiagonal pair: hand-frozen layouts


def test_b_pair_frozen_layouts():
    # tau_k = k so every entry names its own chi degree.
    odd, even = _pair_matrices(_b_pair_layout(np.arange(1.0, 3.0)[None]))
    assert np.allclose(even.toarray(), [[1 / S2]])
    assert np.allclose(odd.toarray(), [[2.0, 1 / S2]])

    odd, even = _pair_matrices(_b_pair_layout(np.arange(1.0, 4.0)[None]))
    assert np.allclose(even.toarray(), [[2 / S2], [1 / S2]])
    assert np.allclose(odd.toarray(), [[3.0, 2 / S2], [0.0, 1 / S2]])

    odd, even = _pair_matrices(_b_pair_layout(np.arange(1.0, 5.0)[None]))
    assert np.allclose(even.toarray(), [[3 / S2, 0.0], [2 / S2, 1 / S2]])
    assert np.allclose(odd.toarray(), [[4.0, 3 / S2, 0.0], [0.0, 2 / S2, 1 / S2]])

    odd, even = _pair_matrices(_b_pair_layout(np.arange(1.0, 6.0)[None]))
    assert np.allclose(even.toarray(), [[4 / S2, 0.0], [3 / S2, 2 / S2], [0.0, 1 / S2]])
    assert np.allclose(
        odd.toarray(),
        [[5.0, 4 / S2, 0.0], [0.0, 3 / S2, 2 / S2], [0.0, 0.0, 1 / S2]],
    )


def test_b_pair_shapes_all_orders():
    for n in range(2, 10):
        m, mu = n // 2, n % 2
        odd, even = build_B_pair(RandStream(10, n), n)
        assert (even.rows, even.cols) == (m + mu, m)
        assert (odd.rows, odd.cols) == (m + mu, m + 1)
        assert even.lower and not odd.lower


def test_b_pair_entry_degrees_statistically(chi_mean):
    # Accumulate per-entry means at n = 6 and 7 and match them against the
    # exact chi means of the pinned degrees.
    for n, seed in ((6, 11), (7, 12)):
        m, mu = n // 2, n % 2
        reps = 20_000
        stream = RandStream(seed)
        acc_ed = np.zeros(m)
        acc_eo = np.zeros(m - 1 + mu)
        acc_od = np.zeros(m + mu)
        acc_oo = np.zeros(m)
        for _ in range(reps):
            odd, even = build_B_pair(stream, n)
            acc_ed += even.diag
            acc_eo += even.offdiag
            acc_od += odd.diag
            acc_oo += odd.offdiag
        se = 1.0 / np.sqrt(reps)  # chi variance is below 1 for every degree
        even_diag_deg = np.arange(n - 1, 0, -2)
        even_off_deg = np.arange(n - 2, 0, -2)
        assert np.all(np.abs(acc_ed / reps - chi_mean(even_diag_deg) / S2) < 5 * se)
        assert np.all(np.abs(acc_eo / reps - chi_mean(even_off_deg) / S2) < 5 * se)
        odd_diag_expect = np.concatenate([[chi_mean(n)], chi_mean(even_off_deg) / S2])
        assert np.all(np.abs(acc_od / reps - odd_diag_expect) < 5 * se)
        assert np.all(np.abs(acc_oo / reps - chi_mean(even_diag_deg) / S2) < 5 * se)


def test_b_pair_union_matches_dense_goe():
    n = 5
    odd, even = b_pair_sv_batch(RandStream(13, 0), n, 20_000)
    union = np.sort(np.concatenate([odd, even], axis=1), axis=1)[:, ::-1]
    ref = goe_abs_batch(RandStream(13, 1), n, 20_000)
    assert union.shape == ref.shape
    for j in range(n):
        assert ks_two_sample(union[:, j], ref[:, j]).p_value > 1e-3


def test_b_even_matches_even_decimation():
    n = 5
    stream = RandStream(14)
    evens = np.array([
        np.sort(bidiag_singular_values(build_B_pair(stream, n)[1]).values)[::-1]
        for _ in range(4_000)
    ])
    dec = goe_abs_batch(RandStream(15), n, 4_000)[:, 1::2]
    for j in range(n // 2):
        assert ks_two_sample(evens[:, j], dec[:, j]).p_value > 1e-3


# ---------------------------------------------------------------------------
# square bidiagonal pair


def test_r_pair_frozen_layouts():
    odd, even = _pair_matrices(_r_pair_layout(np.arange(1.0, 3.0)[None]))
    assert np.allclose(even.toarray(), [[1 / S2]])
    assert np.allclose(odd.toarray(), [[3.0 / S2]])  # sqrt(1 + 2*4) = 3

    odd, even = _pair_matrices(_r_pair_layout(np.arange(1.0, 4.0)[None]))
    assert np.allclose(even.toarray(), [[3 / S2]])
    assert np.allclose(odd.toarray(), [[1.0, 2.0], [0.0, 3 / S2]])

    odd, even = _pair_matrices(_r_pair_layout(np.arange(1.0, 5.0)[None]))
    assert np.allclose(even.toarray(), [[1 / S2, 2 / S2], [0.0, 3 / S2]])
    assert np.allclose(
        odd.toarray(), [[np.sqrt(33.0) / S2, 2 / S2], [0.0, 3 / S2]]
    )

    odd, even = _pair_matrices(_r_pair_layout(np.arange(1.0, 6.0)[None]))
    assert np.allclose(even.toarray(), [[5 / S2, 2 / S2], [0.0, 3 / S2]])
    assert np.allclose(
        odd.toarray(),
        [[1.0, 4.0, 0.0], [0.0, 5 / S2, 2 / S2], [0.0, 0.0, 3 / S2]],
    )


def test_r_even_ignores_the_coupling_degree():
    # mu=0: the even matrix never reads xi_{2m}; mu=1: neither xi_1 nor xi_{2m}.
    def even(xi):
        return _pair_matrices(_r_pair_layout(xi[None]))[1].toarray()

    base = np.arange(1.0, 5.0)
    bumped = base.copy()
    bumped[3] = 99.0
    assert np.array_equal(even(base), even(bumped))
    base = np.arange(1.0, 6.0)
    bumped = base.copy()
    bumped[0] = 99.0
    bumped[3] = 77.0
    assert np.array_equal(even(base), even(bumped))


def test_r_pair_shapes_all_orders():
    for n in range(2, 10):
        m, mu = n // 2, n % 2
        odd, even = build_R_pair(RandStream(16, n), n)
        assert (even.rows, even.cols) == (m, m)
        assert (odd.rows, odd.cols) == (m + mu, m + mu)
    with pytest.raises(ValueError):
        build_R_pair(RandStream(0), 1)


def test_r_pair_order_two_product_is_goe_determinant():
    # sv(R_odd) * sv(R_even) = xi_1 sqrt(xi_1^2 + 2 xi_2^2) / 2 = |det G_2|.
    stream = RandStream(17)
    prods = np.empty(20_000)
    for i in range(prods.size):
        odd, even = build_R_pair(stream, 2)
        prods[i] = odd.diag[0] * even.diag[0]
    gstream = RandStream(18)
    dets = np.abs([np.linalg.det(sample_goe(gstream, 2)) for _ in range(20_000)])
    assert ks_two_sample(prods, np.asarray(dets)).p_value > 1e-3


def test_r_pair_union_matches_dense_goe():
    n = 4
    odd, even = r_pair_sv_batch(RandStream(19, 0), n, 20_000)
    union = np.sort(np.concatenate([odd, even], axis=1), axis=1)[:, ::-1]
    ref = goe_abs_batch(RandStream(19, 1), n, 20_000)
    for j in range(n):
        assert ks_two_sample(union[:, j], ref[:, j]).p_value > 1e-3


def test_r_pair_interlaces_per_sample():
    stream = RandStream(20)
    for n in (4, 5, 8, 9):
        for _ in range(200):
            odd, even = build_R_pair(stream, n)
            t = bidiag_singular_values(odd).values
            s = bidiag_singular_values(even).values
            merged = np.empty(t.size + s.size)
            merged[0::2] = t
            merged[1::2] = s
            assert np.all(np.diff(merged) <= 1e-12)


def test_r_pair_entry_degrees_statistically(chi_mean):
    # Per-entry means at n = 6 and 7, skipping the composite/unscaled
    # coupling entries which are pinned by the frozen layouts above.
    for n, seed in ((6, 21), (7, 22)):
        m, mu = n // 2, n % 2
        reps = 20_000
        stream = RandStream(seed)
        acc_ed = np.zeros(m)
        acc_eo = np.zeros(m - 1)
        acc_od = np.zeros(m + mu)
        acc_oo = np.zeros(m - 1 + mu)
        for _ in range(reps):
            odd, even = build_R_pair(stream, n)
            acc_ed += even.diag
            acc_eo += even.offdiag
            acc_od += odd.diag
            acc_oo += odd.offdiag
        se = 1.0 / np.sqrt(reps)
        if mu == 0:
            even_diag_deg = np.array([1] + list(range(n - 1, 2, -2)))
        else:
            even_diag_deg = np.arange(n, 2, -2)
        even_off_deg = np.arange(n - 2 - mu, 0, -2)
        assert np.all(np.abs(acc_ed / reps - chi_mean(even_diag_deg) / S2) < 5 * se)
        assert np.all(np.abs(acc_eo / reps - chi_mean(even_off_deg) / S2) < 5 * se)
        if mu == 0:
            # odd diag shares the even layout except the composite corner
            assert np.all(
                np.abs(acc_od[1:] / reps - chi_mean(even_diag_deg[1:]) / S2) < 5 * se
            )
            assert np.all(np.abs(acc_oo / reps - chi_mean(even_off_deg) / S2) < 5 * se)
        else:
            odd_diag_deg = np.concatenate([[1], even_diag_deg])
            scale = np.concatenate([[1.0], np.full(m, S2)])
            assert np.all(
                np.abs(acc_od / reps - chi_mean(odd_diag_deg) / scale) < 5 * se
            )
            odd_off_deg = np.concatenate([[n - 1], even_off_deg])
            oscale = np.concatenate([[1.0], np.full(m - 1, S2)])
            assert np.all(
                np.abs(acc_oo / reps - chi_mean(odd_off_deg) / oscale) < 5 * se
            )


# ---------------------------------------------------------------------------
# bidiagonal singular values


def test_bidiag_singular_values_pinned():
    one = BidiagMatrix(diag=[3.0], offdiag=[], rows=1, cols=1)
    assert np.allclose(bidiag_singular_values(one).values, [3.0])
    two = BidiagMatrix(diag=[1.0, 1.0], offdiag=[0.0], rows=2, cols=2)
    assert np.allclose(bidiag_singular_values(two).values, [1.0, 1.0])


def test_bidiag_singular_values_match_dense():
    rng = RandStream(23).rng
    b = BidiagMatrix(
        diag=rng.uniform(0.5, 2.0, 5), offdiag=rng.uniform(0.5, 2.0, 4),
        rows=5, cols=5,
    )
    dense = np.linalg.svd(b.toarray(), compute_uv=False)
    mine = bidiag_singular_values(b).values
    assert np.allclose(mine, dense, rtol=1e-10)


# ---------------------------------------------------------------------------
# batch kernels agree with the scalar builders


def test_batch_pair_kernels_match_scalar():
    n = 5
    stream = RandStream(24)
    scalar = np.array([
        np.sort(np.concatenate([
            bidiag_singular_values(p[0]).values, bidiag_singular_values(p[1]).values
        ]))[::-1]
        for p in (build_R_pair(stream, n) for _ in range(4_000))
    ])
    odd, even = r_pair_sv_batch(RandStream(25), n, 4_000)
    batch = np.sort(np.concatenate([odd, even], axis=1), axis=1)[:, ::-1]
    for j in range(n):
        assert ks_two_sample(scalar[:, j], batch[:, j]).p_value > 1e-3

    stream = RandStream(26)
    scalar = np.array([
        np.sort(np.concatenate([
            bidiag_singular_values(p[0]).values, bidiag_singular_values(p[1]).values
        ]))[::-1]
        for p in (build_B_pair(stream, n) for _ in range(4_000))
    ])
    odd, even = b_pair_sv_batch(RandStream(27), n, 4_000)
    batch = np.sort(np.concatenate([odd, even], axis=1), axis=1)[:, ::-1]
    for j in range(n):
        assert ks_two_sample(scalar[:, j], batch[:, j]).p_value > 1e-3
