"""Gap-probability estimators, the symmetric-interval counting identity,
superposition, and the Wishart duality check."""

import math

import numpy as np
import pytest
from scipy import special

from goesv.gaps import (
    MODELS,
    DualityReport,
    EnsembleSpec,
    GapEstimate,
    _lemma_holds,
    check_counting_lemma,
    count_in_interval,
    ecdf,
    estimate_gap,
    ks_one_sample,
    ks_two_sample,
    verify_gap_identity,
    verify_superposition,
    verify_wishart_duality,
    wishart_padding_residual,
)
from goesv.streams import RandStream


# ---------------------------------------------------------------------------
# two-sample machinery


def test_ecdf_basic():
    f = ecdf([1.0, 2.0, 3.0, 4.0])
    assert f(0.0) == 0.0
    assert f(2.0) == 0.5
    assert f(9.0) == 1.0
    out = f(np.array([1.5, 3.5]))
    assert np.allclose(out, [0.25, 0.75])
    with pytest.raises(ValueError):
        ecdf([])


def test_ks_identical_samples():
    a = np.linspace(0.0, 1.0, 100)
    report = ks_two_sample(a, a)
    assert report.ks_distance == 0.0
    assert report.p_value == pytest.approx(1.0)
    assert report.sample_sizes == (100, 100)


def test_ks_disjoint_samples():
    report = ks_two_sample(np.arange(50.0), np.arange(100.0, 150.0))
    assert report.ks_distance == 1.0
    assert report.p_value < 1e-10


def test_ks_one_sample_calibration():
    # p-values for a correct null should be roughly uniform: almost none
    # below 1e-3, and mean near 1/2.
    rng = RandStream(100).rng
    pvals = np.array(
        [ks_one_sample(rng.standard_normal(400), special.ndtr).p_value for _ in range(600)]
    )
    assert np.mean(pvals > 1e-3) >= 0.99
    assert 0.42 < pvals.mean() < 0.58


# ---------------------------------------------------------------------------
# interval counting


def test_count_in_interval_pinned():
    assert count_in_interval((3.0, 1.0, 0.5), 0.4, 2.0) == 2
    assert count_in_interval((3.0, 1.0, 0.5), -1.0, 10.0) == 3
    # endpoints are excluded
    assert count_in_interval((1.0,), 1.0, 2.0) == 0
    with pytest.raises(ValueError):
        count_in_interval((1.0,), 2.0, 2.0)


def test_estimate_gap_order_one_analytic():
    # A 1x1 symmetric sample is a single standard normal, so the chance
    # that (-1, 1) is empty is 2(1 - Phi(1)).
    est = estimate_gap(EnsembleSpec("goe", 1), 0, (-1.0, 1.0), 40_000, seed=21)
    expect = 2.0 * (1.0 - special.ndtr(1.0))
    assert abs(est.p_hat - expect) < 3.0 * est.stderr
    assert est.n_samples == 40_000 and est.seed == 21


def test_estimate_gap_partition_of_unity():
    # With a common seed the spectra replay exactly, so the estimates over
    # all possible counts add to one without Monte Carlo error.
    spec = EnsembleSpec("ague", 5)
    total = sum(
        estimate_gap(spec, k, (0.0, 1.2), 5_000, seed=22).p_hat for k in range(3)
    )
    assert total == pytest.approx(1.0, abs=1e-15)


def test_block_layout_pinned():
    # 25,001 samples make blocks of 10,000, 10,000 and 5,001, block b drawn
    # from substream b; the hit counts are pinned, so any change to the
    # block layout or to a route's draws shows here.
    n = 25_001

    def counts(*estimates):
        return [round(est.p_hat * n) for est in estimates]

    assert counts(estimate_gap(EnsembleSpec("ague", 5), 1, (0.0, 1.2), n, seed=22)) == [20501]
    report = verify_gap_identity(5, 1, 1.1, n, 7)
    assert counts(report.lhs, report.rhs_ague, report.rhs_lue) == [19372, 19211, 19328]
    duality = verify_wishart_duality(2, 1, 0, 1.0, n, 4)
    assert counts(duality.lhs, duality.rhs) == [11757, 11886]


def test_estimate_gap_deterministic():
    spec = EnsembleSpec("goe-abs", 3)
    a = estimate_gap(spec, 1, (0.0, 1.0), 5_000, seed=23)
    b = estimate_gap(spec, 1, (0.0, 1.0), 5_000, seed=23)
    assert a.p_hat == b.p_hat


def test_empty_gap_monotone_in_radius():
    # Per sample the count in (0, s) grows with s, so on replayed spectra
    # the empty-interval probability is exactly nonincreasing.
    spec = EnsembleSpec("ague", 7)
    probs = [
        estimate_gap(spec, 0, (0.0, s), 5_000, seed=24).p_hat
        for s in (0.3, 0.6, 1.0, 1.5)
    ]
    assert all(x >= y for x, y in zip(probs, probs[1:]))


def test_estimate_gap_validation():
    spec = EnsembleSpec("goe-abs", 3)
    with pytest.raises(ValueError):
        estimate_gap(spec, 0, (1.0, 1.0), 100, seed=0)
    with pytest.raises(ValueError):
        estimate_gap(spec, 0, (0.0, 1.0), 0, seed=0)
    with pytest.raises(ValueError):
        EnsembleSpec("unknown", 3)
    with pytest.raises(ValueError):
        EnsembleSpec("lue", 3)  # missing a
    with pytest.raises(ValueError):
        EnsembleSpec("goe", 3, a=0.5)  # only lue takes a
    with pytest.raises(ValueError):
        GapEstimate(k=0, interval=(0, 1), p_hat=1.5, stderr=0.0, n_samples=1, seed=0)


def test_ensemble_spec_decimation_kinds():
    even = EnsembleSpec("even-dec", 5).batch(RandStream(25), 100)
    odd = EnsembleSpec("odd-dec", 5).batch(RandStream(25), 100)
    assert even.shape == (100, 2) and odd.shape == (100, 3)
    # same stream: they are slices of the same spectra, so they interlace
    assert np.all(odd[:, :2] >= even)


def test_ensemble_spec_draws_the_model_table():
    one = [kind for kind, model in MODELS.items() if len(model.components) == 1]
    assert len(one) == 9
    for kind in one:
        a = 0.5 if kind == "lue" else None
        (rows,) = MODELS[kind].draw(RandStream(26), 5, 40, a)
        batch = EnsembleSpec(kind, 5, a=a).batch(RandStream(26), 40)
        assert batch.shape == rows.shape and batch.tobytes() == rows.tobytes(), kind


def test_ensemble_spec_refuses_pairs_and_retired_kinds():
    for kind in ("b-pair", "r-pair", "goe_eig", "goe_abs", "even_dec"):
        with pytest.raises(ValueError):
            EnsembleSpec(kind, 3)


# ---------------------------------------------------------------------------
# the symmetric-interval identity


def test_identity_drops_negative_target():
    # Even order, k=0: the paired counts are {-1, 0} and the negative one
    # carries no probability, so only 0 remains.
    report = verify_gap_identity(n=2, k=0, s=0.8, n_samples=4_000, seed=26)
    assert report.lhs.k == (0,)
    assert report.max_deviation() < 4.0


def test_identity_order_three_analytic():
    # n=3: one positive skew singular value, Gamma(3/2, 1) after squaring,
    # so the empty-(0,s) probability is Q(3/2, s^2).
    s = 1.0
    report = verify_gap_identity(n=3, k=0, s=s, n_samples=100_000, seed=27)
    expect = float(special.gammaincc(1.5, s * s))
    assert expect == pytest.approx(0.5724067, abs=1e-7)
    for est in (report.lhs, report.rhs_ague, report.rhs_lue):
        assert abs(est.p_hat - expect) < 3.5 * est.stderr
    assert report.max_deviation() < 3.5
    labels = [name for name, _, _ in report.pairwise()]
    assert len(labels) == 3 and len(set(labels)) == 3


def test_identity_validation():
    with pytest.raises(ValueError):
        verify_gap_identity(n=0, k=0, s=1.0, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        verify_gap_identity(n=3, k=0, s=0.0, n_samples=10, seed=0)


# ---------------------------------------------------------------------------
# the deterministic counting step


def test_counting_lemma_holds_units():
    # Interlacing-consistent spectrum: 3 points below s, one at an even
    # location, and 2k+mu covers the total.
    assert _lemma_holds(np.array([[3.0, 2.5, 2.0, 1.0, 0.5]]), 2.2).tolist() == [True]
    # A scrambled non-spectrum can break it.
    assert _lemma_holds(np.array([[0.5, 9.0, 0.4, 8.0]]), 1.0).tolist() == [False]


def test_counting_lemma_every_sample():
    for n in (2, 3, 4, 5):
        for s in (0.5, 1.0, 2.0):
            assert check_counting_lemma(n, s, 20_000, seed=28) == 1.0, (n, s)
            assert verify_gap_identity(n, 0, s, 20_000, seed=28).lemma == 1.0, (n, s)


# ---------------------------------------------------------------------------
# superposition


def test_superposition_small_orders():
    for n in (1, 3):
        reports = verify_superposition(n, 20_000, seed=29)
        assert len(reports) == n
        for j, rep in enumerate(reports):
            assert rep.p_value > 1e-3, (n, j)


def test_superposition_validation():
    with pytest.raises(ValueError):
        verify_superposition(0, 100, seed=0)


# ---------------------------------------------------------------------------
# Wishart duality


def test_wishart_duality_matches():
    for alpha in (1, 2):
        report = verify_wishart_duality(m=2, alpha=alpha, k=0, t=1.0, n_samples=40_000, seed=30)
        assert isinstance(report, DualityReport)
        assert report.lhs.k == alpha  # k + alpha with k = 0
        assert abs(report.difference()) < 3.5 * report.combined_stderr()


def test_wishart_padding_exact_zeros():
    for alpha in (1, 2):
        assert wishart_padding_residual(m=3, alpha=alpha, seed=31) < 1e-10


def test_wishart_validation():
    with pytest.raises(ValueError):
        verify_wishart_duality(m=2, alpha=0, k=0, t=1.0, n_samples=10, seed=0)
    with pytest.raises(ValueError):
        verify_wishart_duality(m=2, alpha=1, k=0, t=-1.0, n_samples=10, seed=0)
