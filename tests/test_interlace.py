"""Coordinate geometry: the rank-one update map, its inverse and Jacobian,
the involution chain, and the coupled block matrix."""

import math
from fractions import Fraction

import numpy as np
import pytest

from goesv.dense import ParityFrame, SortedSpectrum, goe_abs_batch
from goesv.gaps import ks_one_sample
from goesv.interlace import (
    RVector,
    XYCoords,
    coupled_block_matrix,
    extract_rs,
    involution_phi,
    jacobian_det,
    jacobian_det_fd,
    phi_forward,
    phi_inverse,
    phi_inverse_batch,
    rq_b_matrix,
    rq_chain,
    rq_r_matrix,
    secular_residual,
    to_ts,
    to_xy,
)
from goesv.sparse import bidiag_singular_values
from goesv.streams import RandStream, chi_cdf


def random_interlacing(rng, n):
    """Strictly interlacing (t, s) pair from a sorted positive sample."""
    v = np.sort(rng.uniform(0.1, 10.0, size=n))[::-1]
    return v[0::2], v[1::2]


# ---------------------------------------------------------------------------
# coordinates


def test_to_xy_pinned():
    xy = to_xy(SortedSpectrum([3.0, 2.0, 1.0], 3, "x"))
    assert np.array_equal(xy.x, [1.0, 3.0])
    assert np.array_equal(xy.y, [2.0])
    xy = to_xy(SortedSpectrum([4.0, 3.0, 2.0, 1.0], 4, "x"))
    assert np.array_equal(xy.x, [1.0, 3.0])
    assert np.array_equal(xy.y, [2.0, 4.0])


def test_to_ts_pinned():
    pair = to_ts(SortedSpectrum([3.0, 2.0, 1.0], 3, "x"))
    assert np.array_equal(pair.t.values, [3.0, 1.0])
    assert np.array_equal(pair.s.values, [2.0])
    pair = to_ts(SortedSpectrum([4.0, 3.0, 2.0, 1.0], 4, "x"))
    assert np.array_equal(pair.t.values, [4.0, 2.0])
    assert np.array_equal(pair.s.values, [3.0, 1.0])


def test_xy_roundtrip_reassembles():
    spec = SortedSpectrum([5.0, 4.0, 3.0, 2.0, 1.0], 5, "x")
    xy = to_xy(spec)
    merged = np.empty(5)
    merged[0::2] = xy.x
    merged[1::2] = xy.y
    assert np.array_equal(merged[::-1], spec.values)


def test_xy_validation():
    with pytest.raises(ValueError):
        XYCoords(x=[1.0, 2.0], y=[3.0])
    with pytest.raises(ValueError):
        XYCoords(x=[-1.0], y=[])
    with pytest.raises(ValueError):
        to_xy(SortedSpectrum([1.0, -2.0], 2, "x", signed=True))


# ---------------------------------------------------------------------------
# forward map


def test_phi_forward_trivial_case():
    frame = ParityFrame.from_order(1)
    r = RVector(np.array([2.0]), frame)
    t = phi_forward(r, np.array([0.0]))
    assert np.allclose(t.values, [2.0])


def test_phi_forward_pinned_numeric():
    frame = ParityFrame.from_order(4)
    r = RVector(np.array([1.70783, 1.82574]), frame)
    t = phi_forward(r, np.array([2.0, 1.0]))
    assert np.allclose(t.values, [3.0, 1.5], atol=2e-5)


def test_phi_forward_matches_svd_oracle():
    rng = RandStream(1).rng
    for n in (2, 3, 5, 8, 11, 16):
        frame = ParityFrame.from_order(n)
        for _ in range(20):
            rv = rng.uniform(0.2, 3.0, frame.mhat)
            s = np.sort(rng.uniform(0.1, 9.0, frame.m))[::-1]
            shat = np.concatenate([s, [0.0]]) if frame.mu else s
            t = phi_forward(RVector(rv, frame), s)
            block = np.concatenate([rv[:, None], np.diag(shat)], axis=1)
            oracle = np.linalg.svd(block, compute_uv=False)
            assert np.allclose(t.values, oracle, rtol=1e-10)


def test_phi_forward_conservation():
    rng = RandStream(2).rng
    frame = ParityFrame.from_order(7)
    rv = rng.uniform(0.2, 3.0, frame.mhat)
    s = np.sort(rng.uniform(0.1, 9.0, frame.m))[::-1]
    t = phi_forward(RVector(rv, frame), s)
    lhs = np.sum(t.values**2)
    rhs = np.sum(rv**2) + np.sum(s**2)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_phi_forward_rejects_bad_input():
    frame = ParityFrame.from_order(4)
    with pytest.raises(ValueError):
        RVector(np.array([1.0, -1.0]), frame)
    with pytest.raises(ValueError):
        phi_forward(RVector(np.array([1.0, 1.0]), frame), np.array([2.0, 2.0]))


# ---------------------------------------------------------------------------
# inverse map


def test_phi_inverse_trivial_case():
    r = phi_inverse(np.array([2.0]), np.array([0.0]))
    assert np.allclose(r.r, [2.0])
    assert r.frame.mu == 1


def test_phi_inverse_pinned_rational():
    # t = (3, 3/2), s = (2, 1): the product-form solution gives
    # r^2 = (35/12, 10/3) exactly.
    r = phi_inverse(np.array([3.0, 1.5]), np.array([2.0, 1.0]))
    assert abs(r.r[0] ** 2 - 35.0 / 12.0) < 1e-12
    assert abs(r.r[1] ** 2 - 10.0 / 3.0) < 1e-12
    assert np.allclose(r.r, [1.70783, 1.82574], atol=2e-5)


def test_phi_inverse_rejects_degenerate():
    with pytest.raises(ValueError):
        phi_inverse(np.array([3.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        phi_inverse(np.array([3.0, 1.0]), np.array([2.0, 2.0]))


def test_inverse_then_forward_roundtrip():
    rng = RandStream(3).rng
    for n in range(2, 17):
        for _ in range(20):
            t, s = random_interlacing(rng, n)
            r = phi_inverse(t, s)
            back = phi_forward(r, s)
            assert np.allclose(back.values, t, rtol=1e-10)
            assert np.max(secular_residual(t, s, r)) <= 1e-10


def test_forward_then_inverse_recovers_r():
    rng = RandStream(4).rng
    for n in (4, 5, 9, 12):
        frame = ParityFrame.from_order(n)
        rv = rng.uniform(0.2, 3.0, frame.mhat)
        s = np.sort(rng.uniform(0.1, 9.0, frame.m))[::-1]
        t = phi_forward(RVector(rv, frame), s)
        r = phi_inverse(t.values, s)
        assert np.allclose(r.r, rv, rtol=1e-9)


def test_phi_inverse_batch_matches_scalar():
    rng = RandStream(5).rng
    rows_t, rows_s = [], []
    for _ in range(40):
        t, s = random_interlacing(rng, 7)
        rows_t.append(t)
        rows_s.append(s)
    batch = phi_inverse_batch(np.array(rows_t), np.array(rows_s), mu=1)
    for i in range(40):
        assert np.allclose(batch[i], phi_inverse(rows_t[i], rows_s[i]).r, rtol=1e-12)


def _exact_squares(*arrays):
    """Integers X and a shift e with X = v^2 2^e exactly, for each float v
    of each array (one shift for all)."""
    squares = [[Fraction(float(v)) ** 2 for v in a] for a in arrays]
    e = max(q.denominator.bit_length() - 1 for row in squares for q in row)
    return [[q.numerator << (e - q.denominator.bit_length() + 1) for q in row] for row in squares], e


def _exact_r2(t, s):
    """r^2 of the product form in exact rational arithmetic on the floats."""
    (t2, s2), e = _exact_squares(t, list(s) + [0.0] * (len(t) - len(s)))
    out = []
    for j, sj in enumerate(s2):
        num = math.prod(sj - tk for tk in t2)
        den = math.prod(sj - sk for k, sk in enumerate(s2) if k != j)
        out.append(Fraction(-num, den << e))
    return out


@pytest.mark.parametrize("n", [101, 400])
def test_phi_inverse_large_order_matches_exact(n):
    # Raw products of ~n/2 differences overflow here; the log-space form
    # must keep every component to near rounding.
    row = goe_abs_batch(RandStream(1), n, 1)[0]
    t, s = row[0::2], row[1::2]
    r = phi_inverse(t, s).r
    assert np.all(np.isfinite(r))
    exact = np.array([float(q) for q in _exact_r2(t, s)])
    assert np.allclose(r**2, exact, rtol=1e-11, atol=0.0)
    assert abs(np.sum(r**2) + np.sum(s**2) - np.sum(t**2)) <= 1e-12 * np.sum(t**2)


def test_jacobian_large_order_matches_exact():
    row = goe_abs_batch(RandStream(1), 101, 1)[0]
    t, s = row[0::2], row[1::2]
    r = phi_inverse(t, s)
    jac = jacobian_det(t, s, r)
    assert math.isfinite(jac) and jac > 0.0
    # mu = 1: 1/(r_1...r_m) * Delta(t^2) / ((s_1...s_m) Delta(s^2)), exactly.
    (t2, s2), e = _exact_squares(t, s)
    dt = math.prod(t2[j] - t2[k] for j in range(len(t2)) for k in range(j + 1, len(t2)))
    ds = math.prod(s2[j] - s2[k] for j in range(len(s2)) for k in range(j + 1, len(s2)))
    shift = e * (math.comb(len(t2), 2) - math.comb(len(s2), 2))
    exact = Fraction(dt, ds) / 2**shift
    exact /= math.prod(Fraction(float(v)) for v in s) * math.prod(Fraction(float(v)) for v in r.r[: s.size])
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    assert math.log(jac) == pytest.approx(log_exact, rel=1e-11)
    # Both logs are ~1e5, so their difference is only good to ~1e-11; the
    # correctly rounded value checks the determinant itself.
    assert jac == pytest.approx(float(exact), rel=1e-11)


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_singleton_is_one():
    r = phi_inverse(np.array([2.5]), np.array([0.0]))
    assert jacobian_det(np.array([2.5]), np.array([0.0]), r) == pytest.approx(1.0)


def test_jacobian_matches_finite_differences():
    # Configurations drawn from the dense sampler itself, so gap sizes are
    # the ones the map actually sees; mhat stays at most 6.
    stream = RandStream(6)
    rng = stream.rng
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        row = goe_abs_batch(stream, n, 1)[0]
        t, s = row[0::2], row[1::2]
        r = phi_inverse(t, s)
        exact = jacobian_det(t, s, r)
        approx = jacobian_det_fd(t, s)
        assert exact > 0.0
        worst = max(worst, abs(approx - exact) / abs(exact))
    assert worst <= 1e-6


def test_jacobian_rejects_degenerate():
    r = phi_inverse(np.array([3.0, 1.5]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        jacobian_det(np.array([3.0, 2.0]), np.array([2.0, 1.0]), r)


# ---------------------------------------------------------------------------
# involution and the bidiagonal chain


def test_involution_pinned():
    assert involution_phi(1.0, 1.0, 2.0) == (1.0, 1.0, 2.0)
    assert involution_phi(1.0, 3.0, 8.0) == (2.0, 6.0, 4.0)
    with pytest.raises(ValueError):
        involution_phi(0.0, 0.0, 1.0)


def test_involution_is_involutive():
    rng = RandStream(7).rng
    for _ in range(100):
        x, y, z = rng.uniform(0.1, 5.0, 3)
        a, b, c = involution_phi(*involution_phi(x, y, z))
        assert np.allclose([a, b, c], [x, y, z], rtol=1e-12)


def test_rq_chain_smallest_case():
    out = rq_chain(np.array([3.0, 4.0]))
    assert np.allclose(out.values, [3.0, 5.0])
    assert np.array_equal(out.degrees, [1.0, 3.0])


def test_rq_chain_preserves_singular_values():
    rng = RandStream(8).rng
    for m in (2, 3, 4, 6):
        tau = rng.uniform(0.2, 3.0, 2 * m)
        xi = rq_chain(tau)
        sv_b = bidiag_singular_values(rq_b_matrix(tau)).values
        sv_r = bidiag_singular_values(rq_r_matrix(xi)).values
        assert np.allclose(sv_b, sv_r, rtol=1e-10)


def test_rq_chain_product_relations():
    # The chain preserves pairwise products: xi_{2k} xi_{2k+1} = tau_{2k} tau_{2k+1}
    # for 1 <= k < m, and the square sum of the output-matrix entries
    # (everything except xi_1) equals the input square sum.
    rng = RandStream(9).rng
    m = 5
    tau = rng.uniform(0.2, 3.0, 2 * m)
    xi = rq_chain(tau).values
    for k in range(1, m):
        lhs = xi[2 * k - 1] * xi[2 * k]
        rhs = tau[2 * k - 1] * tau[2 * k]
        assert abs(lhs - rhs) <= 1e-12 * rhs
    total = np.sum(xi**2) - xi[0] ** 2
    assert abs(total - np.sum(tau**2)) <= 1e-10 * np.sum(tau**2)


def test_rq_chain_validation():
    with pytest.raises(ValueError):
        rq_chain(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        rq_chain(np.array([1.0, -2.0]))


def test_rq_chain_chi_laws_and_decorrelation():
    # chi-profile input tau_k ~ chi_k (k < 2m), tau_2m ~ chi_2m: every
    # output is marginally chi with the stated degree, and the entries of
    # the output matrix (everything except xi_1) decorrelate.  xi_1 and
    # the composite last output share the running remainder, so that one
    # pair is dependent by construction: xi_{2m+1} > xi_1 on every sample.
    m = 3
    stream = RandStream(10)
    reps = 20_000
    outs = np.empty((reps, 2 * m))
    for i in range(reps):
        tau = np.sqrt(stream.rng.chisquare(np.arange(1.0, 2 * m + 1)))
        outs[i] = rq_chain(tau).values
    degrees = list(range(1, 2 * m)) + [2 * m + 1]
    for j, k in enumerate(degrees):
        report = ks_one_sample(outs[:, j], lambda v, k=k: chi_cdf(v, k))
        assert report.p_value > 1e-3, (j, k)
    assert np.all(outs[:, -1] > outs[:, 0])
    # the remainder xi_{2m+1}^2 - xi_1^2 reproduces the chi_2m input draw
    rem = np.sqrt(outs[:, -1] ** 2 - outs[:, 0] ** 2)
    assert ks_one_sample(rem, lambda v: chi_cdf(v, 2 * m)).p_value > 1e-3
    # output-matrix entries are mutually decorrelated
    corr = np.corrcoef(outs[:, 1:], rowvar=False)
    np.fill_diagonal(corr, 0.0)
    assert np.max(np.abs(corr)) < 4.0 / np.sqrt(reps)
    # xi_1 and the remainder decorrelate from each other and the middles
    aux = np.corrcoef(
        np.column_stack([outs[:, 0], rem, outs[:, 1:-1]]), rowvar=False
    )
    np.fill_diagonal(aux, 0.0)
    assert np.max(np.abs(aux)) < 4.0 / np.sqrt(reps)


# ---------------------------------------------------------------------------
# coupled block matrix


def test_coupled_block_matrix_union_identity():
    rng = RandStream(11).rng
    for mu in (0, 1):
        m = 3
        u = rng.uniform(0.2, 2.0, m)
        v = rng.uniform(0.2, 2.0, m)
        s = np.sort(rng.uniform(0.5, 8.0, m))[::-1]
        eta = rng.uniform(0.2, 2.0) if mu else None
        block = coupled_block_matrix(u, v, s, eta=eta)
        assert block.shape == (2 * m + mu, 2 * m + mu + 1)
        got = np.linalg.svd(block, compute_uv=False)
        r = np.sqrt(u**2 + v**2)
        if mu:
            r = np.concatenate([r, [abs(eta)]])
        shat = np.concatenate([s, [0.0]]) if mu else s
        inner = np.concatenate([r[:, None], np.diag(shat)], axis=1)
        expect = np.sort(np.concatenate([
            s, np.linalg.svd(inner, compute_uv=False)
        ]))[::-1]
        assert np.allclose(got, expect, rtol=1e-10)


def test_coupled_block_matrix_validation():
    with pytest.raises(ValueError):
        coupled_block_matrix([1.0], [1.0, 2.0], [3.0])


# ---------------------------------------------------------------------------
# spectral extraction


def test_extract_rs_chi_laws():
    # From dense |GOE_5| samples: r_1, r_2 ~ chi_2, r_3 ~ chi_1.
    mats = goe_abs_batch(RandStream(12), 5, 20_000)
    rs = phi_inverse_batch(mats[:, 0::2], mats[:, 1::2], mu=1)
    for j, k in ((0, 2), (1, 2), (2, 1)):
        report = ks_one_sample(rs[:, j], lambda v, k=k: chi_cdf(v, k))
        assert report.p_value > 1e-3, (j, k)


def test_extract_rs_decorrelated_from_evens():
    mats = goe_abs_batch(RandStream(13), 5, 20_000)
    rs = phi_inverse_batch(mats[:, 0::2], mats[:, 1::2], mu=1)
    evens = mats[:, 1::2]
    for j in range(rs.shape[1]):
        for i in range(evens.shape[1]):
            c = np.corrcoef(rs[:, j], evens[:, i])[0, 1]
            assert abs(c) < 4.0 / np.sqrt(rs.shape[0])


def test_extract_rs_product_identity_odd_orders():
    # mu=1: prod(t) = r_mhat * prod(s) per sample.
    mats = goe_abs_batch(RandStream(14), 5, 500)
    for row in mats:
        spec = SortedSpectrum(row, 5, "goe-abs")
        r, s = extract_rs(spec)
        lhs = np.prod(row[0::2])
        rhs = r.r[-1] * np.prod(s.values)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_extract_rs_returns_even_part():
    spec = SortedSpectrum([4.0, 3.0, 2.0, 1.0], 4, "goe-abs")
    r, s = extract_rs(spec)
    assert np.array_equal(s.values, [3.0, 1.0])
    assert r.r.size == 2
    assert np.all(r.r > 0)
