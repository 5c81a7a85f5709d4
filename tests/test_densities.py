"""Exact density evaluators: closed-form pins, quadrature masses, and the
sign-sum factorization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from goesv import densities
from goesv.dense import ParityFrame, SortedSpectrum, goe_abs_batch
from goesv.densities import (
    DensityContext,
    EKappaVector,
    conditional_t_given_s,
    even_marginal,
    factored_D,
    g_factor,
    gauss_legendre,
    integrate_out_check,
    joint_density_ts,
    joint_density_xy,
    log_even_marginal,
    log_joint_density_ts,
    log_odd_marginal,
    normalization_c,
    odd_marginal,
    signed_sum_D,
)
from goesv.interlace import XYCoords
from goesv.streams import RandStream

CTX = {n: DensityContext.for_order(n) for n in range(1, 9)}


# ---------------------------------------------------------------------------
# normalization constants


def test_normalization_closed_forms():
    # Hand-reduced smallest cases: 1/sqrt(2 pi), 1/(4 sqrt(pi)), sqrt(2)/(12 pi).
    assert normalization_c(1) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-10)
    assert normalization_c(2) == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-10)
    assert normalization_c(3) == pytest.approx(math.sqrt(2.0) / (12.0 * math.pi), rel=1e-10)


def test_normalization_bounds():
    with pytest.raises(ValueError):
        normalization_c(0)
    with pytest.raises(ValueError):
        normalization_c(9)


def test_context_constants_consistent():
    for n, ctx in CTX.items():
        frame = ParityFrame.from_order(n)
        assert ctx.frame == frame
        assert ctx.delta_mu == pytest.approx((math.pi / 2.0) ** (frame.mu / 2.0))
        expect = ctx.c_n * ctx.delta_mu * 2.0**n * math.factorial(n) / math.factorial(frame.m)
        assert ctx.a_n == pytest.approx(expect, rel=1e-12)


def test_a_n_normalizes_collapsed_skew_density():
    # a_n prod s^{2 mu} e^{-s^2} Delta(s^2)^2 integrates to 1 over the
    # unordered positive orthant; checked for m = 1 and m = 2.
    for n in (2, 3):
        ctx = CTX[n]
        mu = ctx.frame.mu
        total, _ = integrate.quad(lambda s: ctx.a_n * s ** (2 * mu) * np.exp(-s * s), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
    for n in (4, 5):
        ctx = CTX[n]
        mu = ctx.frame.mu

        def dens(s1, s2, mu=mu, a=ctx.a_n):
            return (
                a * (s1 * s2) ** (2 * mu)
                * np.exp(-s1 * s1 - s2 * s2) * (s1 * s1 - s2 * s2) ** 2
            )

        total, _ = integrate.dblquad(dens, 0, np.inf, 0, np.inf, epsabs=1e-10)
        assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# joint densities


def test_joint_ts_order_two_ratio():
    # q(t, s) for n = 2 is proportional to t e^{-(t^2+s^2)/2}, so the
    # ratio at t = 2 vs t = 3 (s = 1 fixed) is (2/3) e^{5/2}.
    ctx = CTX[2]
    num = joint_density_ts([2.0], [1.0], ctx)
    den = joint_density_ts([3.0], [1.0], ctx)
    assert num / den == pytest.approx((2.0 / 3.0) * math.exp(2.5), rel=1e-12)


def test_joint_ts_order_two_closed_form():
    ctx = CTX[2]
    for t, s in ((2.0, 1.0), (3.5, 0.2), (1.1, 1.0)):
        expect = 8.0 * ctx.c_n * t * math.exp(-(t * t + s * s) / 2.0)
        assert joint_density_ts([t], [s], ctx) == pytest.approx(expect, rel=1e-12)


def test_joint_ts_support():
    ctx = CTX[2]
    assert joint_density_ts([1.0], [2.0], ctx) == 0.0
    ctx3 = CTX[3]
    assert joint_density_ts([3.0, 1.0], [2.0], ctx3) > 0.0
    assert joint_density_ts([3.0, 2.5], [2.0], ctx3) == 0.0
    assert joint_density_ts([3.0, -0.5], [2.0], ctx3) == 0.0


def test_joint_ts_mass_order_two():
    ctx = CTX[2]
    total, _ = integrate.dblquad(
        lambda t, s: joint_density_ts([t], [s], ctx),
        0, np.inf, lambda s: s, lambda s: np.inf, epsabs=1e-9,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_joint_ts_mass_order_three():
    ctx = CTX[3]
    total, _ = integrate.nquad(
        lambda t2, t1, s1: joint_density_ts([t1, t2], [s1], ctx),
        [lambda t1, s1: [0.0, s1], lambda s1: [s1, np.inf], [0.0, np.inf]],
        opts={"epsabs": 1e-9, "epsrel": 1e-9},
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_joint_xy_matches_ts_on_samples():
    # The two coordinate systems label the same ordered density.
    stream = RandStream(0)
    for n in (2, 3, 4, 5):
        ctx = CTX[n]
        rows = goe_abs_batch(stream, n, 25)
        for row in rows:
            asc = row[::-1]
            xy = XYCoords(x=asc[0::2].copy(), y=asc[1::2].copy())
            via_xy = joint_density_xy(xy, ctx)
            via_ts = joint_density_ts(row[0::2], row[1::2], ctx)
            assert via_xy == pytest.approx(via_ts, rel=1e-12)


def test_joint_xy_order_one_half_normal():
    ctx = CTX[1]
    val = joint_density_xy(XYCoords(x=[0.0], y=[]), ctx)
    assert val == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-10)
    # and the whole n=1 density is the half-normal
    for x in (0.5, 1.0, 2.5):
        expect = math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0)
        assert joint_density_xy(XYCoords(x=[x], y=[]), ctx) == pytest.approx(expect, rel=1e-10)


def test_joint_xy_support():
    ctx = CTX[2]
    assert joint_density_xy(([2.0], [1.0]), ctx) == 0.0


# ---------------------------------------------------------------------------
# marginals and conditionals


def test_even_marginal_order_two_closed_form():
    ctx = CTX[2]
    for s in (0.0, 0.3, 1.0, 2.2):
        expect = (2.0 / math.sqrt(math.pi)) * math.exp(-s * s)
        assert even_marginal([s], ctx) == pytest.approx(expect, rel=1e-10)
    assert even_marginal([0.0], ctx) == pytest.approx(1.12838, rel=1e-4)


def test_even_marginal_mass_order_three():
    ctx = CTX[3]
    total, _ = integrate.quad(lambda s: even_marginal([s], ctx), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_even_marginal_from_joint_quadrature():
    # Integrating t out of the joint over the interlacing box reproduces
    # the even marginal pointwise.
    ctx = CTX[3]
    for s1 in (0.4, 1.0, 1.7):
        val, _ = integrate.dblquad(
            lambda t2, t1: joint_density_ts([t1, t2], [s1], ctx),
            s1, np.inf, 0.0, lambda t1: min(s1, t1),
        )
        assert val == pytest.approx(even_marginal([s1], ctx), rel=1e-6)


def test_odd_marginal_order_one_half_normal():
    ctx = CTX[1]
    for t in (0.2, 1.0, 2.0):
        expect = math.sqrt(2.0 / math.pi) * math.exp(-t * t / 2.0)
        assert odd_marginal([t], ctx) == pytest.approx(expect, rel=1e-10)


def test_odd_marginal_order_two_closed_form():
    # n = 2: the two determinant factors reduce to t e^{-t^2/2} and
    # sqrt(pi/2) erf(t/sqrt 2), with prefactor c_2 * 2! * 2^2.
    ctx = CTX[2]
    for t in (0.3, 1.0, 2.4):
        expect = (
            8.0 * ctx.c_n * math.sqrt(math.pi / 2.0)
            * t * math.exp(-t * t / 2.0) * special.erf(t / math.sqrt(2.0))
        )
        assert odd_marginal([t], ctx) == pytest.approx(expect, rel=1e-10)


def test_odd_marginal_masses():
    total, _ = integrate.quad(lambda t: odd_marginal([t], CTX[2]), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)
    ctx = CTX[3]
    total, _ = integrate.dblquad(
        lambda t2, t1: odd_marginal([t1, t2], ctx), 0, np.inf, 0.0, lambda t1: t1,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_odd_marginal_from_joint_quadrature():
    ctx = CTX[3]
    for t1, t2 in ((2.0, 0.7), (1.5, 1.0), (3.0, 0.2)):
        val, _ = integrate.quad(
            lambda s: joint_density_ts([t1, t2], [s], ctx), t2, t1,
        )
        assert val == pytest.approx(odd_marginal([t1, t2], ctx), rel=1e-6)


def test_conditional_is_joint_over_even_marginal():
    stream = RandStream(1)
    for n in (2, 3, 4, 5):
        ctx = CTX[n]
        rows = goe_abs_batch(stream, n, 25)
        for row in rows:
            t, s = row[0::2], row[1::2]
            expect = joint_density_ts(t, s, ctx) / even_marginal(s, ctx)
            assert conditional_t_given_s(t, s, ctx) == pytest.approx(expect, rel=1e-10)


def test_conditional_order_two_shape():
    # n = 2, s fixed: the conditional is t e^{-t^2/2} / (delta_0-normalized
    # tail), so the t-dependence is exactly t e^{-t^2/2} on t > s.
    ctx = CTX[2]
    num = conditional_t_given_s([2.0], [1.0], ctx)
    den = conditional_t_given_s([3.0], [1.0], ctx)
    assert num / den == pytest.approx((2.0 / 3.0) * math.exp(2.5), rel=1e-12)
    assert conditional_t_given_s([0.5], [1.0], ctx) == 0.0


def test_conditional_mass_order_three():
    ctx = CTX[3]
    s1 = 1.0
    total, _ = integrate.dblquad(
        lambda t2, t1: conditional_t_given_s([t1, t2], [s1], ctx),
        s1, np.inf, 0.0, lambda t1: min(s1, t1),
    )
    assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# sign-vector sum


def test_signed_sum_matches_factored_form():
    rng = RandStream(2).rng
    for n in range(1, 7):
        for _ in range(10):
            sigma = np.sort(rng.uniform(0.1, 3.0, n))
            direct = signed_sum_D(sigma)
            closed = factored_D(sigma)
            assert direct == pytest.approx(closed, rel=1e-10)


def test_signed_sum_count_is_power_of_two():
    rng = RandStream(3).rng
    for n in range(2, 7):
        sigma = np.sort(rng.uniform(0.1, 3.0, n))
        x, y = sigma[0::2], sigma[1::2]
        base = (
            np.prod([x[k] ** 2 - x[j] ** 2 for j in range(x.size) for k in range(j + 1, x.size)])
            * np.prod(y)
            * np.prod([y[k] ** 2 - y[j] ** 2 for j in range(y.size) for k in range(j + 1, y.size)])
        )
        assert signed_sum_D(sigma) / base == pytest.approx(2.0**n, rel=1e-10)


def test_signed_sum_guard():
    with pytest.raises(ValueError):
        signed_sum_D(np.linspace(0.1, 1.0, 17))


# ---------------------------------------------------------------------------
# moment-row vectors


def test_e_kappa_vector_values():
    v = EKappaVector(1, 3, 2.0).values
    w = math.exp(-2.0)
    assert np.allclose(v, [2.0 * w, 8.0 * w, 32.0 * w])
    v = EKappaVector(0, 2, 1.5).values
    w = math.exp(-1.125)
    assert np.allclose(v, [w, 2.25 * w])


def test_e_kappa_erf_replacement():
    v = EKappaVector(-1, 3, 1.3).values
    expect = -math.sqrt(math.pi / 2.0) * special.erf(1.3 / math.sqrt(2.0))
    assert v[0] == pytest.approx(expect, rel=1e-12)
    w = math.exp(-0.5 * 1.3**2)
    assert v[1] == pytest.approx(1.3 * w, rel=1e-12)
    with pytest.raises(ValueError):
        EKappaVector(2, 3, 1.0)


# ---------------------------------------------------------------------------
# integrate-out identities


def test_integrate_out_analytic_case():
    # mu=0, m=1, s=(1): both sides equal e^{-1/2} analytically.
    ctx = CTX[2]
    res, _ = integrate_out_check("odd_to_even", [1.0], ctx)
    assert res <= 1e-10


def test_integrate_out_odd_order_case():
    res, _ = integrate_out_check("odd_to_even", [1.0], CTX[3])
    assert res <= 1e-8


def test_integrate_out_even_to_odd_cases():
    assert integrate_out_check("even_to_odd", [2.0], CTX[1])[0] <= 1e-8
    assert integrate_out_check("even_to_odd", [2.0, 0.8], CTX[3])[0] <= 1e-8


def test_integrate_out_random_configurations():
    stream = RandStream(4)
    count = 0
    for n in (2, 3, 4, 5):
        ctx = CTX[n]
        rows = goe_abs_batch(stream, n, 2)
        for row in rows:
            assert integrate_out_check("odd_to_even", row[1::2], ctx)[0] <= 1e-8
            assert integrate_out_check("even_to_odd", row[0::2], ctx)[0] <= 1e-8
            count += 2
    assert count == 16


def test_integrate_out_unknown_mode():
    with pytest.raises(ValueError):
        integrate_out_check("sideways", [1.0], CTX[2])


# ---------------------------------------------------------------------------
# log forms


def test_log_forms_match_linear_forms():
    stream = RandStream(5)
    for n in (2, 3, 5):
        ctx = CTX[n]
        row = goe_abs_batch(stream, n, 1)[0]
        t, s = row[0::2], row[1::2]
        assert log_joint_density_ts(t, s, ctx) == pytest.approx(
            math.log(joint_density_ts(t, s, ctx)), rel=1e-12
        )
        assert log_even_marginal(s, ctx) == pytest.approx(
            math.log(even_marginal(s, ctx)), rel=1e-12
        )
        val = odd_marginal(t, ctx)
        if val > 0:
            assert log_odd_marginal(t, ctx) == pytest.approx(math.log(val), rel=1e-12)


def test_log_even_marginal_survives_underflow_scale():
    # A spread-out configuration at n = 6 where the linear density is tiny
    # but the log form stays finite.
    ctx = CTX[6]
    s = [9.0, 6.0, 3.0]
    assert np.isfinite(log_even_marginal(s, ctx))
    assert even_marginal(s, ctx) >= 0.0


def test_g_factor_support():
    assert g_factor(1, np.array([2.0, 1.0])) > 0.0
    assert g_factor(1, np.array([2.0, 0.0])) == 0.0
    assert g_factor(0, np.array([], dtype=float)) == 1.0


# ---------------------------------------------------------------------------
# array evaluators and the fixed Gauss-Legendre rule


def _points(rng, n, count):
    """Descending |GOE|-like rows plus rows off the support: unsorted,
    negative, tied and zero entries."""
    rows = np.sort(np.abs(rng.standard_normal((count, n))) * 2.0, axis=1)[:, ::-1].copy()
    rows[1::5] = rng.standard_normal((rows[1::5].shape[0], n))
    rows[2::5, -1] = 0.0
    rows[3::5, 0] = rows[3::5, min(1, n - 1)]
    rows[4::5] = -rows[4::5]
    return rows[:, 0::2].copy(), rows[:, 1::2].copy()


@pytest.mark.parametrize("n", range(1, 9))
def test_array_evaluators_match_scalar_forms(n):
    ctx = CTX[n]
    t, s = _points(np.random.default_rng(n), n, 40)
    forms = {
        "g_factor(1, t)": lambda t, s: g_factor(1, t),
        "g_factor(0, s)": lambda t, s: g_factor(0, s),
        "log_joint_density_ts": lambda t, s: log_joint_density_ts(t, s, ctx),
        "joint_density_ts": lambda t, s: joint_density_ts(t, s, ctx),
        "conditional_t_given_s": lambda t, s: conditional_t_given_s(t, s, ctx),
        "log_even_marginal": lambda t, s: log_even_marginal(s, ctx),
        "even_marginal": lambda t, s: even_marginal(s, ctx),
        "odd_marginal": lambda t, s: odd_marginal(t, ctx),
        "log_odd_marginal": lambda t, s: log_odd_marginal(t, ctx),
    }
    for name, form in forms.items():
        batch = form(t, s)
        scalars = [form(ti, si) for ti, si in zip(t, s)]
        assert all(type(v) is float for v in scalars), name
        assert batch.shape == (t.shape[0],), name
        np.testing.assert_allclose(batch, scalars, rtol=1e-13, atol=0, err_msg=name)
        # leading axes broadcast: a (2, 20) grid of points gives a (2, 20) array
        grid = form(t.reshape(2, 20, -1), s.reshape(2, 20, -1))
        np.testing.assert_array_equal(grid, batch.reshape(2, 20), err_msg=name)
    off = np.array([not np.isfinite(log_joint_density_ts(ti, si, ctx)) for ti, si in zip(t, s)])
    assert off.any() and not off.all()
    assert np.all(joint_density_ts(t, s, ctx)[off] == 0.0)


def test_gauss_legendre_known_integrals():
    # Triangle t1 >= t2 >= 0 under e^{-(t1^2+t2^2)/2}: a quarter of pi/2.
    val, est = gauss_legendre(
        lambda p: np.exp(-0.5 * np.sum(p**2, axis=1)), [(0.0, np.inf), (0.0, lambda t1: t1)]
    )
    assert val == pytest.approx(math.pi / 4.0, abs=1e-13)
    assert est <= 1e-11
    # A box integral of a polynomial is exact on both rules.
    val, est = gauss_legendre(lambda p: p[:, 0] ** 3 * p[:, 1], [(0.0, 2.0), (1.0, 3.0)])
    assert val == pytest.approx(16.0, rel=1e-14)
    assert est <= 1e-13


def _nquad_rule(f, limits):
    """The same nested integral by scipy's adaptive nquad, which lists the
    variables innermost first and passes each bound the outer ones."""

    def bounds(lo, hi):
        def ends(*outer):
            outer = outer[::-1]
            return [lo(*outer) if callable(lo) else lo, hi(*outer) if callable(hi) else hi]

        return ends

    value, _ = integrate.nquad(
        lambda *x: float(f(np.array([x[::-1]]))[0]),
        [bounds(lo, hi) for lo, hi in limits[::-1]],
        opts={"epsabs": 1e-12, "epsrel": 1e-12},
    )
    return value, 0.0


def test_fixed_rule_matches_nquad_oracle(monkeypatch):
    # The integrals inside integrate_out_check, on the fixed rule and on
    # adaptive quadrature over untruncated half-lines.
    seen = {"fixed": [], "nquad": []}

    def spy(rule, label):
        def run(f, limits):
            value, est = rule(f, limits)
            seen[label].append(value)
            return value, est

        return run

    stream = RandStream(11)
    configs = [(n, row) for n in (2, 3) for row in goe_abs_batch(stream, n, 3)]
    for label, rule in (("fixed", gauss_legendre), ("nquad", _nquad_rule)):
        monkeypatch.setattr(densities, "gauss_legendre", spy(rule, label))
        for n, row in configs:
            assert integrate_out_check("odd_to_even", row[1::2], CTX[n])[0] <= 1e-8
            assert integrate_out_check("even_to_odd", row[0::2], CTX[n])[0] <= 1e-8
    assert len(seen["fixed"]) == len(seen["nquad"]) == 12
    np.testing.assert_allclose(seen["fixed"], seen["nquad"], rtol=1e-10, atol=1e-13)


def test_integrate_out_orders_two_to_eight():
    stream = RandStream(12)
    for n in range(2, 9):
        row = goe_abs_batch(stream, n, 1)[0]
        for mode, values in (("odd_to_even", row[1::2]), ("even_to_odd", row[0::2])):
            res, est = integrate_out_check(mode, values, CTX[n])
            assert res <= 1e-8, (n, mode, res)
            assert est <= 1e-12, (n, mode, est)


def test_integrate_out_memory_is_bounded():
    # The order-8 box has 64^4 rule points; slabs keep the working set small.
    t = goe_abs_batch(RandStream(13), 8, 1)[0][0::2]
    tracemalloc.start()
    try:
        integrate_out_check("even_to_odd", t, CTX[8])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@st.composite
def _interlacing_configs(draw):
    n = draw(st.integers(2, 5))
    gaps = draw(
        st.lists(st.floats(0.01, 1.5, allow_nan=False), min_size=n, max_size=n)
    )
    values = np.cumsum(gaps)[::-1]
    return n, values[0::2].copy(), values[1::2].copy()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_interlacing_configs())
def test_integrate_out_property(config):
    n, t, s = config
    for mode, values in (("odd_to_even", s), ("even_to_odd", t)):
        res, est = integrate_out_check(mode, values, CTX[n])
        assert res <= 1e-8
        assert est <= 1e-10
