"""Batch experiment runner.

Every sampler and every verification harness in the package is exposed as
a subcommand that writes machine-readable records:

    sample            raw spectra from any model of gaps.MODELS
    verify-models     per-location KS checks: dense vs sparse samplers,
                      decimation vs collapsed skew, superposition
    verify-interlace  round-trip / conservation / Jacobian residuals
    verify-densities  quadrature and identity residuals for the densities
    det               determinant factorization and Mellin checks
    clt               normalized log-determinant versus the normal law
    gaps              the symmetric-interval counting identity
    duality           integer-parameter Laguerre duality
    all               every verification at reduced sample budgets

Records go to stdout or --output as CSV (header row, UTF-8, 17
significant digits) or JSON with identical fields.  Relative output
paths resolve against $GOESV_OUTPUT_DIR when it is set.  Exit status: 0
when every toleranced record passes, 1 when any fails (or a numeric
error is recorded, or the reader closes stdout early), 2 for usage
errors.

Sampling is deterministic: output depends only on (seed, samples).
`sample`, `gaps` and `duality` cut the sample budget into fixed
10,000-sample blocks, block b drawn from substream b of the root stream;
streams._blocks is the one place that rule lives.
`verify-models`, `det` and `clt` draw each route's whole budget from its
own keyed stream RandStream(seed, id).  `gaps`, `clt` and `verify-models`
(per order) run their routes through streams._concurrently, which
overlaps them on threads when the cores allow, the routes of one call
sharing one float budget; records do not depend on it.

`sample` streams: it draws and writes each block in slices of about
10,000 cells, so its memory grows with neither --samples nor n unless
--emit-histogram is given (the bin edges need every value).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
from scipy import special

from . import __version__, densities, determinant, gaps, interlace
from .dense import ague_batch, goe_abs_batch
from .sparse import b_pair_sv_batch, h_sv_batch, r_pair_sv_batch, t_sv_batch
from .streams import RandStream, _blocks, _chunks, _concurrently

RECORD_COLUMNS = (
    "experiment",
    "metric",
    "n",
    "m",
    "k",
    "s",
    "a",
    "beta",
    "alpha",
    "t",
    "samples",
    "seed",
    "value",
    "stderr",
    "tolerance",
    "passed",
    "wall_time_s",
    "version",
    "note",
)

SAMPLE_COLUMNS = ("model", "n", "sample", "component", "location", "value")


class Recorder:
    """Collects the fixed-schema rows of one subcommand run; every row
    carries the subcommand, samples and seed of the parsed args."""

    def __init__(self, args):
        self.args = args
        self.rows = []
        self._t0 = time.perf_counter()

    def add(self, metric, value=None, stderr=None, tolerance=None, note="", passed="", **params):
        if tolerance is not None and value is not None:
            passed = "pass" if value <= tolerance else "fail"
        row = dict.fromkeys(RECORD_COLUMNS, "")
        row.update(
            experiment=self.args.subcommand,
            metric=metric,
            value=value,
            stderr=stderr,
            tolerance=tolerance,
            passed=passed,
            note=note,
            samples=getattr(self.args, "samples", 0),
            seed=self.args.seed,
            **params,
        )
        self.rows.append(row)

    def finish(self):
        """The rows, stamped with the wall time since construction and the version."""
        wall = time.perf_counter() - self._t0
        for row in self.rows:
            row.update(wall_time_s=wall, version=__version__)
        return self.rows


def _fmt_cell(v):
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_table(rows, columns, fmt, fh):
    if fmt == "json":
        payload = [{c: row.get(c, "") for c in columns} for row in rows]
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
        return
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(c, "")) for c in columns])


def _resolve_path(path):
    p = Path(path)
    base = os.environ.get("GOESV_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _open_output(args):
    if args.output:
        return open(_resolve_path(args.output), "w", encoding="utf-8", newline="")
    return None


def _write_histogram(values, path, bins=64):
    values = np.asarray(values, dtype=float).ravel()
    counts, edges = np.histogram(values, bins=bins)
    with open(_resolve_path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("bin_lo", "bin_hi", "count"))
        for j in range(counts.size):
            writer.writerow(("%.17g" % edges[j], "%.17g" % edges[j + 1], "%d" % counts[j]))


# ---------------------------------------------------------------------------
# sample


def _sample_format(fmt, model, n, batches):
    """(head, row template, separator, tail) of a sample table.

    The row template holds one cell template per (component, location),
    with model, n, component and location fixed and two slots, the sample
    index and the value; rows and blocks are joined by the separator.  The
    bytes equal those of csv.writer with "%.17g" cells, or of
    json.dump(indent=2), whose floats are float.__repr__ (%r).
    """
    cells = [(c, j + 1) for c, mat in batches for j in range(mat.shape[1])]
    if fmt == "json":
        templates = []
        for component, location in cells:
            vals = (json.dumps(model), n, "%d", json.dumps(component), location, "%r")
            body = ",\n".join(f"    {json.dumps(k)}: {v}" for k, v in zip(SAMPLE_COLUMNS, vals))
            templates.append("  {\n" + body + "\n  }")
        return "[\n", ",\n".join(templates), ",\n", "\n]\n"
    templates = [f"{model},{n},%d,{c},{j},%.17g\n" for c, j in cells]
    return ",".join(SAMPLE_COLUMNS) + "\n", "".join(templates), "", ""


# cells per slice: `sample` draws, formats and writes a block
# max(1, _SLICE_CELLS // n) rows at a time
_SLICE_CELLS = 10_000


def cmd_sample(args):
    """Write the table slice by slice.  Each block of streams._blocks is
    drawn from its own substream in slices of max(1, _SLICE_CELLS // n)
    rows, and each slice is formatted by one % operation and written
    before the next is drawn.  The kernels draw sample-major, so the
    slices of a block consume its stream exactly as one draw of the whole
    block would: the bytes do not depend on the slice size, and memory
    grows with neither --samples nor n.  A failed draw removes the
    partial --output file."""
    root = RandStream(args.seed)
    model = gaps.MODELS[args.model]
    slice_rows = max(1, _SLICE_CELLS // args.n)
    hist_parts = [] if args.emit_histogram else None
    fh = _open_output(args)
    out = fh or sys.stdout
    try:
        base = 0
        for stream, size in _blocks(root, args.samples):
            for lo, hi in _chunks(size, slice_rows):
                rows = hi - lo
                batches = list(zip(model.components, model.draw(stream, args.n, rows, args.a)))
                values = np.concatenate([mat for _, mat in batches], axis=1)
                if base == 0:
                    head, row, sep, tail = _sample_format(args.fmt, args.model, args.n, batches)
                    out.write(head)
                # interleaved (sample index, value) slots, row after row; an
                # object range makes one int per sample, not one per cell
                slots = [None] * (2 * values.size)
                index = np.arange(base, base + rows, dtype=object)
                slots[0::2] = np.repeat(index, values.shape[1]).tolist()
                slots[1::2] = values.ravel().tolist()
                out.write((sep if base else "") + sep.join([row] * rows) % tuple(slots))
                if hist_parts is not None:
                    hist_parts.append(values.ravel())
                base += rows
        out.write(tail)
    except BaseException:
        # a file cut short must not pass for a complete table
        if fh:
            fh.close()
            os.unlink(fh.name)
        raise
    finally:
        if fh:
            fh.close()
    if hist_parts is not None:
        _write_histogram(np.concatenate(hist_parts), args.emit_histogram)
    return 0


# ---------------------------------------------------------------------------
# verify-models


_KS_P_TOL = 1e-3


def _ks_p_row(rec, metric, rep, n):
    # "value <= tolerance" framing: record the failure indicator 1 - p
    rec.add(
        metric,
        value=1.0 - rep.p_value,
        tolerance=1.0 - _KS_P_TOL,
        note="pass iff KS p-value > 1e-3",
        n=n,
    )


def _location_ks_rows(rec, label, n, left, right):
    for j in range(left.shape[1]):
        rep = gaps.ks_two_sample(left[:, j], right[:, j])
        _ks_p_row(rec, f"ks_p:{label}:loc{j + 1}", rep, n)


def cmd_verify_models(args, rec):
    # every draw of one order is an independent route from its own keyed
    # stream; the rows are built afterwards, in a fixed order
    seed, n_samp = args.seed, args.samples
    for n in args.n:
        kernels = [goe_abs_batch, h_sv_batch, b_pair_sv_batch, r_pair_sv_batch]
        if n >= 2:
            kernels += [gaps._even_dec_batch, ague_batch, t_sv_batch]
        routes = [partial(k, RandStream(seed, i), n, n_samp) for i, k in enumerate(kernels)]
        sup_draws, sup_reports = gaps._superposition_routes(n, n_samp, seed + 1)
        ref, bordered, b_pair, r_pair, *rest = _concurrently(*routes, *sup_draws)
        _location_ks_rows(rec, "bordered", n, ref, bordered)
        _location_ks_rows(rec, "lower-pair", n, ref, gaps._merged(*b_pair))
        _location_ks_rows(rec, "upper-pair", n, ref, gaps._merged(*r_pair))
        if n >= 2:
            dec, skew, trid, *rest = rest
            _location_ks_rows(rec, "decimation-skew", n, dec, skew)
            _location_ks_rows(rec, "tridiagonal-skew", n, trid, skew)
        for j, rep in enumerate(sup_reports(*rest)):
            _ks_p_row(rec, f"ks_p:superposition:loc{j + 1}", rep, n)


# ---------------------------------------------------------------------------
# verify-interlace


def _random_interlace_config(stream, max_mhat):
    n = int(stream.rng.integers(2, 2 * max_mhat + 1))
    sv = goe_abs_batch(stream, n, 1)[0]
    return sv[0::2], sv[1::2]


def cmd_verify_interlace(args, rec):
    stream = RandStream(args.seed)
    worst_round = worst_cons = worst_prod = 0.0
    for _ in range(args.configs):
        t, s = _random_interlace_config(stream, 8)
        r = interlace.phi_inverse(t, s)
        back = interlace.phi_forward(r, s)
        worst_round = max(
            worst_round, float(np.max(np.abs(back.values - t) / np.abs(t)))
        )
        total = float(np.sum(r.r**2) + np.sum(s**2))
        worst_cons = max(worst_cons, abs(total - float(np.sum(t**2))) / float(np.sum(t**2)))
        if t.size > s.size:
            lhs = float(np.prod(t))
            rhs = float(r.r[-1] * np.prod(s))
            worst_prod = max(worst_prod, abs(lhs - rhs) / lhs)
    rec.add("roundtrip_max_rel", value=worst_round, tolerance=1e-10)
    rec.add("conservation_max_rel", value=worst_cons, tolerance=1e-10)
    rec.add("product_identity_max_rel", value=worst_prod, tolerance=1e-10)

    worst_jac = 0.0
    for _ in range(args.configs):
        t, s = _random_interlace_config(stream, 6)
        r = interlace.phi_inverse(t, s)
        analytic = interlace.jacobian_det(t, s, r)
        fd = interlace.jacobian_det_fd(t, s)
        worst_jac = max(worst_jac, abs(analytic - fd) / abs(analytic))
    rec.add("jacobian_fd_max_rel", value=worst_jac, tolerance=1e-6)


# ---------------------------------------------------------------------------
# verify-densities


def cmd_verify_densities(args, rec):
    stream = RandStream(args.seed)

    # Unit masses on the fixed Gauss-Legendre rule; a rule point is a row
    # with its variables outermost first, and stderr is the doubling estimate.
    rule = densities.gauss_legendre
    for n in (2, 3):
        ctx = densities.DensityContext.for_order(n)
        frame = ctx.frame
        if frame.m == 1:
            val, est = rule(lambda s, c=ctx: densities.even_marginal(s, c), [(0.0, np.inf)])
            dev = abs(val - 1.0)
            rec.add("even_marginal_mass_dev", value=dev, stderr=est, tolerance=1e-6, n=n)
        # t1 >= t2 >= 0
        limits = [(0.0, np.inf), (0.0, lambda t1: t1)][: frame.mhat]
        val, est = rule(lambda t, c=ctx: densities.odd_marginal(t, c), limits)
        rec.add("odd_marginal_mass_dev", value=abs(val - 1.0), stderr=est, tolerance=1e-6, n=n)

    ctx3 = densities.DensityContext.for_order(3)
    s_fixed = np.array([0.9])
    # t1 >= s >= t2 >= 0
    val, est = rule(
        lambda t: densities.conditional_t_given_s(t, s_fixed, ctx3),
        [(s_fixed[0], np.inf), (0.0, lambda t1: np.minimum(t1, s_fixed[0]))],
    )
    rec.add("conditional_mass_dev", value=abs(val - 1.0), stderr=est, tolerance=1e-6, n=3)

    # t1 >= s1 >= t2 >= 0, points ordered (s1, t1, t2)
    val, est = rule(
        lambda p: densities.joint_density_ts(p[:, 1:], p[:, :1], ctx3),
        [(0.0, np.inf), (lambda s1: s1, np.inf), (0.0, lambda s1, t1: s1)],
    )
    rec.add("joint_mass_dev", value=abs(val - 1.0), stderr=est, tolerance=1e-6, n=3)

    for n in range(1, 7):
        sigma = np.sort(np.abs(stream.rng.standard_normal(n)))
        lhs = densities.signed_sum_D(sigma)
        rhs = densities.factored_D(sigma)
        dev = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rec.add("signed_sum_vs_factored_rel", value=dev, tolerance=1e-10, n=n)

    for i in range(args.configs):
        n = int(stream.rng.integers(2, 6))
        ctx = densities.DensityContext.for_order(n)
        sv = goe_abs_batch(stream, n, 1)[0]
        t, s = sv[0::2], sv[1::2]
        res, est = densities.integrate_out_check("odd_to_even", s, ctx)
        rec.add("integrate_out_odd_to_even", value=res, stderr=est, tolerance=1e-8, n=n, k=i)
        res, est = densities.integrate_out_check("even_to_odd", t, ctx)
        rec.add("integrate_out_even_to_odd", value=res, stderr=est, tolerance=1e-8, n=n, k=i)


# ---------------------------------------------------------------------------
# det / clt


def cmd_det(args, rec):
    seed, size = args.seed, args.samples
    # the factored draw of beta keys stream 2(beta - 1), its dense oracle the next
    for n in args.n:
        for beta, label in ((1, "goe"), (2, "gue")):
            key = 2 * (beta - 1)
            fact = determinant.logdet_batch(RandStream(seed, key), n, beta, size)
            dense = determinant.logdet_dense_batch(RandStream(seed, key + 1), n, beta, size)
            _ks_p_row(rec, f"ks_p:{label}_logdet:n{n}", gaps.ks_two_sample(fact, dense), n)

    absdet = np.exp(determinant.logdet_batch(RandStream(seed, 4), 2, 1, size))
    # E|det M| at n = 2 is the Mellin transform at s = 2: 2 sqrt(2) - 1.
    dev = abs(float(absdet.mean()) - determinant.mellin_eta_even(2.0, 1))
    sigma = float(absdet.std(ddof=1)) / math.sqrt(absdet.size)
    rec.add("absdet_mean_dev:n2", value=dev, stderr=sigma, tolerance=3.0 * sigma, n=2)

    rec.add(
        "mellin_exact_dev:s3_m1",
        value=abs(determinant.mellin_eta_even(3.0, 1) - 7.0),
        tolerance=1e-12,
    )
    stream = RandStream(seed, 5)
    for m in (1, 3, 5):
        xi1 = np.sqrt(stream.rng.chisquare(1.0, size))
        xin = np.sqrt(stream.rng.chisquare(2.0 * m, size))
        eta = xi1 * np.sqrt(xi1**2 + 2.0 * xin**2)
        for s in (1.0, 1.5, 2.0, 3.0):
            mom = eta ** (s - 1.0)
            dev = abs(float(mom.mean()) - determinant.mellin_eta_even(s, m))
            sigma = float(mom.std(ddof=1)) / math.sqrt(mom.size)
            rec.add(
                f"mellin_mc_dev:s{s}_m{m}",
                value=dev,
                stderr=sigma,
                tolerance=3.0 * sigma,
                s=s,
                m=m,
            )


def cmd_clt(args, rec):
    # the log-det draws of each beta and the z1, z2 draws are independent
    # routes, each from its own keyed stream
    seed, n, size = args.seed, args.n, args.samples
    *logdets, (_, z1), (_, z2) = _concurrently(
        *(partial(determinant.logdet_batch, RandStream(seed, b), n, b, size) for b in args.beta),
        partial(determinant.clt_yz_batch, RandStream(seed, 10), args.var_n, 1, size),
        partial(determinant.clt_yz_batch, RandStream(seed, 11), args.var_n, 2, size),
    )
    stats_for_hist = None
    for beta, logdet in zip(args.beta, logdets):
        stat = determinant.clt_statistic_batch(logdet, n, beta)
        rep = gaps.ks_one_sample(stat, special.ndtr)
        # The complex-case law reaches N(0,1) only in the limit (exact KS
        # distance 0.087 at n = 2000), so its 0.03 bar is held against the
        # exact finite-n law and the normal distance is informational.
        rec.add(
            f"ks_normal_distance:beta{beta}",
            value=rep.ks_distance,
            tolerance=0.03 if beta == 1 else None,
            note="" if beta == 1 else "informational",
            n=n,
            beta=beta,
        )
        if beta == 2:
            exact = gaps.ks_one_sample(stat, lambda x: determinant.clt_cdf_exact(x, n, beta))
            rec.add(
                "ks_exact_distance:beta2",
                value=exact.ks_distance,
                tolerance=0.03,
                note="KS distance to the exact finite-n law",
                n=n,
                beta=beta,
            )
        stats_for_hist = stat
    ratio = float(np.var(z1, ddof=1) / np.var(z2, ddof=1))
    rec.add("z_var_ratio", value=ratio, note="informational", n=args.var_n)
    rec.add(
        "z_var_ratio_dev2",
        value=abs(ratio - 2.0),
        tolerance=0.1,
        n=args.var_n,
        note="pass iff ratio within [1.9, 2.1]",
    )
    if args.emit_histogram and stats_for_hist is not None:
        _write_histogram(stats_for_hist, args.emit_histogram)


# ---------------------------------------------------------------------------
# gaps / duality


def cmd_gaps(args, rec):
    cols = dict(n=args.n, k=args.k, s=args.s)
    report = gaps.verify_gap_identity(args.n, args.k, args.s, args.samples, args.seed)
    routes = {"paired_counts": report.lhs, "skew": report.rhs_ague, "laguerre": report.rhs_lue}
    for name, est in routes.items():
        rec.add(f"p_hat:{name}", value=est.p_hat, stderr=est.stderr, **cols)
    for name, diff, sigma in report.pairwise():
        rec.add(f"residual:{name}", value=abs(diff), stderr=sigma, tolerance=3.0 * sigma, **cols)
    if args.n == 3 and args.k == 0:
        analytic = float(special.gammaincc(1.5, args.s * args.s))
        for name, est in routes.items():
            rec.add(
                f"analytic_dev:{name}",
                value=abs(est.p_hat - analytic),
                stderr=est.stderr,
                tolerance=3.0 * max(est.stderr, 1e-12),
                note="incomplete-gamma value",
                **cols,
            )
    rec.add(
        "counting_lemma_fail_rate",
        value=1.0 - report.lemma,
        tolerance=0.0,
        n=args.n,
        s=args.s,
    )


def cmd_duality(args, rec):
    for alpha in args.alpha:
        rec.add(
            f"padding_residual:alpha{alpha}",
            value=gaps.wishart_padding_residual(args.m, alpha, args.seed),
            tolerance=1e-10,
            m=args.m,
            alpha=alpha,
        )
        cols = dict(m=args.m, alpha=alpha, k=args.k, t=args.t)
        report = gaps.verify_wishart_duality(args.m, alpha, args.k, args.t, args.samples, args.seed)
        for name, est in (("padded", report.lhs), ("laguerre", report.rhs)):
            rec.add(f"p_hat:{name}:alpha{alpha}", value=est.p_hat, stderr=est.stderr, **cols)
        sigma = report.combined_stderr()
        rec.add(
            f"residual:alpha{alpha}",
            value=abs(report.difference()),
            stderr=sigma,
            tolerance=3.0 * sigma,
            **cols,
        )


# ---------------------------------------------------------------------------
# driver


def _add_common(sub, samples_default=None):
    # without samples_default the subcommand draws no Monte Carlo samples:
    # it has no --samples, and Recorder writes 0 on its rows
    if samples_default is not None:
        sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    sub.add_argument("--output", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="goesv",
        description="Singular-value decimation experiments: samplers and verifications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("sample", help="emit raw spectra from one model")
    p.add_argument("--model", choices=tuple(gaps.MODELS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=None, help="Laguerre parameter (lue)")
    p.add_argument("--emit-histogram", default=None, metavar="PATH")
    _add_common(p, 10)

    p = subs.add_parser("verify-models", help="KS equivalence of all samplers")
    p.add_argument("--n", type=int, nargs="+", default=[4, 5])
    _add_common(p, 20_000)

    p = subs.add_parser("verify-interlace", help="transform residuals")
    p.add_argument("--configs", type=int, default=100)
    _add_common(p)

    p = subs.add_parser("verify-densities", help="density quadrature residuals")
    p.add_argument("--configs", type=int, default=20)
    _add_common(p)

    p = subs.add_parser("det", help="determinant factorization checks")
    p.add_argument("--n", type=int, nargs="+", default=[4, 5])
    _add_common(p, 20_000)

    p = subs.add_parser("clt", help="log-determinant CLT checks")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--beta", type=int, nargs="+", choices=(1, 2), default=[1])
    p.add_argument("--var-n", type=int, default=500)
    p.add_argument("--emit-histogram", default=None, metavar="PATH")
    _add_common(p, 20_000)

    p = subs.add_parser("gaps", help="symmetric-interval counting identity")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--s", type=float, default=1.0)
    _add_common(p, 100_000)

    p = subs.add_parser("duality", help="integer-parameter Laguerre duality")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--alpha", type=int, nargs="+", default=[1, 2])
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--t", type=float, default=1.0)
    _add_common(p, 50_000)

    p = subs.add_parser("all", help="every verification, reduced budgets")
    _add_common(p, 10_000)
    return parser


def _validate(parser, args):
    # the CLT statistic needs log n > 0, and its variance ratio an odd chi
    # degree (order 3) and two samples, as do det's sample standard
    # errors; a sampled model has its least order
    n_floor = 2 if args.subcommand == "clt" else 1
    if args.subcommand == "sample":
        n_floor = gaps.MODELS[args.model].least_order
    floors = {"samples": 2 if args.subcommand in ("clt", "det", "all") else 1, "seed": 0,
              "n": n_floor, "m": 1, "k": 0, "configs": 1, "var_n": 3, "alpha": 1}
    for name, floor in floors.items():
        val = getattr(args, name, None)
        for v in val if isinstance(val, list) else [val]:
            if v is not None and v < floor:
                parser.error(f"--{name.replace('_', '-')} must be >= {floor}")
    # written as "not v > 0" so that nan is rejected too
    for name in ("s", "t"):
        if getattr(args, name, None) is not None and not getattr(args, name) > 0:
            parser.error(f"--{name} must be positive")
    if getattr(args, "model", None) == "lue":
        if args.a is None:
            parser.error("--model lue requires --a")
        if not (-1 < args.a and math.isfinite(2.0 * (args.a + args.n))):
            parser.error("--a must exceed -1, with 2(a + n) finite")
    elif getattr(args, "a", None) is not None:
        parser.error("--a applies to --model lue only")


_HANDLERS = {
    "verify-models": cmd_verify_models,
    "verify-interlace": cmd_verify_interlace,
    "verify-densities": cmd_verify_densities,
    "det": cmd_det,
    "clt": cmd_clt,
    "gaps": cmd_gaps,
    "duality": cmd_duality,
}


def _run(args):
    """The stamped rows of one verification subcommand; a numeric error
    replaces its rows with one error row."""
    rec = Recorder(args)
    try:
        _HANDLERS[args.subcommand](args, rec)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        rec.rows = []
        rec.add("error", note=str(exc), passed="fail")
    return rec.finish()


def main(argv=None):
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): Python's documented
        # recipe points stdout at devnull, so that the flush at exit does not
        # raise again, and exits 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _main(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    if args.subcommand == "sample":
        return cmd_sample(args)
    runs = [args]
    if args.subcommand == "all":
        # every verification at its parser defaults but for reduced budgets; the
        # exact checks take no --samples, and clt keeps the 20,000 its bar needs
        budget = ["--samples", str(args.samples)]
        runs = [
            parser.parse_args(sub + ["--seed", str(args.seed)])
            for sub in (
                ["verify-models", *budget],
                ["verify-interlace", "--configs", "50"],
                ["verify-densities", "--configs", "10"],
                ["det", *budget],
                ["clt"],
                ["gaps", *budget],
                ["duality", "--alpha", "1", *budget],
            )
        ]
        for run in runs:
            _validate(parser, run)
    rows = [row for run in runs for row in _run(run)]
    fh = _open_output(args)
    try:
        _write_table(rows, RECORD_COLUMNS, args.fmt, fh or sys.stdout)
    finally:
        if fh:
            fh.close()
    return 1 if any(row["passed"] == "fail" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
