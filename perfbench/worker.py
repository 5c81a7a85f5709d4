"""The workload process: drives ``goesv.cli.main`` and checks its outputs.

    python3 -m perfbench.worker --workload models --seed 1 --seconds 20 --trace 0

``perfbench/run.py`` starts this module once per run, in a fresh
interpreter, with ``PYTHONPATH`` pointing at the checkout's ``src``.  A
*pass* runs the workload's commands once, one after the other (a closed
loop with one client); passes repeat with the same seed until the next
one would overrun ``--seconds``, and at least one always runs.  Times are
medians over passes.  The last line of standard output is one JSON object
with the result, the provenance and, for traced runs, the layer shares.

Every pass checks what the commands wrote:

* verification commands run with ``--format json --output <path>``.  Each
  toleranced record is one operation; it fails when it reads
  ``passed=fail``, and an ``error`` row, a crash or an exit status the
  records do not explain count as failed operations too.  The records
  must also be well formed: the right experiment and seed, a finite value,
  and a ``passed`` field that agrees with ``value <= tolerance``.
* ``sample`` writes CSV; the check needs the header, exactly
  ``samples * n`` rows, finite non-negative values, each
  (sample, component) holding each of its locations exactly once, and
  values that fall as the location rises.  Rows are grouped by their
  fields, so neither row order nor the RNG block layout matters.

A Monte Carlo verdict at level alpha fails by chance with probability
alpha (KS p-value below 1e-3, or a 3-sigma residual), so one such failure
per pass still counts in ``failed`` but leaves ``correct`` true; two or
more, or any failed exact check, make ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import goesv
import goesv.cli
from perfbench.tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SAMPLE_HEADER = "model,n,sample,component,location,value"
SAMPLE_ROW = np.dtype(
    [("model", "U16"), ("n", "i8"), ("sample", "i8"), ("component", "U8"),
     ("location", "i8"), ("value", "f8")]
)
# Exact checks: identities that hold for every sample, not in law.
EXACT_METRICS = ("counting_lemma_fail_rate",)
MC_FAILURES_ALLOWED = 1


@dataclass(frozen=True)
class Command:
    """One goesv invocation; the worker appends --seed, --format, --output."""

    argv: tuple
    samples: int = 0  # Monte Carlo samples requested, summed over orders (rate basis)
    seed: int = None  # a fixed --seed in place of the benchmark's


@dataclass(frozen=True)
class Workload:
    rate_basis: str  # "samples", "checks" or "rows": the unit of `rate`
    active: tuple  # layers that must record calls in a traced run
    full: tuple
    smoke: tuple


WORKLOADS = {
    # Small-n Monte Carlo equivalence checks; dense and sparse samplers
    # plus the KS kernel.
    "models": Workload(
        rate_basis="samples",
        active=("cli", "dense", "sparse", "gaps", "streams"),
        full=(Command(("verify-models", "--n", "5", "9", "--samples", "20000"), 40_000),),
        smoke=(Command(("verify-models", "--n", "5", "9", "--samples", "300"), 600),),
    ),
    # Deterministic residual checks; density quadrature dominates and no
    # bulk sampling runs.  verify-densities has a fixed joint-mass triple
    # integral, so --configs only trims the integrate-out part.  Its seed
    # picks the orders (2..5) of those checks, and one order-5 check costs
    # about 3 s against about 0.2 s for the others, so a passed-through
    # seed would make the pass time measure the draw, not the code.  Seed 0
    # with 4 configs draws the orders 2, 4, 3, 5: each order once.
    "numerics": Workload(
        rate_basis="checks",
        active=("cli", "interlace", "densities", "streams"),
        full=(
            Command(("verify-interlace",)),
            Command(("verify-densities", "--configs", "4"), seed=0),
        ),
        smoke=(
            Command(("verify-interlace", "--configs", "5")),
            Command(("verify-densities", "--configs", "1"), seed=0),
        ),
    ),
    # The one bulk-output path: the per-cell writer of `goesv sample`.
    "sample-write": Workload(
        rate_basis="rows",
        active=("cli", "sparse", "streams"),
        full=(Command(("sample", "--model", "r-pair", "--n", "9", "--samples", "50000")),),
        smoke=(Command(("sample", "--model", "r-pair", "--n", "9", "--samples", "200")),),
    ),
    # O(n^3) dense eigensolves at n = 100 and chi-product log-determinants
    # at n = 2000.  clt keeps its default 20k samples in both budgets: its
    # 0.03 KS bar at n = 2000 fails by chance at smaller budgets.
    "large-n": Workload(
        rate_basis="samples",
        active=("cli", "dense", "determinant", "gaps", "streams"),
        full=(
            Command(("gaps", "--n", "100", "--k", "4", "--s", "1.0", "--samples", "2000"), 2000),
            Command(("clt", "--n", "2000", "--samples", "20000"), 20_000),
        ),
        smoke=(
            Command(("gaps", "--n", "100", "--k", "4", "--s", "1.0", "--samples", "100"), 100),
            Command(("clt", "--n", "2000", "--samples", "20000"), 20_000),
        ),
    ),
}


@dataclass
class Pass:
    """What one pass of a workload did and what its outputs showed."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    mc_failed: int = 0
    checks: int = 0
    rows_out: int = 0
    bytes_out: int = 0
    seeds_seen: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail_op(self, problem):
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def _number(value):
    return None if value in (None, "") else float(value)


def check_records(records, subcommand, seed, rc, tally):
    """Fold one verification command's JSON records into ``tally``."""
    any_failed = False
    for rec in records:
        tally.rows_out += 1
        tally.seeds_seen.add(rec.get("seed"))
        where = f"{subcommand} {rec.get('metric')}"
        if rec.get("experiment") != subcommand or rec.get("seed") != seed:
            tally.problems.append(f"{where}: wrong experiment or seed")
        if rec.get("metric") == "error":
            any_failed = True
            tally.fail_op(f"{where}: {rec.get('note')}")
            continue
        tolerance = _number(rec.get("tolerance"))
        if tolerance is None:
            continue
        value = _number(rec.get("value"))
        tally.attempted += 1
        tally.checks += 1
        if value is None or not math.isfinite(value):
            tally.problems.append(f"{where}: value {value!r} is not finite")
        elif rec.get("passed") != ("pass" if value <= tolerance else "fail"):
            tally.problems.append(f"{where}: passed={rec.get('passed')!r} disagrees with value")
        if rec.get("passed") == "fail":
            any_failed = True
            tally.failed += 1
            if rec.get("samples") == 0 or rec.get("metric") in EXACT_METRICS:
                tally.problems.append(f"{where}: exact check failed ({value!r} > {tolerance!r})")
            else:
                tally.mc_failed += 1
    if rc != (1 if any_failed else 0):
        tally.fail_op(f"{subcommand}: exit status {rc!r} does not match its records")


def check_pair_csv(path, model, n, samples, tally):
    """Check a ``goesv sample`` CSV of a pair model (odd/even components)."""
    mhat, m = (n + 1) // 2, n // 2
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=SAMPLE_ROW, ndmin=1)
        except ValueError as exc:
            rows = np.empty(0, dtype=SAMPLE_ROW)
            tally.problems.append(f"sample: unparsable row ({exc})")
    problems = []
    if header != SAMPLE_HEADER:
        problems.append(f"sample: header {header!r}")
    if rows.size != samples * n:
        problems.append(f"sample: {rows.size} rows, expected {samples * n}")
    elif np.any(rows["model"] != model) or np.any(rows["n"] != n):
        problems.append("sample: wrong model or order column")
    elif not np.all(np.isin(rows["component"], ("odd", "even"))):
        problems.append("sample: unknown component")
    else:
        even = rows["component"] == "even"
        order = np.lexsort((rows["location"], even, rows["sample"]))
        group_locs = np.concatenate([np.arange(1, mhat + 1), np.arange(1, m + 1)])
        expected_loc = np.tile(group_locs, samples)
        if not (
            np.array_equal(rows["sample"][order], np.repeat(np.arange(samples), n))
            and np.array_equal(even[order], np.tile(np.arange(n) >= mhat, samples))
            and np.array_equal(rows["location"][order], expected_loc)
        ):
            problems.append("sample: (sample, component, location) cells are not each present once")
        v = rows["value"][order]
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            problems.append("sample: values must be finite and non-negative")
        inner = expected_loc[1:] > 1
        if np.any(v[1:][inner] > v[:-1][inner]):
            problems.append("sample: values rise with location inside a (sample, component)")
    tally.rows_out += rows.size
    tally.attempted += 1
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)


def _run_command(argv):
    """Exit status of ``goesv.cli.main(argv)``; None when it raised."""
    try:
        return goesv.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc()
        return None


def _seed(cmd, seed):
    return seed if cmd.seed is None else cmd.seed


def run_pass(commands, seed, workdir):
    """Run every command once; return the pass's timings and checks."""
    tally = Pass()
    outputs = []
    cpu0 = os.times()
    for i, cmd in enumerate(commands):
        sample = cmd.argv[0] == "sample"
        out = workdir / f"{i}-{cmd.argv[0]}.{'csv' if sample else 'json'}"
        out.unlink(missing_ok=True)
        argv = [*cmd.argv, "--seed", str(_seed(cmd, seed)), "--output", str(out)]
        if not sample:
            argv += ["--format", "json"]
        t0 = time.perf_counter()
        rc = _run_command(argv)
        tally.wall_s += time.perf_counter() - t0
        outputs.append((cmd, rc, out))
    cpu1 = os.times()
    tally.cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    tally.peak_rss_mib = _peak_rss_mib()  # before the checks allocate
    for cmd, rc, out in outputs:
        if rc is None or not out.is_file():
            tally.fail_op(f"{cmd.argv[0]}: crashed or wrote nothing (exit {rc!r})")
            continue
        tally.bytes_out += out.stat().st_size
        if cmd.argv[0] == "sample":
            if rc != 0:
                tally.fail_op(f"sample: exit status {rc!r}")
            args = dict(zip(cmd.argv[1::2], cmd.argv[2::2]))
            check_pair_csv(out, args["--model"], int(args["--n"]), int(args["--samples"]), tally)
        else:
            try:
                with open(out, encoding="utf-8") as fh:
                    records = json.load(fh)
            except ValueError as exc:
                tally.fail_op(f"{cmd.argv[0]}: unreadable JSON ({exc})")
                continue
            check_records(records, cmd.argv[0], _seed(cmd, seed), rc, tally)
    if tally.mc_failed > MC_FAILURES_ALLOWED:
        tally.problems.append(f"{tally.mc_failed} Monte Carlo verdicts failed in one pass")
    return tally


def run_passes(commands, seed, seconds, workdir):
    """Passes with one seed until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(commands, seed, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_traced_passes(commands, seed, seconds, workdir, tracer):
    """A warm-up pass, then untraced and traced passes in turn.

    Pairs repeat until the next one would overrun ``seconds``; at least one
    runs.  Both kinds of pass find caches warm, and alternating them lets
    both see the same drift in the machine's speed.  Returns the warm-up,
    untraced and traced passes.
    """
    start = time.perf_counter()
    warmup = run_pass(commands, seed, workdir)
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(commands, seed, workdir))
        with tracer:
            traced.append(run_pass(commands, seed, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed - warmup.wall_s) / len(traced) > seconds:
            return warmup, untraced, traced


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _work(workload, commands, tally):
    if workload.rate_basis == "samples":
        return sum(cmd.samples for cmd in commands)
    return tally.checks if workload.rate_basis == "checks" else tally.rows_out


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "goesv": goesv.__file__,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end_metrics(workload, commands, passes):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rates = [_work(workload, commands, p) / p.wall_s for p in passes]
    return {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "rate": _metric(statistics.median(rates), "1/s"),
        "cpu_s": _metric(statistics.median(p.cpu_s for p in passes), "s"),
        # The first pass sets the peak; later passes repeat it.
        "peak_rss_mb": _metric(passes[0].peak_rss_mib, "MiB"),
        "ok_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }


def _traced_metrics(name, workload, tracer, passes, untraced):
    """Per-layer metrics per traced pass, and the layers' time shares.

    ``trace.overhead_s`` is the median traced pass minus the median
    untraced pass.  It is a difference of two noisy times, so where tracing
    costs less than the machine's drift (every workload but numerics) it
    can read below zero.
    """
    totals = tracer.layer_totals()
    idle = [layer for layer in workload.active if totals[layer]["calls"] == 0]
    if idle:
        raise RuntimeError(f"traced run of {name!r}: active layers {idle} recorded no calls")
    per = {layer: {k: v / len(passes) for k, v in entry.items()} for layer, entry in totals.items()}
    metrics = {}
    for layer in ("densities", "interlace", "sparse", "dense", "gaps", "determinant", "streams"):
        metrics[f"{layer}.self_s"] = _metric(per[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = _metric(per[layer]["calls"], "count")
    for layer in ("sparse", "dense", "determinant"):
        metrics[f"{layer}.samples"] = _metric(per[layer]["samples"], "count")
    for layer in ("sparse", "dense"):
        samples = per[layer]["samples"]
        us = per[layer]["self_s"] / samples * 1e6 if samples else 0.0
        metrics[f"{layer}.us_per_sample"] = _metric(us, "us")
    metrics["cli.self_s"] = _metric(per["cli"]["self_s"], "s")
    metrics["cli.rows_out"] = _metric(passes[0].rows_out, "count")
    metrics["cli.bytes_out"] = _metric(passes[0].bytes_out, "B")
    overhead = statistics.median(p.wall_s for p in passes) - statistics.median(
        p.wall_s for p in untraced
    )
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    wall = sum(p.wall_s for p in passes)
    shares = {
        "percent_of_traced_wall": {
            layer: round(100.0 * totals[layer]["self_s"] / wall, 1) for layer in LAYERS
        },
    }
    return metrics, shares


def run(name, seed, seconds, trace, budget="full"):
    """One benchmark run in this process; returns the report dict.

    ``report["result"]`` is the object the benchmark prints last; the other
    keys (provenance, layer shares, seeds the records carried)
    are diagnostics.
    """
    workload = WORKLOADS[name]
    commands = workload.smoke if budget == "smoke" else workload.full
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    report = {}
    try:
        if trace:
            tracer = Tracer()
            warmup, untraced, passes = run_traced_passes(commands, seed, seconds, workdir, tracer)
            metrics, report["layer_shares"] = _traced_metrics(
                name, workload, tracer, passes, untraced
            )
            passes += [warmup, *untraced]
        else:
            passes = run_passes(commands, seed, seconds, workdir)
            metrics = _end_to_end_metrics(workload, commands, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = list(dict.fromkeys(msg for p in passes for msg in p.problems))
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    report["result"] = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    report["seeds_seen"] = sorted(set().union(*(p.seeds_seen for p in passes)) - {None})
    report["provenance"] = provenance()
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(goesv.__file__).resolve().parents:
        raise RuntimeError(f"goesv imported from {goesv.__file__}, not from {src}")
    report = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
