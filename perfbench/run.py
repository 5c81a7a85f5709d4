"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload models --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The script

1. times ``SETUP_REPEATS`` fresh interpreters that only ``import goesv.cli``
   (interpreter start plus numpy/scipy import) and keeps the median as
   ``setup_s``;
2. starts one workload process (``perfbench.worker``), which drives
   ``goesv.cli.main(argv)`` in a closed loop for ``--seconds`` and checks
   every output;
3. prints a provenance line and then, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
   the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
   run.

The goesv sources are taken from ``src/`` of the checkout and nowhere
else; without them the script exits with status 2 and prints no result.
BLAS and OpenMP threads are pinned to one, so that every run uses the same
setting.  On a shared two-core machine (OpenBLAS 0.3.31) two threads made
the large-n workload slower and far noisier: a median pass of 7.0 s with a
25% quartile spread over five seeds, against 5.2 s and 7% with one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("models", "numerics", "sample-write", "large-n")
SETUP_REPEATS = 5
BLAS_THREADS = 1
# The worker stops starting passes after --seconds; the margin covers the
# pass that is running then, and the warm-up and reference passes of a
# traced run (a traced numerics run takes about 110 s at --seconds 20).
WORKER_MARGIN_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment():
    env = {k: v for k, v in os.environ.items() if k != "GOESV_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _setup_seconds(env):
    """Median wall time of fresh interpreters importing goesv.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import goesv.cli"],
            cwd=ROOT, env=env, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "goesv").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "goesv" / "cli.py").is_file():
        print(f"perfbench: no goesv sources under {SRC}", file=sys.stderr)
        return 2
    env = _environment()
    try:
        setup_s = _setup_seconds(env)
        worker = subprocess.run(
            [
                sys.executable, "-m", "perfbench.worker",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + WORKER_MARGIN_S,
        )
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up interpreter failed: {exc}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: timed out: {exc}", file=sys.stderr)
        return 2
    if worker.returncode != 0:
        print(f"perfbench: workload process exited {worker.returncode}", file=sys.stderr)
        return 2
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    result = report["result"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    provenance = dict(
        report["provenance"],
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, blas_threads=BLAS_THREADS,
        nproc=len(os.sched_getaffinity(0)), git_commit=_git_commit(), src_sha256=_source_digest(),
    )
    print(json.dumps({"provenance": provenance}))
    if args.trace:
        print(json.dumps({"layer_shares": report["layer_shares"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
