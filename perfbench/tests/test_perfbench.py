"""Tests of the benchmark itself: metric names and units, output checks,
tracing, seed plumbing and the failure mode without sources.

The workload runs use ``budget="smoke"`` (tiny command budgets), except
that ``verify-densities`` keeps its fixed joint-mass quadrature, so the
numerics run takes about half a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import goesv
import goesv.cli
import goesv.dense
import goesv.gaps
from perfbench import worker
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _reported_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _record(metric, value, tolerance, passed, samples=100, seed=7):
    return {
        "experiment": "verify-models", "metric": metric, "value": value,
        "tolerance": tolerance, "passed": passed, "samples": samples, "seed": seed,
        "note": "",
    }


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)


def test_check_records_counts_failed_and_error_rows():
    records = [
        _record("ks_p:a", 0.5, 0.999, "pass"),
        _record("ks_p:b", 0.9995, 0.999, "fail"),
        _record("z_var_ratio", 2.0, "", ""),  # informational: not an operation
        dict(_record("error", None, None, "fail"), note="boom"),
    ]
    tally = worker.Pass()
    worker.check_records(records, "verify-models", 7, 1, tally)
    assert (tally.attempted, tally.failed, tally.mc_failed) == (3, 2, 1)
    assert tally.rows_out == 4
    assert any("boom" in p for p in tally.problems)


def test_check_records_flags_inconsistent_output():
    tally = worker.Pass()
    records = [
        _record("ks_p:a", 0.5, 0.999, "fail"),  # passed disagrees with value
        _record("residual", 1e-3, 1e-6, "fail", samples=0),  # exact check
        _record("ks_p:b", 0.5, 0.999, "pass", seed=8),  # wrong seed
    ]
    worker.check_records(records, "verify-models", 7, 0, tally)
    assert tally.failed == 3  # two failed records, exit 0 despite them
    assert len(tally.problems) == 4


def test_check_pair_csv(tmp_path):
    path = tmp_path / "s.csv"
    argv = ["sample", "--model", "r-pair", "--n", "5", "--samples", "30", "--output", str(path)]
    assert goesv.cli.main(argv) == 0
    good = worker.Pass()
    worker.check_pair_csv(path, "r-pair", 5, 30, good)
    assert (good.attempted, good.failed, good.rows_out, good.problems) == (1, 0, 150, [])

    header, *rows = path.read_text().splitlines()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *reversed(rows)]) + "\n")
    tally = worker.Pass()
    worker.check_pair_csv(shuffled, "r-pair", 5, 30, tally)
    assert tally.failed == 0, "row order must not matter"

    first, second = rows[0].split(","), rows[1].split(",")
    first[5], second[5] = second[5], first[5]
    rising = tmp_path / "rising.csv"
    rising.write_text("\n".join([header, ",".join(first), ",".join(second), *rows[2:]]) + "\n")
    tally = worker.Pass()
    worker.check_pair_csv(rising, "r-pair", 5, 30, tally)
    assert tally.failed == 1 and "rise" in tally.problems[0]

    short = tmp_path / "short.csv"
    short.write_text("\n".join([header, *rows[:-1]]) + "\n")
    tally = worker.Pass()
    worker.check_pair_csv(short, "r-pair", 5, 30, tally)
    assert tally.failed == 1


def test_tracer_patches_every_binding_and_restores():
    original = goesv.dense.goe_abs_batch
    with Tracer() as tracer:
        wrapped = goesv.dense.goe_abs_batch
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert goesv.cli.goe_abs_batch is wrapped
        assert goesv.gaps.goe_abs_batch is wrapped
        goesv.gaps.check_counting_lemma(4, 1.0, 50, 0)
    assert goesv.dense.goe_abs_batch is original
    assert goesv.cli.goe_abs_batch is original
    totals = tracer.layer_totals()
    assert totals["gaps"]["calls"] == 1
    assert totals["dense"]["calls"] == 1 and totals["dense"]["samples"] == 50
    assert totals["streams"]["calls"] >= 2  # RandStream and its substream


@pytest.mark.parametrize("name", list(worker.WORKLOADS))
def test_smoke_end_to_end(name):
    report = worker.run(name, seed=3, seconds=0.01, trace=0, budget="smoke")
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("end_to_end")
    del expected["setup_s"]  # measured by run.py, outside the workload process
    assert _reported_units(result) == expected
    ok = result["metrics"]["ok_ratio"]["value"]
    assert ok == 1.0 - result["failed"] / result["attempted"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["models", "sample-write", "large-n"])
def test_smoke_traced(name):
    report = worker.run(name, seed=3, seconds=0.01, trace=1, budget="smoke")
    result = report["result"]
    assert result["correct"]
    assert _reported_units(result) == _units("per_layer")
    for layer in worker.WORKLOADS[name].active:
        if layer != "cli":
            assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert result["metrics"]["cli.rows_out"]["value"] > 0


def test_traced_run_fails_loudly_on_an_idle_active_layer(monkeypatch):
    models = worker.WORKLOADS["models"]
    monkeypatch.setitem(
        worker.WORKLOADS, "models", dataclasses.replace(models, active=models.active + ("densities",))
    )
    with pytest.raises(RuntimeError, match="densities"):
        worker.run("models", seed=3, seconds=0.01, trace=1, budget="smoke")


def test_seed_reaches_the_commands():
    seen = [
        worker.run("models", seed=s, seconds=0.01, trace=0, budget="smoke")["seeds_seen"]
        for s in (3, 11)
    ]
    assert seen == [[3], [11]]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "models", "--seed", "5",
         "--seconds", "0.01", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_script_prints_the_result_last():
    out = _bench(ROOT, "--trace", "0")
    assert out.returncode == 0, out.stderr
    *info, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert _reported_units(result) == _units("end_to_end")
    provenance = json.loads(info[0])["provenance"]
    assert provenance["seed"] == 5 and provenance["blas_threads"] >= 1


def test_run_script_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
