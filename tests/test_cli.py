"""End-to-end checks of the experiment runner: argument handling, record
schemas, determinism, and exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from goesv import cli, gaps, streams
from goesv.cli import RECORD_COLUMNS, SAMPLE_COLUMNS, build_parser, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# sample


def test_sample_schema_and_determinism(capsys):
    argv = ["sample", "--model", "goe-abs", "--n", "3", "--samples", "5", "--seed", "7"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2  # byte-identical replay
    header, rows = _parse_csv(out1)
    assert tuple(header) == SAMPLE_COLUMNS
    assert len(rows) == 5 * 3
    # locations are 1-based and values sorted decreasing within a sample
    first = [float(r[5]) for r in rows[:3]]
    assert first == sorted(first, reverse=True)
    assert [r[4] for r in rows[:3]] == ["1", "2", "3"]


def test_sample_pair_model_components(capsys):
    code, out = _run(
        capsys,
        ["sample", "--model", "b-pair", "--n", "5", "--samples", "2", "--seed", "0"],
    )
    assert code == 0
    _, rows = _parse_csv(out)
    comps = {r[3] for r in rows}
    assert comps == {"odd", "even"}
    # order 5 splits into 3 odd-location and 2 even-location values
    sample0 = [r for r in rows if r[2] == "0"]
    assert sum(r[3] == "odd" for r in sample0) == 3
    assert sum(r[3] == "even" for r in sample0) == 2


def test_sample_json_format(capsys):
    code, out = _run(
        capsys,
        ["sample", "--model", "ague", "--n", "4", "--samples", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3 * 2  # two collapsed values per order-4 sample
    assert set(payload[0]) == set(SAMPLE_COLUMNS)


def test_sample_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GOESV_OUTPUT_DIR", str(tmp_path))
    code, out = _run(
        capsys,
        [
            "sample",
            "--model",
            "gue-abs",
            "--n",
            "2",
            "--samples",
            "4",
            "--output",
            "spectra.csv",
        ],
    )
    assert code == 0
    assert out == ""  # nothing on stdout when --output is set
    written = (tmp_path / "spectra.csv").read_text(encoding="utf-8")
    header, rows = _parse_csv(written)
    assert tuple(header) == SAMPLE_COLUMNS
    assert len(rows) == 8


def test_sample_histogram_sidecar(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GOESV_OUTPUT_DIR", str(tmp_path))
    code, _ = _run(
        capsys,
        [
            "sample",
            "--model",
            "goe",
            "--n",
            "2",
            "--samples",
            "50",
            "--output",
            "eigs.csv",
            "--emit-histogram",
            "hist.csv",
        ],
    )
    assert code == 0
    header, rows = _parse_csv((tmp_path / "hist.csv").read_text(encoding="utf-8"))
    assert header == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 64
    assert sum(int(r[2]) for r in rows) == 100  # 50 samples x 2 eigenvalues


def _per_cell_sample(model, n, samples, seed, fmt, a=None):
    """Reference writer: one dict per cell, then csv.writer with "%.17g"
    values or json.dump(indent=2); returns (table text, pooled values)."""
    rows, pooled = [], []
    root = streams.RandStream(seed)
    # block b holds samples [b * _BLOCK, (b + 1) * _BLOCK) and is drawn from substream b
    for b, base in enumerate(range(0, samples, streams._BLOCK)):
        size = min(streams._BLOCK, samples - base)
        entry = gaps.MODELS[model]
        batches = list(zip(entry.components, entry.draw(root.substream(b), n, size, a)))
        for i in range(size):
            for component, mat in batches:
                for j in range(mat.shape[1]):
                    row = (model, n, base + i, component, j + 1, float(mat[i, j]))
                    rows.append(dict(zip(SAMPLE_COLUMNS, row)))
        pooled.extend(float(v) for _, mat in batches for v in mat.ravel())
    fh = io.StringIO()
    if fmt == "json":
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SAMPLE_COLUMNS)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row.values()])
    return fh.getvalue(), pooled


def _assert_sample_bytes(model, n, tmp_path, capsys):
    """17 samples at seed 3, in CSV and JSON, on stdout and with --output,
    equal the per-cell writer's bytes."""
    a = 0.5 if model == "lue" else None
    for fmt in ("csv", "json"):
        expected, _ = _per_cell_sample(model, n, 17, 3, fmt, a=a)
        argv = ["sample", "--model", model, "--n", str(n), "--samples", "17", "--seed", "3"]
        argv += ["--format", fmt] + (["--a", str(a)] if a is not None else [])
        assert _run(capsys, argv) == (0, expected), (model, n, fmt, "stdout")
        path = tmp_path / f"{model}-{n}.{fmt}"
        assert _run(capsys, argv + ["--output", str(path)]) == (0, ""), (model, n, fmt)
        assert path.read_text(encoding="utf-8") == expected, (model, n, fmt, "--output")


@pytest.mark.parametrize("model", tuple(gaps.MODELS))
@pytest.mark.parametrize("n", [2, 5])
def test_sample_bytes_match_per_cell_writer(model, n, tmp_path, monkeypatch, capsys):
    # 17 samples in blocks of 7: two full blocks and a partial one
    monkeypatch.setattr(streams, "_BLOCK", 7)
    _assert_sample_bytes(model, n, tmp_path, capsys)


@pytest.mark.parametrize("model", tuple(gaps.MODELS))
@pytest.mark.parametrize("n", [2, 5])
def test_sample_slices_do_not_change_the_bytes(model, n, tmp_path, monkeypatch, capsys):
    # 3 rows per slice cut each block of 7 into 3 + 3 + 1, and the last
    # block of 3 into one slice: one kernel call per slice
    monkeypatch.setattr(streams, "_BLOCK", 7)
    monkeypatch.setattr(cli, "_SLICE_CELLS", 3 * n)
    sizes = []
    entry = gaps.MODELS[model]

    def counted(stream, order, size, a):
        sizes.append(size)
        return entry.draw(stream, order, size, a)

    monkeypatch.setitem(gaps.MODELS, model, entry._replace(draw=counted))
    _assert_sample_bytes(model, n, tmp_path, capsys)
    # per format: the reference writer draws whole blocks, then the
    # stdout and --output runs draw slices
    assert sizes == ([7, 7, 3] + [3, 3, 1, 3, 3, 1, 3] * 2) * 2, sizes


def test_sample_bytes_and_histogram_at_full_blocks(tmp_path, capsys):
    table, pooled = _per_cell_sample("r-pair", 9, 25_001, 1, "csv")
    cli._write_histogram(pooled, str(tmp_path / "expected-hist.csv"))
    code, _ = _run(
        capsys,
        ["sample", "--model", "r-pair", "--n", "9", "--samples", "25001", "--seed", "1",
         "--output", str(tmp_path / "out.csv"), "--emit-histogram", str(tmp_path / "hist.csv")],
    )
    assert code == 0
    # compared line by line, so that a mismatch reports its first line
    written = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert written.splitlines(keepends=True) == table.splitlines(keepends=True)
    assert (tmp_path / "hist.csv").read_bytes() == (tmp_path / "expected-hist.csv").read_bytes()


def _sample_peak_mib(n, samples, path):
    """tracemalloc peak of one r-pair `sample` run, in MiB."""
    tracemalloc.start()
    try:
        code = main(
            ["sample", "--model", "r-pair", "--n", str(n), "--samples", str(samples),
             "--output", str(path)]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / 2**20


def test_sample_memory_does_not_grow_with_samples(tmp_path):
    # six blocks, each written in slices of about 10,000 cells: 1.5 MiB
    # measured; bound at twice that (one whole block in memory is 12.8 MiB)
    peak = _sample_peak_mib(9, 60_000, tmp_path / "out.csv")
    assert peak < 3.0, peak


def test_sample_memory_does_not_grow_with_n(tmp_path):
    # max(1, 10,000 // n) rows per slice keep the cells per slice fixed:
    # 2.0 MiB measured at n = 60; bound at twice that (one whole block in
    # memory is 85.9 MiB)
    peak = _sample_peak_mib(60, 10_000, tmp_path / "out.csv")
    assert peak < 4.0, peak


def test_sample_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(streams, "_BLOCK", 5)
    entry = gaps.MODELS["r-pair"]
    calls = []

    def failing(stream, n, size, a):
        calls.append(size)
        if len(calls) == 2:
            raise ValueError("pair split")
        return entry.draw(stream, n, size, a)

    monkeypatch.setitem(gaps.MODELS, "r-pair", entry._replace(draw=failing))
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="pair split"):
        main(["sample", "--model", "r-pair", "--n", "4", "--samples", "12", "--output", str(path)])
    assert len(calls) == 2
    assert not os.path.exists(path)


def _sample_model_choices():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (model,) = [a for a in subs.choices["sample"]._actions if a.dest == "model"]
    return tuple(model.choices)


def test_sample_models_are_the_model_table(capsys):
    assert _sample_model_choices() == tuple(gaps.MODELS)
    least = {name: model.least_order for name, model in gaps.MODELS.items()}
    assert {name for name, order in least.items() if order != 1} == {"ague", "t", "even-dec"}
    assert set(least.values()) == {1, 2}
    for name, order in least.items():
        # each model samples at its least order and refuses the order below
        argv = ["sample", "--model", name, "--samples", "2"]
        argv += ["--a", "0.5", "--n"] if name == "lue" else ["--n"]
        assert _run(capsys, argv + [str(order)])[0] == 0, name
        with pytest.raises(SystemExit) as err:
            main(argv + [str(order - 1)])
        assert err.value.code == 2, name


def test_sample_looks_up_its_kernel_when_called(capsys, monkeypatch):
    # the table holds no kernel object: a kernel rebound on gaps, as a
    # tracer or a test double does, is the one that runs
    sizes = []

    def counted(*args, inner=gaps.r_pair_sv_batch):
        sizes.append(args[2])
        return inner(*args)

    monkeypatch.setattr(gaps, "r_pair_sv_batch", counted)
    code, out = _run(capsys, ["sample", "--model", "r-pair", "--n", "4", "--samples", "3"])
    assert code == 0 and sizes == [3]
    assert len(_parse_csv(out)[1]) == 3 * 4


# ---------------------------------------------------------------------------
# exit codes and argument validation


def test_usage_errors_exit_two():
    for argv in (
        ["bogus"],
        ["sample", "--model", "nope", "--n", "2"],
        ["sample", "--model", "lue", "--n", "2"],  # missing --a
        ["sample", "--model", "goe", "--n", "0"],
        ["clt", "--samples", "-5"],
        ["gaps", "--s", "0"],
        ["verify-models", "--samples", "0"],
        ["det", "--samples", "0"],
        ["det", "--samples", "1"],  # a sample standard error needs two
        ["clt", "--samples", "0"],
        ["gaps", "--samples", "0"],
        ["duality", "--samples", "0"],
        ["all", "--samples", "0"],
        ["verify-interlace", "--samples", "-1"],
        ["verify-densities", "--samples", "5"],  # exact checks take no --samples
        ["clt", "--n", "1"],
        ["clt", "--var-n", "1"],
        ["clt", "--var-n", "2"],
        ["sample", "--model", "ague", "--n", "1"],
        ["sample", "--model", "t", "--n", "1"],
        ["sample", "--model", "even-dec", "--n", "1"],
        ["gaps", "--s", "nan"],
        ["duality", "--t", "nan"],
        ["duality", "--alpha", "0"],
        ["duality", "--alpha", "-1"],
        ["sample", "--model", "lue", "--n", "3", "--a", "nan"],
        ["sample", "--model", "lue", "--n", "3", "--a", "inf"],
        ["sample", "--model", "lue", "--n", "3", "--a", "1e308"],  # 2(a + n) overflows
        ["sample", "--model", "goe", "--n", "2", "--a", "0.5"],  # only lue takes --a
        ["sample", "--model", "r-pair", "--n", "3", "--a", "0.5"],
        [],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_clt_and_all_need_two_samples(capsys):
    # the variance ratio of one sample would be nan, with a failing row
    for argv in (["clt", "--samples", "1"], ["all", "--samples", "1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        out, errs = capsys.readouterr()
        assert out == ""
        assert "usage:" in errs and "--samples must be >= 2" in errs


def _loaded_by_cli_import(module, argv=()):
    """Whether a fresh `import goesv.cli` loads module, also after running
    main(argv) when argv is given."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = f"goesv.cli.main({[*argv, '--output', os.devnull]!r}); " if argv else ""
    probe = f"import sys, goesv.cli; {run}print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_import_leaves_out_scipy_integrate():
    # The CLI needs no quadrature of its own, and every start would pay
    # for loading one.
    assert not _loaded_by_cli_import("scipy.integrate")


def test_import_leaves_out_scipy_linalg():
    # No subcommand needs it, and it would add about 60 ms and 4.6 MiB to
    # every start; `gaps` counts its GOE eigenvalues and solves none.
    assert not _loaded_by_cli_import("scipy.linalg")
    assert not _loaded_by_cli_import("scipy.linalg", ["gaps", "--n", "9", "--samples", "200"])


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "goesv", "--version"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == cli.__version__


def test_closed_stdout_exits_one_without_traceback():
    # the reader keeps two lines of a table far larger than the pipe buffer
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["sample", "--model", "r-pair", "--n", "9", "--samples", "20000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "goesv", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head[0] == b",".join(c.encode() for c in SAMPLE_COLUMNS) + b"\n"
    assert proc.returncode == 1
    assert err == b""


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_parser_declares_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "sample",
        "verify-models",
        "verify-interlace",
        "verify-densities",
        "det",
        "clt",
        "gaps",
        "duality",
        "all",
    ):
        assert name in text


# ---------------------------------------------------------------------------
# verification subcommands (small budgets; exit 0 means all rows passed)


def _record_rows(out):
    header, rows = _parse_csv(out)
    assert tuple(header) == RECORD_COLUMNS
    return [dict(zip(header, r)) for r in rows]


def test_verify_interlace_records(capsys):
    code, out = _run(capsys, ["verify-interlace", "--configs", "25", "--seed", "3"])
    assert code == 0
    rows = _record_rows(out)
    metrics = {r["metric"] for r in rows}
    assert {
        "roundtrip_max_rel",
        "conservation_max_rel",
        "product_identity_max_rel",
        "jacobian_fd_max_rel",
    } <= metrics
    for r in rows:
        assert r["passed"] == "pass"
        assert r["version"] != ""
        assert float(r["value"]) <= float(r["tolerance"])


def test_verify_densities_records(capsys):
    code, out = _run(capsys, ["verify-densities", "--configs", "5", "--seed", "4"])
    assert code == 0
    rows = _record_rows(out)
    assert all(r["passed"] == "pass" for r in rows if r["tolerance"] != "")
    assert any(r["metric"] == "joint_mass_dev" for r in rows)


def test_gaps_records(capsys):
    code, out = _run(
        capsys,
        ["gaps", "--n", "3", "--k", "0", "--s", "1.0", "--samples", "30000", "--seed", "5"],
    )
    assert code == 0
    rows = _record_rows(out)
    by_metric = {r["metric"]: r for r in rows}
    # all three estimation routes reported, with binomial errors
    for name in ("p_hat:paired_counts", "p_hat:skew", "p_hat:laguerre"):
        assert 0.0 < float(by_metric[name]["value"]) < 1.0
        assert float(by_metric[name]["stderr"]) > 0.0
    # the analytic cross-check fires on the n=3, k=0 configuration
    assert "analytic_dev:skew" in by_metric
    assert by_metric["counting_lemma_fail_rate"]["value"] == "0"
    assert all(r["passed"] == "pass" for r in rows if r["tolerance"] != "")


def test_gaps_solves_each_goe_block_once(capsys, monkeypatch):
    # 25,001 samples make blocks of 10,000, 10,000 and 5,001: one signed
    # tridiagonal GOE count each, and no dense GOE solve
    calls = {"goe_count_batch": 0, "goe_eigenvalues_batch": 0, "goe_abs_batch": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(gaps, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(gaps, name, counted)
    code, _ = _run(capsys, ["gaps", "--n", "5", "--samples", "25001"])
    assert code == 0
    assert calls == {"goe_count_batch": 3, "goe_eigenvalues_batch": 0, "goe_abs_batch": 0}


def test_gaps_lemma_row_is_computed(capsys, monkeypatch):
    # a lemma verdict failing on one row per block must show in the record
    holds = gaps._lemma_holds

    def one_fails(mat, s):
        out = holds(mat, s)
        out[0] = False
        return out

    monkeypatch.setattr(gaps, "_lemma_holds", one_fails)
    code, out = _run(capsys, ["gaps", "--n", "4", "--samples", "200"])
    assert code == 1
    row = {r["metric"]: r for r in _record_rows(out)}["counting_lemma_fail_rate"]
    assert float(row["value"]) > 0.0 and row["passed"] == "fail"


def _planted_lemma(mu_shift, start):
    """_lemma_holds with mu taken at order n + mu_shift and the even
    locations counted from index start."""

    def holds(mat, s):
        mu = (mat.shape[1] + mu_shift) % 2
        k, total = gaps._counts(mat[:, start::2], 0, s), gaps._counts(mat, 0, s)
        return (total == 2 * k + mu - 1) | (total == 2 * k + mu)

    return holds


@pytest.mark.parametrize("n", ("4", "5"))
def test_gaps_lemma_row_catches_a_parity_error(capsys, monkeypatch, n):
    # the lemma check covers every count c = 0..n, so a parity slip in
    # _lemma_holds fails the row at either parity of n
    for (mu_shift, start), passed in (((0, 1), "pass"), ((1, 1), "fail"), ((0, 0), "fail")):
        monkeypatch.setattr(gaps, "_lemma_holds", _planted_lemma(mu_shift, start))
        code, out = _run(capsys, ["gaps", "--n", n, "--samples", "200"])
        row = {r["metric"]: r for r in _record_rows(out)}["counting_lemma_fail_rate"]
        assert row["passed"] == passed, (mu_shift, start)
        assert (float(row["value"]) > 0.0) == (passed == "fail")
        assert code == (passed == "fail")


def test_gaps_at_a_huge_finite_s_counts_every_point(capsys):
    # s * s rounds to inf where s**2 would raise OverflowError
    argv = ["gaps", "--n", "3", "--k", "0", "--samples", "2000", "--format", "json"]
    p_hats = []
    for s in ("1e300", "inf"):
        code, out = _run(capsys, argv + ["--s", s])
        assert code == 0
        p_hats.append([(r["metric"], r["value"]) for r in json.loads(out)
                       if r["metric"].startswith("p_hat")])
    assert p_hats[0] == p_hats[1] and len(p_hats[0]) == 3
    assert capsys.readouterr().err == ""


def _table_without_wall_time(fmt, out):
    if fmt == "json":
        rows = json.loads(out)
    else:
        header, body = _parse_csv(out)
        rows = [dict(zip(header, row)) for row in body]
    for row in rows:
        del row["wall_time_s"]
    return rows


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize(
    "argv",
    (
        ["gaps", "--n", "1", "--k", "0", "--samples", "3000"],
        ["gaps", "--n", "3", "--k", "0", "--samples", "12000"],
        ["gaps", "--n", "9", "--k", "1", "--samples", "3000"],
        ["gaps", "--n", "100", "--k", "4", "--samples", "300"],
        ["clt", "--n", "300", "--beta", "1", "2", "--var-n", "40", "--samples", "3000"],
        ["verify-models", "--n", "1", "--samples", "500"],
        ["verify-models", "--n", "2", "--samples", "500"],
        # at n = 9 a tenth of the budget takes two chunks of 2,000 samples
        ["verify-models", "--n", "5", "9", "--samples", "2000"],
    ),
)
def test_concurrent_routes_leave_records_unchanged(argv, fmt, capsys, monkeypatch):
    tables = []
    for workers in (1, 2):
        monkeypatch.setattr(streams, "_max_workers", lambda workers=workers: workers)
        code, out = _run(capsys, argv + ["--seed", "4", "--format", fmt])
        tables.append((code, _table_without_wall_time(fmt, out)))
    assert tables[0] == tables[1]


def _meet_at_barrier(monkeypatch, timeout, module, names):
    """Make two route kernels, as module calls them, wait for each other."""
    barrier = threading.Barrier(2, timeout=timeout)
    for name in names:
        def met(*args, inner=getattr(module, name)):
            barrier.wait()
            return inner(*args)

        monkeypatch.setattr(module, name, met)


def _check_routes_overlap(monkeypatch, module, names, run):
    """run() at two workers, where each kernel is called once and meets
    the other; at one worker it must break the barrier."""
    _meet_at_barrier(monkeypatch, 60.0, module, names)
    monkeypatch.setattr(streams, "_max_workers", lambda: 2)
    result = run()
    # one at a time, the first route waits for a second that never comes
    _meet_at_barrier(monkeypatch, 0.2, module, names)
    monkeypatch.setattr(streams, "_max_workers", lambda: 1)
    with pytest.raises(threading.BrokenBarrierError):
        run()
    return result


def test_gaps_routes_overlap_with_two_workers(monkeypatch):
    # one block per route
    report = _check_routes_overlap(
        monkeypatch,
        gaps,
        ("goe_count_batch", "t_count_batch"),
        lambda: gaps.verify_gap_identity(4, 0, 1.0, 500, 1),
    )
    assert report.lemma == 1.0


def test_verify_models_routes_overlap_with_two_workers(monkeypatch):
    # the bordered and tridiagonal routes of one order
    args = build_parser().parse_args(["verify-models", "--n", "4", "--samples", "500"])
    _check_routes_overlap(
        monkeypatch,
        cli,
        ("h_sv_batch", "t_sv_batch"),
        lambda: cli.cmd_verify_models(args, cli.Recorder(args)),
    )


def test_superposition_reports_do_not_depend_on_workers(monkeypatch):
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(streams, "_max_workers", lambda workers=workers: workers)
        reports.append(gaps.verify_superposition(5, 3000, 2))
    assert reports[0] == reports[1]


def test_duality_records(capsys):
    code, out = _run(
        capsys,
        ["duality", "--m", "2", "--alpha", "1", "--samples", "20000", "--seed", "6"],
    )
    assert code == 0
    rows = _record_rows(out)
    metrics = [r["metric"] for r in rows]
    assert "padding_residual:alpha1" in metrics
    assert "residual:alpha1" in metrics


def test_clt_records(capsys):
    # Default order 2000 with the real-symmetric ensemble; the normalized
    # statistic must sit within KS distance 0.03 of the standard normal.
    code, out = _run(capsys, ["clt", "--samples", "20000", "--seed", "0"])
    assert code == 0
    rows = _record_rows(out)
    by_metric = {r["metric"]: r for r in rows}
    ks_row = by_metric["ks_normal_distance:beta1"]
    assert float(ks_row["value"]) <= 0.03
    assert ks_row["passed"] == "pass"
    ratio = float(by_metric["z_var_ratio"]["value"])
    assert 1.9 < ratio < 2.1


def test_clt_records_beta_two(capsys):
    # The complex case is held against its exact finite-n law; its distance
    # to the standard normal (about 0.09 at n = 2000) is informational.
    code, out = _run(capsys, ["clt", "--beta", "2", "--samples", "20000", "--seed", "0"])
    assert code == 0
    by_metric = {r["metric"]: r for r in _record_rows(out)}
    exact_row = by_metric["ks_exact_distance:beta2"]
    assert float(exact_row["value"]) <= 0.03
    assert exact_row["passed"] == "pass"
    normal_row = by_metric["ks_normal_distance:beta2"]
    assert normal_row["passed"] == "" and normal_row["tolerance"] == ""
    assert float(normal_row["value"]) > 0.03


def test_verify_models_small(capsys):
    code, out = _run(
        capsys, ["verify-models", "--n", "3", "--samples", "4000", "--seed", "2"]
    )
    assert code == 0
    rows = _record_rows(out)
    labels = {r["metric"].split(":")[1] for r in rows if r["metric"].startswith("ks_p")}
    assert {
        "bordered",
        "lower-pair",
        "upper-pair",
        "decimation-skew",
        "tridiagonal-skew",
        "superposition",
    } <= labels
    assert all(r["passed"] == "pass" for r in rows)


def test_record_rows_json(capsys):
    code, out = _run(
        capsys,
        ["verify-interlace", "--configs", "5", "--seed", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload[0]) == set(RECORD_COLUMNS)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: verify-models draws its superposition from the "
    "streams (seed + 1, 0..2), which verify-models at seed + 1 also draws from",
)
def test_verify_models_streams_differ_across_seeds(capsys, monkeypatch):
    init = streams.RandStream.__init__
    keys = {}
    for seed in (1, 2):
        built = keys[seed] = set()

        def recording(self, *args, built=built, **kwargs):
            init(self, *args, **kwargs)
            built.add((self.seed, self.stream_id))

        monkeypatch.setattr(streams.RandStream, "__init__", recording)
        _run(capsys, ["verify-models", "--n", "2", "--samples", "10", "--seed", str(seed)])
    assert keys[1].isdisjoint(keys[2]), sorted(keys[1] & keys[2])


# ---------------------------------------------------------------------------
# `all` and the error row


def _json_records(capsys, argv):
    """(exit status, record rows without wall_time_s) of a JSON run."""
    code, out = _run(capsys, argv + ["--format", "json"])
    rows = json.loads(out)
    for row in rows:
        del row["wall_time_s"]
    return code, rows


def test_all_equals_its_subcommands_in_order(capsys):
    budget = ["--samples", "2000"]
    code, rows = _json_records(capsys, ["all", *budget, "--seed", "1"])
    parts = [
        _json_records(capsys, sub + ["--seed", "1"])
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
    assert rows == [row for _, part in parts for row in part]
    assert code == max(c for c, _ in parts)
    # the exact checks draw no Monte Carlo samples
    exact = {"verify-interlace", "verify-densities"}
    assert {r["samples"] for r in rows if r["experiment"] in exact} == {0}


def test_all_runs_clt_at_its_own_budget(capsys, monkeypatch):
    # clt's fixed 0.03 KS bar on the beta = 1 row was set for its default
    # 20,000 samples; at all's reduced budgets it failed on valid code
    samples = {}

    def record(args, rec):
        samples[args.subcommand] = getattr(args, "samples", 0)

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, record))
    code, _ = _run(capsys, ["all", "--samples", "2000"])
    assert code == 0
    assert samples == {
        "verify-models": 2000, "verify-interlace": 0, "verify-densities": 0, "det": 2000,
        "clt": 20_000, "gaps": 2000, "duality": 2000,
    }


def test_numeric_error_writes_one_error_row(capsys, monkeypatch):
    _, clean = _json_records(capsys, ["all", "--samples", "50"])

    def boom(*args):
        raise ValueError("boom")

    def singular(*args):
        raise np.linalg.LinAlgError("boom")

    # raised before any row exists, after six rows (three p_hat, three
    # residual) of the n = 3, k = 0 configuration: those rows are dropped,
    # and on a route's worker thread (the skew route of gaps, the bordered
    # route of verify-models), which must not outlive the run
    before = threading.active_count()
    for module, name, fail, argv in (
        (gaps, "verify_gap_identity", boom, ["gaps", "--samples", "10"]),
        (cli.special, "gammaincc", boom, ["gaps", "--n", "3", "--k", "0", "--samples", "10"]),
        (gaps, "t_count_batch", singular, ["gaps", "--samples", "10"]),
        (cli, "h_sv_batch", singular, ["verify-models", "--n", "3", "--samples", "10"]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(streams, "_max_workers", lambda: 2)
            patch.setattr(module, name, fail)
            code, out = _run(capsys, argv)
        assert code == 1
        (row,) = _record_rows(out)
        assert (row["experiment"], row["metric"], row["passed"], row["note"]) == (
            argv[0], "error", "fail", "boom"
        )
        assert threading.active_count() == before

    monkeypatch.setattr(gaps, "verify_gap_identity", boom)

    code, rows = _json_records(capsys, ["all", "--samples", "50"])
    assert code == 1
    experiments = [r["experiment"] for r in rows]
    at = experiments.index("gaps")
    assert experiments[at - 1] == "clt" and experiments[at + 1] == "duality"
    assert (rows[at]["metric"], rows[at]["passed"], rows[at]["note"]) == ("error", "fail", "boom")
    assert rows[:at] + rows[at + 1:] == [r for r in clean if r["experiment"] != "gaps"]
