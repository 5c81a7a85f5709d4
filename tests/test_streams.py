"""Stream keying, substream splitting, concurrent routes, and the scalar
chi toolbox."""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from goesv import cli, streams
from goesv.gaps import ks_one_sample
from goesv.streams import (
    RandStream,
    _blocks,
    _concurrently,
    _max_workers,
    chi_cdf,
    chi_pdf,
    sample_chi,
)


def test_equal_keys_replay_identical_sequences():
    a = RandStream(123, 4).rng.standard_normal(64)
    b = RandStream(123, 4).rng.standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_decorrelate():
    a = RandStream(123, 0).rng.standard_normal(20_000)
    b = RandStream(123, 1).rng.standard_normal(20_000)
    assert not np.array_equal(a[:64], b[:64])
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(20_000)


def test_substreams_deterministic_and_distinct():
    root = RandStream(9, 2)
    again = RandStream(9, 2)
    c1 = root.substream(5).rng.standard_normal(32)
    c2 = again.substream(5).rng.standard_normal(32)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, root.substream(6).rng.standard_normal(32))
    # nested splitting keeps the full key path
    d1 = root.substream(5).substream(0).rng.standard_normal(8)
    d2 = again.substream(5).substream(0).rng.standard_normal(8)
    assert np.array_equal(d1, d2)


def test_blocks_cut_the_budget_and_draw_block_b_from_substream_b():
    root = RandStream(12, 3)
    cases = ((0, []), (1, [1]), (10_000, [10_000]), (25_001, [10_000, 10_000, 5_001]))
    for n_samples, sizes in cases:
        blocks = list(_blocks(root, n_samples))
        assert [size for _, size in blocks] == sizes
        for b, (stream, _) in enumerate(blocks):
            expect = root.substream(b).rng.standard_normal(8)
            assert np.array_equal(stream.rng.standard_normal(8), expect)


def test_concurrently_returns_results_in_argument_order(monkeypatch):
    monkeypatch.setattr(streams, "_max_workers", lambda: 3)

    def late(value, delay):
        def call():
            time.sleep(delay)
            return value

        return call

    assert _concurrently(late("a", 0.2), late("b", 0.0), late("c", 0.1)) == ["a", "b", "c"]
    assert _concurrently() == []


def test_concurrently_raises_first_failure_after_every_call(monkeypatch):
    monkeypatch.setattr(streams, "_max_workers", lambda: 3)
    finished = []

    def fail(name, delay):
        def call():
            time.sleep(delay)
            finished.append(name)
            raise ValueError(name)

        return call

    def slow():
        time.sleep(0.3)
        finished.append("slow")

    before = threading.active_count()
    # the second call fails first in time, the first is first in order
    with pytest.raises(ValueError, match="first"):
        _concurrently(fail("first", 0.1), fail("second", 0.0), slow)
    assert sorted(finished) == ["first", "second", "slow"]
    assert threading.active_count() == before


def test_concurrently_with_one_worker_runs_in_order_on_the_caller(monkeypatch):
    seen = []

    def call(i):
        return lambda: seen.append((i, threading.get_ident()))

    monkeypatch.setattr(streams, "_max_workers", lambda: 1)
    _concurrently(call(0), call(1), call(2))
    # more workers than calls: one call still runs on the caller
    monkeypatch.setattr(streams, "_max_workers", lambda: 2)
    _concurrently(call(3))
    assert seen == [(i, threading.get_ident()) for i in range(4)]


def test_routes_of_one_call_share_the_budget(monkeypatch):
    def limits(k):
        return [lambda: streams._chunk_limit(81)] * k

    whole = streams._chunk_limit(81)
    assert whole == int(streams._CHUNK_FLOATS / 81)
    monkeypatch.setattr(streams, "_max_workers", lambda: 2)
    for k in (2, 3, 10):
        assert _concurrently(*limits(k)) == [int(streams._CHUNK_FLOATS / k / 81)] * k
    # a route that runs routes of its own splits its share again
    nested = _concurrently(*[lambda: _concurrently(*limits(2))] * 3)
    assert nested == [[int(streams._CHUNK_FLOATS / 6 / 81)] * 2] * 3
    # the caller keeps the whole budget, before and after
    assert streams._chunk_limit(81) == whole
    # one worker runs every call on the caller, under the whole budget
    monkeypatch.setattr(streams, "_max_workers", lambda: 1)
    assert _concurrently(*limits(3)) == [whole] * 3


def test_overlapped_verify_models_peaks_no_higher(monkeypatch, capsys):
    # two routes in flight would need two budgets if each kept its own
    argv = ["verify-models", "--n", "9", "--samples", "20000"]
    peaks = []
    for workers in (1, 2):
        monkeypatch.setattr(streams, "_max_workers", lambda workers=workers: workers)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[1] <= peaks[0], peaks


def test_max_workers_is_cores_over_blas_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in streams._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # unpinned BLAS takes every core
    assert _max_workers() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _max_workers() == 2
    # the smallest positive integer of the variables counts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert _max_workers() == 2
    monkeypatch.setenv("MKL_NUM_THREADS", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "many")
    assert _max_workers() == 1
    # without an affinity mask, the core count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _max_workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _max_workers() == 1


def test_invalid_keys_rejected():
    with pytest.raises(ValueError):
        RandStream(-1)
    with pytest.raises(ValueError):
        RandStream(0, -2)
    with pytest.raises(ValueError):
        RandStream(0).substream(-1)


def test_chi_pdf_is_derivative_of_cdf():
    for k in (1, 2, 3.5, 7):
        for x in (0.3, 1.0, 2.2):
            mass, _ = integrate.quad(chi_pdf, 0.0, x, args=(k,))
            assert mass == pytest.approx(chi_cdf(x, k), abs=1e-10)


def test_chi_pdf_support_and_total_mass():
    assert chi_pdf(-1.0, 3) == 0.0
    assert chi_pdf(0.0, 3) == 0.0
    total, _ = integrate.quad(chi_pdf, 0.0, np.inf, args=(2.5,))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_chi_cdf_bounds_and_validation():
    assert chi_cdf(-2.0, 4) == 0.0
    assert chi_cdf(50.0, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chi_cdf(1.0, 0)
    with pytest.raises(ValueError):
        chi_pdf(1.0, -1)
    with pytest.raises(ValueError):
        sample_chi(RandStream(0), 0.0)


def test_chi_samples_match_analytic_cdf():
    stream = RandStream(7)
    for k in (1, 2, 5, 4.5):
        x = sample_chi(stream, k, size=20_000)
        report = ks_one_sample(x, lambda v, k=k: chi_cdf(v, k))
        assert report.p_value > 1e-3


def test_chi_sample_mean_matches_exact_moment(chi_mean):
    stream = RandStream(11)
    for k in (1, 4, 9):
        x = sample_chi(stream, k, size=40_000)
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - chi_mean(k)) < 4.0 * se
