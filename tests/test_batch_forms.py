"""One implementation per model: scalar forms, chunking and memory.

Each scalar sampler is its batch kernel at size 1, so the two agree bit
for bit on equal streams.  Every batch kernel draws one sample-major
array per chunk, so it gives the same output at any chunk size, which is
what lets it size its chunks by a float budget and keep memory bounded
whatever n is.
"""

import inspect
import tracemalloc
from functools import partial

import numpy as np
import pytest

from goesv import dense, determinant, sparse, streams
from goesv.dense import (
    ague_batch,
    ague_singular_values,
    goe_abs_batch,
    goe_eigenvalues_batch,
    gue_abs_batch,
    gue_singular_values,
    lue_batch,
    lue_count_batch,
    lue_eigenvalues,
    sample_goe,
    singular_values,
    symmetric_eigenvalues,
)
from goesv.determinant import (
    clt_decomposition,
    clt_yz_batch,
    logdet_batch,
    logdet_dense_batch,
    sample_absdet_factored,
    signed_logdet_goe_odd_batch,
)
from goesv.gaps import _wishart_eigs_batch, verify_wishart_duality
from goesv.sparse import (
    BidiagMatrix,
    b_pair_sv_batch,
    bidiag_singular_values,
    build_B_pair,
    build_R_pair,
    goe_count_batch,
    h_sv_batch,
    r_pair_sv_batch,
    sample_bordered_H,
    sample_tridiagonal_T,
    t_count_batch,
    t_sv_batch,
)
from goesv.streams import RandStream


def _identical(a, b):
    """Bit-for-bit equality of two arrays, or of two tuples of arrays."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pair_sv(pair):
    return tuple(bidiag_singular_values(b).values for b in pair)


def _row0(pair):
    return tuple(x[0] for x in pair)


def _t_half(tri):
    """T's m x (n - m) Golub-Kahan bidiagonal, read off its superdiagonal."""
    off = np.diag(tri, 1)
    n = tri.shape[0]
    return BidiagMatrix(diag=off[0::2], offdiag=off[1::2], rows=n // 2, cols=n - n // 2)


# (scalar sampler, batch kernel at size 1 reduced to its row 0)
SCALAR_BATCH = {
    "goe": (
        lambda s, n: symmetric_eigenvalues(sample_goe(s, n)).values,
        lambda s, n: goe_eigenvalues_batch(s, n, 1)[0],
    ),
    "ague": (
        lambda s, n: ague_singular_values(s, n).values,
        lambda s, n: ague_batch(s, n, 1)[0],
    ),
    "gue-abs": (
        lambda s, n: gue_singular_values(s, n).values,
        lambda s, n: gue_abs_batch(s, n, 1)[0],
    ),
    "lue": (
        lambda s, n: lue_eigenvalues(s, n, 0.5).values,
        lambda s, n: lue_batch(s, n, 0.5, 1)[0],
    ),
    "h-chi_n_e1": (
        lambda s, n: singular_values(sample_bordered_H(s, n).matrix()).values,
        lambda s, n: h_sv_batch(s, n, 1)[0],
    ),
    "h-gaussian": (
        lambda s, n: singular_values(sample_bordered_H(s, n, "gaussian").matrix()).values,
        lambda s, n: h_sv_batch(s, n, 1, border_kind="gaussian")[0],
    ),
    "t": (
        lambda s, n: bidiag_singular_values(_t_half(sample_tridiagonal_T(s, n))).values,
        lambda s, n: t_sv_batch(s, n, 1)[0],
    ),
    "b-pair": (
        lambda s, n: _pair_sv(build_B_pair(s, n)),
        lambda s, n: _row0(b_pair_sv_batch(s, n, 1)),
    ),
    "r-pair": (
        lambda s, n: _pair_sv(build_R_pair(s, n)),
        lambda s, n: _row0(r_pair_sv_batch(s, n, 1)),
    ),
    "goe-logdet": (
        lambda s, n: sample_absdet_factored(s, n, 1).logdet,
        lambda s, n: logdet_batch(s, n, 1, 1)[0],
    ),
    "gue-logdet": (
        lambda s, n: sample_absdet_factored(s, n, 2).logdet,
        lambda s, n: logdet_batch(s, n, 2, 1)[0],
    ),
    "clt-yz-beta1": (
        lambda s, n: clt_decomposition(s, n, 1),
        lambda s, n: _row0(clt_yz_batch(s, n, 1, 1)),
    ),
    "clt-yz-beta2": (
        lambda s, n: clt_decomposition(s, n, 2),
        lambda s, n: _row0(clt_yz_batch(s, n, 2, 1)),
    ),
}


@pytest.mark.parametrize("name", sorted(SCALAR_BATCH))
def test_scalar_sampler_is_batch_row_zero(name):
    scalar, batch = SCALAR_BATCH[name]
    for n in (2, 3, 4, 5, 9):
        for seed in range(3):
            # three draws in a row, so the scalar form also consumes the
            # stream exactly as the batch kernel does
            a, b = RandStream(seed, n), RandStream(seed, n)
            for _ in range(3):
                assert _identical(scalar(a, n), batch(b, n)), (n, seed)


def _at_odd_order(stream, n, size, kernel):
    return kernel(stream, 2 * n + 1, size)


# every batch kernel, as a draw(stream, n, size) at order n (the signed
# log-determinant at order 2n + 1, the Wishart kernel with p = n, m = 2)
BUDGETED = {
    "goe-eig": goe_eigenvalues_batch,
    "goe-abs": goe_abs_batch,
    "goe-tridiag": partial(goe_count_batch, s=1.0),
    "ague": ague_batch,
    "gue-abs": gue_abs_batch,
    "lue": partial(lue_batch, a=0.5),
    "lue-count": partial(lue_count_batch, a=0.5, x=1.0),
    "h-chi_n_e1": h_sv_batch,
    "h-gaussian": partial(h_sv_batch, border_kind="gaussian"),
    "t-collapsed": t_sv_batch,
    "t-count": partial(t_count_batch, x=1.0),
    "b-pair": b_pair_sv_batch,
    "r-pair": r_pair_sv_batch,
    "goe-logdet": partial(logdet_batch, beta=1),
    "gue-logdet": partial(logdet_batch, beta=2),
    "goe-logdet-dense": partial(logdet_dense_batch, beta=1),
    "gue-logdet-dense": partial(logdet_dense_batch, beta=2),
    "clt-yz-beta1": partial(clt_yz_batch, beta=1),
    "clt-yz-beta2": partial(clt_yz_batch, beta=2),
    "signed-logdet-odd": partial(_at_odd_order, kernel=signed_logdet_goe_odd_batch),
    "wishart": partial(_wishart_eigs_batch, m=2),
}


def _kernel(draw):
    """The batch kernel a BUDGETED draw calls."""
    if isinstance(draw, partial):
        return draw.keywords.get("kernel", draw.func)
    return draw


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budgeted_kernels_ignore_chunk_size(name, n, monkeypatch):
    draw = BUDGETED[name]
    whole = draw(RandStream(3, n), n, size=137)
    # 20 floats a chunk: every kernel's widest array has at least 3 floats
    # a sample at these orders, so 137 samples take at least 23 chunks
    monkeypatch.setattr(streams, "_CHUNK_FLOATS", 20)
    assert streams._chunk_limit(3) == 6
    chunked = draw(RandStream(3, n), n, size=137)
    assert _identical(whole, chunked)


def test_every_batch_kernel_is_budgeted():
    covered = {_kernel(draw) for draw in BUDGETED.values()}
    for module in (dense, sparse, determinant):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            public = fn.__module__ == module.__name__ and not name.startswith("_")
            draws = "stream" in inspect.signature(fn).parameters
            if public and draws and name.endswith("_batch"):
                assert fn in covered, name


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_goe_abs_batch_memory_is_bounded():
    # At n = 60 the 1.25e6-float budget allows 347 rows a chunk, so 5,000
    # samples take fifteen chunks; one chunk of all 5,000 rows peaks near 280 MB.
    peak = _peak_bytes(lambda: goe_abs_batch(RandStream(1), 60, 5_000))
    assert peak < 3 * streams._CHUNK_FLOATS * 8, peak


# one chunk holding every sample would peak at 417, 246, 288 and 430 MiB
MEMORY_BOUNDED = {
    "h": lambda: h_sv_batch(RandStream(1), 60, 5_000),
    "gue-abs": lambda: gue_abs_batch(RandStream(1), 40, 5_000),
    "lue": lambda: lue_batch(RandStream(1), 60, 0.5, 10_000),
    "duality": lambda: verify_wishart_duality(30, 1, 0, 1.0, 10_000, 1),
}


@pytest.mark.parametrize("name", sorted(MEMORY_BOUNDED))
def test_kernel_memory_is_bounded(name):
    peak = _peak_bytes(MEMORY_BOUNDED[name])
    assert peak < 160 * 2**20, peak


class _OutRecorder:
    """A stream whose generator notes the name of each draw and where each
    out= draw is written."""

    def __init__(self, stream):
        self._rng = stream.rng
        self.addresses = []
        self.draws = []

    @property
    def rng(self):
        return self

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            self.draws.append(name)
            if "out" in kwargs:
                self.addresses.append(kwargs["out"].__array_interface__["data"][0])
            return method(*args, **kwargs)

        return draw


# the kernels that gaps, clt and verify-models run as concurrent routes
# and that draw into a workspace, at sizes of three chunks or more under
# the default budget
ROUTE_KERNELS = {
    "goe-eig": lambda s: goe_eigenvalues_batch(s, 60, 1_000),
    "goe-tridiag": lambda s: goe_count_batch(s, 9, 280_000, 1.0),
    "ague": lambda s: ague_batch(s, 60, 1_000),
    "clt-yz-beta1": lambda s: clt_yz_batch(s, 2_000, 1, 4_000),
    "clt-yz-beta2": lambda s: clt_yz_batch(s, 2_000, 2, 2_000),
}


@pytest.mark.parametrize("name", sorted(ROUTE_KERNELS))
def test_route_kernels_draw_every_chunk_into_one_workspace(name):
    # A route's memory is then fixed from its first chunk on, so two
    # routes in flight peak at the same total whatever their timing.
    stream = _OutRecorder(RandStream(1))
    ROUTE_KERNELS[name](stream)
    assert len(stream.addresses) >= 3
    assert len(set(stream.addresses)) == 1


@pytest.mark.parametrize(
    "run",
    (
        lambda: goe_count_batch(RandStream(1), 60, 5_000, 1.0),
        lambda: lue_batch(RandStream(1), 60, 0.5, 5_000),
        lambda: lue_count_batch(RandStream(1), 60, 0.5, 5_000, 30.0),
        lambda: t_sv_batch(RandStream(1), 60, 5_000),
        lambda: t_count_batch(RandStream(1), 60, 5_000, 3.0),
        lambda: b_pair_sv_batch(RandStream(1), 60, 5_000),
        lambda: r_pair_sv_batch(RandStream(1), 60, 5_000),
        lambda: clt_yz_batch(RandStream(1), 600, 1, 5_000),
        lambda: clt_yz_batch(RandStream(1), 600, 2, 5_000),
    ),
    ids=(
        "goe-tridiag", "lue", "lue-count", "t", "t-count", "b-pair", "r-pair", "clt-yz-beta1",
        "clt-yz-beta2",
    ),
)
def test_one_working_array_kernels(run):
    # one budget-sized workspace; keeping the previous chunk's matrices
    # while the next is built (the chi-bidiagonal kernels), or taking logs
    # of the chi-squares out of place (clt), would double it
    assert _peak_bytes(run) < 1.5 * streams._CHUNK_FLOATS * 8


@pytest.mark.parametrize(
    "count",
    (
        lambda s: t_count_batch(s, 1000, 2_000, 1.0),
        lambda s: lue_count_batch(s, 500, 0.5, 2_000, 1.0),
    ),
    ids=("t-count", "lue-count"),
)
def test_count_kernels_chunk_by_their_own_footprint(count):
    # A count holds a few rows of 999 floats a sample, so the 1.25e6-float
    # budget takes 417 samples a chunk; sized by the dense 500 x 500
    # bidiagonal it took 2, and 2,000 samples took 1,000 chi draws.
    stream = _OutRecorder(RandStream(1))
    count(stream)
    assert stream.draws == ["chisquare"] * 5


def test_chisquare_rows_are_numpys_chisquare():
    df = np.concatenate([[1.0, 2000.0], np.arange(3.0, 2000.0, 2.0)])
    out = np.empty((7, df.size))
    determinant._chisquare_rows(RandStream(4).rng, df, out)
    assert _identical(out, RandStream(4).rng.chisquare(df, size=out.shape))
