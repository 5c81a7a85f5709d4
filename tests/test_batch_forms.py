"""One implementation per model: scalar forms, chunking and memory.

Each scalar sampler is its batch kernel at size 1, so the two agree bit
for bit on equal streams.  Kernels that draw one array per chunk give the
same output at any chunk size, which is what lets them size their chunks
by a float budget and keep memory bounded whatever n is.
"""

import tracemalloc

import numpy as np
import pytest

from goesv import streams
from goesv.dense import (
    ague_batch,
    ague_singular_values,
    goe_abs_batch,
    goe_eigenvalues_batch,
    gue_abs_batch,
    gue_singular_values,
    lue_batch,
    lue_eigenvalues,
    sample_goe,
    singular_values,
    symmetric_eigenvalues,
)
from goesv.determinant import (
    clt_decomposition,
    clt_yz_batch,
    goe_logdet_batch,
    goe_logdet_dense_batch,
    gue_logdet_batch,
    sample_absdet_goe_factored,
    sample_absdet_gue_factored,
)
from goesv.sparse import (
    b_pair_sv_batch,
    bidiag_singular_values,
    build_B_pair,
    build_R_pair,
    h_sv_batch,
    r_pair_sv_batch,
    sample_bordered_H,
    sample_tridiagonal_T,
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
        lambda s, n: np.linalg.svd(sample_tridiagonal_T(s, n), compute_uv=False),
        lambda s, n: t_sv_batch(s, n, 1, collapse=False)[0],
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
        lambda s, n: sample_absdet_goe_factored(s, n).logdet,
        lambda s, n: goe_logdet_batch(s, n, 1)[0],
    ),
    "gue-logdet": (
        lambda s, n: sample_absdet_gue_factored(s, n).logdet,
        lambda s, n: gue_logdet_batch(s, n, 1)[0],
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


# kernels that draw one array per chunk, so their output ignores chunk size
BUDGETED = {
    "goe-eig": goe_eigenvalues_batch,
    "goe-abs": goe_abs_batch,
    "ague": ague_batch,
    "t-collapsed": t_sv_batch,
    "t-full": lambda s, n, size: t_sv_batch(s, n, size, collapse=False),
    "b-pair": b_pair_sv_batch,
    "r-pair": r_pair_sv_batch,
    "goe-logdet-dense": goe_logdet_dense_batch,
}


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budgeted_kernels_ignore_chunk_size(name, n, monkeypatch):
    kernel = BUDGETED[name]
    whole = kernel(RandStream(3, n), n, 137)
    # 20 rows a chunk at n = 5, 31 at n = 4: seven or five chunks
    monkeypatch.setattr(streams, "_CHUNK_FLOATS", 500)
    assert streams._chunk_limit(n * n) < 137
    chunked = kernel(RandStream(3, n), n, 137)
    assert _identical(whole, chunked)


def test_goe_abs_batch_memory_is_bounded():
    # At n = 60 the 5e6-float budget allows 1,388 rows a chunk, so 5,000
    # samples take four chunks; one chunk of all 5,000 rows peaks near 280 MB.
    tracemalloc.start()
    try:
        goe_abs_batch(RandStream(1), 60, 5_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * streams._CHUNK_FLOATS * 8, peak
