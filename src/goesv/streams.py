"""Deterministic, splittable random streams and the chi-type scalar draws.

Every sampler in this package consumes a RandStream.  A stream is keyed by
(seed, stream_id): equal keys replay the identical sequence, distinct keys
give statistically independent generators.  Block-drawn Monte Carlo
drivers cut their budget into fixed 10,000-sample blocks with _blocks,
block b drawn from substream b of the root stream, so results are a pure
function of (seed, samples).

Batch kernels cut their samples into chunks of rows under one float
budget (_chunk_limit) and draw one sample-major array per chunk, so
consecutive chunks consume the stream exactly as one large chunk would:
the chunk size changes memory, never a seeded output.  (The tridiagonal
GOE kernel draws every diagonal of its call before its chunks, which
keeps that property.)

Routes that draw from distinct keyed streams are independent, and
_concurrently overlaps them on threads (LAPACK and numpy's generators
release the GIL) when the cores allow more than the BLAS threads use.
The routes of one _concurrently call share one float budget: on a route
thread _chunk_limit divides it by the number of calls (times the share of
the route that made the call, when calls nest), so however many routes
are in flight their working arrays add up to one budget at most.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special


class RandStream:
    """Stateful random stream keyed by (seed, stream_id).

    Parameters
    ----------
    seed : int
        Nonnegative base seed, shared by all streams of one experiment.
    stream_id : int
        Nonnegative shard index.  Streams with distinct ids are independent.

    Notes
    -----
    Internally a PCG64 generator keyed through a seed sequence with
    spawn_key (stream_id, ...), the hash-based splitting scheme, so
    independence across ids holds by construction rather than by jumping
    a shared state.  The stream is single-owner: never share one instance
    across concurrent workers, spawn substreams instead.
    """

    def __init__(self, seed, stream_id=0, _subkey=()):
        seed = int(seed)
        stream_id = int(stream_id)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if stream_id < 0:
            raise ValueError("stream_id must be nonnegative")
        self.seed = seed
        self.stream_id = stream_id
        self._key = (stream_id,) + tuple(int(k) for k in _subkey)
        self.rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=self._key)
        )

    def substream(self, index):
        """Independent child stream, deterministic in (seed, stream_id, index)."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RandStream(self.seed, self.stream_id, _subkey=self._key[1:] + (index,))

    def __repr__(self):
        return f"RandStream(seed={self.seed}, key={self._key})"


# samples per substream block; a block-drawn estimate depends only on (seed, N)
_BLOCK = 10_000


def _blocks(root, n_samples):
    """(substream b of root, size) for each fixed block of the budget."""
    for b, lo in enumerate(range(0, n_samples, _BLOCK)):
        yield root.substream(b), min(_BLOCK, n_samples - lo)


# floats per sample row times rows per chunk stays below this budget
# (1.25e6 doubles, 10 MB per working array of a batch kernel)
_CHUNK_FLOATS = 1_250_000

# share: how many routes split the budget on this thread; set only on the
# route threads of _concurrently, so callers keep the whole budget
_route = threading.local()


def _chunk_limit(ncols):
    """Rows per chunk for arrays of ncols floats per sample, under this
    thread's share of the budget."""
    return max(1, int(_CHUNK_FLOATS / getattr(_route, "share", 1) / max(ncols, 1)))


def _chunks(size, limit):
    """(lo, hi) bounds of consecutive chunks of at most limit rows."""
    done = 0
    while done < size:
        yield done, min(done + limit, size)
        done = min(done + limit, size)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _max_workers():
    """Route threads the machine takes: cores // BLAS threads, at least 1.

    BLAS threads are the smallest positive integer set in the BLAS thread
    variables, and every core when none is set, so routes overlap only
    where BLAS leaves cores idle.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    pinned = [os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS]
    blas = [int(v) for v in pinned if v.isdigit() and int(v) > 0]
    return max(1, cores // (min(blas) if blas else cores))


def _run_route(share, call):
    """call() with this thread's _chunk_limit budget divided by share."""
    _route.share = share
    try:
        return call()
    finally:
        del _route.share


def _concurrently(*calls):
    """Results of the zero-argument calls, in argument order.

    Up to _max_workers() threads run them; with one, they run in order on
    the calling thread under its budget.  Otherwise each call gets its
    share of the caller's budget, and every call finishes before the
    first failure in argument order is raised.
    """
    workers = min(_max_workers(), len(calls))
    if workers <= 1:
        return [call() for call in calls]
    # imported here: it costs every start of the CLI about 8 ms
    from concurrent.futures import ThreadPoolExecutor

    share = len(calls) * getattr(_route, "share", 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_route, share, call) for call in calls]
    return [future.result() for future in futures]


@dataclass(frozen=True)
class ChiDraws:
    """A vector of independent chi-distributed values and their degrees.

    values[k] is distributed as chi with degrees[k] degrees of freedom.
    """

    values: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "degrees", np.asarray(self.degrees, dtype=float))
        if self.values.shape != self.degrees.shape:
            raise ValueError("values and degrees must have equal length")

    def __len__(self):
        return self.values.size


def sample_chi(stream, k, size=None):
    """chi_k draw(s): the square root of a chi-squared variable with k dof.

    k may be any positive real, which covers the half-integer degrees the
    Laguerre sampler needs; the underlying gamma sampler is valid for all
    shapes >= 1/2 and below.
    """
    if not k > 0:
        raise ValueError("degrees of freedom must be positive")
    return np.sqrt(stream.rng.chisquare(k, size=size))


def chi_cdf(x, k):
    """Analytic chi_k CDF via the regularized lower incomplete gamma."""
    if not k > 0:
        raise ValueError("degrees of freedom must be positive")
    x = np.asarray(x, dtype=float)
    out = special.gammainc(k / 2.0, np.square(np.clip(x, 0.0, None)) / 2.0)
    return out if out.shape else float(out)


def chi_pdf(x, k):
    """chi_k density, zero for x <= 0."""
    if not k > 0:
        raise ValueError("degrees of freedom must be positive")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = (
            (1.0 - k / 2.0) * np.log(2.0)
            - special.gammaln(k / 2.0)
            + (k - 1.0) * np.log(x)
            - x * x / 2.0
        )
    out = np.where(x > 0, np.exp(logpdf), 0.0)
    return out if out.shape else float(out)
