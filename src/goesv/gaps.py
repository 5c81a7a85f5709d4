"""Monte Carlo gap probabilities and the finite-order identity checks.

E(k; J) denotes the probability that an interval J contains exactly k
points of a spectrum.  For |GOE_n| with n = 2m + mu the even-location
decimation turns counting in a symmetric interval into counting in a
half-open one:

    E_goe(2k+mu-1; (-s,s)) + E_goe(2k+mu; (-s,s))
        = E_ague(k; (0,s)) = E_lue(k; (0,s^2))  at parameter a = mu - 1/2,

with E(-1; J) = 0 by convention (the two left-hand events partition the
even-count event, sample by sample).  This module estimates each side by
Monte Carlo, checks the counting identity deterministically, compares a
complex-Gaussian singular-value spectrum against the union of two
independent decimations, and tests the integer-parameter duality between
Laguerre spectra of shifted order via zero-padded rectangular Gaussians.

It also houses MODELS, the one table of named matrix models behind
`goesv sample` and EnsembleSpec, and the small statistics kernel (ECDF,
Kolmogorov-Smirnov) the package and its tests lean on.

Every Monte Carlo estimate cuts its budget into the fixed 10,000-sample
blocks of streams._blocks, block b drawn from substream b of the root
stream, so an estimate is a pure function of (seed, N).  The three routes
of verify_gap_identity draw tridiagonal or bidiagonal models of
independent entries, the GOE as the Dumitriu-Edelman tridiagonal, the
anti-GUE as the tridiagonal model T and the LUE as its bidiagonal.  Each
route, and the Laguerre route of verify_wishart_duality, needs only how
many points lie in an interval, and counts them by Sturm inertia in O(n)
per sample, solving nothing.  The counting lemma of verify_gap_identity
reads no draw; it is checked exhaustively over the count in (0, s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .dense import (
    ParityFrame,
    ague_batch,
    goe_abs_batch,
    goe_eigenvalues_batch,
    gue_abs_batch,
    lue_batch,
    lue_count_batch,
)
from .sparse import (
    b_pair_sv_batch,
    goe_count_batch,
    h_sv_batch,
    r_pair_sv_batch,
    t_count_batch,
    t_sv_batch,
)
from .streams import RandStream, _blocks, _chunk_limit, _chunks, _concurrently


# ---------------------------------------------------------------------------
# statistics kernel


@dataclass(frozen=True)
class TwoSampleReport:
    """Kolmogorov-Smirnov comparison of two samples (or sample vs CDF)."""

    ks_distance: float
    p_value: float
    sample_sizes: tuple

    def __post_init__(self):
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")


def ecdf(a):
    """Right-continuous empirical CDF of the sample, as a callable."""
    srt = np.sort(np.asarray(a, dtype=float))
    if srt.size == 0:
        raise ValueError("empty sample")

    def f(x):
        out = np.searchsorted(srt, np.asarray(x, dtype=float), side="right") / srt.size
        return out if out.shape else float(out)

    return f


def ks_two_sample(a, b):
    """Sup distance between two empirical CDFs, with the asymptotic
    Kolmogorov p-value at the effective size sqrt(na*nb/(na+nb))."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    dist = float(np.max(np.abs(fa - fb)))
    eff = math.sqrt(a.size * b.size / (a.size + b.size))
    return TwoSampleReport(
        ks_distance=dist,
        p_value=float(special.kolmogorov(eff * dist)),
        sample_sizes=(int(a.size), int(b.size)),
    )


def ks_one_sample(a, cdf):
    """Sup distance between the sample ECDF and an analytic CDF."""
    a = np.sort(np.asarray(a, dtype=float))
    if a.size == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(a), dtype=float)
    steps = np.arange(1, a.size + 1) / a.size
    dist = float(max(np.max(steps - f), np.max(f - (steps - 1.0 / a.size))))
    dist = min(max(dist, 0.0), 1.0)
    return TwoSampleReport(
        ks_distance=dist,
        p_value=float(special.kolmogorov(math.sqrt(a.size) * dist)),
        sample_sizes=(int(a.size),),
    )


# ---------------------------------------------------------------------------
# gap estimators


class Model(NamedTuple):
    """A model of `goesv sample`: its least order, its component names, and
    its draw (stream, n, size, a) -> one (size, width) array per component,
    rows sorted decreasing; a is lue's Laguerre parameter."""

    least_order: int
    components: tuple
    draw: Callable


# Every model by name (skew and even-location spectra have n // 2 values,
# none at order 1).  A draw looks its kernel up by module-global name when
# called, so a kernel rebound on this module is the one that runs.
MODELS = {
    "goe": Model(1, ("eig",), lambda st, n, size, a: [goe_eigenvalues_batch(st, n, size)]),
    "goe-abs": Model(1, ("sv",), lambda st, n, size, a: [goe_abs_batch(st, n, size)]),
    "gue-abs": Model(1, ("sv",), lambda st, n, size, a: [gue_abs_batch(st, n, size)]),
    "ague": Model(2, ("sv",), lambda st, n, size, a: [ague_batch(st, n, size)]),
    "h": Model(1, ("sv",), lambda st, n, size, a: [h_sv_batch(st, n, size)]),
    "t": Model(2, ("sv",), lambda st, n, size, a: [t_sv_batch(st, n, size)]),
    "b-pair": Model(1, ("odd", "even"), lambda st, n, size, a: b_pair_sv_batch(st, n, size)),
    "r-pair": Model(1, ("odd", "even"), lambda st, n, size, a: r_pair_sv_batch(st, n, size)),
    "lue": Model(1, ("eig",), lambda st, n, size, a: [lue_batch(st, n, a, size)]),
    "even-dec": Model(2, ("sv",), lambda st, n, size, a: [_even_dec_batch(st, n, size)]),
    "odd-dec": Model(1, ("sv",), lambda st, n, size, a: [goe_abs_batch(st, n, size)[:, 0::2]]),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which spectrum to sample: a one-component model of MODELS (its name,
    such as "goe", "goe-abs" or "even-dec"), its order, and the Laguerre
    parameter a, which "lue" needs and no other kind takes."""

    kind: str
    order: int
    a: float = None

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if len(MODELS[self.kind].components) != 1:
            raise ValueError(f"{self.kind!r} draws a pair of spectra, not one")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.kind == "lue" and self.a is None:
            raise ValueError("Laguerre sampling requires the parameter a")
        if self.kind != "lue" and self.a is not None:
            raise ValueError(f"{self.kind!r} takes no Laguerre parameter a")

    def batch(self, stream, size):
        """(size, width) spectra, rows sorted decreasing."""
        (rows,) = MODELS[self.kind].draw(stream, self.order, size, self.a)
        return rows


@dataclass(frozen=True)
class GapEstimate:
    """Estimated probability that an interval holds exactly k points.

    k may be a tuple of counts, in which case the event is the union
    (used for the paired-count side of the symmetric-interval identity).
    """

    k: object
    interval: tuple
    p_hat: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("estimated probability must lie in [0, 1]")
        if self.stderr < 0.0:
            raise ValueError("standard error must be nonnegative")


def _counts(mat, lo, hi):
    """Per-row number of points strictly inside (lo, hi)."""
    return np.sum((mat > lo) & (mat < hi), axis=1)


def count_in_interval(spec, lo, hi):
    """Number of spectrum points strictly inside (lo, hi)."""
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    v = np.asarray(getattr(spec, "values", spec), dtype=float)
    return int(_counts(v[None], lo, hi)[0])


def _count_in(targets):
    """Per-sample test of counts: the count lies in targets."""
    return lambda counts: np.isin(counts, targets)


def _block_fraction(draw, hit, n_samples, root):
    """Fraction of n_samples rows on which hit holds; draw(stream, size)
    gives the rows of each block of streams._blocks(root, n_samples)."""
    hits = sum(np.sum(hit(draw(stream, size))) for stream, size in _blocks(root, n_samples))
    return float(hits / n_samples)


def _estimate(k, interval, p_hat, n_samples, seed):
    """GapEstimate of p_hat with its binomial standard error."""
    err = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    lo, hi = interval
    return GapEstimate(k, (float(lo), float(hi)), p_hat, err, int(n_samples), int(seed))


def estimate_gap(spec, k, interval, n_samples, seed):
    """Monte Carlo estimate of E(k; interval) for the given ensemble."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    targets = (int(k),) if np.ndim(k) == 0 else tuple(int(t) for t in k)
    hit = _count_in(targets)
    p_hat = _block_fraction(
        spec.batch, lambda mat: hit(_counts(mat, lo, hi)), n_samples, RandStream(seed)
    )
    return _estimate(targets[0] if np.ndim(k) == 0 else targets, interval, p_hat, n_samples, seed)


# ---------------------------------------------------------------------------
# identity checks


def _combined(e1, e2):
    return math.sqrt(e1.stderr**2 + e2.stderr**2)


@dataclass(frozen=True)
class GapIdentityReport:
    """Three estimates of one gap probability, their pairwise gaps, and the
    counting lemma's fraction of cases that hold (it says: 1)."""

    n: int
    k: int
    s: float
    lhs: GapEstimate
    rhs_ague: GapEstimate
    rhs_lue: GapEstimate
    lemma: float

    def pairwise(self):
        """(label, difference, combined stderr) for each pair of routes."""
        pairs = [
            ("paired_counts_vs_skew", self.lhs, self.rhs_ague),
            ("paired_counts_vs_laguerre", self.lhs, self.rhs_lue),
            ("skew_vs_laguerre", self.rhs_ague, self.rhs_lue),
        ]
        return [(name, a.p_hat - b.p_hat, _combined(a, b)) for name, a, b in pairs]

    def max_deviation(self):
        """Largest |difference| / stderr over the pairs (0/0 counts as 0)."""
        worst = 0.0
        for _, diff, err in self.pairwise():
            if err == 0.0:
                if abs(diff) > 0.0:
                    return math.inf
            else:
                worst = max(worst, abs(diff) / err)
        return worst


def verify_gap_identity(n, k, s, n_samples, seed):
    """Estimate both sides of the symmetric-interval counting identity.

    The left side counts signed GOE eigenvalues in (-s, s) hitting either
    of the paired counts 2k+mu-1, 2k+mu (negative counts dropped); the
    right sides count k points in (0, s) for the anti-GUE spectrum and k
    points in (0, s^2) for the Laguerre spectrum at a = mu - 1/2.  Every
    route counts by a Sturm sweep, in O(n) per sample, from a model of
    independent entries: the Dumitriu-Edelman tridiagonal GOE
    (sparse.goe_count_batch), the tridiagonal model T
    (sparse.t_count_batch) and the Laguerre bidiagonal
    (dense.lue_count_batch).  The routes draw from distinct keyed streams
    and run through streams._concurrently.  The values of a decreasing row
    with no zero entry that lie in (0, s) are its last c locations, so the
    counting lemma is checked on one row for each c = 0..n, every case.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if not s > 0:
        raise ValueError("interval endpoint must be positive")
    frame = ParityFrame.from_order(n)
    targets = tuple(t for t in (2 * k + frame.mu - 1, 2 * k + frame.mu) if t >= 0)
    s2 = s * s  # inf past about 1.34e154, where s**2 raises OverflowError

    def goe(stream, size):
        return goe_count_batch(stream, n, size, s)

    def skew(stream, size):
        return t_count_batch(stream, n, size, s)

    def laguerre_counts(stream, size):
        return lue_count_batch(stream, frame.m, frame.mu - 0.5, size, s2)

    def laguerre():
        if frame.m == 0:
            return float(k == 0)
        return _block_fraction(laguerre_counts, _count_in(k), n_samples, RandStream(seed, 2))

    p_lhs, p_ague, p_lue = _concurrently(
        lambda: _block_fraction(goe, _count_in(targets), n_samples, RandStream(seed, 0)),
        lambda: _block_fraction(skew, _count_in(k), n_samples, RandStream(seed, 1)),
        laguerre,
    )
    # row c: n - c values 2 outside (0, 1), then c values 1/2 inside
    rows = np.where(np.arange(n) < n - np.arange(n + 1)[:, None], 2.0, 0.5)
    return GapIdentityReport(
        n=n,
        k=k,
        s=float(s),
        lhs=_estimate(targets, (-s, s), p_lhs, n_samples, seed),
        rhs_ague=_estimate(k, (0.0, s), p_ague, n_samples, seed),
        rhs_lue=_estimate(k, (0.0, s2), p_lue, n_samples, seed),
        lemma=float(np.mean(_lemma_holds(rows, 1.0))),
    )


def _lemma_holds(mat, s):
    """Per-row counting lemma on decreasing |GOE| spectra: the even-location
    count in (0, s) being k forces the total count to be 2k+mu-1 or 2k+mu."""
    mu = mat.shape[1] % 2
    k, total = _counts(mat[:, 1::2], 0, s), _counts(mat, 0, s)
    return (total == 2 * k + mu - 1) | (total == 2 * k + mu)


def check_counting_lemma(n, s, n_samples, seed):
    """Fraction of |GOE_n| samples on which the counting identity holds
    (the lemma says: all of them)."""
    return _block_fraction(
        lambda stream, size: goe_abs_batch(stream, n, size),
        lambda mat: _lemma_holds(mat, s),
        n_samples,
        RandStream(seed),
    )


def _merged(a, b):
    """Rows of two spectra merged and sorted decreasing."""
    return np.sort(np.concatenate([a, b], axis=1), axis=1)[:, ::-1]


def _even_dec_batch(stream, n, size):
    """(size, n // 2) even-location rows of |GOE_n|, copied out so that
    the full spectra are freed."""
    return goe_abs_batch(stream, n, size)[:, 1::2].copy()


def _superposition_routes(n, n_samples, seed):
    """The three independent draws of verify_superposition, as zero-argument
    calls for streams._concurrently, and the reduction of their results
    to the per-location reports."""
    if n < 1:
        raise ValueError("order must be >= 1")

    def reports(left, low, high):
        union = _merged(low, high)
        if union.shape[1] != n:
            raise AssertionError("merged decimations must supply n locations")
        return [ks_two_sample(left[:, j], union[:, j]) for j in range(n)]

    draws = (
        partial(gue_abs_batch, RandStream(seed, 0), n, n_samples),
        partial(_even_dec_batch, RandStream(seed, 1), n, n_samples),
        partial(_even_dec_batch, RandStream(seed, 2), n + 1, n_samples),
    )
    return draws, reports


def verify_superposition(n, n_samples, seed):
    """Location-by-location KS between the Hermitian singular-value
    spectrum of order n and the merged even decimations of two
    independent symmetric samples of orders n and n+1."""
    draws, reports = _superposition_routes(n, n_samples, seed)
    return reports(*_concurrently(*draws))


@dataclass(frozen=True)
class DualityReport:
    """Two Monte Carlo estimates of one Laguerre gap probability."""

    m: int
    alpha: int
    k: int
    t: float
    lhs: GapEstimate
    rhs: GapEstimate

    def difference(self):
        return self.lhs.p_hat - self.rhs.p_hat

    def combined_stderr(self):
        return _combined(self.lhs, self.rhs)


def _wishart_eigs_batch(stream, p, m, size):
    """(size, p) eigenvalues of X X^H for complex Gaussian X of shape
    (p, m), p >= m, with unit-variance entries; includes the p - m exact
    zeros.  X = (P + iQ)/sqrt(2), one (c, 2, p, m) draw per chunk."""
    out = np.empty((size, p))
    for lo, hi in _chunks(size, _chunk_limit(2 * p * p)):
        pq = stream.rng.standard_normal((hi - lo, 2, p, m))
        x = pq[:, 0] + 1j * pq[:, 1]
        del pq
        x *= np.sqrt(0.5)
        out[lo:hi] = np.linalg.eigvalsh(np.matmul(x, np.conj(np.swapaxes(x, 1, 2))))
    return out


def verify_wishart_duality(m, alpha, k, t, n_samples, seed):
    """Integer-parameter duality: counting k + alpha eigenvalues of the
    zero-padded (m+alpha)-dimensional Wishart spectrum below t agrees
    with counting k Laguerre eigenvalues at parameter a = alpha in (0, t).
    The Wishart side solves each sample's eigenvalues; the Laguerre side
    solves nothing, counting by Sturm inertia on the bidiagonal
    (dense.lue_count_batch, from lue_batch's draws).
    """
    if alpha < 1 or int(alpha) != alpha:
        raise ValueError("alpha must be a positive integer")
    if not t > 0:
        raise ValueError("threshold must be positive")
    p = m + int(alpha)
    padded = _block_fraction(
        lambda stream, size: _wishart_eigs_batch(stream, p, m, size),
        lambda w: np.sum(w < t, axis=1) == k + alpha,
        n_samples,
        RandStream(seed, 0),
    )
    laguerre = _block_fraction(
        lambda stream, size: lue_count_batch(stream, m, float(alpha), size, t),
        _count_in(k),
        n_samples,
        RandStream(seed, 1),
    )
    return DualityReport(
        m=m,
        alpha=int(alpha),
        k=k,
        t=float(t),
        lhs=_estimate(k + int(alpha), (0.0, t), padded, n_samples, seed),
        rhs=_estimate(k, (0.0, t), laguerre, n_samples, seed),
    )


def wishart_padding_residual(m, alpha, seed):
    """Dense oracle for the zero-padding fact: the eigenvalues of X X^H
    are those of X^H X together with alpha exact zeros.  Returns the
    largest absolute mismatch on one sample."""
    p = m + int(alpha)
    rng = RandStream(seed).rng
    x = np.sqrt(0.5) * (rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m)))
    big = np.linalg.eigvalsh(x @ np.conj(x.T))
    small = np.linalg.eigvalsh(np.conj(x.T) @ x)
    padded = np.sort(np.concatenate([small, np.zeros(p - m)]))
    return float(np.max(np.abs(big - padded)))
