"""Dense reference ensembles: GOE, GUE, skew-symmetric Gaussian, LUE.

These are the ground-truth samplers every sparse model is tested against.
Conventions: GOE is G = (X+X')/2 with X an iid standard normal matrix, so
diagonal entries are N(0,1) and off-diagonal N(0,1/2).  GUE is (X+X*)/2
with complex X whose real and imaginary parts are N(0,1/2) each, the
beta=2 weight convention.  The skew part A = (X-X')/2 has nonzero singular
values of multiplicity two; taking each exactly once (dropping the surplus
zero at odd order) gives the anti-GUE spectrum, written aGUE_n.

Scalar operations return SortedSpectrum and are the *_batch kernels at
size 1.  The *_batch functions return a (size, count) array with rows
sorted decreasing, drawn in chunks of rows.  Every kernel draws one
sample-major array per chunk (all of sample i's variates before any of
sample i+1's), so consecutive chunks concatenate into the draw of one
big chunk: the output does not depend on the chunk size, which is set by
the one float budget of streams._chunk_limit (1.25e6 floats, 10 MB per
working array, shared by the routes of one streams._concurrently call).
A call's peak working memory is a few such arrays plus its output,
whatever n is.  The GOE and skew kernels allocate their working
arrays once and draw every chunk into them, so their memory does not
change from chunk to chunk; so does _chi_bidiag_sv, the one kernel of
every model that is a bidiagonal matrix of independent chi entries (the
LUE here, and the tridiagonal model and bidiagonal pairs of sparse), and
so do the count kernels _chi_bidiag_count and sparse.goe_count_batch,
which count eigenvalues by the one Sturm sweep of _sturm_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import _chunk_limit, _chunks

# relative tolerance for collapsing the multiplicity-2 singular values of a
# skew-symmetric sample (double precision splits the pair at O(ulp))
PAIR_TOL = 1e-8


@dataclass(frozen=True)
class ParityFrame:
    """Order bookkeeping n = 2m + mu, with mhat = m + mu."""

    n: int
    m: int
    mhat: int
    mu: int

    @classmethod
    def from_order(cls, n):
        n = int(n)
        if n < 1:
            raise ValueError("order must be >= 1")
        m, mu = divmod(n, 2)
        return cls(n=n, m=m, mhat=m + mu, mu=mu)

    def __post_init__(self):
        if self.n != 2 * self.m + self.mu or self.mhat != self.m + self.mu:
            raise ValueError("inconsistent parity frame")
        if self.mu not in (0, 1):
            raise ValueError("mu must be 0 or 1")


@dataclass(frozen=True)
class SortedSpectrum:
    """Decreasingly sorted spectrum plus the matrix order it came from.

    values : 1-d array, sorted decreasing; nonnegative unless signed.
    order  : order n of the originating matrix (may exceed len(values),
             e.g. the aGUE spectrum of a skew matrix of odd order).
    ensemble : short tag, a gaps.MODELS name such as "goe-abs", "ague",
               "gue-abs" or "lue", or the kind of spectrum ("eig", "sv").
    signed : True for plain eigenvalue spectra that may be negative.
    """

    values: np.ndarray
    order: int
    ensemble: str = "spectrum"
    signed: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("spectrum must be one-dimensional")
        if v.size > 1 and np.any(np.diff(v) > 0):
            raise ValueError("spectrum must be sorted decreasing")
        if not self.signed and v.size and v[-1] < 0:
            raise ValueError("singular-value spectrum must be nonnegative")

    def __len__(self):
        return self.values.size


def _symmetric_parts(rng, work, c, op):
    """op(X, X')/2 of c standard normal (n, n) draws X, computed in the
    (2, rows >= c, n, n) workspace: X in work[0], the result in work[1]."""
    x, g = work[0, :c], work[1, :c]
    rng.standard_normal(out=x)
    op(x, np.swapaxes(x, 1, 2), out=g)
    g /= 2.0
    return g


def _goe_stack(rng, n, c):
    """(c, n, n) GOE matrices G = (X+X')/2."""
    return _symmetric_parts(rng, np.empty((2, c, n, n)), c, np.add)


def _skew(x):
    """Skew-symmetric parts (X-X')/2 of a (c, n, n) stack."""
    a = x - np.swapaxes(x, 1, 2)
    a /= 2.0
    return a


def _skew_stack(rng, n, c):
    """(c, n, n) skew-symmetric Gaussian matrices A = (X-X')/2."""
    return _symmetric_parts(rng, np.empty((2, c, n, n)), c, np.subtract)


def _gue_stack(rng, n, c):
    """(c, n, n) GUE matrices (X+X*)/2, X = (P + iQ)/sqrt(2); one (c, 2, n, n)
    draw holds each sample's P then Q."""
    pq = rng.standard_normal((c, 2, n, n))
    x = pq[:, 0] + 1j * pq[:, 1]
    del pq
    x += np.conj(np.swapaxes(x, 1, 2))
    x *= np.sqrt(0.5) / 2.0
    return x


def _chi_matrix(rng, degrees, size):
    """(size, len(degrees)) independent chi draws, column k of degrees[k]."""
    return np.sqrt(rng.chisquare(np.asarray(degrees, dtype=float), size=(size, len(degrees))))


def _stack_bidiag(diag, offdiag, rows, cols, lower, out=None):
    """Stack (c, rows, cols) dense matrices from per-sample diagonals, at
    the head of the flat workspace out when it is given."""
    c = diag.shape[0]
    if out is None:
        a = np.zeros((c, rows, cols))
    else:
        a = out[: c * rows * cols].reshape(c, rows, cols)
        a.fill(0.0)
    k = diag.shape[1]
    a[:, np.arange(k), np.arange(k)] = diag
    j = offdiag.shape[1]
    if j:
        if lower:
            a[:, np.arange(1, j + 1), np.arange(j)] = offdiag
        else:
            a[:, np.arange(j), np.arange(1, j + 1)] = offdiag
    return a


def _chi_bidiag_sv(stream, degrees, layout, size):
    """Singular values of bidiagonal matrices of independent chi entries.

    Each sample draws one row of chi variables, column k of degrees[k];
    layout maps a (c, len(degrees)) stack of such rows to one
    (diag, offdiag, rows, cols, lower) per matrix.  Returns one
    (size, min(rows, cols)) array per matrix, rows decreasing.  The
    matrices of a chunk are stacked in turn into one flat workspace sized
    for the largest of them.
    """
    shapes = [(rows, cols) for _, _, rows, cols, _ in layout(np.empty((0, len(degrees))))]
    outs = tuple(np.empty((size, min(shape))) for shape in shapes)
    limit = _chunk_limit(2 * sum(rows * cols for rows, cols in shapes))
    work = np.empty(min(size, limit) * max(rows * cols for rows, cols in shapes))
    for lo, hi in _chunks(size, limit):
        for out, mat in zip(outs, layout(_chi_matrix(stream.rng, degrees, hi - lo))):
            out[lo:hi] = np.linalg.svd(_stack_bidiag(*mat, out=work), compute_uv=False)
    return outs


def _sturm_count(x, diag, off2):
    """Per-column number of eigenvalues at or below x of symmetric
    tridiagonals with step-major diagonal rows diag (scalar rows serve
    every column) and squared off-diagonal rows off2: the number of negative
    pivots of the Sturm sweep q_i = a_i - x - b_{i-1}^2 / q_{i-1} from
    q_0 = +inf, b_0 = 0 (Sylvester's law of inertia; Barth, Martin and
    Wilkinson, 1967).  It runs as q = -((x - a_i) + b_{i-1}^2 / q): an
    exact zero pivot comes out as -0.0, which signbit counts as negative
    (LAPACK dlaneg's convention), and sends the next pivot to +inf; so an
    eigenvalue exactly at x counts as below it.
    """
    q = np.full(off2.shape[1], np.inf)
    neg = np.zeros(off2.shape[1], dtype=np.intp)
    with np.errstate(divide="ignore", over="ignore"):
        for a, b2 in zip(diag, [0.0, *off2]):
            np.divide(b2, q, out=q)
            q += x - a
            np.negative(q, out=q)
            neg += np.signbit(q)
    return neg


def _chi_bidiag_count(stream, degrees, layout, size, x):
    """Per-sample number of singular values below x >= 0 of the one matrix
    of a _chi_bidiag_sv layout, drawn as _chi_bidiag_sv draws it, in chunks
    sized by the count's O(n) footprint; no spectrum is computed.

    A bidiagonal with diagonal d and off-diagonal e is a Golub-Kahan form:
    the zero-diagonal tridiagonal of order N = len(d) + len(e) + 1 with
    off-diagonal d_1, e_1, d_2, e_2, ... has eigenvalues +-sigma_i and
    N - 2 len(d) zeros (Golub and Kahan, 1965), so its _sturm_count at x
    exceeds the number of singular values below x by N - len(d).
    """
    if not x >= 0:
        raise ValueError("threshold must be nonnegative")
    ((diag, offdiag, *_),) = layout(np.empty((0, len(degrees))))
    k, steps = diag.shape[1], diag.shape[1] + offdiag.shape[1]
    counts = np.empty(size, dtype=np.intp)
    # the chi draw, its square roots and the squared off-diagonal
    limit = _chunk_limit(3 * steps)
    work = np.empty((steps, min(size, limit)))
    zero = np.zeros(steps + 1)
    for lo, hi in _chunks(size, limit):
        ((d, e, *_),) = layout(_chi_matrix(stream.rng, degrees, hi - lo))
        c2 = work[:, : hi - lo]
        c2[0::2], c2[1::2] = d.T, e.T
        np.square(c2, out=c2)
        counts[lo:hi] = _sturm_count(x, zero, c2)
    counts -= steps + 1 - k
    return counts


def _laguerre_layout(chi):
    """The beta=2 Laguerre model from a (c, 2m-1) chi matrix: the m x m
    lower bidiagonal B with diagonal chi_{2(a+m)}, ..., chi_{2(a+1)} and
    subdiagonal chi_{2(m-1)}, ..., chi_2, whose B B'/2 has eigenvalues of
    density prop. to prod lambda^a e^{-lambda} times the squared
    Vandermonde (Dumitriu and Edelman, "Matrix models for beta ensembles",
    2002)."""
    m = (chi.shape[1] + 1) // 2
    return ((chi[:, :m], chi[:, m:], m, m, True),)


def sample_goe(stream, n):
    """One GOE matrix of order n: symmetric, diag N(0,1), off-diag N(0,1/2)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _goe_stack(stream.rng, n, 1)[0]


def sample_skew(stream, n):
    """One skew-symmetric Gaussian matrix A = (X-X')/2, off-diag N(0,1/2)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _skew_stack(stream.rng, n, 1)[0]


def sample_gue(stream, n):
    """One GUE matrix (beta=2 weights): (X+X*)/2, complex standard X."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _gue_stack(stream.rng, n, 1)[0]


def symmetric_eigenvalues(mat):
    """All eigenvalues of a symmetric (or Hermitian) matrix, decreasing."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(mat)
    return SortedSpectrum(w[::-1].copy(), mat.shape[0], "eig", signed=True)


def singular_values(mat):
    """Singular values of an arbitrary rectangular matrix, decreasing."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    s = np.linalg.svd(mat, compute_uv=False)
    return SortedSpectrum(s, min(mat.shape), "sv")


def collapse_pairs(s, order):
    """Collapse the multiplicity-2 singular values of skew samples.

    s is (..., order): each row the full decreasing singular-value vector
    of a skew-symmetric matrix of the given order.  The trailing zero (odd
    order) is dropped and each adjacent pair is averaged.  Asserts the pair
    split and the surplus value stay below PAIR_TOL * largest, row by row.
    """
    s = np.asarray(s, dtype=float)
    frame = ParityFrame.from_order(order)
    if s.shape[-1:] != (order,):
        raise ValueError("expected the full spectrum of the skew matrix")
    tol = PAIR_TOL * s[..., :1]
    if frame.mu:
        if np.any(s[..., -1:] > tol):
            raise ValueError("surplus singular value of odd-order skew matrix not zero")
        s = s[..., :-1]
    pairs = s.reshape(s.shape[:-1] + (frame.m, 2))
    if np.any(pairs[..., 0] - pairs[..., 1] > tol):
        raise ValueError("singular values of skew matrix do not pair up")
    return pairs.mean(axis=-1)


def ague_singular_values(stream, n):
    """aGUE_n: the m distinct positive singular values of one skew sample."""
    if n < 2:
        raise ValueError("order must be >= 2")
    return SortedSpectrum(ague_batch(stream, n, 1)[0], n, "ague")


def gue_singular_values(stream, n):
    """|GUE_n|: eigenvalue magnitudes of one GUE sample, decreasing."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return SortedSpectrum(gue_abs_batch(stream, n, 1)[0], n, "gue-abs")


def lue_eigenvalues(stream, m, a):
    """One LUE_m sample with parameter a > -1, eigenvalues decreasing.

    Joint density prop. to prod_k lambda_k^a e^{-lambda_k} * Delta(lambda)^2,
    sampled through the bidiagonal chi model (valid for real a > -1, which
    covers the half-integer parameters a = mu - 1/2).
    """
    return SortedSpectrum(lue_batch(stream, m, a, 1)[0], m, "lue")


# ---------------------------------------------------------------------------
# batch kernels


def goe_eigenvalues_batch(stream, n, size):
    """(size, n) signed GOE eigenvalues, rows sorted decreasing."""
    out = np.empty((size, n))
    limit = _chunk_limit(n * n)
    work = np.empty((2, min(size, limit), n, n))
    for lo, hi in _chunks(size, limit):
        g = _symmetric_parts(stream.rng, work, hi - lo, np.add)
        out[lo:hi] = np.linalg.eigvalsh(g)[:, ::-1]
    return out


def goe_abs_batch(stream, n, size):
    """(size, n) rows of |GOE_n|: eigenvalue magnitudes sorted decreasing."""
    w = goe_eigenvalues_batch(stream, n, size)
    return np.sort(np.abs(w), axis=1)[:, ::-1]


def ague_batch(stream, n, size):
    """(size, m) rows of aGUE_n (collapsed skew singular values)."""
    frame = ParityFrame.from_order(n)
    out = np.empty((size, frame.m))
    limit = _chunk_limit(n * n)
    work = np.empty((2, min(size, limit), n, n))
    for lo, hi in _chunks(size, limit):
        a = _symmetric_parts(stream.rng, work, hi - lo, np.subtract)
        s = np.linalg.svd(a, compute_uv=False)
        out[lo:hi] = collapse_pairs(s, n)
    return out


def gue_abs_batch(stream, n, size):
    """(size, n) rows of |GUE_n| under the beta=2 weight convention."""
    out = np.empty((size, n))
    for lo, hi in _chunks(size, _chunk_limit(2 * n * n)):
        w = np.linalg.eigvalsh(_gue_stack(stream.rng, n, hi - lo))
        out[lo:hi] = np.sort(np.abs(w), axis=1)[:, ::-1]
    return out


def _lue_degrees(m, a):
    """Chi degrees of the LUE_m bidiagonal (_laguerre_layout) at parameter a."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if not -1 < a < np.inf:
        raise ValueError("parameter must be finite and exceed -1")
    return 2.0 * np.concatenate([float(a) + np.arange(m, 0, -1), np.arange(m - 1, 0, -1)])


def lue_batch(stream, m, a, size):
    """(size, m) rows of LUE_m eigenvalues with parameter a, decreasing."""
    (sv,) = _chi_bidiag_sv(stream, _lue_degrees(m, a), _laguerre_layout, size)
    sv **= 2
    sv /= 2.0
    return sv


def lue_count_batch(stream, m, a, size, x):
    """(size,) numbers of LUE_m eigenvalues below x >= 0 at parameter a, from
    lue_batch's draws: an eigenvalue sigma^2/2 is below x exactly when the
    singular value sigma is below sqrt(2x), which _chi_bidiag_count counts."""
    return _chi_bidiag_count(stream, _lue_degrees(m, a), _laguerre_layout, size, math.sqrt(2.0 * x))
