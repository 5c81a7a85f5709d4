"""Sparse matrix models for |GOE_n| and its even/odd decimations.

Six constructions, all proved equivalent in law to the dense reference:

* symmetric tridiagonal GOE with N(0,1) diagonal and off-diagonal entries
  tau_{n-1}, ..., tau_1 over sqrt(2), the Householder reduction of the
  dense GOE (Dumitriu and Edelman, "Matrix models for beta ensembles",
  2002) -- eigenvalues ~ GOE_n;
* bordered skew matrix  H = (b  A), n x (n+1), with b either tau_n e_1
  (tau_n ~ chi_n) or a standard normal vector -- singular values ~ |GOE_n|;
* symmetric tridiagonal T with zero diagonal and off-diagonal entries
  tau_{n-1}, ..., tau_1 over sqrt(2) -- singular values ~ the skew part's.
  A zero diagonal makes T a Golub-Kahan form (Golub and Kahan, 1965):
  ordering rows and columns odd indices first gives T = [[0, B'], [B, 0]]
  with B the m x (n-m) upper bidiagonal whose diagonal holds T's
  off-diagonal entries 1, 3, 5, ... and whose superdiagonal holds entries
  2, 4, ..., so T's m distinct singular values are B's;
* rectangular bidiagonal pair (B_odd, B_even) whose singular values split
  |GOE_n| into the odd- and even-location subsequences;
* square bidiagonal pair (R_odd, R_even) doing the same with one fewer
  dimension, the basis of the determinant factorization;
* the decimation operator itself.

Entry layouts follow the printed models verbatim; tau_k and xi_k are
independent chi_k draws, and the coupled pairs share a single draw, so
joint statements (interlacing sample-by-sample, shared factors) are
testable, not only the marginal laws.

The tridiagonal model T, both pairs and dense.lue_batch are bidiagonal
matrices of independent chi entries, so their batch kernels are one call
each to dense._chi_bidiag_sv with their own layout; t_count_batch counts
T's singular values below a threshold from the same draws through
dense._chi_bidiag_count, in O(n) per sample, and goe_count_batch counts
the tridiagonal GOE's eigenvalues in (-s, s) by the same Sturm sweep.
Every chi entry is the square root of a dense._chisquare_chunks draw,
and goe_count_batch's squared off-diagonals are halves of such draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (
    ParityFrame,
    SortedSpectrum,
    _antisym,
    _chi_bidiag_count,
    _chi_bidiag_sv,
    _chisquare_chunks,
    _normal_batch,
    _stack_bidiag,
    _sturm_count,
)

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class BidiagMatrix:
    """A bidiagonal matrix stored as its two nonzero diagonals.

    diag holds the (i,i) entries; offdiag the (i,i+1) entries when
    lower=False (upper bidiagonal) or the (i+1,i) entries when lower=True.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    rows: int
    cols: int
    lower: bool = False

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must be nonempty")
        if d.size != min(self.rows, self.cols):
            raise ValueError("diagonal length does not match shape")
        if self.lower:
            expected = min(self.rows - 1, self.cols)
        else:
            expected = min(self.rows, self.cols - 1)
        if e.size != expected:
            raise ValueError("off-diagonal length does not match shape")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("entries must be finite")

    @property
    def superdiag(self):
        if self.lower:
            raise ValueError("matrix is lower bidiagonal")
        return self.offdiag

    def toarray(self):
        return _stack_bidiag(self.diag[None], self.offdiag[None], self.rows, self.cols,
                             self.lower)[0]


@dataclass(frozen=True)
class DecimatedPair:
    """Odd- and even-location singular values t, s of one spectrum.

    t has length mhat, s length m; they interlace,
    t_1 >= s_1 >= t_2 >= ... >= t_mhat (>= s_mhat = 0 formally when mu=1).
    """

    t: SortedSpectrum
    s: SortedSpectrum
    frame: ParityFrame

    def __post_init__(self):
        t, s = self.t.values, self.s.values
        if t.size != self.frame.mhat or s.size != self.frame.m:
            raise ValueError("decimation lengths do not match the parity frame")
        if np.any(t[: s.size] < s) or np.any(s[: t.size - 1] < t[1:]):
            raise ValueError("decimated values do not interlace")


@dataclass(frozen=True)
class BorderedModel:
    """The bordered matrix H = (border  skew), border as first column."""

    border: np.ndarray
    skew: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.border, dtype=float)
        a = np.asarray(self.skew, dtype=float)
        object.__setattr__(self, "border", b)
        object.__setattr__(self, "skew", a)
        n = b.size
        if a.shape != (n, n):
            raise ValueError("skew block must be square of the border's length")
        if np.any(a != -a.T):
            raise ValueError("skew block must be skew-symmetric")

    def matrix(self):
        return np.concatenate([self.border[:, None], self.skew], axis=1)


def decimate(spec):
    """Split a sorted nonnegative spectrum by location parity.

    Position 1 (largest), 3, 5, ... go to t; positions 2, 4, ... to s.
    The input must be the full spectrum: len(values) == order.
    """
    v = spec.values
    if spec.signed or (v.size and v[-1] < 0):
        raise ValueError("decimation expects a nonnegative spectrum")
    if v.size != spec.order:
        raise ValueError("decimation expects the full spectrum of its order")
    frame = ParityFrame.from_order(v.size)
    t = SortedSpectrum(v[0::2].copy(), spec.order, "odd-dec")
    s = SortedSpectrum(v[1::2].copy(), spec.order, "even-dec")
    return DecimatedPair(t=t, s=s, frame=frame)


def _bordered(h, border_kind, out):
    """Bordered matrices H = (b  A) of the (c, n, n+1) standard normal stack
    h, in out: column 0 is the border and the skew block is A = (X-X')/2
    of the rest.  The chi_n_e1 border is the norm of column 0 times e_1, a
    chi_n variable, so both border kinds consume the stream alike."""
    if border_kind not in ("chi_n_e1", "gaussian"):
        raise ValueError(f"unknown border kind: {border_kind!r}")
    out[:, :, 0] = h[:, :, 0]
    _antisym(h[:, :, 1:], out[:, :, 1:])
    if border_kind == "chi_n_e1":
        out[:, 0, 0] = np.linalg.norm(h[:, :, 0], axis=1)
        out[:, 1:, 0] = 0.0
    return out


def _t_layout(tau):
    """T's Golub-Kahan bidiagonal from a (c, n-1) chi matrix of T's
    off-diagonal degrees n-1, ..., 1: m x (n-m) upper bidiagonal with
    diagonal T's off-diagonal entries 1, 3, 5, ... and superdiagonal
    entries 2, 4, ..., all over sqrt(2)."""
    frame = ParityFrame.from_order(tau.shape[1] + 1)
    off = tau / _SQRT2
    return ((off[:, 0::2], off[:, 1::2], frame.m, frame.mhat, False),)


def _b_pair_layout(tau):
    """Diagonals of (B_odd, B_even) from a (c, n) chi matrix, tau[:, k-1]
    playing the chi_k role, as (diag, offdiag, rows, cols, lower) each.

    B_even is (m+mu) x m lower bidiagonal with diagonal tau_{n-1},
    tau_{n-3}, ... and subdiagonal tau_{n-2}, tau_{n-4}, ..., all over
    sqrt(2); B_odd is upper bidiagonal with diagonal (tau_n, B_even's
    subdiagonal) and superdiagonal B_even's diagonal.
    """
    frame = ParityFrame.from_order(tau.shape[1])
    n, m, mu = frame.n, frame.m, frame.mu
    ediag = tau[:, np.arange(n - 1, 0, -2) - 1] / _SQRT2
    eoff = tau[:, np.arange(n - 2, 0, -2) - 1] / _SQRT2
    odiag = np.concatenate([tau[:, n - 1 : n], eoff], axis=1)
    return (odiag, ediag, m + mu, m + 1, False), (ediag, eoff, m + mu, m, True)


def _r_pair_layout(xi):
    """Diagonals of (R_odd, R_even) from a (c, n) chi matrix, xi[:, k-1]
    playing the chi_k role, as (diag, offdiag, rows, cols, lower) each."""
    frame = ParityFrame.from_order(xi.shape[1])
    m, mu = frame.m, frame.mu
    superdiag = xi[:, np.arange(2 * m - 2, 0, -2) - 1] / _SQRT2
    if mu == 0:
        ediag = np.concatenate(
            [xi[:, 0:1], xi[:, np.arange(2 * m - 1, 2, -2) - 1]], axis=1
        ) / _SQRT2
        odiag = ediag.copy()
        odiag[:, 0] = np.sqrt(xi[:, 0] ** 2 + 2.0 * xi[:, 2 * m - 1] ** 2) / _SQRT2
        return (odiag, superdiag, m, m, False), (ediag, superdiag, m, m, False)
    ediag = xi[:, np.arange(2 * m + 1, 2, -2) - 1] / _SQRT2
    odiag = np.concatenate([xi[:, 0:1], ediag], axis=1)
    ooff = np.concatenate([xi[:, 2 * m - 1 : 2 * m], superdiag], axis=1)
    return (odiag, ooff, m + 1, m + 1, False), (ediag, superdiag, m, m, False)


def _pair_matrices(layout):
    """(odd, even) BidiagMatrix pair from row 0 of a pair layout."""
    return tuple(
        BidiagMatrix(diag=d[0], offdiag=e[0], rows=rows, cols=cols, lower=lower)
        for d, e, rows, cols, lower in layout
    )


def sample_bordered_H(stream, n, border_kind="chi_n_e1"):
    """One bordered model H = (b  A) with skew Gaussian A of order n.

    border_kind "chi_n_e1" takes b = tau_n e_1 with tau_n ~ chi_n;
    "gaussian" takes b iid standard normal.  Either way the singular
    values of H are jointly distributed as |GOE_n|.
    """
    h = _normal_batch(
        stream, (n, n + 1), np.empty((1, n, n + 1)), lambda x, out: _bordered(x, border_kind, out)
    )[0]
    return BorderedModel(border=h[:, 0], skew=h[:, 1:])


def sample_tridiagonal_T(stream, n):
    """Symmetric tridiagonal matrix with zero diagonal, off-diagonal
    entries tau_{n-1}, ..., tau_1 over sqrt(2) from top to bottom; its
    singular values match those of the skew Gaussian matrix of order n."""
    if n < 2:
        raise ValueError("order must be >= 2")
    ((_, chisq),) = _chisquare_chunks(stream, np.arange(n - 1, 0, -1), 1)
    off = np.sqrt(chisq[0]) / _SQRT2
    return np.diag(off, 1) + np.diag(off, -1)


def build_B_pair(stream, n):
    """Coupled rectangular bidiagonal pair (B_odd, B_even), one tau draw.

    B_even is (m+mu) x m lower bidiagonal with entries tau_k/sqrt(2); B_odd
    is the same matrix bordered by a first column tau_n e_1 (unscaled).
    Their singular values are jointly the odd/even decimation of one
    |GOE_n| sample.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    ((_, chisq),) = _chisquare_chunks(stream, np.arange(1, n + 1), 1)
    return _pair_matrices(_b_pair_layout(np.sqrt(chisq)))


def build_R_pair(stream, n):
    """Coupled square bidiagonal pair (R_odd, R_even), one xi draw.

    For even n = 2m both are m x m upper bidiagonal with diagonal
    xi_1, xi_{2m-1}, ..., xi_3 and superdiagonal xi_{2m-2}, ..., xi_2, all
    over sqrt(2); R_odd replaces the top-left entry by
    sqrt(xi_1^2 + 2 xi_{2m}^2)/sqrt(2).  For odd n = 2m+1, R_even is m x m
    with diagonal xi_{2m+1}, xi_{2m-1}, ..., xi_3, and R_odd is (m+1) x (m+1)
    with unscaled first row (xi_1, xi_{2m}) on top of the same block.
    Singular values are jointly the odd/even decimation of one |GOE_n|.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    ((_, chisq),) = _chisquare_chunks(stream, np.arange(1, n + 1), 1)
    return _pair_matrices(_r_pair_layout(np.sqrt(chisq)))


def bidiag_singular_values(b):
    """Singular values of a BidiagMatrix, decreasing."""
    s = np.linalg.svd(b.toarray(), compute_uv=False)
    return SortedSpectrum(s, min(b.rows, b.cols), "sv")


# ---------------------------------------------------------------------------
# batch kernels


def h_sv_batch(stream, n, size, border_kind="chi_n_e1"):
    """(size, n) singular values of the bordered model, rows decreasing."""

    def singular_values(x, h):
        return np.linalg.svd(_bordered(x, border_kind, h), compute_uv=False)

    return _normal_batch(stream, (n, n + 1), np.empty((size, n)), singular_values)


def t_sv_batch(stream, n, size):
    """(size, m) distinct singular values of the tridiagonal model, rows
    decreasing: the anti-GUE spectrum.  Each is a singular value of T
    twice over, so they are read off T's m x (n-m) Golub-Kahan bidiagonal
    (_t_layout), drawn from the same chi row as T, with no n x n solve."""
    return _chi_bidiag_sv(stream, np.arange(n - 1, 0, -1), _t_layout, size)[0]


def t_count_batch(stream, n, size, x):
    """(size,) numbers of the tridiagonal model's distinct singular values
    below x >= 0, from t_sv_batch's draws: a Sturm count on T's Golub-Kahan
    bidiagonal (dense._chi_bidiag_count) that computes no spectrum."""
    return _chi_bidiag_count(stream, np.arange(n - 1, 0, -1), _t_layout, size, x)


def goe_count_batch(stream, n, size, s):
    """(size,) numbers of tridiagonal GOE eigenvalues in (-s, s), s > 0.

    The (size, n) N(0,1) diagonals are drawn first; then, chunk by chunk,
    the squared off-diagonal rows tau_{n-1}^2, ..., tau_1^2 over 2: halved
    dense._chisquare_chunks draws, each exactly a Gamma(k/2) draw.  So the
    counts do not depend on the chunk size.  A count is nu(s) - nu(-s),
    nu(x) the number of eigenvalues at or below x (dense._sturm_count): an
    eigenvalue exactly at -s is left out and one exactly at s counted,
    which differs from (-s, s) only on draws of probability 0.
    """
    if not s > 0:
        raise ValueError("interval endpoint must be positive")
    diag = stream.rng.standard_normal((size, n))
    counts = np.empty(size, dtype=np.intp)
    for rows, off2 in _chisquare_chunks(stream, np.arange(n - 1, 0, -1), size, n):
        off2 /= 2.0
        a, b2 = diag[rows].T, off2.T
        counts[rows] = _sturm_count(s, a, b2) - _sturm_count(-s, a, b2)
    return counts


def b_pair_sv_batch(stream, n, size):
    """Singular values of the coupled B pair: (odd (size, mhat), even (size, m))."""
    return _chi_bidiag_sv(stream, np.arange(1, n + 1), _b_pair_layout, size)


def r_pair_sv_batch(stream, n, size):
    """Singular values of the coupled R pair: (odd (size, mhat), even (size, m))."""
    return _chi_bidiag_sv(stream, np.arange(1, n + 1), _r_pair_layout, size)
