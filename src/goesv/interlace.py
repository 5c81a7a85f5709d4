"""Interlacing coordinates and the rank-one bordering diffeomorphism.

A sorted nonnegative spectrum splits into odd/even location subsequences
(t, s); equivalently, ascending coordinates (x, y).  With s fixed, t is
the image of a positive vector r under the map

    Phi : r  |->  singular values of the bordered matrix (r  S_hat),

where S_hat = diag(s_1, ..., s_mhat) carries a formal trailing zero when
the order is odd.  Phi is a diffeomorphism from positive r onto spectra
strictly interlacing s; its inverse has the closed product form

    r_j^2 = -prod_k (s_j^2 - t_k^2) / prod_{k != j} (s_j^2 - s_k^2),

and its Jacobian is an explicit ratio of Vandermonde factors in the
squares.  Every product of differences, here and in the densities, is
formed in log space with signs by one reduction (`_log_product`, and
`_log_vandermonde` on top of it), so none overflows or underflows
before the final exponential, at any order.  The module also houses
the positive-triple involution
phi(X, Y, Z) = (ZX/(X+Y), ZY/(X+Y), X+Y) and the chain of involutions
that turns an upper bidiagonal matrix of chi entries into its
equal-singular-value R-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import ParityFrame, SortedSpectrum
from .sparse import BidiagMatrix, DecimatedPair, decimate
from .streams import ChiDraws

_EPS = np.finfo(float).eps


def _vals(obj):
    """The float values of a SortedSpectrum or ChiDraws, or of an array."""
    values = obj.values if isinstance(obj, (SortedSpectrum, ChiDraws)) else obj
    return np.asarray(values, dtype=float)


def _log_product(factors, axis=-1):
    """(sign, log|.|) of the product of factors along axis."""
    with np.errstate(divide="ignore"):
        return np.sign(factors).prod(axis=axis), np.log(np.abs(factors)).sum(axis=axis)


@lru_cache(maxsize=None)
def _pairs(size):
    return np.triu_indices(size, 1)


def _log_vandermonde(a):
    """(sign, log|.|) of prod_{j<k}(a_k - a_j) along the last axis."""
    a = np.asarray(a, dtype=float)
    j, k = _pairs(a.shape[-1])
    return _log_product(a[..., k] - a[..., j])


@dataclass(frozen=True)
class RVector:
    """Positive coordinates r of length mhat; r = Phi^{-1}(t) given s."""

    r: np.ndarray
    frame: ParityFrame

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.size != self.frame.mhat:
            raise ValueError("r must have length mhat")
        if not np.all(r > 0):
            raise ValueError("r components must be positive")


@dataclass(frozen=True)
class XYCoords:
    """Ascending coordinates: x_j = sigma_{2j-1}, y_j = sigma_{2j} for the
    increasingly ordered spectrum sigma; 0 <= x_1 <= y_1 <= x_2 <= ..."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.size - y.size not in (0, 1):
            raise ValueError("x must have the same length as y or one more")
        if x.size and x[0] < 0:
            raise ValueError("coordinates must be nonnegative")
        if np.any(y < x[: y.size]) or np.any(x[1:] < y[: x.size - 1]):
            raise ValueError("coordinates must interlace: x1 <= y1 <= x2 <= ...")


def to_xy(spec):
    """Ascending interlaced coordinates of a full sorted spectrum."""
    v = spec.values
    if spec.signed or (v.size and v[-1] < 0):
        raise ValueError("coordinates require a nonnegative spectrum")
    if v.size != spec.order:
        raise ValueError("coordinates require the full spectrum of the order")
    asc = v[::-1]
    return XYCoords(x=asc[0::2].copy(), y=asc[1::2].copy())


def to_ts(spec):
    """Descending odd/even location split; see decimate."""
    return decimate(spec)


def _hat_evens(s, frame):
    """Normalize even values to the hatted length-mhat form (trailing zero
    appended when mu=1); accepts either the m- or mhat-length convention."""
    v = _vals(s)
    if v.size == frame.m:
        if frame.mu:
            v = np.concatenate([v, [0.0]])
    elif frame.mu and v.size == frame.mhat:
        if v[-1] != 0.0:
            raise ValueError("hatted even values must end in the formal zero")
    else:
        raise ValueError("even values must have length m (or mhat with zero)")
    if np.any(np.diff(v) >= 0) or v[-1] < 0:
        raise ValueError("even values must be strictly decreasing and nonnegative")
    return v


def _secular_root(lo, hi, d, r2):
    """The root of sum(r2/(lam - d)) = 1 inside (lo, hi), by guarded
    Newton steps on a shrinking bisection bracket."""
    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(156):
        diff = x - d
        val = np.sum(r2 / diff) - 1.0
        if val == 0.0:
            return x
        if val > 0.0:
            a = x
        else:
            b = x
        deriv = -np.sum(r2 / diff**2)
        step = x - val / deriv
        nxt = step if a < step < b else 0.5 * (a + b)
        if abs(nxt - x) <= 2.0 * _EPS * abs(nxt) or (b - a) <= 4.0 * _EPS * b:
            return nxt
        x = nxt
    return x


def phi_forward(r, s):
    """Apply Phi: the decreasing singular values t of (r  S_hat).

    Computed as the square roots of the eigenvalues of
    diag(s_hat^2) + r r', located one per open gap of the s_hat^2 by a
    guarded secular-equation root finder.  t strictly interlaces s.
    """
    frame = r.frame
    shat = _hat_evens(s, frame)
    rv = r.r
    d = shat**2
    r2 = rv**2
    lam = np.empty(frame.mhat)
    for j in range(frame.mhat):
        hi = d[j - 1] if j else d[0] + r2.sum()
        lam[j] = _secular_root(d[j], hi, d, r2)
    order = s.order if isinstance(s, SortedSpectrum) else frame.n
    return SortedSpectrum(np.sqrt(lam), order, "phi_forward")


def _strict_pair(t, s):
    """(t, s_hat, frame) of a strictly interlacing pair: t of length mhat,
    s of length m, or mhat ending in the formal zero.  Raises otherwise
    (the map is a diffeomorphism only there; degenerate inputs are
    rejected, not perturbed)."""
    tv = _vals(t)
    sv = _vals(s)
    m = sv.size
    if m == tv.size and m and sv[-1] == 0.0:
        m -= 1
    if tv.size - m not in (0, 1):
        raise ValueError("t must have the same length as the even values or one more")
    frame = ParityFrame.from_order(tv.size + m)
    shat = _hat_evens(sv, frame)
    merged = np.empty(2 * frame.mhat)
    merged[0::2] = tv
    merged[1::2] = shat
    if np.any(np.diff(merged) >= 0):
        raise ValueError("degenerate input: (t, s) must strictly interlace")
    return tv, shat, frame


def phi_inverse(t, s):
    """Solve Phi(r) = t for strictly interlacing (t, s), in product form;
    raises on inputs that are not strictly interlacing."""
    tv, shat, frame = _strict_pair(t, s)
    return RVector(phi_inverse_batch(tv[None], shat[None, : frame.m], frame.mu)[0], frame)


def phi_inverse_batch(t_rows, s_rows, mu):
    """Vectorized phi_inverse over rows: t_rows (c, mhat), s_rows (c, m)
    without the formal zero (or (1, m), shared by every row); returns r
    of shape (c, mhat)."""
    t2 = np.asarray(t_rows, dtype=float) ** 2
    s2 = np.asarray(s_rows, dtype=float) ** 2
    if mu:
        s2 = np.concatenate([s2, np.zeros((s2.shape[0], 1))], axis=1)
    sign_num, log_num = _log_product(s2[:, :, None] - t2[:, None, :])
    dif = s2[:, :, None] - s2[:, None, :]
    k = s2.shape[1]
    dif[:, np.arange(k), np.arange(k)] = 1.0
    sign_den, log_den = _log_product(dif)
    # r^2 = -num/den must be positive.
    if np.any(sign_num * sign_den >= 0):
        raise ValueError("degenerate row: secular solution not positive")
    return np.exp(0.5 * (log_num - log_den))


def secular_residual(t, s, r):
    """Per-component residual |sum_k r_k^2/(t_j^2 - s_k^2) - 1|."""
    tv, shat, _ = _strict_pair(t, s)
    t2 = tv[:, None] ** 2
    s2 = shat[None, :] ** 2
    return np.abs(np.sum(r.r[None, :] ** 2 / (t2 - s2), axis=1) - 1.0)


def jacobian_det(t, s, r):
    """det(dr_j/dt_k) of the inverse map, in closed Vandermonde form:

        (1/(r_1...r_m)) * (t_1...t_mhat)^(1-mu) Delta(t^2)
                        / ((s_1...s_m)^mu Delta(s^2)),

    positive on strictly interlacing input (Delta of descending squares
    taken with positive factors).
    """
    tv, shat, frame = _strict_pair(t, s)
    m, mu = frame.m, frame.mu
    sm = shat[:m]
    log = _log_vandermonde(tv**2)[1] - _log_vandermonde(sm**2)[1] - np.log(r.r[:m]).sum()
    log += (1 - mu) * np.log(tv).sum() - mu * np.log(sm).sum()
    return float(np.exp(log))


def extract_rs(spec):
    """Decimate a full sorted spectrum and pull back the odd locations
    through the inverse map: returns (r, s) with r = Phi^{-1}(t) given s.

    Over Gaussian symmetric samples the components of r are independent
    chi variables (chi_2 for the first m, chi_1 for the final one when
    the order is odd), independent of s.
    """
    pair = to_ts(spec)
    r = phi_inverse(pair.t, pair.s)
    return r, pair.s


def jacobian_det_fd(t, s, step=1e-5):
    """Finite-difference companion to jacobian_det: fourth-order central
    differences of the product-form inverse in each t component, all
    4 mhat shifted rows in one phi_inverse_batch call, determinant by LU.

    The step is shrunk near the interlacing boundaries so every
    perturbed configuration stays strictly interlacing (the derivative
    blows up there, and so would a fixed-step truncation error).
    """
    tv, shat, frame = _strict_pair(t, s)
    mhat = frame.mhat
    room = np.minimum(tv - shat, np.concatenate([[np.inf], shat[:-1] - tv[1:]]))
    h = np.minimum(step * np.maximum(1.0, np.abs(tv)), 0.02 * room)
    # shifted[i, k] is t with component k moved by (-2, -1, 1, 2)[i] * h_k.
    diag = np.arange(mhat)
    shifted = np.tile(tv, (4, mhat, 1))
    shifted[:, diag, diag] += np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * h
    r = phi_inverse_batch(shifted.reshape(-1, mhat), shat[None, : frame.m], frame.mu)
    rm2, rm1, rp1, rp2 = r.reshape(4, mhat, mhat)
    jac = ((rm2 - 8.0 * rm1 + 8.0 * rp1 - rp2) / (12.0 * h[:, None])).T
    return float(np.linalg.det(jac))


def involution_phi(x, y, z):
    """The positive-triple involution (ZX/(X+Y), ZY/(X+Y), X+Y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    tot = x + y
    if np.any(tot == 0):
        raise ValueError("requires X + Y > 0")
    return z * x / tot, z * y / tot, tot


def rq_chain(tau):
    """Chain the involution through an upper bidiagonal chi profile.

    Input: draws tau_1, ..., tau_2m (tau_k ~ chi_k for k < 2m, tau_2m
    arbitrary positive).  Output: the positive solution
    xi_1, ..., xi_{2m-1}, xi_{2m+1} of the running equations

        xi_{2k+1}^2 + xi_{2k-2}^2 = tau_{2k}^2 + tau_{2k-1}^2,
        xi_{2k+1} xi_{2k}         = tau_{2k+1} tau_{2k},

    computed by the recursion tau_{1,1} = tau_1,
    (tau_{1,k+1}^2, xi_{2k}^2, xi_{2k+1}^2) =
    phi(tau_{1,k}^2, tau_{2k}^2, tau_{2k+1}^2), then xi_1 = tau_{1,m} and
    xi_{2m+1} = sqrt(xi_1^2 + tau_{2m}^2).  The bidiagonal matrices built
    from tau (rq_b_matrix) and xi (rq_r_matrix) share their singular
    values; on chi input every output is marginally chi of its stated
    degree and the entries of the output matrix (all outputs except xi_1)
    are independent, while xi_1 and the composite xi_{2m+1} stay coupled
    through the shared remainder.
    """
    vals = _vals(tau)
    if vals.size < 2 or vals.size % 2:
        raise ValueError("expected an even number of draws, at least two")
    if not np.all(vals > 0):
        raise ValueError("draws must be positive")
    m = vals.size // 2
    xi = np.empty(2 * m)
    cur = vals[0] ** 2
    for k in range(1, m):
        cur, e_even, e_odd = involution_phi(cur, vals[2 * k - 1] ** 2, vals[2 * k] ** 2)
        xi[2 * k - 1] = np.sqrt(e_even)
        xi[2 * k] = np.sqrt(e_odd)
    xi[0] = np.sqrt(cur)
    xi[2 * m - 1] = np.sqrt(cur + vals[2 * m - 1] ** 2)
    degrees = np.append(np.arange(1.0, 2 * m), 2 * m + 1.0)
    return ChiDraws(values=xi, degrees=degrees)


def rq_b_matrix(tau):
    """The m x (m+1) upper bidiagonal matrix of the chain's input: diagonal
    tau_2m, tau_{2m-2}, ..., tau_2, superdiagonal tau_{2m-1}, ..., tau_1."""
    vals = _vals(tau)
    m = vals.size // 2
    return BidiagMatrix(
        diag=vals[np.arange(2 * m, 0, -2) - 1],
        offdiag=vals[np.arange(2 * m - 1, 0, -2) - 1],
        rows=m, cols=m + 1, lower=False,
    )


def rq_r_matrix(xi):
    """The m x m upper bidiagonal matrix of the chain's output: diagonal
    xi_{2m+1}, xi_{2m-1}, ..., xi_3, superdiagonal xi_{2m-2}, ..., xi_2."""
    vals = _vals(xi)
    m = vals.size // 2
    diag = np.concatenate([vals[-1:], vals[np.arange(2 * m - 1, 2, -2) - 1]])
    return BidiagMatrix(
        diag=diag,
        offdiag=vals[np.arange(2 * m - 2, 0, -2) - 1],
        rows=m, cols=m, lower=False,
    )


def coupled_block_matrix(u, v, s, eta=None):
    """The (m+mhat) x (m+mhat+1) block matrix (first column (u; v; eta),
    then two diagonal blocks of s, padding zeros elsewhere) whose singular
    values are s_1, ..., s_m together with those of (r  S_hat), where
    r_j = sqrt(u_j^2 + v_j^2) and r_{m+1} = |eta| when present."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    m = s.size
    if u.size != m or v.size != m:
        raise ValueError("u and v must match the length of s")
    mu = 0 if eta is None else 1
    mhat = m + mu
    a = np.zeros((m + mhat, m + mhat + 1))
    a[:m, 0] = u
    a[m : 2 * m, 0] = v
    a[:m, 1 : m + 1] = np.diag(s)
    a[m : 2 * m, m + 1 : 2 * m + 1] = np.diag(s)
    if mu:
        a[2 * m, 0] = float(eta)
    return a
