"""Dense linear algebra for small real matrices (n <= 8).

Matrix exponential (of one matrix or a stack: a planar one in closed form,
any other size by scipy's), smallest singular value and quadratic roots.
Everything operates on plain float64 numpy arrays; validation helpers turn
loose input into checked arrays.  _planar splits a 2x2 matrix into the
parts that both planar closed forms read, expm's and simcore._first_zero's.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ShapeError

__all__ = [
    "as_matrix",
    "one_norm",
    "expm",
    "quad_roots",
    "min_sv",
]


def as_matrix(a, square: bool = False, name: str = "matrix",
              stack: bool = False) -> np.ndarray:
    """Validate `a` as a finite 2-d float array (optionally square), or as
    a 3-d stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1 and not stack:
        m = m.reshape(1, -1)
    if m.ndim != 2 + stack:
        raise ShapeError(
            f"{name} must be {2 + stack}-dimensional, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ShapeError(f"{name} has non-finite entries")
    return m


def one_norm(m) -> float:
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(np.max(np.sum(np.abs(a), axis=0)))


# 2^27 + 1: splits a double into two halves whose products are exact
_SPLIT = 134217729.0


def _two_product(a: float, b: float) -> tuple:
    """(p, e) with p = a b rounded and p + e = a b exactly, by Veltkamp's
    split (Dekker, Numer. Math. 18, 1971), barring over- and underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _planar(m00: float, m01: float, m10: float, m11: float) -> tuple:
    """(tau, h, hl, delta) of the 2x2 matrix m: tau = tr m / 2, and N = m -
    tau I has n_00 = (m00 - m11) / 2 = h + hl exactly (h rounded, hl its
    error) and N^2 = delta I, delta = n_00^2 + m01 m10 rounded once apart
    from an error of order eps^2 (h^2 + |m01 m10|): both products are split
    error-free, so delta loses no digits where the two cancel.  Entries up
    to 2^500 in magnitude keep every part finite."""
    d = m00 - m11
    h, hl = 0.5 * d, 0.5 * math.fsum((m00, -m11, -d))
    p, e = _two_product(h, h)
    q, f = _two_product(m01, m10)
    return 0.5 * m00 + 0.5 * m11, h, hl, math.fsum((p, q, e, f, 2.0 * h * hl))


def _times_exp(c: float, g: float) -> float:
    """c e^g in log space, so a product that is a double comes back finite
    where e^g alone is not, one past the largest double comes back +-inf,
    with no OverflowError, and 1 e^g is math.exp(g)."""
    if c == 0.0:
        return c
    try:
        return math.copysign(math.exp(g + math.log(abs(c))), c)
    except OverflowError:
        return math.copysign(math.inf, c)


def _expm2(m00: float, m01: float, m10: float, m11: float) -> list:
    """e^m of a 2x2 m, entries in row order: e^tau (C I + S N), with N =
    m - tau I, N^2 = delta I (Bernstein & So, IEEE Trans. Autom. Control
    38(8), 1993), C = cosh r and S = sinh r / r for delta = r^2 > 0, cos w
    and sin w / w for delta = -w^2 < 0, and C = S = 1 at 0.  For delta > 0,
    e^tau C and e^tau S are e^{tau + r} (1 + e^{-2r}) / 2 and -e^{tau + r}
    expm1(-2r) / 2r, which neither overflow where cosh r would nor cancel
    at small r.  A diagonal m gives e^{m_ii} exactly."""
    if m01 == 0.0 == m10:
        return [_times_exp(1.0, m00), 0.0, 0.0, _times_exp(1.0, m11)]
    if m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11 <= 2.0 ** 1000:
        # every entry is at most 2^500 in magnitude
        tau, h, hl, delta = _planar(m00, m01, m10, m11)
        root = math.sqrt(abs(delta))
    else:
        if not all(map(math.isfinite, (m00, m01, m10, m11))):
            raise ShapeError("expm argument t * m overflows")
        # delta's products would overflow: the parts of m / 2^600, scaled
        # back, with the root at most the largest double
        k = 2.0 ** 600
        tau, h, hl, delta = _planar(m00 / k, m01 / k, m10 / k, m11 / k)
        tau, h, hl = tau * k, h * k, hl * k
        root = min(math.sqrt(abs(delta)) * k, sys.float_info.max)
    if delta > 0.0:
        g = tau + root
        c = 0.5 + 0.5 * math.exp(-2.0 * root)
        s = -0.5 * math.expm1(-2.0 * root) / root
    elif delta < 0.0:
        g, c, s = tau, math.cos(root), math.sin(root) / root
    else:
        g, c, s = tau, 1.0, 1.0
    n = s * h + s * hl
    if -708.0 < g < 709.0:
        # e^g is a normal double
        e = math.exp(g)
        return [e * (c + n), e * (s * m01), e * (s * m10), e * (c - n)]
    return [_times_exp(x, g) for x in (c + n, s * m01, s * m10, c - n)]


def expm(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m), after validating m and t.

    A 2x2 t*m is exponentiated in closed form by _expm2, on Python floats
    with the math module: within 32 eps (1 + ||t m||_1) normwise of a
    50-digit oracle, an entry past the largest double reading +-inf.  Any
    other size goes to scipy.linalg.expm, imported at its first use, so
    importing the package loads no scipy.  m may also be a stack (k, n, n),
    exponentiated slice by slice in one call, each slice with the bits of
    its own call.
    """
    a = as_matrix(m, square=True, name="expm argument",
                  stack=np.ndim(m) == 3)
    if not math.isfinite(t):
        raise ShapeError("expm time must be finite")
    if t != 1.0:
        a = t * a
    if a.shape[-1] != 2:
        import scipy.linalg
        return scipy.linalg.expm(a)
    if a.ndim == 2:
        return np.array(_expm2(*a.ravel().tolist())).reshape(2, 2)
    return np.array([_expm2(*s) for s in a.reshape(-1, 4).tolist()],
                    dtype=float).reshape(a.shape)


def quad_roots(a1: float, a0: float):
    """Real roots of xi^2 + a1*xi + a0 = 0, ascending; None for a complex pair.

    Uses the subtraction-safe formulation so that xi_plus + xi_minus == -a1
    and xi_plus * xi_minus == a0 hold to rounding.
    """
    disc = a1 * a1 - 4.0 * a0
    if disc < 0.0:
        return None
    rt = math.sqrt(disc)
    q = -0.5 * (a1 + rt) if a1 >= 0.0 else -0.5 * (a1 - rt)
    if q == 0.0:
        # a1 == 0 and a0 == 0
        r1, r2 = 0.0, 0.0
    else:
        r1, r2 = q, a0 / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def min_sv(m) -> float:
    """Smallest singular value (0 for empty input)."""
    a = as_matrix(m, name="min_sv argument")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])
