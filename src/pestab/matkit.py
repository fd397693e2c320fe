"""Dense linear algebra for small real matrices (n <= 8).

Matrix exponential by scaling-and-squaring, eigenvalues, smallest singular
value and quadratic roots.  Everything operates on plain float64 numpy
arrays; validation helpers turn loose input into checked arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

__all__ = [
    "as_matrix",
    "one_norm",
    "expm",
    "eig",
    "quad_roots",
    "min_sv",
]


def as_matrix(a, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a finite 2-d float array (optionally square)."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ShapeError(f"{name} has non-finite entries")
    return m


def one_norm(m) -> float:
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(np.max(np.sum(np.abs(a), axis=0)))


# Coefficients of the degree-13 diagonal Pade approximant to exp, and the
# 1-norm below which it is accurate to double precision without scaling.
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m) via Pade-13 with 1-norm scaling and repeated squaring."""
    a = as_matrix(m, square=True, name="expm argument")
    if not np.isfinite(t):
        raise ShapeError("expm time must be finite")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    a = t * a
    nrm = one_norm(a)
    if nrm == 0.0:
        return np.eye(n)
    s = 0
    if nrm > _THETA13:
        s = int(math.ceil(math.log2(nrm / _THETA13)))
        a = a / (2.0 ** s)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def eig(m) -> np.ndarray:
    """Eigenvalues with algebraic multiplicity, sorted by (real, imag).

    n <= 2 uses the closed-form characteristic polynomial; larger sizes go
    through LAPACK's QR iteration.
    """
    a = as_matrix(m, square=True, name="eig argument")
    n = a.shape[0]
    if n == 0:
        vals = np.zeros(0, dtype=complex)
    elif n == 1:
        vals = np.array([complex(a[0, 0])])
    elif n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = 0.25 * tr * tr - det
        if disc >= 0.0:
            rt = math.sqrt(disc)
            vals = np.array([complex(0.5 * tr + rt), complex(0.5 * tr - rt)])
        else:
            rt = math.sqrt(-disc)
            vals = np.array([complex(0.5 * tr, -rt), complex(0.5 * tr, rt)])
    else:
        vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


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
