"""Dense linear algebra for small real matrices (n <= 8).

Matrix exponential (scipy's, of one matrix or a stack), smallest singular
value and quadratic roots.  Everything operates on plain float64 numpy
arrays; validation helpers turn loose input into checked arrays.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

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
    if m.size and not np.isfinite(m).all():
        raise ShapeError(f"{name} has non-finite entries")
    return m


def one_norm(m) -> float:
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(np.max(np.sum(np.abs(a), axis=0)))


def expm(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m) by scipy.linalg.expm, after validating m and t.

    m may also be a stack (k, n, n): scipy exponentiates it slice by slice
    in one call, each slice with the bits of its own call.
    """
    a = as_matrix(m, square=True, name="expm argument",
                  stack=np.ndim(m) == 3)
    if not math.isfinite(t):
        raise ShapeError("expm time must be finite")
    return scipy.linalg.expm(t * a)


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
