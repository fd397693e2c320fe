"""Stabilizing gain construction.

Three routes: transpose feedback on the oscillatory part of a neutrally
stable system (valid for every excitation class), the planar one-parameter
family for the double integrator with its cone geometry, and the full-rank
multi-input gain that turns the loop into a gated scalar contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InternalConsistencyError, NotNeutrallyStable,
                     ShapeError)
from .matkit import as_matrix, min_sv, one_norm, quad_roots
from .signals import PeClass

__all__ = [
    "A_DI", "B_DI", "A_ROTATION",
    "NeutralDecomposition", "neutral_decompose", "neutral_gain",
    "DIGain", "di_gain", "di_base_gain",
    "ConeGeometry", "cone_geometry",
    "multi_input_gain",
]

A_DI = np.array([[0.0, 1.0], [0.0, 0.0]])
B_DI = np.array([[0.0], [1.0]])
A_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def _positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")


# ---------------------------------------------------------------------------
# neutrally stable systems
# ---------------------------------------------------------------------------

# Largest ratio of P3's extreme singular values that reads as a defective
# center.  Semisimple seeded systems (seeds 0-1999 of test_gains'
# seeded_neutral_system) reach down to 6.2e-5; defective centers under 200
# random similarities each (a Jordan pair at omega from 0.01 to 5000, a
# nilpotent 2- or 3-block) stay below 1.1e-6.
_BASIS_TOL = 1e-5
# Largest positive real part, relative to max(||A||_1, 1), that a refusal
# names as a possibly defective imaginary-axis eigenvalue
_SPLIT_TOL = math.sqrt(np.finfo(float).eps)


@dataclass(eq=False)
class NeutralDecomposition:
    """Coordinates y = S x in which A is block triangular with a Hurwitz
    leading block and a skew-symmetric trailing block."""

    S: np.ndarray
    S_inv: np.ndarray
    n_stable: int
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    B3: np.ndarray


def neutral_decompose(A, B) -> NeutralDecomposition:
    """Split off the Hurwitz part and realize the oscillatory part as an
    honest skew-symmetric block.

    Ordered real Schur form puts the strictly stable eigenvalues first.  The
    trailing quasi-triangular block R22 has no eigenvalue with positive real
    part and is semisimple, so its unit eigenvectors V form a basis and
    G = V V* is real and positive definite, with R22 G + G R22^T =
    V (L + L*) V* = 0 for the eigenvalues L.  P3 is the transposed R factor
    of one QR of [Re V, Im V]^T, so P3 P3^T = G and P3^-1 R22 P3 is
    skew-symmetric.  A defective center has no eigenbasis: it is refused
    when P3, the matrix the construction inverts, has a singular value
    ratio at or below _BASIS_TOL.  scipy, for the Schur form, is imported
    at the first call.
    """
    import scipy.linalg
    A = as_matrix(A, square=True, name="A")
    B = as_matrix(B, name="B")
    axis_tol = 1e-10 * max(one_norm(A), 1.0)
    try:
        R, Z, n1 = scipy.linalg.schur(
            A, output="real", sort=lambda re, im: re < -axis_tol)
    except np.linalg.LinAlgError as exc:
        # reordering can fail on the clustered eigenvalues of a defective
        # center
        raise NotNeutrallyStable(f"no ordered Schur form: {exc}") from None
    R22 = R[n1:, n1:]
    w, V = np.linalg.eig(R22)
    if np.any(w.real > axis_tol):
        worst = w[w.real.argmax()]
        # a similar copy of a defective center splits its eigenvalue by
        # about the square root of the rounding error
        hint = "" if worst.real > _SPLIT_TOL * max(one_norm(A), 1.0) else \
            " (it may be a split copy of a defective imaginary-axis eigenvalue)"
        raise NotNeutrallyStable(
            f"eigenvalue {worst} has positive real part{hint}")
    P3 = np.linalg.qr(np.hstack((V.real, V.imag)).T, mode="r").T
    sv = np.linalg.svd(P3, compute_uv=False)
    if sv.size and sv[-1] <= _BASIS_TOL * sv[0]:
        raise NotNeutrallyStable(
            "imaginary-axis eigenvalues are not semisimple: eigenvector "
            f"basis singular value ratio {sv[-1] / sv[0]:.3g}")
    P3_inv = np.linalg.inv(P3)
    # S = diag(I, P3^-1) Z^T and S^-1 = Z diag(I, P3)
    S = np.vstack((Z.T[:n1], P3_inv @ Z.T[n1:]))
    S_inv = np.hstack((Z[:, :n1], Z[:, n1:] @ P3))
    return NeutralDecomposition(S, S_inv, n1, R[:n1, :n1], R[:n1, n1:] @ P3,
                                P3_inv @ R22 @ P3, (S @ B)[n1:])


def neutral_gain(A, B, r: float = 1.0) -> np.ndarray:
    """Gain that damps the oscillatory part: zero on the Hurwitz coordinates,
    -r times the transposed input block on the skew coordinates.  Valid for
    every excitation class; reduces to -r B^T when A is skew-symmetric."""
    _positive(r, "gain scale r")
    dec = neutral_decompose(A, B)
    K_dec = np.hstack([np.zeros((dec.B3.shape[1], dec.n_stable)),
                       -r * dec.B3.T])
    return K_dec @ dec.S


# ---------------------------------------------------------------------------
# double integrator
# ---------------------------------------------------------------------------

def di_base_gain(rho: float, k: float) -> np.ndarray:
    """The planar gain (-rho k^2 / 2, -k)."""
    return np.array([[-rho * k * k / 2.0, -k]])


@dataclass(frozen=True)
class DIGain:
    """Planar gain family member: K = (-lam^2 rho k^2 / 2, -lam k).

    The lam-scaled gain stabilizes a class exactly when the base gain
    stabilizes the lam-times-faster class.
    """

    cls: PeClass
    rho: float
    k: float
    lam: float = 1.0

    def __post_init__(self):
        bound = self.cls.mu / (2.0 * self.cls.T)
        if not (0.0 < self.rho < bound):
            raise DomainError(
                f"rho must lie in (0, {bound}) for this class, got {self.rho}")
        _positive(self.k, "k")
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise DomainError(f"lam must be finite and >= 1, got {self.lam!r}")
        try:
            _positive(self.k1, "k1 = lam^2 rho k^2 / 2")
        except OverflowError:
            raise DomainError(f"k1 = lam^2 rho k^2 / 2 overflows for k = "
                              f"{self.k!r}, lam = {self.lam!r}") from None
        # closed-loop eigenvalues stay real and negative across the whole
        # effective gate range [mu/T, 1]
        for a in (self.cls.ratio, 1.0):
            roots = quad_roots(a * self.k2, a * self.k1)
            if roots is None or roots[1] >= 0.0:
                raise InternalConsistencyError(
                    "closed-loop eigenvalues not real negative; rho bound breached")

    @property
    def k1(self) -> float:
        return self.lam ** 2 * self.rho * self.k ** 2 / 2.0

    @property
    def k2(self) -> float:
        return self.lam * self.k

    @property
    def K(self) -> np.ndarray:
        return np.array([[-self.k1, -self.k2]])

    def to_json(self) -> dict:
        return {"kind": "di", "rho": self.rho, "k": self.k, "lam": self.lam,
                "T": self.cls.T, "mu": self.cls.mu, "K": self.K.tolist()}


def di_gain(cls: PeClass, rho: float, k: float, lam: float = 1.0) -> DIGain:
    return DIGain(cls, rho, k, lam)


@dataclass(frozen=True)
class ConeGeometry:
    """Slopes and the membership quadratic for the upper-half-plane cones.

    xi_s_plus / xi_s_minus bound the sector in which the vertical component
    contracts like a gated scalar system; the other four slopes are the
    closed-loop eigendirections at the extreme constant gates.
    """

    rho: float
    k: float
    ratio: float
    xi_s_plus: float
    xi_s_minus: float
    xi_1_plus: float
    xi_1_minus: float
    xi_r_plus: float
    xi_r_minus: float

    @property
    def ordered_slopes(self) -> tuple:
        return (self.xi_s_plus, self.xi_1_plus, self.xi_r_plus,
                self.xi_r_minus, self.xi_1_minus, self.xi_s_minus)

    def cs_quadratic(self, x1, x2):
        """Negative inside the central cone, positive in the outer cones;
        antipodal-invariant, so it classifies mod-pi directions."""
        return (x2 - self.xi_s_plus * x1) * (x2 - self.xi_s_minus * x1)


def cone_geometry(rho: float, k: float, ratio: float) -> ConeGeometry:
    """Slopes for the cone decomposition; the strict ordering
    xi_s_plus < xi_1_plus < xi_r_plus < xi_r_minus < xi_1_minus < xi_s_minus < 0
    is asserted at tolerance 1e-12*k."""
    if not (0.0 < ratio <= 1.0):
        raise DomainError("ratio must lie in (0, 1]")
    if not (0.0 < rho < ratio / 2.0):
        raise DomainError(f"rho must lie in (0, {ratio / 2.0})")
    _positive(k, "k")
    xi_s_plus = -0.5 * k * (1.0 + math.sqrt(1.0 - rho))
    xi_s_minus = -0.5 * k * (1.0 - math.sqrt(1.0 - (2.0 - rho / 2.0) * rho))
    r1 = quad_roots(k, rho * k * k / 2.0)
    rr = quad_roots(ratio * k, ratio * rho * k * k / 2.0)
    if r1 is None or rr is None:
        raise InternalConsistencyError("eigen-slopes not real; rho bound breached")
    geom = ConeGeometry(rho, k, ratio, xi_s_plus, xi_s_minus,
                        r1[0], r1[1], rr[0], rr[1])
    # at ratio == 1 the two eigen-slope families coincide; the strict chain
    # applies to the distinct slopes only
    if ratio == 1.0:
        chain = (geom.xi_s_plus, geom.xi_1_plus, geom.xi_1_minus,
                 geom.xi_s_minus, 0.0)
    else:
        chain = geom.ordered_slopes + (0.0,)
    margin = 1e-12 * k
    for a, b in zip(chain, chain[1:]):
        if not (a < b - margin):
            raise InternalConsistencyError(
                f"cone slope ordering violated: {a} !< {b}")
    return geom


# ---------------------------------------------------------------------------
# rank-2 input matrix
# ---------------------------------------------------------------------------

def multi_input_gain(B, k: float) -> np.ndarray:
    """K = -k * B^+ for a full-row-rank 2 x m input matrix, so B K = -k Id.

    The minimal-norm right inverse comes from the SVD; rank deficiency is
    rejected, and so is a single column, whose one singular value is no rank
    test (a single effective input column should go through the planar gain
    family instead)."""
    B = as_matrix(B, name="B")
    if B.shape[0] != 2:
        raise ShapeError("multi-input gain expects a 2 x m input matrix")
    _positive(k, "k")
    scale = max(one_norm(B), 1e-300)
    if B.shape[1] < 2 or min_sv(B) <= 1e-10 * scale:
        raise DomainError(
            "input matrix has rank < 2; use the planar gain family on a "
            "controllable column instead")
    return -k * np.linalg.pinv(B)
