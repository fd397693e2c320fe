"""Controllability Gramian of x' = Ax + alpha(t)Bu and the window threshold.

The Gramian carries the squared gate, W(t) = int_0^t alpha(s)^2
e^{A(t-s)} B B^T e^{A^T(t-s)} ds: the gate multiplies the input, so the
reachability integrand sees alpha^2.  Since alpha >= 0 this has the same
kernel as the unsquared condition.  Each constant-alpha segment is resolved
by a block-matrix-exponential quadrature, so the result is exact to expm
accuracy.  One call gives the Gramians of one gate or of a whole battery
over [0, t] from one stacked exponential over the distinct piece widths of
all its gates; the battery's singular values then come from one batched SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .matkit import as_matrix, expm, min_sv
from .signals import PeClass, PwcSignal, verify_pe
from .simcore import _flow

__all__ = [
    "GramianReport",
    "ThresholdReport",
    "gramian",
    "kalman_rank",
    "threshold_check",
    "adversarial_signal",
    "witness_residual",
]

_CTRL_TOL = 1e-9


@dataclass(eq=False)
class GramianReport:
    t: float
    W: np.ndarray
    min_sv: float
    controllable: bool
    witness: np.ndarray | None
    tol: float

    def to_json(self) -> dict:
        out = {"t": self.t, "min_sv": self.min_sv,
               "controllable": self.controllable}
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        return out


def _segment_gramian(A: np.ndarray, Q: np.ndarray, h) -> tuple:
    """(e^{Ah}, int_0^h e^{As} Q e^{A^T s} ds) via one block exponential;
    for an array of widths h, stacks of both from one stacked expm."""
    n = A.shape[0]
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = -A
    C[:n, n:] = Q
    C[n:, n:] = A.T
    E = expm(np.multiply.outer(h, C))
    phi = np.swapaxes(E[..., n:, n:], -1, -2)   # e^{A h}, from e^{A^T h}
    H = phi @ E[..., :n, n:]
    return phi, 0.5 * (H + np.swapaxes(H, -1, -2))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")


def _gramians(A: np.ndarray, B: np.ndarray, gates, t: float) -> np.ndarray:
    """The (k, n, n) Gramians of k gates over [0, t]; DomainError when one is
    not finite."""
    if t <= 0.0:
        raise DomainError("horizon must be positive")
    pieces = [[(e - s, a) for s, e, a in g.segments(0.0, t)] for g in gates]
    widths = list(dict.fromkeys(h for p in pieces for h, _ in p))
    with np.errstate(over="ignore", invalid="ignore"):
        phis, Hs = _segment_gramian(A, B @ B.T, np.array(widths))
        flows = dict(zip(widths, zip(phis, Hs)))
        Ws = np.zeros((len(gates),) + A.shape)
        for W, p in zip(Ws, pieces):
            for h, a in p:
                phi, H = flows[h]
                W[...] = phi @ W @ phi.T + (a * a) * H
        Ws = 0.5 * (Ws + np.swapaxes(Ws, 1, 2))
    if not np.all(np.isfinite(Ws)):
        raise DomainError(f"the Gramian over [0, {t!r}] is not finite")
    return Ws


def gramian(A, B, alpha: PwcSignal, t: float, tol: float = _CTRL_TOL) -> GramianReport:
    """Gramian over [0, t]; controllable iff min_sv(W) > tol * trace(W)/n,
    for a finite tol > 0."""
    _check_tol(tol)
    A = as_matrix(A, square=True, name="A")
    B = as_matrix(B, name="B")
    W = _gramians(A, B, [alpha], t)[0]
    sv = min_sv(W)
    scale = float(np.trace(W)) / A.shape[0]
    controllable = bool(sv > tol * scale)
    witness = None
    if not controllable:
        _, _, vt = np.linalg.svd(W)
        witness = vt[-1] / np.linalg.norm(vt[-1])
    return GramianReport(t, W, sv, controllable, witness, tol)


def kalman_rank(A, B) -> int:
    """Rank of [B, AB, ..., A^(n-1)B] at relative tolerance 1e-10."""
    A = as_matrix(A, square=True, name="A")
    B = as_matrix(B, name="B")
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    sv = np.linalg.svd(C, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0]))


def adversarial_signal(cls: PeClass) -> PwcSignal:
    """Member of the class that is zero on [0, T - mu]: off-block first, then
    full excitation; every length-T window still integrates to exactly mu."""
    T, mu = cls.T, cls.mu
    if mu >= T:
        return PwcSignal.constant(1.0)
    return PwcSignal.periodic((0.0, T - mu, T), (0.0, 1.0))


def witness_residual(A, B, alpha: PwcSignal, t: float, p: np.ndarray,
                     grid: int = 2000) -> float:
    """max over a fine s-grid of |alpha(s) p^T e^{A(t-s)} B|.

    The gate is sampled at grid-cell midpoints: the kernel condition only
    holds almost everywhere, and switch instants carry no measure.  The
    residual is evaluated only where the gate is nonzero, so a gate that
    is zero on [0, t] (the adversarial signal below T - mu) gives exactly 0
    without an exponential.  Otherwise y(s) = e^{A^T (t-s)} p comes from
    one power table of e^{-A^T h} (simcore's propagation kernel)."""
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    h = t / grid
    mids = (np.arange(grid) + 0.5) * h
    starts, _, vals = zip(*alpha.segments(0.0, t))
    gate = np.asarray(vals)[np.searchsorted(starts, mids, side="right") - 1]
    if not np.any(gate):
        return 0.0
    # y at s = -h/2, then one step of e^{-A^T h} per grid midpoint
    y = expm(A.T, t + 0.5 * h) @ p
    _, ys, _ = _flow(lambda a: -A.T, np.zeros(1), np.array([0.0, t]),
                     np.array([t]), np.array([grid]), y[:, np.newaxis])
    return float(np.max(gate * np.max(np.abs(ys[1:, :, 0] @ B), axis=1)))


@dataclass(eq=False)
class ThresholdReport:
    t: float
    cls: PeClass
    claim: bool
    evidence: dict

    def to_json(self) -> dict:
        return {"t": self.t, "T": self.cls.T, "mu": self.cls.mu,
                "claim": self.claim, "evidence": self.evidence}


def _below_threshold(cls: PeClass, t: float) -> bool:
    """Whether t <= T - mu, within 1e-12: threshold_check reads no battery."""
    return t <= cls.T - cls.mu + 1e-12


def threshold_check(A, B, cls: PeClass, t: float, battery,
                    tol: float = _CTRL_TOL) -> ThresholdReport:
    """Controllability dichotomy at horizon t.

    t <= T - mu: build the adversarial signal (zero on [0, t]) and certify the
    Gramian singular; the witness residual is evaluated only where that gate
    is nonzero, so here it is 0 by construction. t > T - mu: certify the
    Gramian nonsingular for every battery member, by gramian's rule, and
    report the smallest min_sv relative to trace(W)/n; all members' Gramians
    come from one stacked exponential and their singular values from one
    batched SVD.  An empty battery is refused there.  A Gramian that is not
    finite raises DomainError on either side.
    """
    _check_tol(tol)
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    n = A.shape[0]
    if kalman_rank(A, B) != n:
        raise PreconditionError("(A, B) must be a controllable pair")
    if _below_threshold(cls, t):
        adv = adversarial_signal(cls)
        rep = gramian(A, B, adv, t, tol)
        singular = not rep.controllable
        ev = {"kind": "adversarial", "min_sv": rep.min_sv,
              "pe_ok": verify_pe(adv, cls, horizon=2 * cls.T).ok}
        if rep.witness is not None:
            ev["witness"] = [float(v) for v in rep.witness]
            ev["witness_residual"] = witness_residual(A, B, adv, t, rep.witness)
        return ThresholdReport(t, cls, singular, ev)
    if not battery:
        raise DomainError(f"t = {t!r} lies above T - mu: the battery is empty")
    Ws = _gramians(A, B, battery, t)
    svs = np.linalg.svd(Ws, compute_uv=False)[:, -1]
    scales = np.trace(Ws, axis1=1, axis2=2) / n
    ev = {"kind": "battery", "battery_size": len(battery),
          "worst_relative_min_sv": float(np.min(svs / np.maximum(scales, 1e-300)))}
    return ThresholdReport(t, cls, bool(np.all(svs > tol * scales)), ev)
