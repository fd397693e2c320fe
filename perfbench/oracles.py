"""Independent oracles for a seeded sample of benchmark ops.

Neither oracle calls pestab code for the quantity it checks: propagation is
compared against a product of `scipy.linalg.expm` factors over the signal's
constant pieces, and the exact PE window scan against a dense scan of the
window integral built with numpy from the signal's breakpoints.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Relative deviation allowed between pestab's per-sample propagation and the
# per-piece scipy product: both are exact up to expm rounding, which grows
# with the number of steps (at most a few 1e4 here) times machine epsilon.
PROPAGATE_RTOL = 1e-9
WINDOW_STARTS = 4096


def _pieces(sig, t1: float):
    """(start, end, value) pieces of a PwcSignal on [0, t1], from its raw
    breakpoints, without merging equal neighbours."""
    bp = np.asarray(sig.breakpoints, dtype=float)
    vals = np.asarray(sig.values, dtype=float)
    if sig.period is not None:
        p = sig.period
        cuts = (np.arange(int(np.ceil(t1 / p)) + 1)[:, None] * p
                + bp[None, :-1]).ravel()
    else:
        cuts = bp
    inner = cuts[(cuts > 0) & (cuts < t1)]
    cuts = np.unique(np.concatenate([[0.0, t1], inner]))
    out = []
    for s, e in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (s + e)
        if sig.period is not None:
            tau = mid % sig.period
            out.append((s, e, vals[np.searchsorted(bp, tau, "right") - 1]))
        elif mid >= bp[-1]:
            out.append((s, e, sig.hold))
        else:
            out.append((s, e, vals[np.searchsorted(bp, mid, "right") - 1]))
    return out


def _product(A, B, K, sig, X, t1: float):
    """Yield (piece end, states) of the scipy expm product from X at t = 0
    over the signal's pieces on [0, t1]; X holds one state per column."""
    A, B, K = (np.asarray(m, dtype=float) for m in (A, B, K))
    bk = B @ K
    for s, e, a in _pieces(sig, t1):
        X = scipy.linalg.expm((A + a * bk) * (e - s)) @ X
        yield e, X


def propagate_problems(times, states, A, B, K, sig, x0) -> list:
    """Compare sampled states (rows of `states`, from x0 at t = 0) with the
    scipy product at every piece end that is also a sample time, and at the
    final time."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    t1 = float(times[-1])
    index = {float(t): j for j, t in enumerate(times)}
    worst, checked = 0.0, 0
    for e, x in _product(A, B, K, sig, x0, t1):
        j = index.get(float(e))
        if j is None:
            continue
        err = np.linalg.norm(states[j] - x) / max(np.linalg.norm(x), 1e-300)
        worst = max(worst, float(err))
        checked += 1
    if t1 not in index or checked == 0:
        return ["propagate oracle: final time not sampled"]
    if not worst <= PROPAGATE_RTOL:
        return [f"propagate deviates from the scipy expm product by "
                f"{worst:.3g} (relative) > {PROPAGATE_RTOL:g}"]
    return []


def decay_problems(decay: float, A, B, K, sig, x0s, horizon: float) -> list:
    """Check a reported decay rate, min over x0 of -log(|x(h)| / |x0|) / h,
    against the scipy product at the horizon h.  A relative state error e
    moves the logarithm by about e, so the rate may differ by e / h."""
    X = X0 = np.column_stack([np.asarray(x, dtype=float) for x in x0s])
    for _, X in _product(A, B, K, sig, X0, horizon):
        pass
    want = float(np.min(-np.log(np.linalg.norm(X, axis=0)
                                 / np.linalg.norm(X0, axis=0)) / horizon))
    if not abs(decay - want) * horizon <= PROPAGATE_RTOL:
        return [f"reported decay {decay!r} differs from the scipy expm "
                f"product's {want!r}"]
    return []


def _cumulative(sig, t: np.ndarray) -> np.ndarray:
    """Exact integral of the signal over [0, t], vectorized over t."""
    bp = np.asarray(sig.breakpoints, dtype=float)
    vals = np.asarray(sig.values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])
    if sig.period is not None:
        p = sig.period
        k = np.floor(t / p)
        return k * cum[-1] + np.interp(t - k * p, bp, cum)
    inside = np.interp(np.minimum(t, bp[-1]), bp, cum)
    return inside + sig.hold * np.maximum(t - bp[-1], 0.0)


def window_problems(report, sig, T: float, mu: float, horizon: float) -> list:
    """Check a verify_pe report against a dense scan of window starts.

    The window integral is 1-Lipschitz in its start (alpha lies in [0, 1]),
    so the exact minimum lies within one grid spacing below the dense one."""
    hi = sig.period if sig.period is not None else horizon - T
    starts = np.linspace(0.0, hi, WINDOW_STARTS, endpoint=sig.period is None)
    dense = _cumulative(sig, starts + T) - _cumulative(sig, starts)
    dense_min = float(dense.min())
    spacing = hi / (WINDOW_STARTS - 1) if hi > 0 else 0.0
    slack = 1e-12 * max(1.0, T)
    probs = []
    if report.worst_integral > dense_min + slack:
        probs.append(f"verify_pe minimum {report.worst_integral!r} exceeds "
                     f"the dense-scan minimum {dense_min!r}")
    if dense_min > report.worst_integral + spacing + slack:
        probs.append(f"dense-scan minimum {dense_min!r} is more than one "
                     f"grid step above verify_pe's {report.worst_integral!r}")
    if abs(dense_min - mu) > spacing + slack and \
            report.ok != (dense_min >= mu):
        probs.append(f"verify_pe verdict {report.ok} disagrees with the "
                     f"dense scan (minimum {dense_min!r}, mu {mu!r})")
    return probs
