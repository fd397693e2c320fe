"""Test-side oracle: the fitted KL envelope of a batch of runs.

`kl_envelope` fits a pair (C_hat, gamma_hat) with ||x(t)|| <= C_hat ||x0||
e^{-gamma_hat dt} over every sample of a batch, and `envelope_holds` checks
a pair on a fresh batch.  No command reads them; acceptance criteria 4 and
12 do, with the margins below.  `fitted_rate` is the end rate of runs that
`simcore._end_rate` must equal bit for bit without filling a sample.
"""

import math

import numpy as np

from pestab.certify import Certificate
from pestab.errors import DomainError, InsufficientDataError
from pestab.simcore import _ends_rate

_KL_RATE_MARGIN = 0.05
_KL_CONST_MARGIN = 0.25


def fitted_rate(runs, horizon: float) -> float:
    """_ends_rate of the runs' first and last states, or -inf once a run
    has a non-finite state."""
    if not all(np.isfinite(tr.states).all() for tr in runs):
        return -math.inf
    return _ends_rate(((tr.states[0], tr.states[-1]) for tr in runs),
                      horizon)


def kl_envelope(trajs) -> Certificate:
    """Fit (C_hat, gamma_hat) with ||x(t)|| <= C_hat ||x0|| e^{-gamma_hat dt}
    over every sample of the batch.

    The fitted pair carries explicit margins (rate shrunk by 5%, constant
    inflated by 25%) so that it transfers to a fresh battery of the same
    class; finite batches cannot pin the extremal envelope exactly.  A run
    that ends at zero (end rate +inf) bounds no rate.
    """
    if len(trajs) < 1:
        raise InsufficientDataError("empty batch")
    rates = []
    culprit = None
    for i, tr in enumerate(trajs):
        nrm = tr.norms()
        n0 = nrm[0]
        if n0 <= 0.0:
            raise DomainError("zero initial state in batch")
        if not np.all(np.isfinite(nrm)) or np.max(nrm) > 1e9 * n0:
            culprit = i
            rates.append(-math.inf)
            continue
        rates.append(fitted_rate([tr], tr.times[-1] - tr.times[0]))
    min_rate = float(min(rates))
    if min_rate == math.inf:
        raise InsufficientDataError("no run bounds the rate; all end at zero")
    worst = int(np.argmin(rates))
    gamma_hat = (1.0 - _KL_RATE_MARGIN) * min_rate if min_rate > 0.0 else min_rate
    c_tight = 0.0
    if math.isfinite(gamma_hat):
        for tr in trajs:
            nrm = tr.norms()
            dt = tr.times - tr.times[0]
            with np.errstate(over="ignore", invalid="ignore"):
                env = nrm / nrm[0] * np.exp(gamma_hat * dt)
            good = np.isfinite(env)
            if good.any():
                c_tight = max(c_tight, float(np.max(env[good])))
    c_hat = (1.0 + _KL_CONST_MARGIN) * c_tight
    passed = gamma_hat > 0.0 and culprit is None
    notes = []
    if culprit is not None:
        notes.append(f"unbounded trajectory at batch index {culprit}")
    elif min_rate <= 0.0:
        notes.append(f"non-decaying trajectory at batch index {worst}")
    return Certificate(
        "kl_envelope", passed,
        {"gamma_hat": gamma_hat, "C_hat": c_hat, "C_tight": c_tight,
         "min_end_rate": min_rate, "worst_index": worst},
        {"rate_margin": _KL_RATE_MARGIN, "const_margin": _KL_CONST_MARGIN},
        {"size": len(trajs)}, notes)


def envelope_holds(trajs, C: float, gamma: float):
    """Check ||x(t)|| <= C ||x0|| e^{-gamma dt} across a batch, with 1e-12
    slack; returns (ok, worst_margin) where margin is the log-gap (positive =
    satisfied)."""
    worst = math.inf
    for tr in trajs:
        nrm = tr.norms()
        dt = tr.times - tr.times[0]
        # a zero norm meets any envelope: its log is -inf, its margin inf
        with np.errstate(divide="ignore"):
            margin = np.log(C) - gamma * dt - np.log(nrm / nrm[0])
        worst = min(worst, float(np.min(margin)))
    return worst >= -1e-12, worst
