"""The benchmark's three workloads.

Each workload turns (seed, pass number) into a fixed list of ops; one pass
of that list is the unit of work whose wall time the benchmark reports, and
a run makes `PASSES` passes, so two commits time the same op lists at a
seed.  `PASSES` is sized so that a run measures about 20 s on a 2-vCPU
Intel Xeon.  An op's `run` goes through the package's public entry points
and is the only timed part; its `check` verifies the output (and, on a
seeded sample of ops, compares it against the independent oracles) and
returns the bytes that enter the output digest.

* certify-battery: (battery member, certificate) pairs over a seeded
  `make_battery`.  Per-sample certificate code dominates: the
  `check_V_neutral` loop, the polar unwrap and the chain bisections.
* tune-search: one `worst_case_search` per op over a balanced grid of
  classes, gains and horizons.  Almost all time is per-sample propagation,
  at working sets from about 1e3 to 2.4e4 samples per trajectory.
* cli-mix: in-process `pestab` CLI calls rotating through threshold,
  destabilize and simulate.  Matrix exponentials inside bisection
  root-finds and CSV writes dominate; propagation is small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pestab import adversary, certify, cli, gains, signals, simcore

import oracles

CLS = signals.PeClass(1.0, 0.5)
B_ROT = np.array([[0.0], [1.0]])
# Share of ops whose output is also compared against the oracles.
ORACLE_SHARE = 0.125


@dataclass
class Op:
    """One timed call and the check of its result.

    `check(result)` returns (problems, digest bytes, bytes written)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _unit_columns(rng, m: int) -> np.ndarray:
    phi = 2.0 * np.pi * rng.random(m)
    return np.vstack([np.cos(phi), np.sin(phi)])


def _blob(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _cert_problems(cert) -> list:
    probs = []
    if not cert.passed:
        probs.append(f"{cert.name} verdict FAIL: {cert.notes}")
    bad = [k for k, v in cert.measured.items() if not math.isfinite(v)]
    if bad:
        probs.append(f"{cert.name} measured non-finite {bad}")
    return probs


def _signal_problems(sig, cls, horizon: float, oracle: bool) -> list:
    rep = signals.verify_pe(sig, cls, horizon)
    probs = [] if rep.ok else [f"signal fails verify_pe: {rep}"]
    if oracle:
        probs += oracles.window_problems(rep, sig, cls.T, cls.mu, horizon)
    return probs


# ---------------------------------------------------------------------------
# certify-battery
# ---------------------------------------------------------------------------

class CertifyBattery:
    """Neutral energy identity and the four double-integrator cone
    certificates, each on one battery member."""

    name = "certify-battery"
    PASSES = 4
    BATTERY_SIZE = 20
    NEUTRAL_HORIZON = 5.0
    CONE = (0.2, 4.0, 8.0)          # (rho, k, lam)
    CONE_HORIZON = 5.0
    CONE_CERTS = ("f_monotone_battery", "cs_decay_battery",
                  "quadrant_battery", "chain_battery")

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def ops(self, seed: int, pass_no: int):
        rng = np.random.default_rng([seed, pass_no])
        battery = signals.make_battery(CLS, self.BATTERY_SIZE,
                                       seed=int(rng.integers(2 ** 31)))
        x0 = certify.unit_circle_grid(4)
        ops = []
        for sig in battery.signals:
            ops.append(self._neutral(sig, x0, rng.random() < ORACLE_SHARE))
            for name in self.CONE_CERTS:
                ops.append(self._cone(name, sig, x0,
                                      rng.random() < ORACLE_SHARE))
        return ops, self._neutral(battery.signals[0], x0, False)

    def _neutral(self, sig, x0, oracle: bool) -> Op:
        K = -B_ROT.T

        def run():
            loop = simcore.ClosedLoop(gains.A_ROTATION, B_ROT, K, sig)
            runs = simcore.propagate_batch(loop, 0.0, x0,
                                           self.NEUTRAL_HORIZON)
            return runs, [certify.check_V_neutral(tr, B_ROT) for tr in runs]

        def check(result):
            runs, certs = result
            probs = [p for c in certs for p in _cert_problems(c)]
            if len(certs) != x0.shape[1]:
                probs.append(f"{len(certs)} certificates for "
                             f"{x0.shape[1]} initial states")
            probs += _signal_problems(sig, CLS, 2.0 * CLS.T, oracle)
            if oracle:
                for j, tr in enumerate(runs):
                    probs += oracles.propagate_problems(
                        tr.times, tr.states, gains.A_ROTATION, B_ROT, K,
                        sig, x0[:, j])
            return probs, _blob([c.to_json() for c in certs]), 0

        return Op("neutral", run, check)

    def _cone(self, name: str, sig, x0, oracle: bool) -> Op:
        rho, k, lam = self.CONE

        def run():
            return getattr(certify, name)(CLS, rho, k, lam, [sig], x0,
                                          self.CONE_HORIZON)

        def check(cert):
            probs = _cert_problems(cert)
            if oracle:
                # The certificate keeps its runs to itself, so the oracle
                # checks a width-1 run of the same loop and signal.
                K = gains.di_base_gain(rho, k)
                fast = signals.rescale_time(sig, lam)
                tr = simcore.propagate(
                    simcore.ClosedLoop(gains.A_DI, gains.B_DI, K, fast), 0.0,
                    x0[:, 0], self.CONE_HORIZON)
                probs += oracles.propagate_problems(
                    tr.times, tr.states, gains.A_DI, gains.B_DI, K, fast,
                    x0[:, 0])
            return probs, _blob(cert.to_json()), 0

        return Op(name, run, check)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# tune-search
# ---------------------------------------------------------------------------

class TuneSearch:
    """Adversarial duty search over a balanced (class, gain) grid.

    Each pass pairs the 25 points of a log-uniform grid of samples per
    trajectory, in seeded order, with the grid cells (each twice, plus one
    seeded extra); the horizon is set from the sample count and the cell's
    default step.  Every pass then does the same propagation work.  An op's
    latency follows its sample count, and with 25 levels the median and
    90th percentile of the pooled latencies fall mid-level (levels 13 and
    23), not in the gap between two levels."""

    name = "tune-search"
    PASSES = 8
    RATIOS = (0.3, 0.5, 0.7)
    KS = (1.0, 2.0)
    LAM_OVER_K = (1.0, 2.0)
    SAMPLES = (1.0e3, 2.4e4)
    LEVELS = 25
    BUDGET = 3

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def ops(self, seed: int, pass_no: int):
        rng = np.random.default_rng([seed, pass_no])
        cells = 2 * list(itertools.product(self.RATIOS, self.KS,
                                           self.LAM_OVER_K))
        cells.append(cells[rng.integers(len(cells))])
        lo, hi = self.SAMPLES
        n = self.LEVELS
        ops = [self._op(cells[c], lo * (hi / lo) ** ((j + 0.5) / n),
                        rng, rng.random() < ORACLE_SHARE)
               for j, c in enumerate(rng.permutation(n))]
        warm = self._op(cells[0], lo, rng, False)
        return [ops[i] for i in rng.permutation(n)], warm

    def _op(self, cell, samples: float, rng, oracle: bool) -> Op:
        ratio, k, lam_over_k = cell
        cls = signals.PeClass(1.0, ratio)
        K = gains.di_gain(cls, 0.4 * ratio, k, lam_over_k * k).K
        loop = simcore.ClosedLoop(gains.A_DI, gains.B_DI, K,
                                  signals.PwcSignal.constant(1.0))
        horizon = samples * loop.default_max_step()
        cols = _unit_columns(rng, 2)
        x0s = [cols[:, 0], cols[:, 1]]
        search_seed = int(rng.integers(2 ** 31))

        def run():
            return adversary.worst_case_search(
                gains.A_DI, gains.B_DI, K, cls, x0s, self.BUDGET, horizon,
                seed=search_seed)

        def check(result):
            sig, rep = result
            probs = _signal_problems(sig, cls, 2.0 * cls.T, oracle)
            if not rep["pe_ok"]:
                probs.append("search reports a signal outside the class")
            if not math.isfinite(rep["decay"]):
                probs.append(f"non-finite decay {rep['decay']}")
            if rep["evaluations"] != self.BUDGET:
                probs.append(f"{rep['evaluations']} evaluations, budget "
                             f"{self.BUDGET}")
            if oracle:
                probs += oracles.decay_problems(rep["decay"], gains.A_DI,
                                                gains.B_DI, K, sig, x0s,
                                                horizon)
            return probs, _blob([rep, sig.to_json()]), 0

        return Op("worst_case_search", run, check)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def _cli(argv: list) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _read_outputs(out: Path) -> tuple:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    h = hashlib.sha256()
    total = 0
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(p.relative_to(out).as_posix().encode() + b"\0" + data)
    return h.digest(), total


class CliMix:
    """In-process `pestab` calls: threshold, destabilize, simulate.

    The destabilize gains come from a fixed grid, one op per cell in
    seeded order with seeded jitter; every cell has nu_hat above 0.08, so
    the seeded mu in [0.01, 0.05] always lies in the destabilized regime.
    The simulate sample counts are the 7 points of a log-uniform grid,
    the middle one twice, in seeded order; the horizon follows from the
    seeded gain's default step.  Every pass then carries the same mix of
    costs.  The median op latency falls among the simulate ops, and the
    doubled middle level keeps it inside a level, not in a gap."""

    name = "cli-mix"
    PASSES = 8
    DESTABILIZE_GAINS = ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0),
                         (2.0, 1.0), (2.0, 1.5), (3.0, 1.0), (3.0, 2.0))
    SIMULATE_SAMPLES = (700.0, 4000.0)

    def __init__(self, workdir: Path):
        self.workdir = workdir / "cli-mix"

    def ops(self, seed: int, pass_no: int):
        rng = np.random.default_rng([seed, pass_no])
        shutil.rmtree(self.workdir, ignore_errors=True)
        pdir = self.workdir / f"pass{pass_no}"
        pdir.mkdir(parents=True)
        gains_order = rng.permutation(len(self.DESTABILIZE_GAINS))
        lo, hi = self.SIMULATE_SAMPLES
        grid = lo * (hi / lo) ** ((np.arange(7) + 0.5) / 7)
        levels = rng.permutation(np.insert(grid, 3, grid[3]))
        ops = []
        for r, samples in enumerate(levels):
            ops.append(self._threshold(rng, pdir / f"th{r}", below=r % 2 == 0))
            ops.append(self._destabilize(
                rng, pdir / f"de{r}",
                self.DESTABILIZE_GAINS[gains_order[r]]))
            ops.append(self._simulate(
                rng, pdir / f"si{r}", samples, rng.random() < ORACLE_SHARE))
        return ops, self._threshold(rng, pdir / "warm", below=False)

    def _finish(self, out: Path, rc: int, probs: list) -> tuple:
        digest, nbytes = _read_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        return probs, str(rc).encode() + digest, nbytes

    def _threshold(self, rng, out: Path, below: bool) -> Op:
        mu = float(rng.uniform(0.3, 0.7))
        boundary = 1.0 - mu
        t = boundary * float(rng.uniform(0.2, 1.0)) if below else \
            boundary + float(rng.uniform(0.05, 1.0))
        argv = ["threshold", "--preset", "double_integrator", "--T", "1",
                "--mu", repr(mu), "--t-grid", repr(t),
                "--seed", str(int(rng.integers(1000))), "--out-dir", str(out)]

        def check(rc):
            probs = [] if rc == 0 else [f"threshold exit code {rc}"]
            if rc == 0:
                res = json.loads((out / "threshold.json").read_text())
                rows = res["results"]
                want = "adversarial" if below else "battery"
                if len(rows) != 1 or not rows[0]["claim"]:
                    probs.append(f"threshold claim fails at t={t!r}")
                elif rows[0]["evidence"]["kind"] != want:
                    probs.append(f"t={t!r} judged on the wrong side of "
                                 f"T - mu = {boundary!r}")
                elif below and not rows[0]["evidence"]["pe_ok"]:
                    probs.append("adversarial signal outside the class")
            return self._finish(out, rc, probs)

        return Op("threshold", lambda: _cli(argv), check)

    def _destabilize(self, rng, out: Path, gain) -> Op:
        k1, k2 = (g * float(rng.uniform(0.95, 1.05)) for g in gain)
        mu = float(rng.uniform(0.01, 0.05))
        argv = ["destabilize", "--k1", repr(k1), "--k2", repr(k2),
                "--T", "1", "--mu", repr(mu), "--out-dir", str(out)]

        def check(rc):
            probs = [] if rc == 0 else [f"destabilize exit code {rc}"]
            if rc == 0:
                rep = json.loads((out / "destabilizer.json").read_text())
                nu = rep["nu_hat"]
                if rep["ratio_exceeds_nu"] != (mu > nu):
                    probs.append("ratio_exceeds_nu flag disagrees with "
                                 f"mu={mu!r}, nu_hat={nu!r}")
                if mu < nu:
                    if not rep.get("growth_per_rev", 0.0) > 1.0:
                        probs.append(f"no growth below nu_hat: {rep}")
                    if not rep.get("pe_ok"):
                        probs.append("induced gate outside the class")
                    sig = signals.PwcSignal.from_json(json.loads(
                        (out / "induced_signal.json").read_text()))
                    probs += _signal_problems(sig, signals.PeClass(1.0, mu),
                                              sig.breakpoints[-1], True)
            return self._finish(out, rc, probs)

        return Op("destabilize", lambda: _cli(argv), check)

    def _simulate(self, rng, out: Path, samples: float, oracle: bool) -> Op:
        mu = float(rng.uniform(0.3, 0.7))
        lam = float(rng.uniform(1.0, 2.0))
        k = float(rng.uniform(0.75, 4.0)) / lam
        cls = signals.PeClass(1.0, mu)
        loop = simcore.ClosedLoop(gains.A_DI, gains.B_DI,
                                  gains.di_gain(cls, 0.4 * mu, k, lam).K,
                                  signals.PwcSignal.constant(1.0))
        horizon = samples * loop.default_max_step()
        x0 = _unit_columns(rng, 1)[:, 0]
        sc = {
            "system": {"preset": "double_integrator"},
            "pe_class": {"T": 1.0, "mu": mu},
            "gain": {"kind": "di", "rho": 0.4 * mu, "k": k, "lam": lam},
            "signal": {"kind": "duty",
                       "pattern": ("front", "back", "split")[
                           int(rng.integers(3))],
                       "on_value": float(rng.uniform(mu * (1 + 1e-9), 1.0)),
                       "phase": float(rng.random()),
                       "splits": int(rng.integers(2, 5))},
            "horizon": horizon,
            "x0": [x0.tolist()],
            "seed": int(rng.integers(1000)),
        }
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(sc))
        argv = ["simulate", "--scenario", str(path), "--out-dir", str(out)]

        def check(rc):
            probs = [] if rc == 0 else [f"simulate exit code {rc}"]
            if rc == 0:
                probs += self._simulate_problems(sc, out, oracle)
            return self._finish(out, rc, probs)

        return Op("simulate", lambda: _cli(argv), check)

    @staticmethod
    def _simulate_problems(sc: dict, out: Path, oracle: bool) -> list:
        summary = json.loads((out / "summary.json").read_text())
        probs = []
        (run,) = summary["runs"]
        csv_bytes = (out / run["csv"]).read_bytes()
        if hashlib.sha256(csv_bytes).hexdigest()[:16] != run["csv_sha256"]:
            probs.append("CSV digest differs from the summary's")
        if not math.isfinite(run["gamma_hat"]):
            probs.append("non-finite decay fit")
        cls = signals.PeClass(**sc["pe_class"])
        sig = signals.PwcSignal.from_json(summary["signal"])
        probs += _signal_problems(sig, cls, 2.0 * cls.T, oracle)
        if oracle:
            rows = np.array([[float(v) for v in ln.split(",")[:3]]
                             for ln in csv_bytes.decode().splitlines()[1:]])
            if rows[-1, 0] != sc["horizon"]:
                probs.append(f"CSV ends at t={rows[-1, 0]!r}, horizon "
                             f"{sc['horizon']!r}")
            probs += oracles.propagate_problems(
                rows[:, 0], rows[:, 1:], gains.A_DI, gains.B_DI,
                np.array(summary["K"]), sig, sc["x0"][0])
        return probs

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertifyBattery, TuneSearch, CliMix)}
