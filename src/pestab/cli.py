"""Command-line front end: pestab simulate|certify|threshold|destabilize|sweep|tune.

Exit codes: 0 pass, 1 property failure, 2 invalid input, 3 partial result
(budget exceeded).  Every output embeds tool version, seed, the tolerance
set and the scenario hash, which together reproduce the run bit-for-bit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import (__version__, adversary, certify, reachability, signals,
               simcore)
from .errors import (ConstructionError, DegenerateStateError, DomainError,
                     InsufficientDataError, InternalConsistencyError,
                     NotNeutrallyStable, PreconditionError, ShapeError,
                     SimulationError)
from .gains import di_gain
from .reachability import _below_threshold, threshold_check
from .scenarios import (build_gain, build_run, build_signal, build_system,
                        load_scenario, scenario_hash, validate_scenario)
from .signals import PeClass, make_battery
from .simcore import fmap_F, polar_lift, propagate

_INPUT_ERRORS = (DomainError, ShapeError, PreconditionError,
                 NotNeutrallyStable, FileNotFoundError,
                 json.JSONDecodeError, KeyError)
_RUNTIME_ERRORS = (ConstructionError, InternalConsistencyError,
                   SimulationError, InsufficientDataError,
                   DegenerateStateError)

LEMMA_SELECTORS = ("claim1", "multi", "finite", "ff00", "ff01", "final0",
                   "c2", "ouf0", "technic", "q1yes")

# The tolerances the checks use, read from the modules that use them.
TOLERANCES = {
    "pe_slack": signals._PE_SLACK,
    "energy_slack": certify._ENERGY_SLACK,
    "f_slack": certify._F_SLACK,
    "gramian_rel": reachability._CTRL_TOL,
    "boundary_rel": reachability._BOUNDARY_REL,
    "eta_margin": certify._ETA_MARGIN,
}


def _meta(seed: int, scenario: dict | None = None, tol: float | None = None) -> dict:
    meta = {"tool": "pestab", "version": __version__, "seed": seed,
            "tolerances": dict(TOLERANCES)}
    if tol is not None:
        meta["tol_override"] = tol
    if scenario is not None:
        meta["scenario_hash"] = scenario_hash(scenario)
    return meta


def _tol(args, default: float) -> float:
    """The --tol override, or the command's default when it is not given."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise DomainError(
            f"--tol must be finite and positive, got {args.tol!r}")
    return args.tol


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _di_params(sc: dict, cls: PeClass) -> tuple:
    p = sc.get("params", {})
    rho = float(p.get("rho", 0.4 * cls.ratio))
    if not 0.0 < rho < 1.0:
        raise DomainError(f"params.rho must lie in (0, 1), got {rho!r}")
    k = float(p.get("k", 4.0))
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"params.k must be finite and positive, got {k!r}")
    lam = float(p.get("lam", 4.0 * k))
    return rho, k, lam


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _fitted_run(sc: dict, loop, x0, horizon: float, what: str,
                lift=lambda tr, n: tr) -> tuple:
    """The run from x0 over [0, horizon], passed through lift, and its decay
    fit; SimulationError naming `what` when the run leaves the floats.
    lift(tr, n), then the fit, read the n samples before the first whose
    norm is below simcore._NORM_FLOOR (two at least; the fit needs ten)."""
    with np.errstate(over="ignore", invalid="ignore"):
        tr = propagate(loop, 0.0, np.asarray(x0, dtype=float), horizon,
                       sc.get("max_step"))
    if not np.all(np.isfinite(tr.states)):
        raise SimulationError(f"{what} produced non-finite states")
    n = int(np.argmax(np.append(tr.norms() < simcore._NORM_FLOOR, True)))
    tr = lift(tr, n)
    return tr, certify.decay_rate(tr.window(0, max(n, 2) - 1), 0.0)


def cmd_simulate(args) -> int:
    tol = _tol(args, 1e-2)
    sc = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    loop, horizon, x0_list = build_run(sc)

    def lift(tr, n):
        # below the norm floor a state has no direction: theta reads nan
        tr = tr.with_energy()
        if loop.n == 2:
            head = polar_lift(tr.window(0, max(n, 2) - 1)).channels["theta"]
            tr = tr.with_channels(r=np.hypot(*tr.states.T), theta=np.append(
                head, np.full(len(tr.times) - n, np.nan)))
            g = sc.get("gain", {})
            if g.get("kind") == "di":
                k_eff = float(g.get("lam", 1.0)) * float(g["k"])
                tr = tr.with_channels(
                    F_theta=fmap_F(tr.channels["theta"], k_eff))
        return tr

    out = _out_dir(args)
    runs = []
    for i, x0 in enumerate(x0_list):
        tr, fit = _fitted_run(sc, loop, x0, horizon, f"run {i}", lift)
        csv_path = out / f"trajectory_{i:03d}.csv"
        tr.to_csv(csv_path)
        runs.append({
            "x0": list(map(float, x0)),
            "csv": csv_path.name,
            "csv_sha256": _sha256(csv_path),
            "gamma_hat": fit["gamma_hat"],
            "C_hat": fit["C_hat"],
            "fit_residual": fit["residual"],
            "decaying": fit["gamma_hat"] > 0.0,
            "clean_exponential": fit["residual"] <= tol,
        })
    summary = {"meta": _meta(seed, sc, args.tol), "runs": runs,
               "signal": loop.alpha.to_json(), "K": loop.K.tolist(),
               "horizon": horizon}
    _write_json(out / "summary.json", summary)
    print(f"simulate: wrote {len(runs)} run(s) to {out}")
    for r in runs:
        flag = "decaying" if r["decaying"] else "NON-DECAYING"
        print(f"  x0={r['x0']}  gamma_hat={r['gamma_hat']:+.6g}  {flag}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify_dispatch(selector: str, sc: dict, seed: int):
    cls = PeClass(**sc["pe_class"])
    bat_cfg = sc.get("battery", {})
    size = int(bat_cfg.get("size", 50))
    bseed = int(bat_cfg.get("seed", seed))
    rho, k, lam = _di_params(sc, cls)
    p = sc.get("params", {})

    if selector == "multi":
        sig = build_signal(sc, cls)
        x0 = np.asarray((sc.get("x0") or [[1.0, 0.5]])[0], dtype=float)
        return certify.rescaling_identity(rho * k * k / 2.0, k, sig, x0,
                                          horizon=sc.get("horizon", 4.0 * cls.T))
    if selector == "final0":
        return certify.comparison_final0(rho, k, cls.ratio)
    if selector == "c2":
        return certify.comparison_c2(rho, k, cls.ratio)
    if selector == "finite":
        return certify.dwell_bound(cls, rho, k, lam / k)
    if selector == "technic":
        A, B = build_system(sc)
        K = build_gain(sc, A, B, cls) if sc.get("gain") else -B.T
        x0 = np.asarray((sc.get("x0") or [[1.0] + [0.0] * (A.shape[0] - 1)])[0],
                        dtype=float)
        return certify.weak_star_demo(A, B, K, x0,
                                      duty=float(p.get("duty", 0.5)))
    if selector not in LEMMA_SELECTORS:
        raise DomainError(f"unknown selector {selector!r}; valid: "
                          + ", ".join(LEMMA_SELECTORS))
    # the remaining selectors read one battery each
    battery = make_battery(cls, size, bseed)
    # claim1 and q1yes read no grid of initial states
    grid = None if selector in ("claim1", "q1yes") else \
        certify.unit_circle_grid(int(p.get("grid", 8)))
    if selector == "claim1":
        A, B = build_system(sc)
        cert = certify.estimate_eta(A, B, cls, battery.signals)
    elif selector == "q1yes":
        A, B = build_system(sc)
        x0s = [np.asarray(v, dtype=float) for v in
               (sc.get("x0") or [[1.0, 0.0], [0.3, -0.7]])]
        cert = certify.multi_input_identity(
            B, float(p.get("k", 1.0)), battery.signals, x0s,
            horizon=sc.get("horizon", 5.0 * cls.T))
    elif selector == "ff00":
        cert = certify.quadrant_battery(cls, rho, k, lam, battery.signals,
                                        grid, horizon=30.0 / k)
    elif selector == "ff01":
        cert = certify.cs_decay_battery(cls, rho, k, lam, battery.signals,
                                        grid, horizon=30.0 / k)
    else:
        cert = certify.chain_battery(cls, rho, k, lam, battery.signals, grid,
                                     float(p.get("horizon", 20.0)))
    # the certificate records only the size; record the seed, class and spec
    cert.battery = battery.info
    return cert


def cmd_certify(args) -> int:
    sc = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    cert = _certify_dispatch(args.lemma, sc, seed)
    out = _out_dir(args)
    payload = {"meta": _meta(seed, sc),
               "selector": args.lemma,
               "certificate": cert.to_json()}
    _write_json(out / f"certificate_{args.lemma}.json", payload)
    verdict = "PASS" if cert.passed else "FAIL"
    keys = ", ".join(f"{k}={v:.6g}" for k, v in list(cert.measured.items())[:4])
    keys = keys or "; ".join(cert.notes)
    print(f"[{args.lemma}] {verdict}  {cert.name}  {keys}")
    return 0 if cert.passed else 1


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def _parse_grid(spec: str) -> list:
    """Finite positive horizons from a:b:step (step > 0) or a
    comma-separated list."""
    s = 1.0  # a list has no step
    try:
        if ":" not in spec:
            grid = [float(v) for v in spec.split(",")]
        else:
            a, b, s = (float(v) for v in spec.split(":"))
            n = int(round((b - a) / s)) + 1 if s > 0.0 else 0
            grid = [a + i * s for i in range(n) if a + i * s <= b + 1e-12]
    except (ValueError, OverflowError):
        raise DomainError(f"malformed --t-grid {spec!r}") from None
    if not s > 0.0:
        raise DomainError(f"--t-grid step must be positive, got {s!r}")
    if not grid:
        raise DomainError(f"--t-grid {spec!r} holds no horizon")
    for t in grid:
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(
                f"--t-grid horizons must be finite and positive, got {t!r}")
    return grid


def cmd_threshold(args) -> int:
    if (args.A is None) != (args.B is None):
        raise DomainError("--A and --B must be given together")
    sc = {"system": {"preset": args.preset} if args.preset else
          {"A": json.loads(args.A), "B": json.loads(args.B)}}
    tol = _tol(args, 1e-9)
    A, B = build_system(sc)
    cls = PeClass(args.T, args.mu)
    grid = _parse_grid(args.t_grid)
    seed = args.seed if args.seed is not None else 0
    if args.battery_size < 1:
        raise DomainError("--battery-size must be >= 1")
    boundary = cls.T - cls.mu
    battery = ([] if all(_below_threshold(cls, t) for t in grid)
               else make_battery(cls, args.battery_size, seed).signals)
    out = _out_dir(args)
    rows = []
    all_ok = True
    for t in grid:
        rep = threshold_check(A, B, cls, t, battery, tol=tol)
        rows.append(rep)
        all_ok = all_ok and rep.claim
    csv_path = out / "threshold.csv"
    meta = _meta(seed, tol=args.tol)
    with open(csv_path, "w") as fh:
        for kk, vv in (("tool", "pestab"), ("version", __version__),
                       ("seed", seed), ("threshold", boundary)):
            fh.write(f"# {kk}={vv}\n")
        fh.write("t,regime,claim,min_sv,worst_relative_min_sv,at_boundary\n")
        slack = reachability._BOUNDARY_REL * cls.T
        for rep in rows:
            ev = rep.evidence
            fh.write(",".join([
                repr(rep.t), ev["kind"], str(rep.claim).lower(),
                repr(ev.get("min_sv", "")) if "min_sv" in ev else "",
                repr(ev["worst_relative_min_sv"])
                if "worst_relative_min_sv" in ev else "",
                str(abs(rep.t - boundary) <= slack).lower(),
            ]) + "\n")
    _write_json(out / "threshold.json", {
        "meta": meta, "T": cls.T, "mu": cls.mu, "threshold": boundary,
        "results": [r.to_json() for r in rows],
    })
    print(f"threshold: boundary at t = T - mu = {boundary}")
    for rep in rows:
        mark = "ok" if rep.claim else "VIOLATION"
        print(f"  t={rep.t:<8g} {rep.evidence['kind']:<12} {mark}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# destabilize
# ---------------------------------------------------------------------------

def cmd_destabilize(args) -> int:
    K = np.array([[-args.k1, -args.k2]])
    cls = PeClass(args.T, args.mu)
    seed = args.seed if args.seed is not None else 0
    nu_hat = adversary.find_nu(K, tol=_tol(args, 1e-10))
    out = _out_dir(args)
    warned = cls.ratio > nu_hat
    if warned:
        print(f"warning: mu/T = {cls.ratio:.6g} exceeds nu_hat = "
              f"{nu_hat:.6g}; the sector feedback will not destabilize "
              "this class")
    report = {"meta": _meta(seed, tol=args.tol),
              "K": K.tolist(), "nu_hat": nu_hat,
              "class": {"T": cls.T, "mu": cls.mu},
              "revolutions": args.revolutions,
              "ratio_exceeds_nu": warned}
    try:
        run = adversary.run_destabilizer(K, cls, revolutions=args.revolutions)
        report.update(run.to_json())
        sig_path = out / "induced_signal.json"
        _write_json(sig_path, run.induced_signal.to_json())
        report["induced_signal_file"] = sig_path.name
        print(f"nu_hat = {nu_hat:.8g}, growth_per_rev = "
              f"{run.growth_per_rev:.6g} over {args.revolutions} revolutions")
    except SimulationError as exc:
        report["note"] = str(exc)
        print(f"nu_hat = {nu_hat:.8g}; simulation stopped: {exc}")
    _write_json(out / "destabilizer.json", report)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _set_path(obj: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = obj
    for i, key in enumerate(keys[:-1]):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise DomainError(f"--param {dotted}: /{'/'.join(keys[:i + 1])} "
                              "is not an object")
    node[keys[-1]] = value


def _cell_scenario(sc: dict, overrides) -> dict:
    """A copy of sc with one cell's overrides, checked against the schema."""
    sc = json.loads(json.dumps(sc))
    for path, value in overrides:
        _set_path(sc, path, value)
    problems = validate_scenario(sc)
    if problems:
        cell = ", ".join(f"{path}={value!r}" for path, value in overrides)
        raise DomainError(f"sweep cell {cell}: scenario schema violation: "
                          + "; ".join(problems))
    return sc


def _sweep_cell(sc: dict, cell) -> tuple:
    """gamma_hat, C_hat, residual and final_norm_ratio of the first run."""
    loop, horizon, x0_list = build_run(sc)
    tr, fit = _fitted_run(sc, loop, x0_list[0], horizon, "cell " + ", ".join(
        f"{path}={v}" for path, v in cell))
    nrm = tr.norms()
    return (fit["gamma_hat"], fit["C_hat"], fit["residual"],
            float(nrm[-1] / nrm[0]))


def _parse_param(spec: str):
    path, _, values = spec.partition("=")
    if not values:
        raise DomainError(f"malformed --param {spec!r}; expected path=v1,v2")
    vals = []
    for v in values.split(","):
        try:
            vals.append(float(v))
        except ValueError:
            vals.append(v)
    return path, vals


def cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    params = [_parse_param(s) for s in (args.param or [])]
    cells: list = [[]]
    for path, vals in params:
        cells = [cell + [(path, v)] for cell in cells for v in vals]
    if not params:
        cells = []
    partial = False
    if args.max_cells is not None:
        if args.max_cells < 0:
            raise DomainError("--max-cells must not be negative")
        if len(cells) > args.max_cells:
            cells = cells[:args.max_cells]
            partial = True
    scenarios = [_cell_scenario(sc, cell) for cell in cells]
    results = [_sweep_cell(cell_sc, cell)
               for cell_sc, cell in zip(scenarios, cells)]
    out = _out_dir(args)
    csv_path = out / "sweep.csv"
    names = [p for p, _ in params]
    with open(csv_path, "w") as fh:
        for kk, vv in (("tool", "pestab"), ("version", __version__),
                       ("seed", seed),
                       ("scenario_hash", scenario_hash(sc)),
                       ("partial", str(partial).lower())):
            fh.write(f"# {kk}={vv}\n")
        fh.write(",".join(names + ["gamma_hat", "C_hat", "residual",
                                   "final_norm_ratio"]) + "\n")
        for cell, res in zip(cells, results):
            # a float's str is its repr
            fh.write(",".join([str(v) for _, v in cell]
                              + [repr(v) for v in res]) + "\n")
    print(f"sweep: {len(cells)} cell(s) -> {csv_path}"
          + (" (partial)" if partial else ""))
    return 3 if partial else 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def cmd_tune(args) -> int:
    cls = PeClass(args.T, args.mu)
    seed = args.seed if args.seed is not None else 0
    rho = args.rho if args.rho is not None else 0.4 * cls.ratio
    result = adversary.tune_adversarial(cls, rho, seed=seed,
                                        budget=args.budget)
    out = _out_dir(args)
    gain = di_gain(cls, rho, result["k_star_hat"], result["lambda_star_hat"])
    payload = {"meta": _meta(seed),
               "T": cls.T, "mu": cls.mu, "rho": rho,
               "k_star_hat": result["k_star_hat"],
               "lambda_star_hat": result["lambda_star_hat"],
               "first_pass": result["first_pass"],
               "worst_case": result["worst_case"],
               "gain": gain.to_json(),
               "trace": result["trace"]}
    _write_json(out / "tuned_gain.json", payload)
    print(f"tuned: k_star_hat={result['k_star_hat']:g} "
          f"lambda_star_hat={result['lambda_star_hat']:g} "
          f"K={gain.K.tolist()}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pestab",
        description="simulate, certify and stress linear systems with a "
                    "persistently excited control channel")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)

    def tol_option(p, what):
        p.add_argument("--tol", type=float, default=None,
                       help=f"override the {what}")

    p = sub.add_parser("simulate", help="run a scenario and export CSV")
    common(p)
    tol_option(p, "fit residual bound of clean_exponential (1e-2)")

    p = sub.add_parser("certify", help="run one certificate selector")
    common(p)
    p.add_argument("--lemma", required=True,
                   help="selector: " + ", ".join(LEMMA_SELECTORS))

    p = sub.add_parser("threshold", help="controllability horizon dichotomy")
    common(p, scenario=False)
    tol_option(p, "Gramian rank tolerance (1e-9)")
    system = p.add_mutually_exclusive_group(required=True)
    system.add_argument("--preset", choices=["double_integrator", "rotation"])
    system.add_argument("--A", help="JSON matrix (with --B)")
    p.add_argument("--B", help="JSON matrix")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--t-grid", required=True,
                   help="a:b:step or comma-separated horizons")
    p.add_argument("--battery-size", type=int, default=50)

    p = sub.add_parser("destabilize", help="sector-feedback growth demo")
    common(p, scenario=False)
    tol_option(p, "absolute tolerance of nu_hat, the log-log ITP root of "
               "xi(nu) = 1 (1e-10)")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--revolutions", type=int, default=10)

    p = sub.add_parser("sweep", help="cross-product parameter sweep")
    common(p)
    p.add_argument("--param", action="append",
                   help="dotted.path=v1,v2,... (repeatable)")
    p.add_argument("--max-cells", type=int, default=None)

    p = sub.add_parser("tune", help="search a stabilizing gain scale pair")
    common(p, scenario=False)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--budget", type=int, default=24)
    return ap


# one parser per process, built at the first main call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
