import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import pestab
from pestab import certify, cli, reachability, signals
from pestab.cli import LEMMA_SELECTORS, main
from pestab.scenarios import SCENARIO_SCHEMA, validate_scenario


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


DI_SCENARIO = {
    "system": {"preset": "double_integrator"},
    "pe_class": {"T": 1.0, "mu": 0.5},
    "gain": {"kind": "di", "rho": 0.2, "k": 2.0, "lam": 2.0},
    "signal": {"kind": "duty", "pattern": "front"},
    "horizon": 8.0,
    "x0": [[1.0, 0.0]],
    "seed": 7,
}


# positive feedback on the double integrator: the state leaves the floats
# before t = 200
OVERFLOW_SCENARIO = {
    "system": {"preset": "double_integrator"},
    "pe_class": {"T": 1, "mu": 0.5},
    "gain": {"kind": "explicit", "K": [[5.0, 5.0]]},
    "signal": {"kind": "constant", "value": 1.0},
    "horizon": 200.0,
}


# the certify selectors that read a battery
BATTERY_SELECTORS = ("claim1", "ff00", "ff01", "ouf0", "q1yes")


def selector_scenario(selector):
    """A small scenario on which the selector passes."""
    sc = {"system": {"preset": "double_integrator"},
          "pe_class": {"T": 1.0, "mu": 0.5},
          "battery": {"size": 4, "seed": 3}}
    if selector in ("claim1", "technic"):
        sc["system"] = {"preset": "rotation"}
    if selector == "q1yes":
        # the multi-input gain needs a rank-2 input matrix
        sc["system"] = {"A": [[0.0, 1.0], [0.0, 0.0]],
                        "B": [[1.0, 0.0], [0.0, 1.0]]}
    return sc


class TestSimulate:
    def test_decaying_run(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["decaying"]
        assert summary["meta"]["version"]
        assert summary["meta"]["seed"] == 7
        assert "scenario_hash" in summary["meta"]
        with open(out / "trajectory_000.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "x1", "x2", "alpha", "V", "r", "theta",
                          "F_theta"]

    def test_overflowing_gain_exits_2(self, tmp_path, capsys):
        # k1 = lam^2 rho k^2 / 2 raised an untyped OverflowError, which
        # ended in a traceback
        sc = write_scenario(tmp_path, dict(
            DI_SCENARIO, gain={"kind": "di", "rho": 0.2, "k": 1e200}))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 2
        assert "invalid input: k1 = lam^2 rho k^2 / 2 overflows" in \
            capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("signal", [
        {"kind": "duty", "pattern": "front"},
        {"kind": "constant", "value": 1.0}], ids=["duty", "constant"])
    def test_horizon_beyond_int64_steps_exits_2(self, tmp_path, capsys,
                                                signal):
        # a finite horizon of 1e300 overflowed the step-count cast, with an
        # untyped IndexError after the warning
        sc = write_scenario(tmp_path, dict(DI_SCENARIO, signal=signal,
                                           horizon=1e300))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 2
        assert "t1=1e+300 at max_step=" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_step_exponential_exits_1(self, tmp_path, capsys):
        # one step of 200: the step's closed-form exponential is past the
        # doubles (e^1170), its entries inf rather than an OverflowError
        sc = write_scenario(tmp_path, dict(OVERFLOW_SCENARIO, max_step=200.0))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 1
        assert ("property failure: run 0 produced non-finite states"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_run_exits_1(self, tmp_path, capsys):
        # the run overflows to inf and then nan; numpy's cast and matmul
        # warnings came first
        sc = write_scenario(tmp_path, OVERFLOW_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 1
        assert ("property failure: run 0 produced non-finite states"
                in capsys.readouterr().err)
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_beyond_square_overflow(self, tmp_path):
        # at horizon 80 the state passes 1.34e154, where its sum of squares
        # overflows: numpy warned, and V read inf on 35 rows whose |x|^2/2
        # is a double
        sc = write_scenario(tmp_path, dict(OVERFLOW_SCENARIO, horizon=80.0))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 0
        with open(out / "trajectory_000.csv") as fh:
            rows = [[float(v) for v in row[1:3] + row[4:6]]
                    for row in list(csv.reader(fh))[1:]]
        rescued = [(V, r) for x1, x2, V, r in rows
                   if x1 * x1 + x2 * x2 == math.inf and 0.5 * r * r < math.inf]
        assert len(rescued) == 35
        for V, r in rescued:
            assert V == pytest.approx(0.5 * r * r, rel=1e-15)
        assert all(V == math.inf for _, _, V, r in rows if r > 1.9e154)

    # x' = -x with no feedback: the norm passes below the 1e-300 floor at
    # t = 690.8, and in one dimension it reaches an exactly zero state; the
    # planar gain decays at the slow rate (1 - sqrt(0.6))/2 and crosses the
    # floor near t = 6100
    UNDER_FLOOR = {
        "planar": {"system": {"A": [[-1.0, 0.0], [0.0, -1.0]],
                              "B": [[1.0], [0.0]]},
                   "pe_class": {"T": 1, "mu": 0.5},
                   "gain": {"kind": "explicit", "K": [[0.0, 0.0]]},
                   "signal": {"kind": "constant", "value": 1.0},
                   "horizon": 720.0},
        "scalar": {"system": {"A": [[-1.0]], "B": [[1.0]]},
                   "pe_class": {"T": 1, "mu": 0.5},
                   "gain": {"kind": "explicit", "K": [[0.0]]},
                   "signal": {"kind": "constant", "value": 1.0},
                   "horizon": 800.0},
        "di": {"system": {"preset": "double_integrator"},
               "pe_class": {"T": 1, "mu": 0.5},
               "gain": {"kind": "di", "rho": 0.2, "k": 1.0},
               "signal": {"kind": "constant", "value": 1.0},
               "horizon": 6500.0, "max_step": 0.5}}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(UNDER_FLOOR))
    def test_run_below_the_norm_floor(self, tmp_path, case):
        # the planar runs exited 1 (no direction below the floor) and the
        # scalar run 2 (no log of a zero norm)
        sc = write_scenario(tmp_path, self.UNDER_FLOOR[case])
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 0
        run = json.loads((out / "summary.json").read_text())["runs"][0]
        rate = (1.0 - math.sqrt(0.6)) / 2.0 if case == "di" else 1.0
        assert run["gamma_hat"] == pytest.approx(rate, rel=1e-2)
        with open(out / "trajectory_000.csv") as fh:
            rows = list(csv.DictReader(fh))
        norms = [math.hypot(*(float(v) for key, v in row.items()
                              if key.startswith("x"))) for row in rows]
        first = next(i for i, r in enumerate(norms) if r < 1e-300)
        if case != "di":
            assert run["clean_exponential"]
            assert 69070 < first < 69090
        for name in ("theta", "F_theta"):
            if rows[0][name]:
                angle = [float(row[name]) for row in rows]
                assert not any(map(math.isnan, angle[:first]))
                assert all(map(math.isnan, angle[first:]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sweep_fits_above_the_norm_floor(self, tmp_path):
        sc = write_scenario(tmp_path, self.UNDER_FLOOR["scalar"])
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", sc, "--param", "horizon=10,800",
                     "--out-dir", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert [r[0] for r in rows[1:]] == ["10.0", "800.0"]
        for r in rows[1:]:
            assert float(r[1]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[2][4]) == 0.0

    def test_too_few_samples_above_the_floor_exits_1(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, dict(self.UNDER_FLOOR["scalar"],
                                           x0=[[0.0]]))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 1
        assert ("property failure: need at least 10 samples after t_start"
                in capsys.readouterr().err)

    def test_state_below_square_underflow(self, tmp_path):
        # the end state is about 3.9e-183, whose square is 0.0
        sc = {"system": {"A": [[-10.0]], "B": [[1.0]]},
              "pe_class": {"T": 1.0, "mu": 0.5},
              "gain": {"kind": "explicit", "K": [[-1.0]]},
              "signal": {"kind": "duty", "pattern": "front"},
              "horizon": 40.0, "x0": [[1.0]]}
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", write_scenario(tmp_path, sc),
                     "--out-dir", str(out)]) == 0
        run = json.loads((out / "summary.json").read_text())["runs"][0]
        assert run["decaying"]
        assert run["gamma_hat"] == pytest.approx(10.5, rel=1e-2)

    def test_zero_gate_flagged_nondecaying(self, tmp_path):
        sc = dict(DI_SCENARIO)
        sc["signal"] = {"kind": "constant", "value": 0.0}
        sc["x0"] = [[0.0, 1.0]]
        path = write_scenario(tmp_path, sc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path,
                     "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["runs"][0]["decaying"]

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_schema_violation_pointered(self, tmp_path, capsys):
        sc = dict(DI_SCENARIO)
        sc["pe_class"] = {"T": 1.0}
        path = write_scenario(tmp_path, sc)
        assert main(["simulate", "--scenario", path,
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "/pe_class" in err

    def test_schema_violations_exit_2_in_pointer_order(self, tmp_path,
                                                       capsys):
        sc = {"system": {"preset": "double_integrator", "extra": 1},
              "pe_class": {"T": 1.0, "mu": "half"}, "horizon": -1}
        path = write_scenario(tmp_path, sc)
        assert main(["simulate", "--scenario", path,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "invalid input: scenario schema violation: "
            "/horizon: -1 is less than or equal to the minimum of 0; "
            "/pe_class/mu: 'half' is not of type 'number'; "
            "/system: Additional properties are not allowed "
            "('extra' was unexpected)\n")
        assert not (tmp_path / "o").exists()

    def test_schema_is_valid_draft7(self):
        from jsonschema import Draft7Validator
        Draft7Validator.check_schema(SCENARIO_SCHEMA)

    def test_unknown_key_rejected(self):
        problems = validate_scenario({"system": {"preset": "rotation"},
                                      "pe_class": {"T": 1, "mu": 0.5},
                                      "bogus": 1})
        assert problems and "bogus" in problems[0]

    def test_coarse_step_polar_alias_exits_1(self, tmp_path, capsys):
        sc = {"system": {"preset": "rotation"},
              "pe_class": {"T": 1.0, "mu": 0.5},
              "gain": {"kind": "explicit", "K": [[0.0, 0.0]]},
              "signal": {"kind": "constant", "value": 0.0},
              "horizon": 12.0, "max_step": 4.0, "x0": [[1.0, 0.0]]}
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", write_scenario(tmp_path, sc),
                     "--out-dir", str(out)]) == 1
        assert "pi/2" in capsys.readouterr().err
        assert not (out / "trajectory_000.csv").exists()

    def test_nan_breakpoint_exits_2(self, tmp_path, capsys):
        # Python's json reads NaN; the signal used to construct and the
        # run was written with exit 0
        sc = dict(DI_SCENARIO)
        sc["signal"] = {"kind": "pwc", "breakpoints": [0.0, float("nan"), 1.0],
                        "values": [1.0, 0.0], "extension": {"hold": 1.0}}
        path = write_scenario(tmp_path, sc)
        assert "NaN" in Path(path).read_text()
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path,
                     "--out-dir", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_deterministic_outputs(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", sc, "--out-dir", str(out1)])
        main(["simulate", "--scenario", sc, "--out-dir", str(out2)])
        assert (out1 / "trajectory_000.csv").read_bytes() == \
            (out2 / "trajectory_000.csv").read_bytes()
        assert (out1 / "summary.json").read_text() == \
            (out2 / "summary.json").read_text()


class TestCertify:
    def test_unknown_selector_exits_2(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        assert main(["certify", "--scenario", sc, "--lemma", "nope",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "claim1" in capsys.readouterr().err

    def test_multi_selector_passes(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        assert main(["certify", "--scenario", sc, "--lemma", "multi",
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificate_multi.json").read_text())
        assert payload["certificate"]["pass"] is True
        assert "[multi] PASS" in capsys.readouterr().out

    def test_ff00_selector(self, tmp_path):
        sc = dict(DI_SCENARIO)
        sc["battery"] = {"size": 6, "seed": 3}
        sc["params"] = {"rho": 0.2, "k": 4.0, "lam": 8.0}
        path = write_scenario(tmp_path, sc)
        assert main(["certify", "--scenario", path, "--lemma", "ff00",
                     "--out-dir", str(tmp_path / "o")]) == 0

    def test_c2_with_bad_rho_exits_2(self, tmp_path, capsys):
        sc = dict(DI_SCENARIO)
        sc["params"] = {"rho": 0.4, "k": 4.0}
        path = write_scenario(tmp_path, sc)
        assert main(["certify", "--scenario", path, "--lemma", "c2",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "rho" in capsys.readouterr().err

    def test_claim1_on_rotation(self, tmp_path):
        # the floor covers every initial state, so claim1 reads no grid
        sc = {"system": {"preset": "rotation"},
              "pe_class": {"T": 1.0, "mu": 0.5},
              "battery": {"size": 8, "seed": 1}}
        path = write_scenario(tmp_path, sc)
        out = tmp_path / "o"
        assert main(["certify", "--scenario", path, "--lemma", "claim1",
                     "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificate_claim1.json").read_text())
        measured = payload["certificate"]["measured"]
        assert measured["eta_hat"] > certify._ETA_MARGIN
        assert 0 <= measured["worst_member"] < 8
        assert "grid_size" not in measured

    @pytest.mark.parametrize("selector", ["ff00", "ff01", "ouf0"])
    def test_empty_grid_exits_2(self, tmp_path, capsys, selector):
        # a grid of no initial state is refused instead of passing on
        # nothing; claim1, finite and q1yes read no grid
        sc = selector_scenario(selector)
        sc["params"] = {"grid": 0}
        out = tmp_path / "o"
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", selector, "--out-dir", str(out)]) == 2
        assert "at least one initial state" in capsys.readouterr().err
        assert not (out / f"certificate_{selector}.json").exists()

    @pytest.mark.parametrize("selector", ["claim1", "finite", "q1yes"])
    def test_selectors_without_a_grid_ignore_it(self, tmp_path, selector):
        sc = selector_scenario(selector)
        sc["params"] = {"grid": 0}
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", selector,
                     "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("selector",
                             ["finite", "ff00", "ff01", "ouf0", "final0",
                              "c2"])
    def test_non_positive_gain_scale_exits_2(self, tmp_path, capsys,
                                             selector, k):
        # k = 0 ended finite, ff00 and ff01 in a ZeroDivisionError traceback
        # with exit 1
        sc = selector_scenario(selector)
        sc["params"] = {"k": k}
        out = tmp_path / "o"
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", selector, "--out-dir", str(out)]) == 2
        assert "params.k must be finite and positive" in \
            capsys.readouterr().err
        assert not (out / f"certificate_{selector}.json").exists()

    @pytest.mark.parametrize("rho", [0.0, -1.0, 1.5, math.nan])
    @pytest.mark.parametrize("selector",
                             ["finite", "ff00", "ff01", "ouf0", "final0",
                              "c2"])
    def test_rho_outside_unit_interval_exits_2(self, tmp_path, capsys,
                                               selector, rho):
        # ff00 passed with worst_increase=nan at rho = 0 and failed at
        # rho = -1, ouf0 passed at 0, -1 and 1.5, and rho = nan stopped
        # ff00, ff01 and ouf0 on "K has non-finite entries"
        sc = selector_scenario(selector)
        sc["battery"] = {"size": 2, "seed": 0}
        sc["params"] = {"rho": rho}
        out = tmp_path / "o"
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", selector, "--out-dir", str(out)]) == 2
        assert "params.rho must lie in (0, 1)" in capsys.readouterr().err
        assert not (out / f"certificate_{selector}.json").exists()

    @pytest.mark.parametrize("selector", LEMMA_SELECTORS)
    def test_every_selector_passes(self, tmp_path, capsys, selector):
        sc = selector_scenario(selector)
        out = tmp_path / "o"
        with mock.patch.object(cli, "make_battery",
                               wraps=signals.make_battery) as make:
            assert main(["certify", "--scenario",
                         write_scenario(tmp_path, sc), "--lemma", selector,
                         "--out-dir", str(out)]) == 0
        payload = json.loads(
            (out / f"certificate_{selector}.json").read_text())
        assert payload["selector"] == selector
        assert payload["certificate"]["pass"] is True
        assert f"[{selector}] PASS" in capsys.readouterr().out
        # the battery is built once, and only for the selectors that read it
        if selector in BATTERY_SELECTORS:
            assert make.call_count == 1
            info = signals.make_battery(signals.PeClass(1.0, 0.5), 4, 3).info
            assert payload["certificate"]["battery"] == json.loads(
                json.dumps(info))
        else:
            assert make.call_count == 0

    def test_technic_at_an_equilibrium_is_vacuous(self, tmp_path, capsys):
        # the double-integrator preset with no gain and no x0: K = -B^T =
        # [[0, -1]] and x0 = (1, 0) give A x0 = B K x0 = 0, so no gate
        # value moves the state and every distance would be 0
        sc = {"system": {"preset": "double_integrator"},
              "pe_class": {"T": 1.0, "mu": 0.5},
              "battery": {"size": 4, "seed": 3}}
        out = tmp_path / "o"
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", "technic", "--out-dir", str(out)]) == 1
        cert = json.loads(
            (out / "certificate_technic.json").read_text())["certificate"]
        assert cert["pass"] is False
        assert cert["notes"] == [
            "vacuous: x0 is an equilibrium for every gate value"]
        assert "[technic] FAIL" in capsys.readouterr().out

    def test_q1yes_single_input_exits_2(self, tmp_path, capsys):
        sc = {"system": {"preset": "double_integrator"},
              "pe_class": {"T": 1.0, "mu": 0.5},
              "battery": {"size": 4, "seed": 3}}
        out = tmp_path / "o"
        assert main(["certify", "--scenario", write_scenario(tmp_path, sc),
                     "--lemma", "q1yes", "--out-dir", str(out)]) == 2
        assert "planar gain" in capsys.readouterr().err
        assert not (out / "certificate_q1yes.json").exists()


class TestThreshold:
    def test_dichotomy_table(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["threshold", "--preset", "double_integrator",
                   "--T", "1.0", "--mu", "0.5",
                   "--t-grid", "0.3,0.5,0.7,1.0",
                   "--battery-size", "10", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "threshold.json").read_text())
        kinds = {r["t"]: r["evidence"]["kind"] for r in report["results"]}
        assert kinds[0.3] == "adversarial"
        assert kinds[0.5] == "adversarial"  # boundary included below
        assert kinds[0.7] == "battery"
        assert all(r["claim"] for r in report["results"])
        lines = (out / "threshold.csv").read_text().splitlines()
        assert lines[0].startswith("# tool=pestab")

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.1", "1:0:0.1",
                                      "0:1", "0.3,x", "nan", "inf", "-inf",
                                      "0", "-1", "0.3,nan", "-1:1:0.5"])
    def test_degenerate_range_refused(self, tmp_path, capsys, grid):
        # a zero step divided by zero; a reversed range wrote a header-only
        # table and passed vacuously; a malformed spec raised ValueError;
        # a horizon that is not finite and positive failed in the Gramian
        # with a message that did not name --t-grid
        out = tmp_path / "o"
        rc = main(["threshold", "--preset", "double_integrator",
                   "--T", "1.0", "--mu", "0.5", f"--t-grid={grid}",
                   "--battery-size", "2", "--out-dir", str(out)])
        assert rc == 2
        assert "--t-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, built", [("0.3,0.5", False),
                                             ("0.3,0.5,0.7", True)])
    def test_battery_built_only_above_boundary(self, tmp_path, grid, built):
        # at or below T - mu = 0.5 threshold_check never reads the battery
        with mock.patch.object(cli, "make_battery",
                               wraps=signals.make_battery) as make:
            rc = main(["threshold", "--preset", "double_integrator",
                       "--T", "1.0", "--mu", "0.5", "--t-grid", grid,
                       "--battery-size", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert make.called == built

    @pytest.mark.parametrize("offset, above", [(0.0, False), (5e-13, False),
                                               (2e-12, True)])
    def test_boundary_agrees_with_threshold_check(self, tmp_path, offset,
                                                  above):
        # the CLI builds the battery exactly where threshold_check reads it
        t = 0.5 + offset
        cls = signals.PeClass(1.0, 0.5)
        with mock.patch.object(cli, "make_battery",
                               wraps=signals.make_battery) as make:
            main(["threshold", "--preset", "double_integrator", "--T", "1.0",
                  "--mu", "0.5", f"--t-grid={t!r}", "--battery-size", "2",
                  "--out-dir", str(tmp_path)])
        assert make.called == above
        row = json.loads((tmp_path / "threshold.json").read_text())
        battery = signals.make_battery(cls, 2, 0).signals if above else []
        rep = reachability.threshold_check(
            [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], cls, t, battery)
        assert row["results"] == [json.loads(json.dumps(rep.to_json()))]
        assert rep.evidence["kind"] == ("battery" if above else "adversarial")

    def test_boundary_slack_relative_to_T(self, tmp_path):
        # t = 5 T lies ten times T - mu out; an absolute 1e-12 slack took it
        # for the boundary and judged it by the adversarial gate.  Only the
        # branch is asserted: above T - mu the verdict at this scale reads
        # the Gramian rank tolerance, not the system
        main(["threshold", "--preset", "double_integrator", "--T", "1e-13",
              "--mu", "5e-14", "--t-grid", "5e-13", "--battery-size", "2",
              "--out-dir", str(tmp_path)])
        row = json.loads((tmp_path / "threshold.json").read_text())
        assert row["results"][0]["evidence"]["kind"] == "battery"
        lines = (tmp_path / "threshold.csv").read_text().splitlines()
        assert lines[-1].startswith("5e-13,battery,")
        assert lines[-1].endswith(",false")

    @pytest.mark.parametrize("grid", ["0.3", "0.7"])
    def test_battery_size_below_one_refused(self, tmp_path, capsys, grid):
        out = tmp_path / "o"
        rc = main(["threshold", "--preset", "double_integrator",
                   "--T", "1.0", "--mu", "0.5", "--t-grid", grid,
                   "--battery-size", "0", "--out-dir", str(out)])
        assert rc == 2
        assert "--battery-size must be >= 1" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("system", [["--A", "[[0, 1], [0, 0]]"],
                                        ["--preset", "rotation",
                                         "--B", "[[0], [1]]"]])
    def test_lone_matrix_refused(self, tmp_path, capsys, system):
        # a lone --A ended in a TypeError traceback from json.loads(None)
        # with the property-failure code 1
        out = tmp_path / "o"
        rc = main(["threshold", *system, "--T", "1", "--mu", "0.5",
                   "--t-grid", "0.8", "--out-dir", str(out)])
        assert rc == 2
        assert ("invalid input: --A and --B must be given together"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("system, message", [
        (["--B", "[[0], [1]]"], "one of the arguments --preset --A"),
        ([], "one of the arguments --preset --A"),
        (["--preset", "rotation", "--A", "[[0, 1], [0, 0]]",
          "--B", "[[0], [1]]"], "not allowed with argument --preset")])
    def test_system_options_exclusive_and_required(self, tmp_path, capsys,
                                                   system, message):
        # --preset with --A and --B used to ignore the matrices and exit 0
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["threshold", *system, "--T", "1", "--mu", "0.5",
                  "--t-grid", "0.8", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_matrices_run(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["threshold", "--A", "[[0, 1], [0, 0]]", "--B", "[[0], [1]]",
                   "--T", "1", "--mu", "0.5", "--t-grid", "0.3,0.8",
                   "--battery-size", "2", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "threshold.json").read_text())
        assert [r["claim"] for r in report["results"]] == [True, True]

    @pytest.mark.parametrize("system, grid, message", [
        (["--A", "[[5.0]]", "--B", "[[1.0]]"], "100",
         "the Gramian over [0, 100.0] is not finite"),
        (["--preset", "double_integrator"], "1e308",
         "[0.0, 1e+308] spans 1e+308 periods of the gate")])
    def test_unrepresentable_horizon_exits_2(self, tmp_path, capsys, system,
                                             grid, message):
        # the overflowing Gramian printed a RuntimeWarning and blamed
        # min_sv's argument; at 1e308 only the battery's first member, a
        # constant, kept the periodic members' piece listing from never
        # ending
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["threshold", *system, "--T", "1", "--mu", "0.5",
                       "--t-grid", grid, "--battery-size", "4",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--T", "nan"),
                                             ("--mu", "nan")])
    def test_non_finite_class_names_the_field(self, tmp_path, capsys, flag,
                                              value):
        # --T inf used to exit 2 with "breakpoints must be finite", raised
        # by the first signal built from the class
        argv = {"--T": "1", "--mu": "0.5", flag: value}
        out = tmp_path / "o"
        rc = main(["threshold", "--preset", "double_integrator",
                   "--T", argv["--T"], "--mu", argv["--mu"],
                   "--t-grid", "0.5", "--battery-size", "2",
                   "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"invalid input: {flag[2:]} must be finite" in err
        assert "breakpoints" not in err
        assert not out.exists()


class TestDestabilize:
    def test_growth_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["destabilize", "--k1", "1.0", "--k2", "1.0",
                   "--T", "1.0", "--mu", "0.07", "--revolutions", "5",
                   "--out-dir", str(out)])
        assert rc == 0
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["nu_hat"] > rep["class"]["mu"] / rep["class"]["T"]
        assert rep["growth_per_rev"] > 1.0
        assert (out / "induced_signal.json").exists()

    def test_saturated_class_warns(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["destabilize", "--k1", "1.0", "--k2", "1.0",
                   "--T", "1.0", "--mu", "1.0", "--revolutions", "3",
                   "--out-dir", str(out)])
        assert rc == 0
        assert "warning" in capsys.readouterr().out
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["ratio_exceeds_nu"]
        assert rep["growth_per_rev"] < 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_many_revolutions_write_finite_factors(self, tmp_path):
        # the revolution norms overflowed above about 1e154, and the
        # report read "growth_per_rev": NaN
        out = tmp_path / "o"
        assert main(["destabilize", "--k1", "1", "--k2", "1", "--T", "1",
                     "--mu", "0.03", "--revolutions", "200",
                     "--out-dir", str(out)]) == 0
        text = (out / "destabilizer.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        rep = json.loads(text)
        assert len(rep["revolution_factors"]) == 200
        assert 7.4 < rep["growth_per_rev"] < 7.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_stops_with_its_revolution(self, tmp_path, capsys):
        # the states overflowed and the run stopped with "converges to an
        # eigendirection"
        out = tmp_path / "o"
        assert main(["destabilize", "--k1", "1", "--k2", "1", "--T", "1",
                     "--mu", "0.03", "--revolutions", "400",
                     "--out-dir", str(out)]) == 0
        text = (out / "destabilizer.json").read_text()
        assert "NaN" not in text
        rep = json.loads(text)
        assert rep["note"] == "the state overflows in revolution 354"
        assert "growth_per_rev" not in rep
        assert "revolution 354" in capsys.readouterr().out

    def test_wrong_sign_exits_2(self, tmp_path, capsys):
        rc = main(["destabilize", "--k1", "-1.0", "--k2", "1.0",
                   "--T", "1.0", "--mu", "0.5",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "Hurwitz" in capsys.readouterr().err

    def test_threshold_below_the_search_floor_exits_1(self, tmp_path, capsys):
        # the floor is 1e-3 k1/k2^2, here the subnormal 1e-323, where nu k1
        # underflows; this read "this should not happen for positive gain
        # entries"
        rc = main(["destabilize", "--k1", "1e-300", "--k2", "1e10", "--T",
                   "1", "--mu", "0.03", "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "search floor 9.88e-324" in err and "k1/k2^2 = 1e-320" in err
        assert "should not happen" not in err

    def test_threshold_below_1e_12_answers(self, tmp_path):
        # nu_hat is about 3.3e-13 here, below the search's old fixed floor
        # 1e-12, which exited 1
        out = tmp_path / "o"
        rc = main(["destabilize", "--k1", "1e-12", "--k2", "1", "--T", "1",
                   "--mu", "0.03", "--out-dir", str(out)])
        assert rc == 0
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["nu_hat"] == pytest.approx(3.2843e-13, rel=1e-4)
        assert rep["ratio_exceeds_nu"] is True

    def test_small_threshold_destabilizes_below_it(self, tmp_path, capsys):
        # nu_hat = 3.284e-10: an absolute stop at 1e-10 returned 2.669e-10,
        # so mu/T = 3e-10 was warned off though its run grows
        out = tmp_path / "o"
        rc = main(["destabilize", "--k1", "1e-9", "--k2", "1", "--T", "1",
                   "--mu", "3e-10", "--out-dir", str(out)])
        assert rc == 0
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["ratio_exceeds_nu"] is False
        assert rep["growth_per_rev"] > 1.0
        assert "warning" not in capsys.readouterr().out


class TestSweep:
    def test_grid(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", sc, "--param", "gain.k=2,4",
                   "--param", "gain.lam=2,4", "--out-dir", str(out)])
        assert rc == 0
        lines = [l for l in (out / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "gain.k,gain.lam,gamma_hat,C_hat,residual," \
                           "final_norm_ratio"
        assert len(lines) == 5

    def test_empty_range(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", sc, "--out-dir", str(out)]) == 0
        lines = [l for l in (out / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 1  # header only

    def test_budget_cap_partial(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", sc, "--param", "gain.k=2,3,4,5",
                   "--max-cells", "2", "--out-dir", str(out)])
        assert rc == 3
        lines = [l for l in (out / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 3  # header + 2 cells

    def test_negative_max_cells_refused(self, tmp_path, capsys):
        # a negative cap would slice off the last cell and report partial
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", sc, "--param", "gain.k=2,3,4",
                   "--max-cells", "-1", "--out-dir", str(out)])
        assert rc == 2
        assert "--max-cells" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param, pointer", [
        ("gain.kk=1,2", "/gain: "), ("gain.k=2,abc", "/gain/k: "),
        ("horizon.x=1", "/horizon ")])
    def test_cell_outside_schema_refused(self, tmp_path, capsys, param,
                                         pointer):
        # a misspelt key used to write identical rows and exit 0, a
        # non-numeric value or a path through a number to crash
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", sc, "--param", param,
                   "--out-dir", str(out)])
        assert rc == 2
        assert pointer in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cell_exits_1(self, tmp_path, capsys):
        # the horizon-200 cell used to be written as a row of nan, exit 0
        sc = write_scenario(tmp_path, OVERFLOW_SCENARIO)
        out = tmp_path / "o"
        rc = main(["sweep", "--scenario", sc, "--param", "horizon=10,200",
                   "--out-dir", str(out)])
        assert rc == 1
        assert ("property failure: cell horizon=200.0 produced non-finite "
                "states" in capsys.readouterr().err)
        assert not (out / "sweep.csv").exists()

    def test_workers_option_removed(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", sc, "--param", "gain.k=2,3",
                  "--workers", "2", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @staticmethod
    def fresh_stdout(code: str) -> str:
        """stdout of code run in a fresh interpreter on this package."""
        src = str(Path(pestab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout

    def test_import_loads_no_scipy(self):
        # a planar exponential is in closed form, so only a Gramian, a
        # Schur form or an exponential of another size imports scipy
        code = ("import sys, pestab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert self.fresh_stdout(code).strip() == "[]"

    @pytest.mark.parametrize("argv, loads", [
        (["destabilize", "--k1", "1", "--k2", "1", "--T", "1", "--mu",
          "0.07"], False),
        (["simulate", "--scenario", None], False),
        # the Gramian's 4x4 Van Loan blocks are scipy's
        (["threshold", "--preset", "double_integrator", "--T", "1", "--mu",
          "0.5", "--t-grid", "0.8"], True),
    ], ids=["destabilize", "simulate-di", "threshold"])
    def test_scipy_loads_only_where_a_command_needs_it(self, tmp_path, argv,
                                                       loads):
        argv = [a if a is not None else write_scenario(tmp_path, DI_SCENARIO)
                for a in argv] + ["--out-dir", str(tmp_path / "out")]
        code = ("import contextlib, io, sys\n"
                "from pestab.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main({argv!r})\n"
                "print(rc, 'scipy' in sys.modules)")
        assert self.fresh_stdout(code).split() == ["0", str(loads)]

    def test_scipy_loads_at_the_first_gramian(self):
        code = ("import sys\n"
                "from pestab import gains, reachability, signals\n"
                "print('scipy' in sys.modules)\n"
                "reachability.gramian(gains.A_DI, gains.B_DI, "
                "signals.PwcSignal.constant(1.0), 1.0)\n"
                "print('scipy' in sys.modules)")
        assert self.fresh_stdout(code).split() == ["False", "True"]

    def test_jsonschema_loads_at_first_validation(self):
        # only the commands that read a scenario pay for its import
        code = ("import sys, pestab.cli; print('jsonschema' in sys.modules); "
                "from pestab.scenarios import validate_scenario; "
                "print(validate_scenario({'system': {}})); "
                "print('jsonschema' in sys.modules)")
        assert self.fresh_stdout(code).splitlines() == [
            "False", '["/: \'pe_class\' is a required property"]', "True"]


class TestMetadata:
    @pytest.mark.parametrize("argv", [
        ["certify", "--lemma", "multi"],
        ["sweep", "--param", "gain.k=2"],
        ["tune", "--T", "1", "--mu", "0.5"],
    ])
    def test_tol_refused_where_no_check_reads_it(self, tmp_path, capsys,
                                                  argv):
        if argv[0] != "tune":
            argv = argv + ["--scenario", write_scenario(tmp_path, DI_SCENARIO)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-3", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-0"])
    @pytest.mark.parametrize("command", ["simulate", "threshold",
                                         "destabilize"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, command,
                                             tol):
        # --tol 0 used to mean the default, --tol nan made threshold report
        # a violation and destabilize write nu_hat = 1e-12, and a negative
        # --tol made destabilize's bisection loop forever
        argv = {
            "simulate": ["--scenario", write_scenario(tmp_path, DI_SCENARIO)],
            "threshold": ["--preset", "double_integrator", "--T", "1",
                          "--mu", "0.5", "--t-grid", "0.3,0.7",
                          "--battery-size", "2"],
            "destabilize": ["--k1", "1", "--k2", "1", "--T", "1",
                            "--mu", "0.05", "--revolutions", "2"],
        }[command]
        out = tmp_path / "o"
        assert main([command, *argv, "--tol", tol, "--out-dir", str(out)]) == 2
        assert "--tol must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_destabilize_tol_below_float_spacing_ends(self, tmp_path):
        out = tmp_path / "o"
        assert main(["destabilize", "--k1", "1", "--k2", "1", "--T", "1",
                     "--mu", "0.05", "--revolutions", "2", "--tol", "1e-300",
                     "--out-dir", str(out)]) == 0
        rep = json.loads((out / "destabilizer.json").read_text())
        assert rep["meta"]["tol_override"] == 1e-300
        assert 0.149 < rep["nu_hat"] < 0.15

    def test_simulate_records_tol_override(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--tol", "1e-3",
                     "--out-dir", str(out)]) == 0
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["tol_override"] == 1e-3

    def test_second_call_drops_tol_override(self, tmp_path):
        # the parser is built once per process; its namespace must not
        # carry one call's --tol into the next
        sc = write_scenario(tmp_path, DI_SCENARIO)
        metas = []
        for i, extra in enumerate((["--tol", "1e-3"], [])):
            out = tmp_path / f"out{i}"
            assert main(["simulate", "--scenario", sc, *extra,
                         "--out-dir", str(out)]) == 0
            metas.append(json.loads((out / "summary.json").read_text())["meta"])
        assert metas[0]["tol_override"] == 1e-3
        assert "tol_override" not in metas[1]
        assert cli._parser() is cli._parser()

    def test_rebound_command_is_the_one_that_runs(self, tmp_path):
        # the command is looked up when main runs, not when the parser was
        # built, so a patched or traced cmd_* binding runs
        sc = write_scenario(tmp_path, DI_SCENARIO)
        argv = ["simulate", "--scenario", sc, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        with mock.patch.object(cli, "cmd_simulate", lambda args: 7):
            assert main(argv) == 7

    def test_tolerances_are_the_module_constants(self, tmp_path):
        sc = write_scenario(tmp_path, DI_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", sc, "--out-dir", str(out)]) == 0
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["tolerances"] == {
            "pe_slack": signals._PE_SLACK,
            "energy_slack": certify._ENERGY_SLACK,
            "f_slack": certify._F_SLACK,
            "gramian_rel": reachability._CTRL_TOL,
            "boundary_rel": reachability._BOUNDARY_REL,
            "eta_margin": certify._ETA_MARGIN,
        }
