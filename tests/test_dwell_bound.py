"""`certify.dwell_bound`, the closed-form outer-cone dwell bound, against
the measured sojourns of the test-side `dwell_oracle`.

Outside the central band dF/dt <= -c k alpha, so over every pair of
consecutive samples in the outer arc F drops by at least c k times the
integral of the gate; with the persistency of excitation of the
lam-times-faster gate this bounds every sojourn by
dF T/(c k mu) + T/lam, and the bound at 2k is half the bound at k.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from dwell_oracle import worst_sojourns
from pestab import certify, cli
from pestab.certify import c_rho_closed_form, di_runs, dwell_bound, \
    unit_circle_grid
from pestab.errors import DomainError
from pestab.gains import cone_geometry
from pestab.signals import PeClass, make_battery
from pestab.simcore import fmap_F, polar_lift

CLS = PeClass(1.0, 0.5)
GRID = unit_circle_grid(8)
# (rho, k, lam/k) and the battery seeds the bound is measured against
CASES = [(0.2, 4.0, 4.0), (0.2, 4.0, 0.5), (0.1, 2.0, 2.0), (0.2, 1.0, 1.0)]
SEEDS = (0, 1, 2)


def battery(seed):
    return make_battery(CLS, 20, seed).signals


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rho, k, lam_over_k", CASES)
def test_bound_holds_over_measured_sojourns(rho, k, lam_over_k, seed):
    cert = dwell_bound(CLS, rho, k, lam_over_k)
    assert cert.passed
    bat = battery(seed)
    for kk, key in ((k, "dwell_bound_at_k"), (2.0 * k, "dwell_bound_at_2k")):
        max_dwell, max_censored = worst_sojourns(CLS, rho, kk, lam_over_k,
                                                 bat, GRID)
        assert max_dwell > 0.0
        assert cert.measured[key] >= max(max_dwell, max_censored)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rho, k, lam_over_k", CASES)
def test_F_drops_by_c_k_gate_integral_in_the_outer_arc(rho, k, lam_over_k,
                                                       seed):
    # the lemma behind the bound, pair by pair: the drop of F between two
    # consecutive samples in the outer arc is at least c k a h, a the gate
    # on the step and h its length
    c = c_rho_closed_form(rho)
    bat = battery(seed)
    for kk in (k, 2.0 * k):
        geom = cone_geometry(rho, kk, CLS.ratio)
        n_pairs = 0
        for tr in di_runs(CLS, rho, kk, lam_over_k * kk, bat, GRID, 40.0 / kk):
            F = fmap_F(polar_lift(tr).channels["theta"], kk)
            outer = geom.cs_quadratic(*tr.states.T) >= 0.0
            j = np.flatnonzero(outer[:-1] & outer[1:])
            least = c * kk * tr.seg_alpha[j] * np.diff(tr.times)[j]
            assert np.all(F[j] - F[j + 1] - least >= 0.0)
            n_pairs += len(j)
        assert n_pairs > 0


@pytest.mark.parametrize("rho, k, lam_over_k", CASES + [
    (0.2, 3.3, 0.7), (0.24, 1e-3, 5.0), (0.01, 1e100, 3.0),
    (0.2, 4.0, math.inf)])
def test_ratio_is_one_half_to_the_bit(rho, k, lam_over_k):
    cert = dwell_bound(CLS, rho, k, lam_over_k)
    m = cert.measured
    assert cert.passed
    assert m["ratio"] == 0.5
    assert m["dwell_bound_at_2k"] * 2.0 == m["dwell_bound_at_k"]
    assert m["scaling_residual"] <= cert.tolerance["scaling_abs"]
    assert m["c"] == c_rho_closed_form(rho)


def test_bound_is_the_closed_form():
    geom = cone_geometry(0.2, 4.0, CLS.ratio)
    d_F = math.pi + math.atan(geom.xi_s_plus / 4.0) \
        - math.atan(geom.xi_s_minus / 4.0)
    c = c_rho_closed_form(0.2)
    m = dwell_bound(CLS, 0.2, 4.0, 4.0).measured
    assert m["delta_F"] == d_F
    assert m["dwell_bound_at_k"] == pytest.approx(
        d_F * CLS.T / (c * 4.0 * CLS.mu) + CLS.T / 16.0, rel=1e-15)


@pytest.mark.parametrize("lam_over_k", [0.0, -1.0, math.nan])
def test_non_positive_rate_refused(lam_over_k):
    with pytest.raises(DomainError, match="lam/k must be positive"):
        dwell_bound(CLS, 0.2, 4.0, lam_over_k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_finite_cli_reads_no_battery_and_runs_nothing(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"system": {"preset": "double_integrator"},
                                "pe_class": {"T": 1, "mu": 0.5}}))
    out = tmp_path / "o"
    with mock.patch.object(certify, "propagate_batch") as batch, \
            mock.patch.object(certify, "crossing_time") as cross, \
            mock.patch.object(cli, "make_battery") as make:
        assert cli.main(["certify", "--scenario", str(path), "--lemma",
                         "finite", "--out-dir", str(out)]) == 0
    assert not (batch.called or cross.called or make.called)
    cert = json.loads(
        (out / "certificate_finite.json").read_text())["certificate"]
    m = cert["measured"]
    assert cert["name"] == "outer_cone_dwell_bound"
    assert cert["battery"] == {}
    assert m["ratio"] == 0.5
    assert m["dwell_bound_at_k"] == pytest.approx(251.795, abs=5e-4)
    assert m["dwell_bound_at_2k"] == pytest.approx(125.897, abs=1e-3)
    assert m["c"] == pytest.approx(0.0049441, abs=1e-7)
    assert m["delta_F"] == pytest.approx(2.489198, abs=1e-6)
    assert "[finite] PASS" in capsys.readouterr().out
