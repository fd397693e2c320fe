"""The last-call run memo of `certify.di_runs`.

Consecutive cone certificates on one battery, grid, horizon and gain ask
`di_runs` for the same runs; the memo keeps the runs of the last call and
hands them out again, and a caller that needs the angle lifts them.  A hit must give the bits a fresh
`propagate_batch` gives, any change to an input that decides those bits
must miss, and nobody may write into the cached runs.
"""

import json
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from pestab import certify
from pestab.certify import (cs_decay_battery, di_runs, dwell_scaling,
                            dwell_times, unit_circle_grid)
from pestab.errors import DomainError
from pestab.gains import A_DI, B_DI, cone_geometry, di_base_gain
from pestab.signals import PeClass, PwcSignal, make_battery, rescale_time
from pestab.simcore import ClosedLoop, polar_lift, propagate_batch

CLS = PeClass(1.0, 0.5)
RHO, K, LAM = 0.2, 4.0, 8.0
GRID = unit_circle_grid(4)
SEEDS = (3, 11)
HORIZONS = (5.0, 30.0 / K)
CONE_CERTS = ("f_monotone_battery", "cs_decay_battery", "quadrant_battery",
              "chain_battery")


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(certify, "_last_runs", None)


def battery(seed, size=6):
    return make_battery(CLS, size, seed=seed).signals


def lifted(runs, polar):
    return [polar_lift(tr) for tr in runs] if polar else runs


def fresh_runs(rho, k, lam, sigs, x0, horizon, polar=False):
    """di_runs without the memo: one propagate_batch per member."""
    runs = []
    for sig in sigs:
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                          rescale_time(sig, lam))
        runs.extend(propagate_batch(loop, 0.0, x0, horizon))
    return lifted(runs, polar)


def assert_same_bits(runs, ref):
    assert len(runs) == len(ref)
    for tr, want in zip(runs, ref):
        for name in ("times", "states", "seg_alpha"):
            got, exp = getattr(tr, name), getattr(want, name)
            assert got.shape == exp.shape
            assert got.tobytes() == exp.tobytes()
        assert tr.channels.keys() == want.channels.keys()
        for name, ch in want.channels.items():
            assert tr.channels[name].tobytes() == ch.tobytes()


def counting_propagations():
    return mock.patch.object(certify, "propagate_batch",
                             wraps=certify.propagate_batch)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("polar", [False, True])
def test_hit_matches_fresh_propagation(seed, horizon, polar):
    sigs = battery(seed)
    first = lifted(di_runs(CLS, RHO, K, LAM, sigs, GRID, horizon), polar)
    with counting_propagations() as calls:
        hit = lifted(di_runs(CLS, RHO, K, LAM, sigs, GRID, horizon), polar)
        flipped = lifted(di_runs(CLS, RHO, K, LAM, sigs, GRID, horizon),
                         not polar)
    assert calls.call_count == 0
    ref = fresh_runs(RHO, K, LAM, sigs, GRID, horizon, polar=polar)
    assert_same_bits(first, ref)
    assert_same_bits(hit, ref)
    assert_same_bits(flipped, fresh_runs(RHO, K, LAM, sigs, GRID, horizon,
                                         polar=not polar))


def test_cone_certificates_propagate_once():
    sigs = battery(3)
    with counting_propagations() as calls:
        for name in CONE_CERTS:
            getattr(certify, name)(CLS, RHO, K, LAM, sigs, GRID, 5.0)
    assert calls.call_count == len(sigs)


@pytest.mark.parametrize("name", CONE_CERTS)
def test_certificate_from_a_hit_equals_a_fresh_one(name):
    sigs = battery(11)
    fn = getattr(certify, name)
    fresh = json.dumps(fn(CLS, RHO, K, LAM, sigs, GRID, 5.0).to_json())
    with counting_propagations() as calls:
        hit = json.dumps(fn(CLS, RHO, K, LAM, sigs, GRID, 5.0).to_json())
    assert calls.call_count == 0
    assert hit == fresh


def _vary_signal(i, **fields):
    def vary(args):
        sigs = list(args["battery"])
        old = sigs[i]
        new = dict(breakpoints=old.breakpoints, values=old.values,
                   period=old.period, hold=old.hold)
        new.update(fields)
        sigs[i] = PwcSignal(**new)
        args["battery"] = sigs
    return vary


def _vary_x0(fn):
    def vary(args):
        args["x0_columns"] = fn(np.array(args["x0_columns"]))
    return vary


def _set_x0_entry(x0, value):
    x0[1, 0] = value
    return x0


HELD = PwcSignal.held((0.0, 0.25, 0.5), (1.0, 0.0), hold=0.0)
PERIODIC = PwcSignal.periodic((0.0, 0.25, 0.5), (1.0, 0.0))
# each edit changes one input that decides the bits of the runs
EDITS = {
    "rho": lambda a: a.update(rho=0.25),
    "k": lambda a: a.update(k=np.nextafter(K, 5.0)),
    "lam": lambda a: a.update(lam=7.5),
    "horizon": lambda a: a.update(horizon=np.nextafter(5.0, 6.0)),
    "x0_entry": _vary_x0(lambda x: x + np.array([[0.0], [1e-15]])),
    "x0_signed_zero": _vary_x0(lambda x: _set_x0_entry(x, -0.0)),
    "x0_shape": _vary_x0(lambda x: x[:, :1]),
    "battery_dropped": lambda a: a.update(battery=a["battery"][:1]),
    "breakpoints": _vary_signal(1, breakpoints=(0.0, 0.3, 0.5)),
    "breakpoint_signed_zero": _vary_signal(1, breakpoints=(-0.0, 0.25, 0.5)),
    "values": _vary_signal(1, values=(0.5, 0.0)),
    "value_signed_zero": _vary_signal(1, values=(1.0, -0.0)),
    "hold": _vary_signal(1, hold=0.5),
    "hold_signed_zero": _vary_signal(1, hold=-0.0),
    "period": lambda a: a.update(battery=[a["battery"][0], PERIODIC]),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_any_changed_input_misses(edit):
    base = dict(rho=RHO, k=K, lam=LAM, battery=[PwcSignal.constant(1.0), HELD],
                x0_columns=np.vstack([np.ones(2), np.zeros(2)]), horizon=5.0)
    x0 = base["x0_columns"]
    assert x0[1, 0] == 0.0 and not np.signbit(x0[1, 0])
    varied = dict(base)
    EDITS[edit](varied)

    def call(args):
        return di_runs(CLS, args["rho"], args["k"], args["lam"],
                       args["battery"], args["x0_columns"], args["horizon"])

    call(base)
    with counting_propagations() as calls:
        call(base)
        assert calls.call_count == 0
        runs = call(varied)
        assert calls.call_count == len(varied["battery"])
        call(base)
        assert calls.call_count == len(varied["battery"]) + 2
    assert_same_bits(runs, fresh_runs(
        varied["rho"], varied["k"], varied["lam"], varied["battery"],
        varied["x0_columns"], varied["horizon"]))


def test_caller_arrays_are_copied_into_the_key():
    x0 = GRID.copy()
    sigs = battery(3, size=4)
    di_runs(CLS, RHO, K, LAM, sigs, x0, 5.0)
    x0[0, 0] = 0.5
    with counting_propagations() as calls:
        runs = di_runs(CLS, RHO, K, LAM, sigs, x0, 5.0)
    assert calls.call_count == len(sigs)
    assert runs[0].states[0].tolist() == [0.5, 0.0]


def test_a_failed_call_drops_the_entry():
    sigs = battery(3, size=4)
    di_runs(CLS, RHO, K, LAM, sigs, GRID, 5.0)
    with pytest.raises(DomainError):
        di_runs(CLS, RHO, K, LAM, sigs, GRID, -1.0)
    assert certify._last_runs is None


@pytest.mark.parametrize("polar", [False, True])
def test_returned_runs_are_read_only(polar):
    sigs = battery(3, size=4)
    for _ in range(2):  # the miss, then the hit
        runs = lifted(di_runs(CLS, RHO, K, LAM, sigs, GRID, 5.0), polar)
        for tr in runs + [runs[0].window(1, 4)]:
            for arr in (tr.times, tr.states, tr.seg_alpha):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
                with pytest.raises(ValueError):
                    arr *= 2.0
        assert runs is not certify._last_runs[1]


def test_cached_runs_carry_no_polar_channels():
    sigs = battery(3, size=4)
    polar = lifted(di_runs(CLS, RHO, K, LAM, sigs, GRID, 5.0), True)
    assert all({"r", "theta"} <= tr.channels.keys() for tr in polar)
    polar[0].channels["F_theta"] = polar[0].channels["theta"]
    cached = certify._last_runs[1]
    assert all(not tr.channels for tr in cached)
    with pytest.raises(TypeError):
        cached[0].channels["theta"] = polar[0].channels["theta"]
    plain = di_runs(CLS, RHO, K, LAM, sigs, GRID, 5.0)
    assert all(not tr.channels for tr in plain)


def test_dwell_scaling_matches_unmemoized_maxima():
    # its two calls (k and 2k) have different keys, so both propagate
    sigs = battery(29)
    with counting_propagations() as calls:
        cert = dwell_scaling(CLS, RHO, K, 2.0, sigs, GRID)
    assert calls.call_count == 2 * len(sigs)

    def max_dwell(kk):
        geom = cone_geometry(RHO, kk, CLS.ratio)
        runs = fresh_runs(RHO, kk, 2.0 * kk, sigs, GRID, 40.0 / kk)
        return max(dwell_times(tr, geom).measured["max_dwell"]
                   for tr in runs)

    d1, d2 = max_dwell(K), max_dwell(2.0 * K)
    assert cert.measured == {"max_dwell_at_k": d1, "max_dwell_at_2k": d2,
                             "ratio": d2 / d1}
    assert cert.passed == (d2 / d1 <= 0.55)


def test_threads_never_swap_run_sets():
    # four threads on two keys, so hits and misses interleave; a call that
    # read the global twice could return the other key's runs
    cases = [(battery(3, size=3), 5.0), (battery(11, size=3), 30.0 / K)]
    refs = [fresh_runs(RHO, K, LAM, sigs, GRID, h) for sigs, h in cases]
    errors = []

    def worker(i):
        sigs, horizon = cases[i]
        try:
            for _ in range(6):
                assert_same_bits(
                    di_runs(CLS, RHO, K, LAM, sigs, GRID, horizon), refs[i])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i % 2,))
               for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_vacuous_battery_still_fails_on_a_hit():
    # these off-grid states decay without entering {x1 <= 0, x2 >= 0}
    sigs = battery(19, size=6)
    x0 = np.array([[1.0, 2.0], [-0.5, -1.0]])
    certify.quadrant_battery(CLS, RHO, K, LAM, sigs, x0, horizon=5.0)
    with counting_propagations() as calls:
        cert = certify.quadrant_battery(CLS, RHO, K, LAM, sigs, x0,
                                        horizon=5.0)
        cs_decay_battery(CLS, RHO, K, LAM, sigs, x0, horizon=5.0)
    assert calls.call_count == 0
    assert not cert.passed and "vacuous" in cert.notes[0]
