import json
import math
from unittest import mock

import numpy as np
import pytest

from pestab import signals
from pestab.errors import ConstructionError, DomainError
from pestab.signals import (PeClass, PwcSignal, integrate_signal,
                            make_battery, make_duty, rescale_time, shift,
                            verify_pe)

CLS = PeClass(1.0, 0.5)


def square_wave(period=1.0, on_fraction=0.25, value=1.0):
    return PwcSignal.periodic((0.0, on_fraction * period, period),
                              (value, 0.0))


class TestIntegrate:
    def test_constant_one(self):
        assert integrate_signal(PwcSignal.constant(1.0), 0.0, 2.5) == 2.5

    def test_square_wave_straddling_window(self):
        # on [0, 0.25): the window (0.25, 1.25) only sees the next cycle's
        # on-block, overlap 0.25 (hand-computed segment overlap)
        sig = square_wave()
        assert integrate_signal(sig, 0.25, 1.25) == pytest.approx(0.25, abs=1e-15)

    def test_zero_signal(self):
        assert integrate_signal(PwcSignal.constant(0.0), 3.0, 17.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            integrate_signal(PwcSignal.constant(1.0), -1.0, 1.0)

    def test_additive_and_monotone(self):
        rng = np.random.default_rng(0)
        sig = make_duty(CLS, phase=0.3, on_value=0.8)
        for _ in range(50):
            t0, d1, d2 = rng.uniform(0, 3, size=3)
            a = integrate_signal(sig, t0, t0 + d1)
            b = integrate_signal(sig, t0 + d1, t0 + d1 + d2)
            c = integrate_signal(sig, t0, t0 + d1 + d2)
            assert a + b == pytest.approx(c, abs=1e-12)
            assert c >= a - 1e-15  # monotone in window length


class TestVerifyPe:
    def test_constant_one(self):
        rep = verify_pe(PwcSignal.constant(1.0), PeClass(1.0, 1.0), 2.0)
        assert rep.ok and rep.worst_integral == pytest.approx(1.0)

    def test_square_wave_tight(self):
        rep = verify_pe(square_wave(), PeClass(1.0, 0.25), 2.0)
        assert rep.ok
        assert rep.worst_integral == pytest.approx(0.25, abs=1e-12)

    def test_zero_block_of_length_T_fails(self):
        sig = PwcSignal.periodic((0.0, 1.0, 2.5), (1.0, 0.0))
        rep = verify_pe(sig, PeClass(1.5, 0.1), 5.0)
        assert not rep.ok
        assert rep.worst_integral == pytest.approx(0.0, abs=1e-12)

    def test_horizon_shorter_than_window_rejected(self):
        with pytest.raises(DomainError):
            verify_pe(PwcSignal.constant(1.0), CLS, 0.5)

    def test_weaker_floor_still_passes(self):
        sig = make_duty(CLS, phase=0.2)
        for mu in (0.5, 0.3, 0.1):
            assert verify_pe(sig, PeClass(1.0, mu), 2.0).ok

    def test_shift_preserves_class(self):
        sig = make_duty(CLS, on_value=0.7, pattern="split", splits=3)
        for t0 in (0.0, 0.3, 1.7, 12.34):
            assert verify_pe(shift(sig, t0), CLS, 2.0).ok


class TestWindowAverage:
    def test_constant(self):
        sig = PwcSignal.constant(0.42)
        for t in (0.0, 1.3, 9.0):
            assert integrate_signal(sig, t, t + 2.0) / 2.0 == \
                pytest.approx(0.42)

    def test_duty_over_one_period(self):
        sig = square_wave(on_fraction=0.3)
        # one period of length 1, so the integral is the average
        assert integrate_signal(sig, 0.17, 1.17) == \
            pytest.approx(0.3, abs=1e-12)

    def test_pe_floor(self):
        bat = make_battery(CLS, 15, seed=4).signals
        rng = np.random.default_rng(1)
        for sig in bat:
            for t in rng.uniform(0, 3, size=5):
                t = float(t)
                assert integrate_signal(sig, t, t + CLS.T) / CLS.T >= \
                    CLS.ratio - 1e-12


class TestMakeDuty:
    def test_saturated_class(self):
        sig = make_duty(PeClass(1.0, 1.0), phase=0.7)
        for t in np.linspace(0.0, 3.0, 17):
            assert sig.value_at(float(t)) == 1.0

    def test_front_pattern_explicit(self):
        sig = make_duty(CLS, phase=0.0, on_value=1.0, pattern="front")
        assert sig.breakpoints == (0.0, 0.5, 1.0)
        assert sig.values == (1.0, 0.0)

    def test_phase_shift_verifies(self):
        assert verify_pe(make_duty(CLS, phase=0.3), CLS, 2.0).ok

    def test_infeasible_on_value_rejected(self):
        with pytest.raises(DomainError):
            make_duty(CLS, on_value=0.4)  # on-time 1.25 > T

    def test_per_period_integral_exact(self):
        for pattern in ("front", "back", "split"):
            sig = make_duty(CLS, on_value=0.8, pattern=pattern, splits=3)
            assert integrate_signal(sig, 0.0, CLS.T) == \
                pytest.approx(CLS.mu, abs=1e-14)


class TestShift:
    def test_constant_unchanged(self):
        sig = PwcSignal.constant(1.0)
        assert shift(sig, 7.0) == sig

    def test_full_period_identity(self):
        sig = make_duty(CLS, on_value=0.7, pattern="back")
        moved = shift(sig, 3.0 * CLS.T)
        for t in np.linspace(0.0, 4.0, 401):
            assert moved.value_at(float(t)) == sig.value_at(float(t))

    def test_pointwise_definition(self):
        # away from breakpoints, where binary rounding cannot flip the
        # left-closed segment convention
        sig = make_duty(CLS, on_value=0.7, pattern="split", splits=2)
        t0 = 0.31
        moved = shift(sig, t0)
        cuts = set(moved.breakpoints) | {b - t0 for b in sig.breakpoints}
        rng = np.random.default_rng(6)
        for t in rng.uniform(0.0, 3.0, size=300):
            t = float(t)
            if min(abs((t - c) % 1.0) for c in cuts) < 1e-9:
                continue
            assert moved.value_at(t) == pytest.approx(sig.value_at(t + t0))

    def test_hold_signal(self):
        sig = PwcSignal.held((0.0, 1.0, 2.0), (0.2, 0.9), hold=0.4)
        moved = shift(sig, 1.5)
        assert moved.value_at(0.0) == 0.9
        assert moved.value_at(0.49) == 0.9
        assert moved.value_at(0.51) == 0.4
        assert shift(sig, 5.0).value_at(0.0) == 0.4

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            shift(PwcSignal.constant(1.0), -0.1)


class TestRescaleTime:
    def test_identity(self):
        sig = make_duty(CLS)
        out = rescale_time(sig, 1.0)
        assert out.breakpoints == sig.breakpoints
        assert out.values == sig.values

    def test_square_wave_definition(self):
        sig = square_wave(period=1.0, on_fraction=0.25)
        fast = rescale_time(sig, 2.0)
        assert fast.period == 0.5
        for t in np.linspace(0.0, 2.0, 401):
            assert fast.value_at(float(t)) == sig.value_at(2.0 * float(t))

    def test_class_mapping(self):
        bat = make_battery(CLS, 8, seed=7).signals
        for lam in (0.5, 2.0, 10.0):
            target = PeClass(CLS.T / lam, CLS.mu / lam)
            for sig in bat:
                assert verify_pe(rescale_time(sig, lam), target,
                                 2.0 * target.T).ok

    def test_window_integral_identity(self):
        sig = make_duty(CLS, on_value=0.6, pattern="back", phase=0.8)
        rng = np.random.default_rng(2)
        for lam in (0.5, 2.0, 10.0):
            fast = rescale_time(sig, lam)
            for t in rng.uniform(0, 2, size=10):
                lhs = integrate_signal(fast, float(t), float(t) + CLS.T / lam)
                rhs = integrate_signal(sig, lam * float(t),
                                       lam * float(t) + CLS.T) / lam
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_bad_factor_rejected(self):
        with pytest.raises(DomainError):
            rescale_time(PwcSignal.constant(1.0), 0.0)


class TestJson:
    def test_round_trip(self):
        for sig in (make_duty(CLS, phase=0.3, on_value=0.7, pattern="split"),
                    PwcSignal.held((0.0, 0.5), (1.0,), hold=0.2),
                    PwcSignal.constant(0.3)):
            back = PwcSignal.from_json(sig.to_json())
            assert back.breakpoints == sig.breakpoints
            assert back.values == sig.values
            assert back.period == sig.period
            assert back.hold == sig.hold

    def test_schema_shape(self):
        obj = make_duty(CLS).to_json()
        assert set(obj) == {"breakpoints", "values", "extension"}
        assert obj["extension"] == {"periodic": 1.0}


def reference_make_battery(cls, size, seed=0):
    """The make_battery loop that rebuilt the shifted members' base duty
    each time and verified every member at the end, duty members too."""
    rng = np.random.default_rng(seed)
    T, mu, ratio = cls.T, cls.mu, cls.ratio
    sigs = [PwcSignal.constant(1.0), PwcSignal.constant(ratio),
            make_duty(cls, pattern="front"), make_duty(cls, pattern="back")]
    while len(sigs) < size:
        kind = rng.integers(0, 4)
        if kind == 0:
            sigs.append(make_duty(cls, **signals._random_duty(cls, rng)))
        elif kind == 1:
            m = int(rng.integers(2, 6))
            cuts = np.sort(rng.random(m - 1)) * T
            bp = np.concatenate([[0.0], cuts, [T]])
            if np.any(np.diff(bp) <= 1e-9 * T):
                continue
            dur = np.diff(bp)
            raw = rng.random(m)
            total = float(raw @ dur)
            if total <= 0.0:
                continue
            v = raw * (mu / total)
            if v.max() > 1.0:
                excess = v[v > ratio]
                tmix = min(1.0, float(np.min((1.0 - ratio)
                                             / (excess - ratio))) * 0.999)
                v = ratio + tmix * (v - ratio)
            sigs.append(PwcSignal.periodic(tuple(bp[:-1]) + (T,), tuple(v)))
        elif kind == 2:
            j = int(rng.integers(2, 5))
            sigs.append(make_duty(PeClass(T / j, mu / j),
                                  phase=float(rng.random() * T / j),
                                  on_value=1.0, pattern="front"))
        else:
            base = make_duty(cls, on_value=1.0, pattern="front")
            sigs.append(shift(base, float(rng.random() * 3.0 * T)))
    sigs = sigs[:size]
    for sig in sigs:
        if not verify_pe(sig, cls, horizon=2.0 * T).ok:
            raise ConstructionError("battery member fails verification")
    return sigs


class TestBattery:
    @pytest.mark.parametrize("cls", [CLS, PeClass(1.0, 0.4),
                                     PeClass(2.0, 0.3), PeClass(1e4, 5e3),
                                     PeClass(0.5, 0.5)])
    def test_matches_the_per_member_loop(self, cls):
        for seed in (0, 1, 7, 11):
            for size in (1, 3, 4, 5, 17, 50):
                got = make_battery(cls, size, seed)
                want = reference_make_battery(cls, size, seed)
                # json carries every float's repr, so -0.0 and 0.0 differ
                assert json.dumps([s.to_json() for s in got.signals]) == \
                    json.dumps([s.to_json() for s in want])

    def test_each_member_verified_once_per_class(self):
        # the shifted members' base duty is built once, and make_duty's
        # members are not verified again against the class and horizon it
        # already checked them against
        checks = []
        real = signals.verify_pe

        def recording(alpha, cls, horizon):
            checks.append((json.dumps(alpha.to_json()), cls, horizon))
            return real(alpha, cls, horizon)

        with mock.patch.object(signals, "verify_pe", recording):
            make_battery(PeClass(1.0, 0.4), 50, seed=7)
        assert len(checks) == len(set(checks))

    def test_deterministic(self):
        a = make_battery(CLS, 30, seed=5)
        b = make_battery(CLS, 30, seed=5)
        assert [s.to_json() for s in a.signals] == \
            [s.to_json() for s in b.signals]

    def test_all_members_valid(self):
        bat = make_battery(PeClass(2.0, 0.3), 40, seed=9)
        assert len(bat.signals) == 40
        for sig in bat.signals:
            assert verify_pe(sig, PeClass(2.0, 0.3), 4.0).ok

    @pytest.mark.parametrize("T", [1e4, 1e6])
    def test_long_windows_build(self, T):
        # an absolute 1e-12 slack refused a duty member whose window
        # integral came out one ulp of T/4 short, for every seed tried
        cls = PeClass(T, T / 2)
        for seed in (0, 1, 2):
            bat = make_battery(cls, 50, seed)
            assert all(verify_pe(sig, cls, 2.0 * T).ok for sig in bat.signals)

    @pytest.mark.parametrize("T", [1.0, 1e4, 1e6])
    def test_slack_scales_with_the_window(self, T):
        # a gate 1e-6 T short of the floor is refused at every window length,
        # one short by a tenth of the scaled slack is not
        cls = PeClass(T, T / 2)
        for short, ok in ((1e-6 * T, False), (1e-13 * max(1.0, T), True)):
            sig = PwcSignal.periodic((0.0, T / 2, T), (1.0 - 2.0 * short / T,
                                                       0.0))
            rep = verify_pe(sig, cls, 2.0 * T)
            assert rep.worst_integral < cls.mu
            assert rep.ok == ok


class TestValidation:
    @pytest.mark.parametrize("t1", [2.0 ** 63, 1e308, math.inf])
    def test_segments_refuse_int64_many_cycles(self, t1):
        # every cycle is listed in Python: at 1e308 the listing never ended
        sig = PwcSignal.periodic((0.0, 0.5, 1.0), (1.0, 0.0))
        with pytest.raises(DomainError, match="more than int64 counts"):
            next(sig.segments(0.0, t1))

    def test_breakpoints_must_start_at_zero(self):
        with pytest.raises(DomainError):
            PwcSignal((0.5, 1.0), (1.0,), hold=0.0)

    @pytest.mark.parametrize("bp", [(0.0, np.nan, 1.0), (0.0, 0.5, np.nan),
                                    (0.0, 0.5, np.inf)])
    def test_breakpoints_must_be_finite(self, bp):
        # a NaN fails every comparison, so the strict-increase test alone
        # let it through
        with pytest.raises(DomainError, match="finite"):
            PwcSignal(bp, (1.0, 0.0), hold=1.0)
        with pytest.raises(DomainError):
            PwcSignal.periodic(bp, (1.0, 0.0))

    def test_values_bounded(self):
        with pytest.raises(DomainError):
            PwcSignal((0.0, 1.0), (1.5,), hold=0.0)

    def test_period_matches_last_breakpoint(self):
        with pytest.raises(DomainError):
            PwcSignal((0.0, 1.0), (1.0,), period=2.0)

    @pytest.mark.parametrize("T, mu, name", [
        (math.inf, 1.0, "T"), (math.nan, 0.5, "T"), (-math.inf, 0.5, "T"),
        (1.0, math.nan, "mu"), (math.inf, math.inf, "T"),
        (1.0, -math.inf, "mu")])
    def test_class_must_be_finite(self, T, mu, name):
        # 0 < mu <= T held for T = inf, and the error surfaced later as
        # "breakpoints must be finite" from the first signal built
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            PeClass(T, mu)

    def test_class_bounds(self):
        with pytest.raises(DomainError):
            PeClass(1.0, 1.5)
        with pytest.raises(DomainError):
            PeClass(1.0, 0.0)
