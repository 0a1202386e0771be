"""Tracking-guarantee bounds and full-trace verification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from admtrack import (
    AdaptationRule,
    CodecParams,
    Constant,
    DivergenceError,
    DomainError,
    GrowthBound,
    NumericError,
    ParameterError,
    Piecewise,
    Ramp,
    Sine,
    Trace,
    VariationBound,
    Violation,
    acquisition_bound,
    decode_bitstream,
    encode_signal,
    estimate_variation_bound,
    restart_index,
    sample,
    settling_window,
    steady_error_bounds,
    verify_theorem,
)

from conftest import HAND_SWITCHES


def switch_set(trace):
    return set(np.flatnonzero(trace.in_switch).tolist())


class TestSwitchSet:
    def test_hand_trace(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        assert switch_set(trace) == HAND_SWITCHES

    def test_matches_recorded_flags(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        bits = trace.bits()
        assert switch_set(trace) == {k for k in range(1, len(bits)) if bits[k - 1] * bits[k] < 0}

    def test_all_equal_bits(self, hand_params):
        trace = decode_bitstream(hand_params, [1] * 8)
        assert switch_set(trace) == set()

    def test_alternating_bits(self, hand_params):
        trace = decode_bitstream(hand_params, [1, -1] * 4)
        assert switch_set(trace) == {1, 2, 3, 4, 5, 6, 7}

    def test_never_contains_zero(self, hand_params):
        trace = decode_bitstream(hand_params, [-1, 1])
        assert 0 not in switch_set(trace)


class TestAcquisitionBound:
    def test_pure_gap(self, hand_params):
        assert acquisition_bound(hand_params, 10.0, None) == 3

    def test_zero_gap(self, hand_params):
        assert acquisition_bound(hand_params, 0.0, None) == 0

    def test_with_growth_allowance(self, hand_params):
        # smallest m with 2**(m+1) - 1 >= 11 + m
        assert acquisition_bound(hand_params, 10.0, GrowthBound(scale=1.0, exponent=1.0)) == 3

    def test_weakly_decreasing_in_m0_and_a(self, hand_params):
        base = acquisition_bound(hand_params, 1000.0, None)
        bigger_m0 = acquisition_bound(replace(hand_params, m0=4.0), 1000.0, None)
        smaller_a = acquisition_bound(replace(hand_params, a=1.5), 1000.0, None)
        assert bigger_m0 <= base <= smaller_a

    def test_negative_gap_rejected(self, hand_params):
        with pytest.raises(ParameterError):
            acquisition_bound(hand_params, -1.0, None)

    def test_cap_guards_the_scan(self, hand_params):
        with pytest.raises(DivergenceError):
            acquisition_bound(hand_params, 1e9, None, cap=5)

    @pytest.mark.parametrize(
        "growth",
        [GrowthBound(scale=1.0, exponent=1e308), GrowthBound(scale=1e308, exponent=1.0)],
        ids=["power_overflows", "product_overflows"],
    )
    def test_infinite_allowance_is_a_numeric_error(self, hand_params, growth):
        # the power raises OverflowError at m = 2; the product rounds to inf at m = 1
        with pytest.raises(NumericError, match="growth allowance overflowed"):
            acquisition_bound(hand_params, 10.0, growth)


class TestSettlingWindow:
    def test_at_the_floor(self, hand_params):
        assert settling_window(1.0, hand_params) == 6

    def test_two_powers_up(self, hand_params):
        assert settling_window(4.0, hand_params) == 12  # a=2, m = a^2 * mbar

    def test_three_powers_up_a15(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.08, a=1.5, delta=1.0)
        assert settling_window(0.08 * 1.5**3, params) == 15

    def test_clamped_below_the_floor(self, hand_params):
        assert settling_window(0.25, hand_params) == 6

    def test_monotone_in_m_tau(self, hand_params):
        windows = [settling_window(m, hand_params) for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert windows == sorted(windows)

    def test_zero_floor_rejected(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0)
        with pytest.raises(DomainError):
            settling_window(1.0, params)

    @pytest.mark.parametrize("m_tau", [math.inf, math.nan, 0.0, -1.0])
    def test_slope_without_a_finite_window_rejected(self, hand_params, m_tau):
        with pytest.raises(DomainError, match=f"no finite settling window for the slope {m_tau!r} at the first switch"):
            settling_window(m_tau, hand_params)

    def test_ratio_beyond_float_range_rejected(self):
        # a finite slope whose ratio to a tiny floor overflows
        params = CodecParams(y0=0.0, m0=1e-300, mbar=1e-300, a=2.0, delta=1.0)
        with pytest.raises(DomainError, match="no finite settling window for the slope 10000000000.0 at"):
            settling_window(1e10, params)

    def test_ratio_below_float_range_gets_the_base_window(self):
        # the ratio to a huge floor underflows to 0; the window is still the clamped 6
        params = CodecParams(y0=0.0, m0=1e300, mbar=1e300, a=2.0, delta=1.0)
        assert settling_window(1e-300, params) == 6


class TestSteadyErrorBounds:
    def test_experiment_arithmetic(self):
        params = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=0.04)
        sample_bound, interval_bound = steady_error_bounds(params, 0.04)
        assert sample_bound == pytest.approx(0.0064, rel=1e-12)
        assert interval_bound == pytest.approx(0.008, rel=1e-12)

    def test_zero_rate_bounds_coincide(self, hand_params):
        sample_bound, interval_bound = steady_error_bounds(hand_params, 0.0)
        assert sample_bound == interval_bound == 2.0

    def test_plain_arithmetic(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        assert steady_error_bounds(params, 0.5) == (2.5, 3.0)

    def test_nan_rate_refused_through_both_entry_points(self, hand_params, hand_samples):
        # NaN fails every comparison, so a test for rate < 0 alone lets it pass
        _, trace = encode_signal(hand_params, hand_samples)
        variation = VariationBound(rate=math.nan)
        for check in (lambda: steady_error_bounds(hand_params, math.nan),
                      lambda: verify_theorem(trace, hand_samples, variation)):
            with pytest.raises(ParameterError, match="variation rate must be >= 0, got nan"):
                check()


def settle(trace, samples, rate):
    """The verifier's report on ``trace``: its ``eta`` is the settling step."""
    return verify_theorem(trace, samples, VariationBound(rate=rate))


def first_settled(trace, samples, bound, start=0):
    """The settling predicate step by step: the first step from ``start`` on
    whose slope is exactly the floor and whose sample error is within ``bound``."""
    return next((r.k for r in trace.records[start:]
                 if r.m == trace.params.mbar and abs(samples.values[r.k] - r.y) <= bound), None)


class TestDetectSettling:
    """The settling step is the ``eta`` of :func:`verify_theorem`."""

    def test_hand_trace_settles_at_8(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        # first step with the slope on the floor and |x-y| <= a*mbar*delta = 2
        assert settle(trace, hand_samples, rate=0.0).eta == 8

    def test_never_reaching_the_floor(self, hand_samples):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.01, a=2.0, delta=1.0)
        _, trace = encode_signal(params, hand_samples)
        assert settle(trace, hand_samples, rate=0.0).eta is None

    def test_returned_index_satisfies_both_conditions(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        eta = settle(trace, hand_samples, rate=0.0).eta
        record = trace.records[eta]
        assert record.m == hand_params.mbar
        assert abs(hand_samples.values[eta] - record.y) <= 2.0

    def test_jayant_rejected(self, hand_samples):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule=AdaptationRule.JAYANT)
        _, trace = encode_signal(params, hand_samples)
        report = settle(trace, hand_samples, rate=0.0)
        assert report.eta is None
        assert dict(report.not_applicable)["settling"] == "Jayant rule carries no floor guarantees"

    def test_floor_below_twice_rate_rejected(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        report = settle(trace, hand_samples, rate=0.9)
        assert report.eta is None
        assert dict(report.not_applicable)["settling"] == "floor 1.0 below twice the variation rate 0.9"


def _sine_run(delta=0.01, horizon=4.0, factor=32, y0=5.0):
    spec = Sine(amplitude=1.0, frequency_hz=1.0)
    variation = estimate_variation_bound(spec, delta, (0.0, horizon), factor)
    mbar = 2.0 * variation.rate
    params = CodecParams(y0=y0, m0=mbar, mbar=mbar, a=1.5, delta=delta)
    samples = sample(spec, delta, horizon)
    _, trace = encode_signal(params, samples)
    return trace, samples, variation


class TestVerifyTheorem:
    def test_sine_steady_state_clean(self):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation)
        assert report.violations == []
        assert report.eta is not None
        assert {"step_size_set", "switch_floor", "sample_error", "interval_error"} <= set(report.checked)

    def test_constant_degenerate_rate_zero(self, hand_params):
        spec = Constant(10.0)
        samples = sample(spec, 1.0, 30.0)
        _, trace = encode_signal(hand_params, samples)
        variation = estimate_variation_bound(spec, 1.0, (0.0, 30.0))
        report = verify_theorem(trace, samples, variation)
        assert variation.rate == 0.0
        assert report.violations == []
        assert report.eta == 8

    def test_forged_slope_detected(self):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation)
        k = report.eta + 5
        params = trace.params
        records = list(trace.records)
        records[k] = replace(records[k], m=params.a * params.a * params.mbar)
        tampered = Trace(params=params, records=tuple(records))
        bad = verify_theorem(tampered, samples, variation)
        assert any(v.claim == "step_size_set" and v.step == k for v in bad.violations)

    def test_acquisition_needs_certificate(self):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation)
        assert ("acquisition", "no growth certificate supplied") in report.not_applicable
        assert report.tau_bound is None

    def test_acquisition_with_certificate(self):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation, growth=GrowthBound(scale=8.0, exponent=1.0))
        assert report.tau_bound is not None
        assert not [v for v in report.violations if v.claim == "acquisition"]

    @staticmethod
    def _never_switching(hand_params, n):
        # all-up bits past a constant 10 never switch; the acquisition bound
        # for the gap of 10 under this growth certificate is 3
        trace = decode_bitstream(hand_params, [1] * n)
        samples = sample(Constant(10.0), 1.0, float(n))
        variation = VariationBound(rate=0.0)
        return verify_theorem(trace, samples, variation, growth=GrowthBound(scale=1.0, exponent=1.0))

    def test_no_switch_by_the_acquisition_bound_is_a_violation(self, hand_params):
        report = self._never_switching(hand_params, 20)
        assert report.tau is None and report.tau_bound == 3
        assert [v for v in report.violations if v.claim == "acquisition"] == [
            Violation("acquisition", 3, "no switch by bound 3")
        ]

    def test_horizon_ending_before_the_acquisition_bound_is_not_applicable(self, hand_params):
        report = self._never_switching(hand_params, 3)
        assert report.tau is None and report.tau_bound == 3
        assert [v for v in report.violations if v.claim == "acquisition"] == []
        assert ("acquisition", "horizon ends before the bound 3") in report.not_applicable
        assert "acquisition" in report.checked

    def test_jayant_claims_not_applicable(self, hand_samples):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule=AdaptationRule.JAYANT)
        _, trace = encode_signal(params, hand_samples)
        variation = estimate_variation_bound(Constant(10.0), 1.0, (0.0, 10.0))
        report = verify_theorem(trace, hand_samples, variation)
        assert report.violations == []
        assert any(claim == "settling" for claim, _ in report.not_applicable)
        assert any(claim == "steady_state" for claim, _ in report.not_applicable)

    def test_small_floor_claims_not_applicable(self):
        spec = Sine(amplitude=1.0, frequency_hz=1.0)
        delta, horizon = 0.01, 2.0
        variation = estimate_variation_bound(spec, delta, (0.0, horizon))
        params = CodecParams(y0=0.0, m0=1.0, mbar=variation.rate, a=1.5, delta=delta)
        samples = sample(spec, delta, horizon)
        _, trace = encode_signal(params, samples)
        report = verify_theorem(trace, samples, variation)
        reasons = dict(report.not_applicable)
        assert "settling" in reasons and "below twice" in reasons["settling"]

    def test_grid_mismatch_rejected(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        variation = estimate_variation_bound(Constant(10.0), 1.0, (0.0, 10.0))
        short = sample(Constant(10.0), 1.0, 5.0)
        with pytest.raises(ParameterError):
            verify_theorem(trace, short, variation)

    def test_report_serializes(self):
        trace, samples, variation = _sine_run()
        doc = verify_theorem(trace, samples, variation).to_dict()
        assert doc["ok"] is True
        assert isinstance(doc["violations"], list)

    def test_status_tells_a_vacuous_pass_from_a_verified_one(self):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation)
        assert report.checked and report.to_dict()["status"] == report.status == "verified"
        report.checked.clear()  # ok, yet nothing was checked
        assert report.ok and report.to_dict()["status"] == report.status == "vacuous"
        report.violations.append(Violation("sample_error", 3, "stand-in"))
        assert report.to_dict()["status"] == report.status == "violated"


class TestOneSettlingPredicate:
    """verify_theorem's ``eta`` is the one settling predicate, and its premise
    failures are the settling and steady-state claims' not-applicable reason."""

    @pytest.mark.parametrize("start", [0, 1, 9, 150, 399])
    def test_detect_settling_is_the_verifiers_eta(self, start):
        trace, samples, variation = _sine_run()
        report = verify_theorem(trace, samples, variation, start_index=start)
        assert report.eta is not None
        assert first_settled(trace, samples, report.sample_error_bound, start) == report.eta

    @pytest.mark.parametrize("params, eta", [
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), 8),
        (CodecParams(y0=0.0, m0=1.0, mbar=0.01, a=2.0, delta=1.0), None),
    ], ids=["settles", "never_settles"])
    def test_hand_trace_agrees(self, hand_samples, params, eta):
        _, trace = encode_signal(params, hand_samples)
        report = settle(trace, hand_samples, 0.0)
        assert first_settled(trace, hand_samples, report.sample_error_bound) == report.eta == eta

    @pytest.mark.parametrize("params, rate, reason", [
        (CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule=AdaptationRule.JAYANT), 0.0,
         "Jayant rule carries no floor guarantees"),
        (CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0), 0.0, "slope floor is zero"),
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), 0.9,
         "floor 1.0 below twice the variation rate 0.9"),
    ], ids=["jayant", "zero_floor", "floor_below_twice_rate"])
    def test_premise_failure_raises_the_verifiers_reason(self, hand_samples, params, rate, reason):
        _, trace = encode_signal(params, hand_samples)
        report = settle(trace, hand_samples, rate)
        reasons = dict(report.not_applicable)
        assert reasons["settling"] == reasons["steady_state"] == reason
        assert report.eta is None and not {"settling", "sample_error"} & set(report.checked)


class TestRestartAfterJump:
    def test_restart_index_grid(self):
        assert restart_index(0.04, 1.0) == 25
        assert restart_index(0.04, 1.001) == 26
        assert restart_index(0.04, 0.0) == 0

    def test_restart_index_has_one_home(self):
        from admtrack import signals, theory

        assert signals.restart_index is restart_index
        assert not hasattr(theory, "restart_index")

    def test_suffix_verification_clean(self):
        spec = Piecewise(segments=((0.0, Constant(2.0)), (1.0, Ramp(slope=0.03, intercept=-1.0))))
        delta, horizon = 0.04, 4.0
        params = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=delta)
        samples = sample(spec, delta, horizon)
        _, trace = encode_signal(params, samples)
        start = restart_index(delta, 1.0)
        variation = estimate_variation_bound(spec, delta, (1.0, horizon))
        report = verify_theorem(trace, samples, variation, start_index=start)
        assert report.tau is not None and report.tau > start
        assert report.eta is not None
        assert report.violations == []
