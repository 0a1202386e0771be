"""Signal generators, grid sampling, and the empirical regularity bounds."""

import math
import random

import numpy as np
import pytest

from admtrack import (
    Constant,
    DomainError,
    GrowthBound,
    NumericError,
    ParameterError,
    Piecewise,
    Ramp,
    SampledSignal,
    Sine,
    discontinuities,
    estimate_variation_bound,
    fit_growth_bound,
    sample,
    sample_count,
    verify_growth,
)

JUMP_SIGNAL = Piecewise(segments=((0.0, Constant(2.0)), (1.0, Ramp(slope=0.03, intercept=-1.0))))


class TestSample:
    def test_constant(self):
        assert sample(Constant(10.0), 1.0, 3.0).values.tolist() == [10.0, 10.0, 10.0]

    def test_ramp(self):
        assert sample(Ramp(slope=1.0, intercept=0.0), 0.5, 1.5).values.tolist() == [0.0, 0.5, 1.0]

    def test_sine_on_grid(self):
        values = sample(Sine(amplitude=2.0, frequency_hz=0.25), 1.0, 4.0).values
        assert values[0] == 0.0
        assert values[1] == pytest.approx(2.0)

    def test_bit_budget_counts(self):
        assert len(sample(Constant(0.0), 0.04, 2.0)) == 50
        assert len(sample(Constant(0.0), 0.02, 2.0)) == 100

    def test_count_on_inexact_grid(self):
        assert sample_count(0.1, 0.3) == 3
        assert sample_count(0.1, 1.0) == 10
        assert sample_count(1.0, 0.5) == 1

    def test_count_matches_the_counting_loop(self):
        # oracle: the count by its definition, walked from a float-division guess
        def oracle(delta, horizon):
            n = max(int(math.ceil(horizon / delta)), 1)
            while n * delta < horizon:
                n += 1
            while n > 0 and (n - 1) * delta >= horizon:
                n -= 1
            return n

        rng = random.Random(5)
        for _ in range(2000):
            delta = rng.choice((0.1, 0.04, 0.02, 0.01, 0.007, 1e-3, 1.0, 3.0))
            horizon = rng.choice((rng.randint(1, 500) * delta, rng.uniform(1e-9, 50.0)))
            assert sample_count(delta, horizon) == oracle(delta, horizon)

    def test_invalid_grid(self):
        with pytest.raises(ParameterError):
            sample_count(0.0, 1.0)
        with pytest.raises(ParameterError):
            sample_count(0.1, -1.0)

    def test_keeps_provenance(self):
        assert sample(JUMP_SIGNAL, 0.04, 2.0).spec is JUMP_SIGNAL

    def test_values_are_one_read_only_array(self):
        samples = sample(Sine(amplitude=2.0, frequency_hz=0.25), 1.0, 4.0)
        assert samples.values.dtype == np.float64 and not samples.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            samples.values[0] = 1.0
        # a read-only float64 array is kept as it is, not copied again
        assert SampledSignal(1.0, samples.values).values is samples.values

    def test_a_list_or_a_writeable_array_is_copied_once(self):
        source, array = [1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])
        from_list, from_array = SampledSignal(1.0, source), SampledSignal(1.0, array)
        source[0] = array[0] = 99.0
        for samples in (from_list, from_array):
            assert samples.values.tolist() == [1.0, 2.0, 3.0] and not samples.values.flags.writeable

    @pytest.mark.parametrize("values", [1.0, [[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2))],
                             ids=["scalar", "nested_list", "2d_array"])
    def test_samples_must_be_one_dimensional(self, values):
        if isinstance(values, np.ndarray):
            values.flags.writeable = False  # a read-only float64 array is kept as it is
        with pytest.raises(ParameterError, match="1-d sequence, got [02] dimensions"):
            SampledSignal(1.0, values)


class TestPiecewise:
    def test_right_continuous_at_boundary(self):
        assert JUMP_SIGNAL.at(1.0) == -1.0
        assert JUMP_SIGNAL.at(1.0 - 1e-12) == 2.0

    def test_segments_run_on_local_time(self):
        assert JUMP_SIGNAL.at(1.5) == -1.0 + 0.03 * 0.5

    def test_nested(self):
        inner = Piecewise(segments=((0.0, Constant(1.0)), (0.5, Constant(3.0))))
        outer = Piecewise(segments=((0.0, Constant(0.0)), (1.0, inner)))
        assert outer.at(1.25) == 1.0
        assert outer.at(1.75) == 3.0

    def test_rejects_unsorted_segments(self):
        with pytest.raises(ParameterError):
            Piecewise(segments=((0.0, Constant(0.0)), (1.0, Constant(1.0)), (0.5, Constant(2.0))))

    def test_rejects_late_first_segment(self):
        with pytest.raises(ParameterError):
            Piecewise(segments=((0.5, Constant(0.0)),))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Piecewise(segments=())


def test_sampled_signal_rejects_non_finite():
    with pytest.raises(NumericError):
        SampledSignal(delta=1.0, values=(float("inf"),))


# an int beyond float range is no finite sample either (float() overflows on it)
@pytest.mark.parametrize("bad", [
    math.nan, -math.inf, pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")
])
def test_sampled_signal_rejects_values_beyond_float_range(bad):
    with pytest.raises(NumericError, match="samples must be finite"):
        SampledSignal(delta=1.0, values=(0.0, bad))


HUGE = 10**400


@pytest.mark.parametrize("build,message", [
    (lambda: Piecewise(((0.0, Constant(1.0)), (HUGE, Constant(2.0)))), "Piecewise segment start"),
    (lambda: Constant(HUGE), "Constant.level"),
    (lambda: Ramp(slope=HUGE, intercept=0.0), "Ramp.slope"),
    (lambda: Ramp(slope=1.0, intercept=-HUGE), "Ramp.intercept"),
    (lambda: Sine(amplitude=HUGE, frequency_hz=1.0), "Sine.amplitude"),
    (lambda: Sine(amplitude=1.0, frequency_hz=-HUGE), "Sine.frequency_hz"),
    (lambda: Sine(amplitude=1.0, frequency_hz=1.0, phase=HUGE), "Sine.phase"),
])
def test_signals_reject_ints_beyond_float_range(build, message):
    # each ended in a raw OverflowError from sample or estimate_variation_bound
    with pytest.raises(ParameterError, match=f"^{message} is an int of 401 digits, beyond float range$"):
        build()
    # ints in range are stored as given
    assert repr(Sine(amplitude=2, frequency_hz=1)) == "Sine(amplitude=2, frequency_hz=1, phase=0.0)"


class TestVariationBound:
    def test_constant_has_zero_rate(self):
        bound = estimate_variation_bound(Constant(7.0), 0.1, (0.0, 1.0))
        assert bound.rate == 0.0

    def test_ramp_rate_is_slope(self):
        bound = estimate_variation_bound(Ramp(slope=-3.0, intercept=1.0), 0.1, (0.0, 1.0))
        assert bound.rate == pytest.approx(3.0, rel=1e-9)

    def test_sine_rate_near_peak_speed(self):
        bound = estimate_variation_bound(Sine(amplitude=1.0, frequency_hz=1.0), 0.01, (0.0, 1.0))
        assert bound.rate == pytest.approx(2.0 * math.pi, rel=0.01)
        assert bound.rate <= 2.0 * math.pi

    def test_nondecreasing_under_factor_refinement(self):
        rates = [
            estimate_variation_bound(Sine(amplitude=1.0, frequency_hz=1.0), 0.01, (0.0, 1.0), factor).rate
            for factor in (2, 4, 8, 16, 32)
        ]
        assert rates == sorted(rates)

    def test_window_without_full_cell(self):
        with pytest.raises(DomainError):
            estimate_variation_bound(Constant(0.0), 1.0, (0.1, 0.9))

    def test_only_full_cells_inside_the_window_count(self):
        # jumps at 0.5 and 2.5 lie in the cells [0, 1] and [2, 3], which stick out of the window
        spec = Piecewise(segments=((0.0, Constant(5.0)), (0.5, Constant(0.0)), (2.5, Constant(10.0))))
        assert estimate_variation_bound(spec, 1.0, (0.5, 2.5)).rate == 0.0
        # a window ending on the grid keeps its last cell, which sees the value at t = 3.0
        assert estimate_variation_bound(spec, 1.0, (0.5, 3.0)).rate == 10.0

    def test_infinite_window_end_is_a_parameter_error(self):
        # the full-cell range ends at restart_index(delta, beta); this was a raw OverflowError
        with pytest.raises(ParameterError, match="a grid index must be below 2"):
            estimate_variation_bound(Constant(0.0), 1.0, (0.0, math.inf))

    def test_rejects_small_factor(self):
        with pytest.raises(ParameterError):
            estimate_variation_bound(Constant(0.0), 1.0, (0.0, 2.0), oversample_factor=1)

    def test_closed_window_sees_a_jump_at_its_edge(self):
        # cells are closed intervals: [0.96, 1.0] evaluates the jump's right
        # value at its endpoint, so the certified rate covers the jump
        bound = estimate_variation_bound(JUMP_SIGNAL, 0.04, (0.0, 1.0))
        assert bound.rate == pytest.approx(3.0 / 0.04, rel=1e-6)

    def test_window_clipped_before_jump_sees_flat_segment(self):
        bound = estimate_variation_bound(JUMP_SIGNAL, 0.04, (0.0, 0.96))
        assert bound.rate == 0.0


class TestGrowth:
    def test_constant_within_generous_bound(self):
        samples = sample(Constant(1.0), 0.25, 2.0)
        assert verify_growth(samples, GrowthBound(scale=2.0, exponent=1.0)) == []

    def test_ramp_through_origin_tight_equality_passes(self):
        # x(0)=0 makes the inequality tight; the bound is closed, so exact
        # equality is not a violation (dyadic grid keeps the floats exact)
        samples = sample(Ramp(slope=1.0, intercept=0.0), 0.25, 2.0)
        assert verify_growth(samples, GrowthBound(scale=1.0, exponent=1.0)) == []

    def test_ramp_through_origin_small_scale_fails(self):
        samples = sample(Ramp(slope=1.0, intercept=0.0), 0.25, 2.0)
        violations = verify_growth(samples, GrowthBound(scale=0.5, exponent=1.0))
        assert violations
        assert any(v.k == 0 for v in violations)

    def test_fitted_bound_verifies_clean(self):
        for spec in (Sine(1.0, 1.0), Ramp(2.0, 3.0), JUMP_SIGNAL):
            samples = sample(spec, 0.05, 2.0)
            fitted = fit_growth_bound(samples)
            assert verify_growth(samples, fitted) == []

    def test_fit_is_tight(self):
        samples = sample(Constant(5.0), 0.25, 2.0)
        fitted = fit_growth_bound(samples)
        assert fitted.scale <= 1.0

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ParameterError):
            GrowthBound(scale=0.0, exponent=1.0)

    @pytest.mark.parametrize("scale,exponent", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan(self, scale, exponent):
        with pytest.raises(ParameterError):
            GrowthBound(scale=scale, exponent=exponent)


class TestDiscontinuities:
    def test_jump_signal(self):
        assert discontinuities(JUMP_SIGNAL) == [(1.0, -3.0)]

    def test_smooth_specs_have_none(self):
        assert discontinuities(Sine(1.0, 1.0)) == []
        assert discontinuities(Ramp(1.0, 0.0)) == []

    def test_matched_boundary_is_not_a_jump(self):
        spec = Piecewise(segments=((0.0, Ramp(slope=1.0, intercept=0.0)), (1.0, Constant(1.0))))
        assert discontinuities(spec) == []

    def test_nested_jumps_with_offsets(self):
        inner = Piecewise(segments=((0.0, Constant(5.0)), (0.5, Constant(6.0))))
        outer = Piecewise(segments=((0.0, Constant(0.0)), (1.0, inner)))
        assert discontinuities(outer) == [(1.0, 5.0), (1.5, 1.0)]
