"""Core codec state machine against the hand-executed oracle."""

import math
import random

import numpy as np
import pytest

from admtrack import (
    MINUS,
    PLUS,
    AdaptationRule,
    CodecParams,
    DomainError,
    NumericError,
    ParameterError,
    SampledSignal,
    StepRecord,
    Trace,
    check_trace,
    decode_bitstream,
    decode_step,
    encode_signal,
    encode_step,
    init_state,
    reconstruct,
    restart_index,
    symbol_for_sample,
)

from conftest import HAND_H, HAND_M, HAND_SWITCHES, HAND_Y


def step_size_update(m_prev, in_switch, prev_in_switch, params):
    """Oracle: the float-level slope rule for one step.

    MODIFIED: grow ``a*m`` when neither this step nor the previous one
    switched, hold right after a switch, ``max(m/a, mbar)`` on a switch.
    JAYANT: grow off switches, ``m/a`` on switches. The state machine derives
    the same value through exact power bookkeeping, so the two can differ in
    the last ulp.
    """
    if not math.isfinite(m_prev) or m_prev <= 0.0:
        raise NumericError(f"slope must be positive and finite, got {m_prev!r}")
    if params.rule is AdaptationRule.JAYANT:
        return m_prev / params.a if in_switch else params.a * m_prev
    if in_switch:
        return max(m_prev / params.a, params.mbar)
    if prev_in_switch:
        return m_prev
    return params.a * m_prev


def test_hand_trace_exact(hand_params, hand_samples):
    bits, trace = encode_signal(hand_params, hand_samples)
    assert [r.y for r in trace.records] == HAND_Y
    assert [r.m for r in trace.records] == HAND_M
    assert bits == HAND_H
    assert np.flatnonzero(trace.in_switch).tolist() == sorted(HAND_SWITCHES)


def test_hand_trace_tie_step(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    # k=9 lands exactly on the sample; the symbol must flip the previous one
    assert trace.records[9].y == 10.0
    assert trace.records[9].h == -trace.records[8].h


class TestInitState:
    def test_copies_fields(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        state = init_state(params)
        assert (state.k, state.y, state.m) == (0, 0.0, 1.0)
        assert state.h == PLUS
        assert not state.prev_in_switch

    def test_experiment_params(self):
        params = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=0.04)
        state = init_state(params)
        assert state.y == 5.0 and state.m == 0.08

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=2.5),
            dict(a=1.0),
            dict(a=0.5),
            dict(delta=0.0),
            dict(delta=-1.0),
            dict(m0=0.0),
            dict(m0=-2.0),
            dict(mbar=-0.1),
            dict(y0=float("nan")),
            dict(y0=float("inf")),
            dict(y0=10**400),  # an int beyond float range, where math.isfinite raises
            dict(m0=-10**400),
            dict(delta=10**400),
            dict(rule=AdaptationRule.JAYANT),  # keeps mbar=1, which JAYANT forbids
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        base = dict(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            CodecParams(**base)

    def test_with_rule_zeroes_floor_for_jayant(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        jay = params.with_rule(AdaptationRule.JAYANT)
        assert jay.mbar == 0.0 and jay.rule is AdaptationRule.JAYANT


class TestSymbolRule:
    def test_below(self):
        assert symbol_for_sample(1.0, 10.0, PLUS) == PLUS

    def test_above(self):
        assert symbol_for_sample(15.0, 10.0, PLUS) == MINUS

    def test_tie_flips_previous(self):
        assert symbol_for_sample(10.0, 10.0, MINUS) == PLUS
        assert symbol_for_sample(10.0, 10.0, PLUS) == MINUS

    @pytest.mark.parametrize("y,x", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite(self, y, x):
        with pytest.raises(NumericError):
            symbol_for_sample(y, x, PLUS)

    def test_bad_previous_symbol(self):
        with pytest.raises(NumericError):
            symbol_for_sample(1.0, 1.0, 0)


class TestStepSizeUpdate:
    def test_shrink_on_switch(self, hand_params):
        assert step_size_update(8.0, True, False, hand_params) == 4.0

    def test_hold_after_switch(self, hand_params):
        assert step_size_update(4.0, False, True, hand_params) == 4.0

    def test_floor_binds(self, hand_params):
        assert step_size_update(1.0, True, False, hand_params) == 1.0

    def test_grow(self, hand_params):
        assert step_size_update(4.0, False, False, hand_params) == 8.0

    def test_jayant_has_no_hold(self):
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule=AdaptationRule.JAYANT)
        assert step_size_update(4.0, False, True, params) == 8.0
        assert step_size_update(4.0, True, False, params) == 2.0

    def test_rejects_bad_slope(self, hand_params):
        with pytest.raises(NumericError):
            step_size_update(0.0, False, False, hand_params)


@pytest.mark.parametrize("rule", [AdaptationRule.MODIFIED, AdaptationRule.JAYANT])
def test_state_machine_follows_step_size_update(rule):
    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(1.05, 2.0)
        mbar = rng.uniform(0.01, 1.0) if rule is AdaptationRule.MODIFIED else 0.0
        params = CodecParams(y0=0.0, m0=rng.uniform(0.01, 4.0), mbar=mbar, a=a, delta=0.1, rule=rule)
        trace = decode_bitstream(params, [rng.choice((PLUS, MINUS)) for _ in range(60)])
        for k in range(1, len(trace)):
            want = step_size_update(trace.m[k - 1], trace.in_switch[k], trace.in_switch[k - 1], params)
            assert trace.m[k] == pytest.approx(want, rel=1e-12)


def test_step0_uses_initial_values(hand_params):
    state, h, record = encode_step(init_state(hand_params), 10.0)
    assert record.y == 0.0 and record.m == 1.0
    assert h == PLUS
    assert not record.in_switch
    assert state.k == 1


def test_step0_never_in_switch_even_on_flip(hand_params):
    # estimate above the first sample flips the symbol, but step 0 is not a switch
    params = CodecParams(y0=20.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
    _, h, record = encode_step(init_state(params), 10.0)
    assert h == MINUS and not record.in_switch


def test_switch_at_step1_takes_shrink_branch():
    # a switch at k=1 exists, but the hold branch (previous step switched)
    # cannot fire there because step 0 is never a switch
    params = CodecParams(y0=0.0, m0=1.0, mbar=0.25, a=2.0, delta=1.0)
    samples = SampledSignal(delta=1.0, values=(10.0, 0.0))
    _, trace = encode_signal(params, samples)
    assert trace.records[1].in_switch
    assert trace.records[1].m == 0.5  # max(1/2, 0.25)


def test_non_finite_sample_rejected(hand_params):
    with pytest.raises(NumericError):
        encode_step(init_state(hand_params), float("nan"))


@pytest.mark.parametrize("bad", [
    math.inf, pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")
])
def test_sample_beyond_float_range_rejected(hand_params, bad):
    # math.isfinite overflows on an int beyond float range instead of answering
    with pytest.raises(NumericError, match="sample must be finite"):
        encode_step(init_state(hand_params), bad)


def test_decode_step0_records_symbol(hand_params):
    state, record = decode_step(init_state(hand_params), PLUS)
    assert record.y == 0.0 and record.m == 1.0 and record.h == PLUS
    assert record.x is None
    assert state.k == 1


def test_decode_reproduces_hand_trace(hand_params):
    trace = decode_bitstream(hand_params, HAND_H)
    assert [r.y for r in trace.records] == HAND_Y
    assert [r.m for r in trace.records] == HAND_M


def test_round_trip_field_identical(hand_params, hand_samples):
    bits, enc = encode_signal(hand_params, hand_samples)
    dec = decode_bitstream(hand_params, bits)
    for a, b in zip(enc.records, dec.records):
        assert (a.k, a.t, a.y, a.h, a.m, a.in_switch) == (b.k, b.t, b.y, b.h, b.m, b.in_switch)
        assert b.x is None


class TestReconstruct:
    def test_midpoint(self):
        record = StepRecord(k=3, t=3.0, x=None, y=7.0, h=PLUS, m=8.0, in_switch=False)
        assert reconstruct(record, 3.5, 1.0) == 11.0

    def test_left_endpoint_is_estimate(self):
        record = StepRecord(k=3, t=3.0, x=None, y=7.0, h=PLUS, m=8.0, in_switch=False)
        assert reconstruct(record, 3.0, 1.0) == 7.0

    def test_right_endpoint_continuity(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        for left, right in zip(trace.records, trace.records[1:]):
            assert reconstruct(left, right.t, 1.0) == right.y

    def test_continuity_on_inexact_grid(self):
        # grid times are not exact multiples of delta in floats; continuity
        # must still be bit-exact
        params = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=0.04)
        samples = SampledSignal(delta=0.04, values=tuple(2.0 for _ in range(50)))
        _, trace = encode_signal(params, samples)
        for left, right in zip(trace.records, trace.records[1:]):
            assert reconstruct(left, right.t, params.delta) == right.y

    def test_outside_cell_rejected(self):
        record = StepRecord(k=3, t=3.0, x=None, y=7.0, h=PLUS, m=8.0, in_switch=False)
        with pytest.raises(DomainError):
            reconstruct(record, 4.5, 1.0)
        with pytest.raises(DomainError):
            reconstruct(record, 2.9, 1.0)


def estimate_at(trace, t):
    """Piecewise-linear reconstruction of ``trace`` at any time it covers."""
    if not len(trace):
        raise DomainError("empty trace")
    delta = trace.params.delta
    # a grid time k*delta is the right end of cell k-1: y[k] bit for bit on a codec trace
    k = min(max(restart_index(delta, t) - 1, 0), len(trace) - 1)
    return reconstruct(trace.records[k], t, delta)


def test_estimate_at_matches_reconstruct(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    assert estimate_at(trace, 3.5) == 11.0
    assert estimate_at(trace, 0.0) == 0.0


@pytest.mark.parametrize("delta", [1.0, 0.04, 0.1, 0.007])
def test_estimate_at_is_the_estimate_on_every_grid_time(delta):
    # grid times k*delta are not exact multiples in floats; whichever cell
    # holds t, the value at a grid time is y[k] bit for bit
    params = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=delta)
    rng = random.Random(3)
    trace = decode_bitstream(params, [rng.choice((PLUS, MINUS)) for _ in range(300)])
    for k in range(len(trace)):
        assert estimate_at(trace, k * delta) == trace.y[k]
        t = (k + rng.random()) * delta
        if k * delta <= t <= (k + 1) * delta:
            assert estimate_at(trace, t) == reconstruct(trace.records[k], t, delta)
    with pytest.raises(DomainError):
        estimate_at(trace, -delta)
    with pytest.raises(DomainError):
        estimate_at(trace, (len(trace) + 1) * delta)


class TestEncodeSignal:
    def test_bit_count_matches_sample_count(self, hand_params, hand_samples):
        bits, trace = encode_signal(hand_params, hand_samples)
        assert len(bits) == len(hand_samples) == len(trace)

    def test_empty_signal(self, hand_params):
        bits, trace = encode_signal(hand_params, SampledSignal(delta=1.0, values=()))
        assert bits == [] and len(trace) == 0

    def test_grid_mismatch(self, hand_params):
        with pytest.raises(ParameterError):
            encode_signal(hand_params, SampledSignal(delta=0.5, values=(1.0,)))

    def test_encoder_trace_holds_the_samples_array(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        assert np.shares_memory(trace.x, hand_samples.values)


class TestTraceSamples:
    """A trace has a sample at every step or at none."""

    def test_decode_trace_has_no_samples(self, hand_params, hand_samples):
        bits, _ = encode_signal(hand_params, hand_samples)
        trace = decode_bitstream(hand_params, bits)
        assert trace.x is None and [r.x for r in trace.records] == [None] * 10
        assert Trace(hand_params, trace.records) == trace

    def test_records_mixing_present_and_absent_samples_are_refused(self, hand_params, hand_samples):
        from dataclasses import replace

        _, trace = encode_signal(hand_params, hand_samples)
        records = list(trace.records)
        records[2] = replace(records[2], x=None)
        with pytest.raises(ParameterError, match="trace column x must be a sequence of numbers, got object"):
            Trace(hand_params, records)

    def test_columns_mixing_present_and_absent_samples_are_refused(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        columns = {name: getattr(trace, name) for name in Trace.COLUMNS}
        columns["x"] = trace.x.tolist()
        columns["x"][2] = None
        with pytest.raises(ParameterError, match="trace column x must be a sequence of numbers, got object"):
            Trace.from_columns(hand_params, **columns)

    def test_every_empty_trace_has_no_samples(self, hand_params):
        empty = {name: [] for name in Trace.COLUMNS}
        columns = Trace.from_columns(hand_params, **{**empty, "x": None})
        samples = Trace.from_columns(hand_params, **empty)  # zero samples are no samples
        _, encoded = encode_signal(hand_params, SampledSignal(hand_params.delta, []))
        for trace in (decode_bitstream(hand_params, []), Trace(hand_params, []), samples, encoded):
            assert trace.x is None and trace == columns


def test_decode_empty_bits(hand_params):
    assert len(decode_bitstream(hand_params, [])) == 0


def test_decode_rejects_bad_symbol(hand_params):
    with pytest.raises(NumericError):
        decode_bitstream(hand_params, [PLUS, 0])


@pytest.mark.parametrize("bad", [None, 0, 2])
def test_decode_rejects_a_missing_symbol_like_any_bad_one(hand_params, bad):
    # None is not "no symbol": it fails at its own step like 0 or 2 would
    with pytest.raises(NumericError, match=f"got {bad!r}$"):
        decode_bitstream(hand_params, [PLUS, PLUS, bad, PLUS])
    state = init_state(hand_params)
    state, _ = decode_step(state, PLUS)
    with pytest.raises(NumericError, match=f"got {bad!r}$"):
        decode_step(state, bad)


def test_decode_slope_power_overflow_is_numeric_error():
    # M0 * a**1024 is a finite slope, but a**1024 itself overflows a float
    params = CodecParams(y0=0, m0=1e-300, mbar=1e-300, a=2, delta=1)
    with pytest.raises(NumericError, match=r"a\*\*1024 overflowed"):
        decode_bitstream(params, [PLUS] * 1100)
    with pytest.raises(NumericError, match=r"a\*\*1024 overflowed"):
        encode_signal(params, SampledSignal(delta=1.0, values=(1e300,) * 1100))


def test_steady_slope_values_are_exact_across_parameter_draws():
    # the reason the slope is tracked as base*a**power: a plain grow/shrink
    # float recursion lands one ulp off the floor in ~5% of parameter draws,
    # breaking exact {mbar, a*mbar} membership in steady state
    import random

    from admtrack import VariationBound, verify_theorem

    rng = random.Random(12345)
    for _ in range(300):
        a = rng.uniform(1.05, 2.0)
        mbar = rng.uniform(1e-4, 5.0)
        m0 = mbar * a ** rng.randint(0, 8) if rng.random() < 0.5 else rng.uniform(mbar, 10 * mbar)
        level = rng.uniform(-50.0, 50.0)
        params = CodecParams(
            y0=level + rng.uniform(-20.0, 20.0), m0=m0, mbar=mbar, a=a,
            delta=rng.choice((0.01, 0.04, 1.0)),
        )
        samples = SampledSignal(delta=params.delta, values=(level,) * 250)
        _, trace = encode_signal(params, samples)
        eta = verify_theorem(trace, samples, VariationBound(rate=0.0)).eta
        if eta is None:
            continue
        lifted = a * mbar
        for record in trace.records[eta:]:
            assert record.m == mbar or record.m == lifted
            if record.in_switch:
                assert record.m == mbar


class TestCheckTrace:
    def test_clean_trace(self, hand_params, hand_samples):
        _, trace = encode_signal(hand_params, hand_samples)
        assert check_trace(trace) == []

    @pytest.mark.parametrize("field,value", [("y", 99.0), ("m", 3.0), ("in_switch", True)])
    def test_detects_tampering(self, hand_params, hand_samples, field, value):
        from dataclasses import replace

        _, trace = encode_signal(hand_params, hand_samples)
        records = list(trace.records)
        records[5] = replace(records[5], **{field: value})
        problems = check_trace(Trace(params=hand_params, records=tuple(records)))
        assert problems and any(k == 5 for k, _ in problems)

    def test_detects_symbol_inconsistent_with_sample(self, hand_params, hand_samples):
        from dataclasses import replace

        _, trace = encode_signal(hand_params, hand_samples)
        records = list(trace.records)
        records[2] = replace(records[2], x=-50.0)  # h=+1 but estimate above this x
        problems = check_trace(Trace(params=hand_params, records=tuple(records)))
        assert any(k == 2 and "comparison rule" in msg for k, msg in problems)
