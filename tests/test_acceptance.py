"""Acceptance criteria A1-A9.

Each test implements one criterion at its stated tolerance; the terminal
summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import random
import time

import pytest

from admtrack import (
    CodecParams,
    AdaptationRule,
    ComparisonSettings,
    Constant,
    ExperimentConfig,
    FormatError,
    GrowthBound,
    Piecewise,
    Ramp,
    Sine,
    acquisition_bound,
    decode_bitstream,
    encode_signal,
    estimate_variation_bound,
    read_bitstream,
    run_compare,
    sample,
    settling_window,
    verify_growth,
    verify_theorem,
    write_bitstream,
)

from conftest import HAND_H, HAND_M, HAND_Y


def _random_piecewise(rng: random.Random, horizon: float) -> Piecewise:
    n_segments = rng.randint(1, 4)
    starts = [0.0] + sorted(rng.uniform(0.05, horizon * 0.95) for _ in range(n_segments - 1))
    segments = []
    for start in starts:
        kind = rng.choice(("constant", "ramp", "sine"))
        if kind == "constant":
            segments.append((start, Constant(rng.uniform(-10.0, 10.0))))
        elif kind == "ramp":
            segments.append((start, Ramp(slope=rng.uniform(-5.0, 5.0), intercept=rng.uniform(-10.0, 10.0))))
        else:
            segments.append(
                (start, Sine(amplitude=rng.uniform(0.1, 5.0), frequency_hz=rng.uniform(0.1, 5.0), phase=rng.uniform(0.0, 6.28)))
            )
    return Piecewise(segments=tuple(segments))


def _random_params(rng: random.Random, delta: float) -> CodecParams:
    rule = rng.choice(list(AdaptationRule))
    m0 = rng.uniform(0.01, 2.0)
    mbar = 0.0
    if rule is AdaptationRule.MODIFIED and rng.random() < 0.8:
        mbar = rng.uniform(0.0, m0)
    return CodecParams(
        y0=rng.uniform(-10.0, 10.0),
        m0=m0,
        mbar=mbar,
        a=rng.uniform(1.05, 2.0),
        delta=delta,
        rule=rule,
    )


def test_a1_mirror_exactness_on_500_random_signals():
    rng = random.Random(0xADA)
    start = time.perf_counter()
    for _ in range(500):
        delta = rng.choice((0.005, 0.01, 0.02, 0.05, 0.1))
        n = rng.randint(20, 120)
        horizon = n * delta
        spec = _random_piecewise(rng, horizon)
        params = _random_params(rng, delta)
        samples = sample(spec, delta, horizon)
        bits, encoded = encode_signal(params, samples)
        decoded = decode_bitstream(params, bits)
        assert len(decoded) == len(encoded)
        for a, b in zip(encoded.records, decoded.records):
            assert (a.k, a.t, a.y, a.h, a.m, a.in_switch) == (b.k, b.t, b.y, b.h, b.m, b.in_switch)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"mirror check took {elapsed:.2f}s"


def _steady_state_run(spec: Sine, delta: float = 0.01, horizon: float = 4.0, factor: int = 32):
    variation = estimate_variation_bound(spec, delta, (0.0, horizon), factor)
    mbar = 2.0 * variation.rate
    params = CodecParams(y0=5.0, m0=mbar, mbar=mbar, a=1.5, delta=delta)
    samples = sample(spec, delta, horizon)
    _, trace = encode_signal(params, samples)
    report = verify_theorem(trace, samples, variation, oversample_factor=factor)
    return trace, samples, report


STEADY_CASES = [
    Sine(amplitude=1.0, frequency_hz=1.0),
    Sine(amplitude=0.7, frequency_hz=2.0, phase=0.9),
]


def test_a2_steady_state_zero_violations():
    start = time.perf_counter()
    _, _, report = _steady_state_run(STEADY_CASES[0])
    elapsed = time.perf_counter() - start
    assert report.violations == []
    assert {"step_size_set", "switch_floor", "sample_error", "interval_error"} <= set(report.checked)
    assert elapsed < 1.0, f"steady-state verification took {elapsed:.2f}s"


@pytest.mark.parametrize("spec", STEADY_CASES, ids=["sine_1hz", "sine_2hz"])
def test_a3_symbol_runs_and_switch_gaps_after_settling(spec):
    trace, _, report = _steady_state_run(spec)
    eta = report.eta
    assert eta is not None
    assert not [v for v in report.violations if v.claim in ("symbol_run", "switch_gap")]

    # independent recount, not trusting the verifier
    bits = trace.bits()
    run = 1
    for k in range(eta + 2, len(bits)):
        run = run + 1 if bits[k] == bits[k - 1] else 1
        assert run <= 3, f"symbol run of {run} ending at step {k}"
    switches = [r.k for r in trace.records[eta:] if r.in_switch]
    gaps = [b - a for a, b in zip(switches, switches[1:])]
    assert max(gaps) <= 3


@pytest.mark.parametrize("gap", [1.0, 10.0, 100.0])
def test_a4_first_switch_within_acquisition_bound(gap):
    slope, intercept = 0.5, 3.0
    spec = Ramp(slope=slope, intercept=intercept)
    delta, horizon = 0.04, 4.0
    params = CodecParams(y0=intercept - gap, m0=0.08, mbar=0.08, a=1.5, delta=delta)
    samples = sample(spec, delta, horizon)

    growth = GrowthBound(scale=max(1.0, slope, gap), exponent=1.0)
    assert verify_growth(samples, growth) == []  # the certificate is verified

    _, trace = encode_signal(params, samples)
    tau = next(r.k for r in trace.records if r.in_switch)
    bound = acquisition_bound(params, gap, growth)
    assert tau <= bound, f"first switch {tau} exceeds bound {bound}"


@pytest.mark.parametrize("spec", STEADY_CASES, ids=["sine_1hz", "sine_2hz"])
def test_a5_settling_index_inside_window(spec):
    trace, _, report = _steady_state_run(spec)
    tau, eta = report.tau, report.eta
    assert tau is not None and eta is not None
    window = settling_window(trace.records[tau].m, trace.params)
    assert report.eta_window_end == tau + window
    assert tau <= eta <= tau + window


def test_a6_hand_trace_oracle(hand_params, hand_samples):
    bits, trace = encode_signal(hand_params, hand_samples)
    assert [r.y for r in trace.records] == HAND_Y
    assert [r.m for r in trace.records] == HAND_M
    assert bits == HAND_H

    decoded = decode_bitstream(hand_params, bits)
    assert [r.y for r in decoded.records] == HAND_Y
    assert [r.m for r in decoded.records] == HAND_M


def test_a7_bit_budget():
    for delta, expected in ((0.04, 50), (0.02, 100)):
        samples = sample(Sine(amplitude=1.0, frequency_hz=1.0), delta, 2.0)
        assert len(samples) == expected
        params = CodecParams(y0=5.0, m0=2 * delta, mbar=2 * delta, a=1.5, delta=delta)
        bits, _ = encode_signal(params, samples)
        assert len(bits) == expected


def test_a8_modified_recovers_no_slower_than_baseline():
    config = ExperimentConfig(
        signal=Piecewise(segments=((0.0, Constant(2.0)), (1.0, Ramp(slope=0.03, intercept=-1.0)))),
        codec=CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=0.04),
        horizon=4.0,
        comparison=ComparisonSettings(baseline=AdaptationRule.JAYANT, proximity_band_multiplier=1.0),
    )
    report = run_compare(config)
    modified, baseline = report.recovery_steps_modified, report.recovery_steps_baseline
    assert modified is not None, "modified rule did not recover within the horizon"
    assert baseline is None or modified <= baseline


def test_a9_bitstream_round_trips_and_rejections(tmp_path):
    rng = random.Random(99)
    for i in range(100):
        params = _random_params(rng, delta=rng.choice((0.01, 0.1, 1.0)))
        bits = [rng.choice((1, -1)) for _ in range(rng.randint(0, 300))]
        path = tmp_path / f"s{i}.odm"
        write_bitstream(path, params, bits)
        back_params, back_bits = read_bitstream(path)
        assert back_params == params and back_bits == bits

    good = tmp_path / "s0.odm"
    truncated = tmp_path / "truncated.odm"
    lines = good.read_text().split("\n")
    if len(lines[2]) == 0:  # ensure there is a body to truncate
        params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=1.5, delta=1.0)
        write_bitstream(good, params, [1, -1, 1])
        lines = good.read_text().split("\n")
    lines_t = list(lines)
    lines_t[2] = lines_t[2][:-1]
    truncated.write_text("\n".join(lines_t))
    with pytest.raises(FormatError):
        read_bitstream(truncated)

    bad_magic = tmp_path / "magic.odm"
    bad_magic.write_text("WRONG\n" + "\n".join(lines[1:]))
    with pytest.raises(FormatError):
        read_bitstream(bad_magic)
