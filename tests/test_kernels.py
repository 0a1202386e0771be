"""The numpy cell-grid kernels against scalar oracles.

The oracles below are the per-point loops the kernels replaced: ``at`` one
time at a time, the literal cell-point list, the scalar variation scan and
the per-cell interval-error loop over :func:`admtrack.reconstruct`. Every
kernel must agree with them bit for bit.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admtrack.theory as theory
from admtrack import (
    CodecParams,
    Constant,
    DomainError,
    GrowthBound,
    Piecewise,
    Ramp,
    SampledSignal,
    Sine,
    StepRecord,
    Trace,
    VariationBound,
    encode_signal,
    estimate_variation_bound,
    reconstruct,
    sample,
    verify_theorem,
)
from admtrack.signals import CHUNK_CELLS, cell_grid, cell_points


# --- scalar oracles -------------------------------------------------------


def oracle_cell_points(k, delta, factor):
    step = delta / factor
    t0 = k * delta
    return [t0 + j * step for j in range(factor)] + [(k + 1) * delta]


def oracle_variation_rate(spec, delta, window, factor):
    alpha, beta = window
    k_lo = max(int(math.floor(alpha / delta)) - 1, 0)
    k_hi = int(math.ceil(beta / delta)) + 1
    worst = 0.0
    for k in range(k_lo, k_hi):
        if k * delta < alpha or (k + 1) * delta > beta:
            continue
        x0 = spec.at(k * delta)
        for t in oracle_cell_points(k, delta, factor):
            worst = max(worst, abs(spec.at(t) - x0))
    return worst / delta


def oracle_interval_error(report, records, spec, delta, factor):
    for k in range(report.eta, report.n_steps):
        record = records[k]
        worst_t, worst = None, 0.0
        for t in oracle_cell_points(k, delta, factor):
            err = abs(spec.at(t) - reconstruct(record, t, delta))
            if err > worst:
                worst_t, worst = t, err
        if worst > report.interval_error_bound:
            report.violations.append(
                theory.Violation(
                    "interval_error",
                    k,
                    f"|x - y| = {worst} at t={worst_t} > {report.interval_error_bound}",
                )
            )


def oracle_verify(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(theory, "_check_interval_error", oracle_interval_error)
        return verify_theorem(*args, **kwargs)


# --- random signals ---------------------------------------------------------


def random_leaf(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Constant(rng.uniform(-5.0, 5.0))
    if kind == 1:
        return Ramp(slope=rng.uniform(-2.0, 2.0), intercept=rng.uniform(-5.0, 5.0))
    return Sine(
        amplitude=rng.uniform(0.1, 3.0),
        frequency_hz=rng.uniform(0.05, 3.0),
        phase=rng.uniform(-math.pi, math.pi),
    )


def random_spec(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        return random_leaf(rng)
    starts = [0.0] + sorted(rng.uniform(0.1, 6.0) for _ in range(rng.randrange(1, 4)))
    starts = sorted(set(starts))
    return Piecewise(segments=tuple((s, random_spec(rng, depth - 1)) for s in starts))


def segment_starts(spec, offset=0.0):
    """Absolute start times of every (nested) piecewise segment."""
    if not isinstance(spec, Piecewise):
        return []
    found = []
    for start, child in spec.segments:
        found.append(offset + start)
        found.extend(segment_starts(child, offset + start))
    return found


def probe_times(spec, rng: random.Random) -> list[float]:
    times = [rng.uniform(-1.0, 10.0) for _ in range(200)]
    times += [k * 0.01 for k in range(0, 1000, 7)]
    for s in segment_starts(spec):
        times += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
    return times


def assert_bitwise_equal(array, values):
    assert np.asarray(array, dtype=float).tobytes() == np.asarray(values, dtype=float).tobytes()


# --- at_array ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_at_array_equals_at_bit_for_bit(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    times = probe_times(spec, rng)
    assert_bitwise_equal(spec.at_array(np.array(times)), [spec.at(t) for t in times])


@pytest.mark.parametrize("seed", range(10))
def test_at_array_keeps_the_shape_of_a_grid(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    grid = cell_grid(np.arange(40), 0.05, 8)
    values = spec.at_array(grid)
    assert values.shape == grid.shape
    assert_bitwise_equal(values.ravel(), [spec.at(t) for t in grid.ravel().tolist()])


def test_nested_piecewise_boundaries():
    inner = Piecewise(segments=((0.0, Ramp(slope=1.0, intercept=0.0)), (0.3, Constant(-2.0))))
    spec = Piecewise(segments=((0.0, Sine(1.0, 1.0)), (0.7, inner), (2.1, Constant(4.0))))
    times = []
    for s in (0.0, 0.7, 0.7 + 0.3, 2.1):
        times += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
    assert_bitwise_equal(spec.at_array(np.array(times)), [spec.at(t) for t in times])


finite_times = st.floats(min_value=-10.0, max_value=100.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    amplitude=st.floats(min_value=-1e3, max_value=1e3),
    frequency=st.floats(min_value=0.0, max_value=1e3),
    phase=st.floats(min_value=-10.0, max_value=10.0),
    times=st.lists(finite_times, min_size=1, max_size=50),
)
def test_sine_at_array_property(amplitude, frequency, phase, times):
    spec = Sine(amplitude=amplitude, frequency_hz=frequency, phase=phase)
    assert_bitwise_equal(spec.at_array(np.array(times)), [spec.at(t) for t in times])


@settings(max_examples=100, deadline=None)
@given(
    slope=st.floats(min_value=-1e6, max_value=1e6),
    intercept=st.floats(min_value=-1e6, max_value=1e6),
    level=st.floats(min_value=-1e6, max_value=1e6),
    times=st.lists(finite_times, min_size=1, max_size=50),
)
def test_ramp_and_constant_at_array_property(slope, intercept, level, times):
    for spec in (Ramp(slope=slope, intercept=intercept), Constant(level)):
        assert_bitwise_equal(spec.at_array(np.array(times)), [spec.at(t) for t in times])


def test_piecewise_equality_and_repr_ignore_cached_starts():
    a = Piecewise(segments=((0, Constant(1.0)), (1.5, Ramp(slope=1.0, intercept=0.0))))
    b = Piecewise(segments=((0.0, Constant(1.0)), (1.5, Ramp(slope=1.0, intercept=0.0))))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        "Piecewise(segments=((0.0, Constant(level=1.0)), "
        "(1.5, Ramp(slope=1.0, intercept=0.0))))"
    )


# --- cell grid --------------------------------------------------------------


@pytest.mark.parametrize("delta,factor", [(0.01, 32), (0.04, 32), (0.1, 3), (1.0, 2), (0.007, 17)])
def test_cell_grid_matches_scalar_cell_points(delta, factor):
    ks = [0, 1, 2, 99, 12345, 2**31 + 7]
    grid = cell_grid(np.array(ks), delta, factor)
    assert grid.shape == (len(ks), factor + 1)
    for row, k in zip(grid, ks):
        assert_bitwise_equal(row, oracle_cell_points(k, delta, factor))
        assert_bitwise_equal(cell_points(k, delta, factor), oracle_cell_points(k, delta, factor))


# --- variation certificate --------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_variation_rate_matches_scalar_scan(seed):
    rng = random.Random(1000 + seed)
    spec = random_spec(rng)
    delta = rng.choice([0.01, 0.02, 0.04, 0.1, 0.03])
    alpha = rng.choice([0.0, rng.uniform(0.0, 3.0)])
    beta = alpha + rng.uniform(0.5, 8.0)
    factor = rng.choice([2, 5, 16, 32])
    bound = estimate_variation_bound(spec, delta, (alpha, beta), factor)
    assert repr(bound.rate) == repr(oracle_variation_rate(spec, delta, (alpha, beta), factor))


def test_variation_rate_spans_several_chunks():
    spec = Sine(amplitude=1.3, frequency_hz=0.37, phase=0.2)
    delta = 0.01
    beta = (2 * CHUNK_CELLS + 17) * delta
    bound = estimate_variation_bound(spec, delta, (0.0, beta), 8)
    assert repr(bound.rate) == repr(oracle_variation_rate(spec, delta, (0.0, beta), 8))


# --- verifier -----------------------------------------------------------------


def random_run(rng: random.Random):
    """A modified-rule trace of a random signal plus its samples and the
    certified variation rate."""
    spec = random_spec(rng, depth=1)
    delta = rng.choice([0.01, 0.02, 0.04])
    horizon = rng.uniform(1.0, 6.0)
    factor = rng.choice([4, 16, 32])
    samples = sample(spec, delta, horizon)
    certified = estimate_variation_bound(spec, delta, (0.0, len(samples) * delta), factor)
    mbar = max(2.0 * certified.rate, 1e-3) * rng.uniform(1.0, 1.5)
    params = CodecParams(
        y0=rng.uniform(-3.0, 3.0),
        m0=mbar * rng.uniform(1.0, 20.0),
        mbar=mbar,
        a=rng.uniform(1.1, 2.0),
        delta=delta,
    )
    _, trace = encode_signal(params, samples)
    return trace, samples, certified, factor


@pytest.mark.parametrize("seed", range(60))
def test_verify_theorem_matches_scalar_oracle(seed, monkeypatch):
    rng = random.Random(2000 + seed)
    trace, samples, certified, factor = random_run(rng)
    # an undersized rate shrinks both error bounds and provokes violations
    rate = certified.rate * rng.choice([1.0, 0.5, 0.1, 0.0])
    variation = VariationBound(rate=rate, window=certified.window, oversample_factor=factor)
    start = rng.choice([0, rng.randrange(len(trace))])
    growth = rng.choice([None, GrowthBound(scale=8.0, exponent=1.0)])
    kwargs = dict(growth=growth, oversample_factor=factor, start_index=start)
    expected = oracle_verify(monkeypatch, trace, samples, variation, **kwargs).to_dict()
    assert verify_theorem(trace, samples, variation, **kwargs).to_dict() == expected


def test_oracle_comparison_covers_interval_error_violations(monkeypatch):
    """The random cases above do reach the interval-error detail strings."""
    found = 0
    for seed in range(60):
        rng = random.Random(2000 + seed)
        trace, samples, certified, factor = random_run(rng)
        variation = VariationBound(rate=0.0, window=certified.window, oversample_factor=factor)
        report = verify_theorem(trace, samples, variation, oversample_factor=factor)
        expected = oracle_verify(monkeypatch, trace, samples, variation, oversample_factor=factor)
        assert report.to_dict() == expected.to_dict()
        found += sum(v.claim == "interval_error" for v in report.violations)
    assert found > 0


def test_interval_error_over_several_chunks(monkeypatch):
    # a floor close to the peak slope pi and a zero rate: violations throughout
    spec = Sine(amplitude=1.0, frequency_hz=0.5)
    delta = 0.01
    samples = sample(spec, delta, (2 * CHUNK_CELLS + 50) * delta)
    params = CodecParams(y0=0.0, m0=3.2, mbar=3.2, a=1.5, delta=delta)
    _, trace = encode_signal(params, samples)
    variation = VariationBound(rate=0.0, window=(0.0, 1.0), oversample_factor=8)
    report = verify_theorem(trace, samples, variation, oversample_factor=8)
    expected = oracle_verify(monkeypatch, trace, samples, variation, oversample_factor=8)
    assert report.to_dict() == expected.to_dict()
    assert any(v.claim == "interval_error" and v.step > CHUNK_CELLS for v in report.violations)


def test_tied_worst_error_reports_the_first_time(monkeypatch):
    # x = -10t; on cell [1, 2] the reconstruction -15.5 + (t - 1) misses x by
    # 5.5 at both ends, so the worst point is a tie that the scan resolves to
    # the earlier time
    spec = Ramp(slope=-10.0, intercept=0.0)
    params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=1.5, delta=1.0)
    trace = Trace(
        params=params,
        records=(
            StepRecord(k=0, t=0.0, x=0.0, y=0.0, h=-1, m=1.0, in_switch=False),
            StepRecord(k=1, t=1.0, x=-10.0, y=-15.5, h=1, m=1.0, in_switch=True),
        ),
    )
    samples = SampledSignal(delta=1.0, values=(0.0, -10.0), spec=spec)
    variation = VariationBound(rate=0.0, window=(0.0, 2.0), oversample_factor=2)
    report = verify_theorem(trace, samples, variation, oversample_factor=2)
    expected = oracle_verify(monkeypatch, trace, samples, variation, oversample_factor=2)
    assert report.to_dict() == expected.to_dict()
    assert interval_detail(report, 1) == "|x - y| = 5.5 at t=1.0 > 1.5"


def interval_detail(report, step):
    (violation,) = [v for v in report.violations if v.claim == "interval_error" and v.step == step]
    return violation.detail


def test_tampered_record_time_raises_like_reconstruct(monkeypatch):
    spec = Sine(amplitude=1.0, frequency_hz=1.0)
    samples = sample(spec, 0.01, 1.0)
    params = CodecParams(y0=0.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    _, trace = encode_signal(params, samples)
    records = list(trace.records)
    k = len(records) - 5
    records[k] = records[k].__class__(**{**records[k].__dict__, "t": records[k].t + 0.001})
    tampered = Trace(params=params, records=tuple(records))
    variation = VariationBound(rate=1.0, window=(0.0, 1.0), oversample_factor=32)
    with pytest.raises(DomainError) as oracle_error:
        oracle_verify(monkeypatch, tampered, samples, variation)
    with pytest.raises(DomainError) as kernel_error:
        verify_theorem(tampered, samples, variation)
    assert str(kernel_error.value) == str(oracle_error.value)
