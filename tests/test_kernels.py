"""The numpy and columnar kernels against the code they replaced, as oracles.

The first oracles are the per-point code the numpy signal kernels replaced:
the scalar evaluators (``math.sin`` and ``bisect_right``) called one time at
a time, the literal cell-point list, the scalar variation scan and the
per-cell interval-error loop over :func:`admtrack.reconstruct`.
The codec oracles further down are the per-step state machine the columnar
kernel replaced. After them come the ``csv``-module trace writer and
row-loop reader the columnar CSV I/O replaced, the per-step loops behind
the steady-state scans of the verifier, and the all-lags loops of the growth
certificates. Every kernel must agree with its oracle bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
import random
import struct
import tempfile
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import admtrack.codec as codec
import admtrack.harness as harness
import admtrack.signals as signals
import admtrack.theory as theory
from admtrack import (
    MINUS,
    PLUS,
    AdaptationRule,
    CodecParams,
    Constant,
    Erasure,
    FormatError,
    GrowthBound,
    GrowthViolation,
    NumericError,
    ParameterError,
    Piecewise,
    Ramp,
    ReceivedStream,
    SampledSignal,
    Sine,
    StepRecord,
    Trace,
    VariationBound,
    check_trace,
    decode_bitstream,
    decode_step,
    decode_with_erasures,
    encode_signal,
    encode_step,
    estimate_variation_bound,
    fit_growth_bound,
    init_state,
    read_trace_csv,
    reconstruct,
    sample,
    transmit,
    verify_growth,
    verify_theorem,
    write_trace_csv,
)
from admtrack.harness import CHUNK_ROWS, TRACE_COLUMNS
from admtrack.signals import CHUNK_CELLS, cell_grid


# --- scalar oracles -------------------------------------------------------


def oracle_at(spec, t):
    """x(t) through the scalar evaluators ``at_array`` replaced."""
    if isinstance(spec, Constant):
        return spec.level
    if isinstance(spec, Ramp):
        return spec.intercept + spec.slope * t
    if isinstance(spec, Sine):
        return spec.amplitude * math.sin(2.0 * math.pi * spec.frequency_hz * t + spec.phase)
    starts = [start for start, _ in spec.segments]
    start, child = spec.segments[max(bisect_right(starts, t) - 1, 0)]
    return oracle_at(child, t - start)


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
        x0 = oracle_at(spec, k * delta)
        for t in oracle_cell_points(k, delta, factor):
            worst = max(worst, abs(oracle_at(spec, t) - x0))
    return worst / delta


def oracle_interval_error(report, trace, spec, delta, factor):
    records = trace.records
    for k in range(report.eta, report.n_steps):
        record = records[k]
        worst_t, worst = None, 0.0
        for t in oracle_cell_points(k, delta, factor):
            err = abs(oracle_at(spec, t) - reconstruct(record, t, delta))
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
    want = [oracle_at(spec, t) for t in times]
    assert_bitwise_equal(spec.at_array(np.array(times)), want)
    assert_bitwise_equal([spec.at(t) for t in times], want)


@pytest.mark.parametrize("seed", range(20))
def test_sample_equals_the_scalar_loop(seed):
    rng = random.Random(500 + seed)
    spec = random_spec(rng)
    delta = rng.choice([0.01, 0.02, 0.04, 0.1, 0.03, 0.007])
    samples = sample(spec, delta, rng.uniform(0.5, 12.0))
    assert_bitwise_equal(samples.values, [oracle_at(spec, k * delta) for k in range(len(samples))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_names_the_first_time_whose_value_is_not_finite():
    with pytest.raises(NumericError, match=r"^signal is not finite at t=2.0$"):
        sample(Ramp(slope=1e308, intercept=0.0), 1.0, 4.0)  # 1e308*2.0 overflows
    spec = Piecewise(segments=((0.0, Constant(1.0)), (0.75, Sine(amplitude=1.0, frequency_hz=1e308))))
    with pytest.raises(NumericError, match=r"^signal is not finite at t=0.75$"):
        sample(spec, 0.25, 1.0)  # 2*pi*f is inf, and inf times the segment's local 0.0 is nan
    assert math.isnan(spec.at(0.75))


@pytest.mark.parametrize("seed", range(10))
def test_at_array_keeps_the_shape_of_a_grid(seed):
    rng = random.Random(seed)
    spec = random_spec(rng)
    grid = cell_grid(np.arange(40), 0.05, 8)
    values = spec.at_array(grid)
    assert values.shape == grid.shape
    assert_bitwise_equal(values.ravel(), [oracle_at(spec, t) for t in grid.ravel().tolist()])


def test_nested_piecewise_boundaries():
    inner = Piecewise(segments=((0.0, Ramp(slope=1.0, intercept=0.0)), (0.3, Constant(-2.0))))
    spec = Piecewise(segments=((0.0, Sine(1.0, 1.0)), (0.7, inner), (2.1, Constant(4.0))))
    times = []
    for s in (0.0, 0.7, 0.7 + 0.3, 2.1):
        times += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
    assert_bitwise_equal(spec.at_array(np.array(times)), [oracle_at(spec, t) for t in times])


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
    assert_bitwise_equal(spec.at_array(np.array(times)), [oracle_at(spec, t) for t in times])


@settings(max_examples=100, deadline=None)
@given(
    slope=st.floats(min_value=-1e6, max_value=1e6),
    intercept=st.floats(min_value=-1e6, max_value=1e6),
    level=st.floats(min_value=-1e6, max_value=1e6),
    times=st.lists(finite_times, min_size=1, max_size=50),
)
def test_ramp_and_constant_at_array_property(slope, intercept, level, times):
    for spec in (Ramp(slope=slope, intercept=intercept), Constant(level)):
        assert_bitwise_equal(spec.at_array(np.array(times)), [oracle_at(spec, t) for t in times])


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
    variation = VariationBound(rate=rate)
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
        variation = VariationBound(rate=0.0)
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
    variation = VariationBound(rate=0.0)
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
    variation = VariationBound(rate=0.0)
    report = verify_theorem(trace, samples, variation, oversample_factor=2)
    expected = oracle_verify(monkeypatch, trace, samples, variation, oversample_factor=2)
    assert report.to_dict() == expected.to_dict()
    assert interval_detail(report, 1) == "|x - y| = 5.5 at t=1.0 > 1.5"


def interval_detail(report, step):
    (violation,) = [v for v in report.violations if v.claim == "interval_error" and v.step == step]
    return violation.detail


def test_tampered_record_time_is_refused_when_the_trace_is_built():
    # step k is at k*delta: a trace holds no time of its own for the verifier or check_trace to read
    samples = sample(Sine(amplitude=1.0, frequency_hz=1.0), 0.01, 1.0)
    params = CodecParams(y0=0.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    _, trace = encode_signal(params, samples)
    records = list(trace.records)
    k = len(records) - 5
    records[k] = replace(records[k], t=records[k].t + 0.001)
    with pytest.raises(ParameterError, match=rf"^record {k} is off the grid: k={k}, t={records[k].t!r}, "
                                             rf"not {k}, {trace.records[k].t!r}$"):
        Trace(params=params, records=tuple(records))


# --- cell_reach pruning ----------------------------------------------------------
#
# Both oversampled scans skip the cells whose closed-form cell_reach shows they
# cannot matter. Their oracle is the same code with every cell_reach returning
# None, which builds a grid row for every cell.


def unpruned(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        for kind in (Constant, Ramp, Sine):
            patch.setattr(kind, "cell_reach", lambda self, ks, delta: None)
        return fn(*args, **kwargs)


def magnitudes(low, high):
    """Signed numbers spread evenly over the decades 10**low to 10**high."""
    return st.builds(lambda e, sign: sign * 10.0**e, st.floats(low, high), st.sampled_from([-1.0, 1.0]))


@st.composite
def leaf_cases(draw):
    """(spec, delta, factor): a Constant, Ramp or Sine of size 1e-300 to 1e6
    (its level, its move over a cell, its amplitude) at a delta of 1e-9 to 1e4."""
    delta = 10.0 ** draw(st.floats(-9.0, 4.0))
    size = draw(magnitudes(-300.0, 6.0))
    kind = draw(st.sampled_from(["constant", "ramp", "sine"]))
    if kind == "constant":
        spec = Constant(size)
    elif kind == "ramp":
        spec = Ramp(slope=size / delta, intercept=draw(magnitudes(-300.0, 6.0)))
    else:
        cycles = 10.0 ** draw(st.floats(-4.0, 0.5))  # per cell: c*delta runs past 2
        spec = Sine(amplitude=size, frequency_hz=cycles / delta, phase=draw(st.floats(-1e3, 1e3)))
    return spec, delta, draw(st.integers(2, 64))


PEAK_CELL = (Sine(amplitude=1.0, frequency_hz=0.25 / math.pi, phase=math.pi / 2), 1.0, 8)  # cos(u_0) ~ 0


@settings(max_examples=300, deadline=None)
@given(case=leaf_cases(), first=st.integers(0, 10**9), cells=st.integers(1, 64))
@example(case=PEAK_CELL, first=0, cells=1)
def test_cell_reach_bounds_every_grid_point(case, first, cells):
    spec, delta, factor = case
    ks = np.arange(first, first + cells)
    reach = spec.cell_reach(ks, delta)
    assert reach is not None and reach.shape == (cells,)
    x = spec.at_array(cell_grid(ks, delta, factor))
    assert_bitwise_equal(x[:, 0], spec.at_array(ks * delta))
    assert (np.abs(x - x[:, :1]).max(axis=1) <= reach).all()


@pytest.mark.parametrize(
    "spec,k,delta",
    [
        (Piecewise(segments=((0.0, Sine(1.0, 1.0)),)), 0, 0.01),
        (Sine(amplitude=math.inf, frequency_hz=1.0), 0, 0.01),
        (Sine(amplitude=1.0, frequency_hz=math.nan), 0, 0.01),
        (Sine(amplitude=1.0, frequency_hz=1.0, phase=math.inf), 0, 0.01),
        (Sine(amplitude=1.0, frequency_hz=1e300), 10**9, 1e10),  # c*delta overflows
        (Ramp(slope=1e300, intercept=0.0), 10**9, 1e10),  # slope*delta overflows
        (Ramp(slope=1.0, intercept=math.nan), 0, 0.01),
        (Constant(math.inf), 0, 0.01),
        (Sine(amplitude=1.0, frequency_hz=1.0), 0, 1e-300),  # delta/factor may be subnormal
        (Ramp(slope=1.0, intercept=0.0), 2**52, 1.0),  # k*delta no longer resolves delta
    ],
)
def test_cell_reach_declines_outside_its_budget(spec, k, delta):
    assert spec.cell_reach(np.array([k]), delta) is None


@settings(max_examples=150, deadline=None)
@given(case=leaf_cases(), first=st.integers(0, 10**6), cells=st.integers(1, 1500))
@example(case=PEAK_CELL, first=0, cells=1)
def test_pruned_variation_rate_equals_the_full_scan(case, first, cells):
    spec, delta, factor = case
    window = (first * delta, (first + cells) * delta)
    rate = estimate_variation_bound(spec, delta, window, factor).rate
    assert repr(rate) == repr(unpruned(estimate_variation_bound, spec, delta, window, factor).rate)


@st.composite
def near_bound_runs(draw):
    """(trace, samples, variation, factor) over a Constant, Ramp or Sine, built
    column by column. Step 0 is settled; after it each sample error is 0.95 to
    1.05 times the interval bound less the cell's reach, the symbol mostly
    points towards x, and the slope is mbar, a*mbar or infinite (never on a
    switch: the settling window of an infinite slope is not defined)."""
    spec, delta, factor = draw(leaf_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 1200))
    ks = np.arange(n)
    x = spec.at_array(ks * delta)
    if isinstance(spec, Sine):
        scale = abs(spec.amplitude * 2.0 * math.pi * spec.frequency_hz)
    else:
        scale = abs(spec.slope) if isinstance(spec, Ramp) else abs(spec.level) / delta
    rate = scale * draw(st.sampled_from([0.0, 0.5, 1.0]))
    mbar = 2.0 * rate + scale * draw(st.floats(0.01, 2.0))
    params = CodecParams(y0=x[0].item(), m0=mbar, mbar=mbar, a=draw(st.floats(1.1, 2.0)), delta=delta)
    bound = theory.steady_error_bounds(params, rate)[1]
    reach = spec.cell_reach(ks, delta)
    err = rng.choice([-1.0, 1.0], n) * rng.uniform(0.95, 1.05, n) * np.maximum(bound - reach, 0.0)
    err[0] = 0.0
    h = np.where(rng.random(n) < 0.8, np.where(err < 0.0, -1, 1), rng.choice([-1, 1], n))
    m = rng.choice([mbar, params.a * mbar, math.inf], n, p=[0.6, 0.3, 0.1])
    m[0] = mbar
    trace = Trace.from_columns(
        params, x=x, y=x - err, h=h, m=m,
        in_switch=(rng.random(n) < 0.3) & (m != math.inf), substituted=None,
    )
    variation = VariationBound(rate=rate)
    return trace, SampledSignal(delta=delta, values=x, spec=spec), variation, factor


@settings(max_examples=150, deadline=None)
@given(run=near_bound_runs())
def test_pruned_verify_theorem_equals_the_full_scan(run):
    trace, samples, variation, factor = run
    report = verify_theorem(trace, samples, variation, oversample_factor=factor)
    assert "interval_error" in report.checked
    assert report.to_dict() == unpruned(verify_theorem, trace, samples, variation, oversample_factor=factor).to_dict()


def sine_verify_rows(spec):
    """Grid rows each scan builds on a 10,000-step run like the sine_verify
    benchmark's, with the cells each scan covers."""
    delta = 0.01
    params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=delta)
    rows = {signals: 0, theory: 0}
    with pytest.MonkeyPatch.context() as patch:
        for module in rows:
            def counting(ks, delta, factor, module=module):
                rows[module] += len(ks)
                return cell_grid(ks, delta, factor)

            patch.setattr(module, "cell_grid", counting)
        samples = sample(spec, delta, 100.0)
        variation = estimate_variation_bound(spec, delta, (0.0, len(samples) * delta), 32)
        _, trace = encode_signal(params, samples)
        report = verify_theorem(trace, samples, variation, growth=GrowthBound(scale=8.0), oversample_factor=32)
    assert report.ok and len(report.checked) == 8
    return rows[signals], len(samples), rows[theory], len(samples) - report.eta


def test_the_scans_build_grid_rows_only_for_cells_that_can_matter():
    sine = Sine(amplitude=0.9, frequency_hz=1.0, phase=1.0)
    variation_rows, cells, interval_rows, steady = sine_verify_rows(sine)
    assert cells == 10_000
    assert variation_rows < 0.25 * cells
    assert interval_rows < 0.01 * steady
    # a Piecewise spec has no cell_reach: every cell gets its row
    assert sine_verify_rows(Piecewise(segments=((0.0, sine),))) == (cells, cells, steady, steady)


# --- codec kernel -------------------------------------------------------------
#
# The oracles below are the per-step state machine the columnar kernel
# replaced: a frozen state and a StepRecord per step, with the slope's
# (power, floored) pair computed apart from the slope itself. The whole-trace
# functions must give the same columns, the same problem lists and the same
# exceptions (type and message).


@dataclass(frozen=True)
class OracleState:
    params: CodecParams
    k: int
    y: float
    m: float
    h: int
    prev_in_switch: bool
    m_power: int = 0
    m_floored: bool = False


def oracle_check_symbol(h):
    if h == PLUS:
        return PLUS
    if h == MINUS:
        return MINUS
    raise NumericError(f"binary symbol must be +1 or -1, got {h!r}")


def oracle_symbol(y_k, x_k, h_prev):
    if not (math.isfinite(y_k) and math.isfinite(x_k)):
        raise NumericError(f"non-finite comparison: y={y_k!r}, x={x_k!r}")
    if y_k < x_k:
        return PLUS
    if y_k > x_k:
        return MINUS
    return -oracle_check_symbol(h_prev)


def oracle_slope_value(params, power, floored):
    base = params.mbar if floored else params.m0
    if power == 0:
        return base
    if power == 1:
        return base * params.a
    try:
        return base * params.a ** power
    except OverflowError:
        raise NumericError(f"slope power a**{power} overflowed") from None


def oracle_next_slope(state, in_switch):
    params = state.params
    power, floored = state.m_power, state.m_floored
    if params.rule is AdaptationRule.JAYANT:
        return (power - 1, False) if in_switch else (power + 1, False)
    if in_switch:
        if floored:
            return max(power - 1, 0), True
        if oracle_slope_value(params, power - 1, False) > params.mbar:
            return power - 1, False
        return 0, True
    if state.prev_in_switch:
        return power, floored
    return power + 1, floored


def oracle_advance(state, x_k, h_k, substituted=False):
    params = state.params
    k = state.k
    if k == 0:
        y, m = state.y, state.m
        power, floored = state.m_power, state.m_floored
        h = oracle_symbol(y, x_k, state.h) if h_k is None else oracle_check_symbol(h_k)
        in_switch = False
    else:
        y = state.y + state.h * state.m * params.delta
        if not math.isfinite(y):
            raise NumericError(f"estimate overflowed at step {k}")
        h = oracle_symbol(y, x_k, state.h) if h_k is None else oracle_check_symbol(h_k)
        in_switch = state.h * h < 0
        power, floored = oracle_next_slope(state, in_switch)
        if params.rule is AdaptationRule.JAYANT:
            m = state.m / params.a if in_switch else params.a * state.m
        elif (power, floored) == (state.m_power, state.m_floored):
            m = state.m
        else:
            m = oracle_slope_value(params, power, floored)
        if not math.isfinite(m) or m <= 0.0:
            raise NumericError(f"slope left (0, inf) at step {k}: {m!r}")
    record = StepRecord(k, k * params.delta, x_k, y, h, m, in_switch, substituted)
    return OracleState(params, k + 1, y, m, h, in_switch, power, floored), record


def oracle_start(params):
    return OracleState(params, 0, params.y0, params.m0, PLUS, False)


def oracle_encode_signal(params, values):
    state = oracle_start(params)
    records = []
    for x in values:
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            raise NumericError(f"sample must be finite, got {x!r}")
        state, record = oracle_advance(state, float(x), None)
        records.append(record)
    return records


def oracle_decode_bitstream(params, bits):
    state = oracle_start(params)
    records = []
    for h in bits:
        state, record = oracle_advance(state, None, h)
        records.append(record)
    return records


def oracle_decode_with_erasures(params, symbols):
    state = oracle_start(params)
    records = []
    for symbol in symbols:
        substituted = symbol is None
        state, record = oracle_advance(state, None, state.h if substituted else symbol, substituted)
        records.append(record)
    return records


def float_bits(value):
    """The IEEE-754 bit pattern of a float: -0.0 and 0.0 differ."""
    return struct.pack("<d", value)


def oracle_check_trace(params, records):
    problems = []
    rederived = oracle_decode_bitstream(params, [r.h for r in records])
    h_prev = PLUS
    for k, (got, want) in enumerate(zip(records, rederived)):
        if float_bits(got.y) != float_bits(want.y):
            problems.append((k, f"y={got.y!r} != recursion value {want.y!r}"))
        if float_bits(got.m) != float_bits(want.m):
            problems.append((k, f"m={got.m!r} != recursion value {want.m!r}"))
        if got.in_switch != want.in_switch:
            problems.append((k, f"in_switch={got.in_switch} != {want.in_switch}"))
        if got.x is not None and oracle_symbol(want.y, got.x, h_prev) != got.h:
            problems.append((k, "symbol disagrees with the comparison rule"))
        h_prev = got.h
    return problems


def trace_column(trace, name):
    """A column of ``trace`` as Python scalars; ``k`` and ``t``, which no
    column holds, from its records."""
    if name in ("k", "t"):
        return [getattr(r, name) for r in trace.records]
    return [r.x for r in trace.records] if name == "x" else getattr(trace, name).tolist()


def assert_same_columns(trace, records):
    """Every column, k and t included, equal to the oracle's records, floats
    bit for bit."""
    assert len(trace) == len(records)
    for name in ("k", "t", *Trace.COLUMNS):
        column = trace_column(trace, name)
        want = [getattr(r, name) for r in records]
        if name in ("t", "y", "m"):
            assert_bitwise_equal(column, want)
        else:
            assert column == want, name
    assert trace.records == tuple(records)


def same_outcome(run, oracle):
    """Run both; they must return equal values or raise the same error."""
    try:
        want = oracle()
    except Exception as exc:  # the oracle's error is the expected outcome
        with pytest.raises(type(exc)) as got:
            run()
        assert str(got.value) == str(exc)
        return None, None
    return run(), want


def random_codec(rng: random.Random):
    rule = rng.choice([AdaptationRule.MODIFIED, AdaptationRule.JAYANT])
    a = rng.choice([2.0, 1.5, rng.uniform(1.01, 2.0)])
    delta = rng.choice([1.0, 0.04, 0.01, rng.uniform(1e-3, 1.0)])
    mbar = rng.choice([1.0, rng.uniform(1e-3, 10.0)])
    m0 = mbar * rng.choice([1.0, a ** rng.randrange(6), rng.uniform(0.5, 40.0)])
    params = CodecParams(y0=rng.uniform(-20.0, 20.0), m0=m0, mbar=mbar, a=a, delta=delta)
    return params.with_rule(rule)


def random_values(rng: random.Random, n: int) -> list[float]:
    kind = rng.randrange(4)
    if kind == 0:  # integer levels: exact ties with the estimate happen
        level = float(rng.randrange(-10, 10))
        return [level] * n
    if kind == 1:
        walk, x = [], rng.uniform(-5.0, 5.0)
        for _ in range(n):
            x += rng.uniform(-0.5, 0.5)
            walk.append(x)
        return walk
    if kind == 2:
        amp, freq = rng.uniform(0.1, 10.0), rng.uniform(0.01, 2.0)
        return [amp * math.sin(freq * k) for k in range(n)]
    return [rng.choice([-3.0, 0.0, 3.0]) for _ in range(n)]  # jumps


@pytest.mark.parametrize("seed", range(80))
def test_encode_and_decode_match_oracle(seed):
    rng = random.Random(5000 + seed)
    params = random_codec(rng)
    values = random_values(rng, rng.randrange(0, 400))
    samples = SampledSignal(delta=params.delta, values=tuple(values))
    encoded, want = same_outcome(
        lambda: encode_signal(params, samples), lambda: oracle_encode_signal(params, values)
    )
    if want is None:
        return
    bits, trace = encoded
    assert bits == [r.h for r in want]
    assert_same_columns(trace, want)
    assert_same_columns(decode_bitstream(params, bits), oracle_decode_bitstream(params, bits))
    assert check_trace(trace) == oracle_check_trace(params, want) == []


@pytest.mark.parametrize("seed", range(40))
def test_erasure_decode_matches_oracle(seed):
    rng = random.Random(6000 + seed)
    params = random_codec(rng)
    bits = [rng.choice([PLUS, MINUS]) for _ in range(rng.randrange(0, 300))]
    received = transmit(bits, Erasure(p=rng.choice([0.0, 0.05, 0.3, 0.9]), seed=seed))
    traced, want = same_outcome(
        lambda: decode_with_erasures(params, received),
        lambda: oracle_decode_with_erasures(params, received.symbols),
    )
    if want is not None:
        assert_same_columns(traced, want)


@pytest.mark.parametrize(
    "params,bits",
    [
        # the slope doubles every step until y or m leaves the floats
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [PLUS] * 1100),
        (CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule="jayant"), [PLUS] * 1100),
        (CodecParams(y0=0.0, m0=1e300, mbar=0.0, a=2.0, delta=1e8, rule="jayant"), [PLUS] * 10),
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [PLUS, MINUS, 0, PLUS]),
    ],
)
def test_decode_errors_match_oracle(params, bits):
    with pytest.raises(NumericError) as want:
        oracle_decode_bitstream(params, bits)
    with pytest.raises(NumericError) as got:
        decode_bitstream(params, bits)
    assert str(got.value) == str(want.value)


def test_encode_overflow_matches_oracle():
    params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule="jayant")
    samples = SampledSignal(delta=1.0, values=(1e308,) * 1100)
    with pytest.raises(NumericError) as want:
        oracle_encode_signal(params, samples.values)
    with pytest.raises(NumericError) as got:
        encode_signal(params, samples)
    assert str(got.value) == str(want.value)


class DuckSamples:
    """Anything with ``delta`` and ``values`` encodes; values are checked
    one at a time, just before the step that consumes them."""

    def __init__(self, delta, values):
        self.delta = delta
        self.values = values


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 2.0, math.nan, 3.0],
        [1.0, math.inf],
        [1, 2, "3"],
        [1e308] * 1050 + [math.nan],  # the overflow comes first
    ],
)
def test_bad_samples_raise_like_oracle(values):
    params = CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0, rule="jayant")
    with pytest.raises(NumericError) as want:
        oracle_encode_signal(params, values)
    with pytest.raises(NumericError) as got:
        encode_signal(params, DuckSamples(1.0, values))
    assert str(got.value) == str(want.value)


# k and t are the grid's: a record off it is refused when the trace is built,
# before check_trace could see it
TAMPERS = {
    "k": lambda r, rng: rng.choice([r.k + 1, r.k - 1, 0]),
    "t": lambda r, rng: math.nextafter(r.t, math.inf),
    "x": lambda r, rng: rng.choice([r.y, r.y + 1.0, r.y - 1.0, -1e9]),
    "y": lambda r, rng: math.nextafter(r.y, -math.inf),
    "m": lambda r, rng: r.m * 2.0,
    "in_switch": lambda r, rng: not r.in_switch,
}


@pytest.mark.parametrize("field", sorted(TAMPERS))
@pytest.mark.parametrize("seed", range(8))
def test_check_trace_matches_oracle_on_tampered_traces(field, seed):
    rng = random.Random(7000 + seed)
    params = random_codec(rng)
    values = random_values(rng, rng.randrange(20, 200))
    _, trace = encode_signal(params, SampledSignal(delta=params.delta, values=tuple(values)))
    records = list(rng.choice([trace, decode_bitstream(params, trace.bits())]).records)
    if field == "x":  # a trace has samples at every step or at none: tamper those it has
        records = list(trace.records)
    for k in rng.sample(range(len(records)), rng.randrange(1, 4)):
        records[k] = replace(records[k], **{field: TAMPERS[field](records[k], rng)})
    off = [k for k, r in enumerate(records) if r.k != k or r.t != k * params.delta]
    if off:
        with pytest.raises(ParameterError, match=rf"^record {off[0]} is off the grid: "):
            Trace(params=params, records=records)
        return
    tampered = Trace(params=params, records=records)
    assert check_trace(tampered) == oracle_check_trace(params, records)


@pytest.mark.parametrize("earlier_problem", [False, True])
# "10.0" is no number: the oracle's comparison rule raises TypeError on it, as
# on "x"; Trace refuses both when it is built, before check_trace runs
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", "10.0"])
def test_check_trace_non_finite_sample_raises_like_oracle(bad, earlier_problem):
    params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
    _, trace = encode_signal(params, SampledSignal(delta=1.0, values=(10.0,) * 10))
    records = list(trace.records)
    if earlier_problem:
        records[3] = replace(records[3], y=99.0)
    records[6] = replace(records[6], x=bad)
    if isinstance(bad, str):
        with pytest.raises(TypeError):
            oracle_check_trace(params, records)
        with pytest.raises(ParameterError, match="trace column x"):
            Trace(params=params, records=records)
        return
    outcome = []
    for check in (lambda: oracle_check_trace(params, records),
                  lambda: check_trace(Trace(params=params, records=records))):
        with pytest.raises(Exception) as error:
            check()
        outcome.append((type(error.value), str(error.value)))
    assert outcome[0] == outcome[1]


@pytest.mark.parametrize(
    "column,bad",
    [("x", "10.0"), ("y", "1.5"), ("t", None), ("m", object()), ("h", 2.5), ("h", 300),
     ("h", -129), ("k", 1.5), pytest.param("k", 10**400, id="k-10**400"), ("in_switch", 2),
     ("substituted", "x")],
)
def test_from_columns_refuses_a_column_it_cannot_convert_exactly(hand_params, hand_samples, column, bad):
    """A string, an object, a fraction or an out-of-range value for an
    integer column is refused when the trace is built, not truncated or
    wrapped (2.5 would read as 2, 300 as 44). A record's k and t are
    converted as columns before they are checked against the grid;
    from_columns takes neither."""
    _, trace = encode_signal(hand_params, hand_samples)
    columns = columns_of(trace)
    if column in ("k", "t"):
        columns[column] = trace_column(trace, column)
    columns[column][3] = bad
    with pytest.raises(ParameterError, match="must be exactly" if column in ("k", "t") else f"trace column {column}"):
        Trace.from_columns(hand_params, **columns)
    records = list(trace.records)
    records[3] = replace(records[3], **{column: bad})
    with pytest.raises(ParameterError, match=f"trace column {column}"):
        Trace(hand_params, records)


def test_trace_columns_must_be_complete_and_of_equal_length(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    columns = columns_of(trace)
    columns["y"] = columns["y"][:-1]
    with pytest.raises(ParameterError, match="differ in length"):
        Trace.from_columns(hand_params, **columns)
    del columns["y"]
    with pytest.raises(ParameterError, match="exactly"):
        Trace.from_columns(hand_params, **columns)


@pytest.mark.parametrize("name", ["k", "t"])
def test_from_columns_takes_no_grid_column(hand_params, hand_samples, name):
    # the row index and delta give k and t; no column may restate them, even on the grid
    _, trace = encode_signal(hand_params, hand_samples)
    assert Trace.COLUMNS == ("x", "y", "h", "m", "in_switch", "substituted")
    with pytest.raises(ParameterError, match="trace columns must be exactly"):
        Trace.from_columns(hand_params, **columns_of(trace), **{name: trace_column(trace, name)})


def test_a_zero_symbol_is_left_to_the_codec(hand_params, hand_samples):
    """An h of 0 converts exactly, so the trace builds and check_trace's
    decode raises the codec's NumericError, as on a list of symbols."""
    _, trace = encode_signal(hand_params, hand_samples)
    columns = columns_of(trace)
    columns["h"][4] = 0
    zero = Trace.from_columns(hand_params, **columns)
    assert zero.h.dtype == np.int8 and zero.records[4].h == 0
    with pytest.raises(NumericError, match=r"binary symbol must be \+1 or -1, got 0$"):
        check_trace(zero)


def test_check_trace_reports_every_problem_in_row_order(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    records = list(trace.records)
    records[2] = replace(records[2], x=-50.0, y=3.5, m=4.5)
    records[7] = replace(records[7], m=7.5, in_switch=True)
    problems = check_trace(Trace(params=hand_params, records=records))
    assert problems == oracle_check_trace(hand_params, records)
    assert [k for k, _ in problems] == [2, 2, 2, 7, 7]


def test_check_trace_compares_bit_patterns_like_oracle(hand_params):
    # y0 = 0.0 is step 0's estimate; -0.0 compares equal to it but is not the recursion's value
    trace = decode_bitstream(hand_params, [1, -1, 1, 1, -1, -1])
    assert trace.y[0] == 0.0 and not math.copysign(1.0, trace.y[0]) < 0
    records = list(trace.records)
    records[0] = replace(records[0], y=-0.0)
    signed = Trace(params=hand_params, records=records)
    assert check_trace(signed) == oracle_check_trace(hand_params, records) == [(0, "y=-0.0 != recursion value 0.0")]
    assert signed != trace and Trace(params=hand_params, records=trace.records) == trace


def test_check_trace_rejects_a_bad_symbol_like_oracle(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    records = list(trace.records)
    records[4] = replace(records[4], h=0)
    with pytest.raises(NumericError) as want:
        oracle_check_trace(hand_params, records)
    with pytest.raises(NumericError) as got:
        check_trace(Trace(params=hand_params, records=records))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(30))
def test_per_step_api_in_lockstep_matches_whole_signal(seed):
    rng = random.Random(8000 + seed)
    params = random_codec(rng)
    values = random_values(rng, rng.randrange(0, 300))
    samples = SampledSignal(delta=params.delta, values=tuple(values))
    try:
        bits, whole = encode_signal(params, samples)
    except NumericError:
        return  # covered by the oracle tests above
    enc_state, dec_state = init_state(params), init_state(params)
    enc_records, dec_records = [], []
    for x in samples.values:
        enc_state, h, enc_record = encode_step(enc_state, x)
        dec_state, dec_record = decode_step(dec_state, h)
        enc_records.append(enc_record)
        dec_records.append(dec_record)
    assert Trace(params=params, records=enc_records) == whole
    assert Trace(params=params, records=dec_records) == decode_bitstream(params, bits)
    assert [r.h for r in enc_records] == bits


def test_trace_from_records_keeps_the_records_view(hand_params, hand_samples):
    _, trace = encode_signal(hand_params, hand_samples)
    rebuilt = Trace(params=hand_params, records=trace.records[:5])
    assert rebuilt.records == trace.records[:5]
    assert rebuilt.y.tolist() == trace.y[:5].tolist() and len(rebuilt) == 5
    assert rebuilt.records is rebuilt.records
    assert Trace(hand_params, trace.records) == trace


def test_consistent_traces_have_no_problems(hand_params, hand_samples):
    """A consistent trace, exact ties (hand trace step 9) and a trace
    without samples included, gives no problem."""
    _, trace = encode_signal(hand_params, hand_samples)
    assert trace.y[9] == trace.x[9]
    for candidate in (trace, decode_bitstream(hand_params, trace.bits())):
        assert check_trace(candidate) == []
    for seed in range(20):
        rng = random.Random(9000 + seed)
        params = random_codec(rng)
        values = random_values(rng, rng.randrange(0, 200))
        try:
            _, trace = encode_signal(params, SampledSignal(delta=params.delta, values=tuple(values)))
        except NumericError:
            continue
        assert check_trace(trace) == []


def grid_producers(tmp_path):
    """Every way admtrack builds a trace, by name, over 0.007 s steps (most
    grid times are no exact multiple) running past one CSV write chunk."""
    params = CodecParams(y0=0.0, m0=0.3, mbar=0.3, a=1.5, delta=0.007)
    samples = sample(Sine(amplitude=1.0, frequency_hz=0.5), params.delta, (CHUNK_ROWS + 30) * params.delta)
    bits, encoded = encode_signal(params, samples)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, encoded)
    state, records = init_state(params), []
    for h in bits:
        state, record = decode_step(state, h)
        records.append(record)
    return {
        "encode_modified": lambda: encoded,
        "encode_jayant": lambda: encode_signal(params.with_rule(AdaptationRule.JAYANT), samples)[1],
        "decode_bitstream": lambda: decode_bitstream(params, bits),
        "decode_with_erasures": lambda: decode_with_erasures(params, transmit(bits, Erasure(p=0.2, seed=1))),
        "records": lambda: Trace(params, records),
        "read_trace_csv": lambda: read_trace_csv(path, params),
    }


@pytest.mark.parametrize("producer", ["encode_modified", "encode_jayant", "decode_bitstream",
                                      "decode_with_erasures", "records", "read_trace_csv"])
def test_every_producer_puts_step_k_at_k_delta(tmp_path, producer):
    trace = grid_producers(tmp_path)[producer]()
    delta = trace.params.delta
    assert len(trace) == CHUNK_ROWS + 30
    assert [(type(r.k), r.k) for r in trace.records] == [(int, k) for k in range(len(trace))]
    assert [(type(r.t), r.t.hex()) for r in trace.records] == [(float, (k * delta).hex()) for k in range(len(trace))]


# --- the decode scan -----------------------------------------------------------
#
# decode_bitstream and decode_with_erasures run codec._scan, which builds the
# modified rule's decode trace from numpy scans over the bits and declines
# (falls back to the _step loop) wherever it cannot vouch for the result. Its
# columns, element types and errors must be the oracle's.

COLUMN_TYPES = {"k": int, "t": float, "y": float, "h": int, "m": float, "in_switch": bool}


def assert_decodes_like_oracle(params, symbols):
    """Decode ``symbols`` (None marks an erasure) and compare with the oracle:
    the same columns and element types, or the same error."""
    if None in symbols:
        run = lambda: decode_with_erasures(params, ReceivedStream(tuple(symbols)))
        oracle = lambda: oracle_decode_with_erasures(params, symbols)
    else:
        run = lambda: decode_bitstream(params, symbols)
        oracle = lambda: oracle_decode_bitstream(params, symbols)
    trace, want = same_outcome(run, oracle)
    if want is not None:
        assert_same_columns(trace, want)
        for name, kind in COLUMN_TYPES.items():
            assert all(type(v) is kind for v in trace_column(trace, name)), name
    return trace


def alternating(n):
    return [PLUS, MINUS] * (n // 2) + [PLUS] * (n % 2)


@pytest.mark.parametrize(
    "params,bits",
    [
        # mbar = 0: the slope halves down to 0, which the floor step then sets
        (CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0), alternating(1200)),
        (CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=1.5, delta=1.0), [PLUS, PLUS, MINUS] * 50),
        # m0 far above mbar: a long descent over negative powers, then the floor
        (CodecParams(y0=0.0, m0=2.0 ** 40, mbar=1.0, a=2.0, delta=0.01), alternating(300)),
        (CodecParams(y0=3.0, m0=1e300, mbar=1e-300, a=1.01, delta=1.0), alternating(2000)),
        # m0 below mbar: the first switch floors, wherever the power has grown to
        (CodecParams(y0=0.0, m0=0.01, mbar=1.0, a=2.0, delta=0.5), [PLUS] * 5 + alternating(40)),
        (CodecParams(y0=0.0, m0=1e-300, mbar=1.0, a=2.0, delta=1.0), [MINUS] * 1010 + alternating(9)),
        # runs of three cost no power: the slope never reaches the floor
        (CodecParams(y0=0.0, m0=2.0 ** 10, mbar=1.0, a=2.0, delta=1.0), [PLUS] * 4 + [MINUS, MINUS, MINUS, PLUS, PLUS, PLUS] * 30),
        # the estimate overflows at the last step only
        (CodecParams(y0=1.5e308, m0=1e307, mbar=1e307, a=2.0, delta=1.0), [PLUS] * 2),
        (CodecParams(y0=1.5e308, m0=1e307, mbar=1e307, a=2.0, delta=1.0), [PLUS] * 3),
        # the slope leaves the floats (an overflowing power a**p is in test_codec.py)
        (CodecParams(y0=0.0, m0=1e300, mbar=1.0, a=2.0, delta=1e-300), [PLUS] * 40),
        # n = 0, 1 and 2
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), []),
        (CodecParams(y0=-0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [MINUS]),
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [PLUS, MINUS]),
        (CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [MINUS, MINUS]),
    ],
)
def test_scan_edge_cases_decode_like_oracle(params, bits):
    assert_decodes_like_oracle(params, bits)


def test_symbols_equal_to_one_decode_to_int_columns(hand_params):
    symbols = [True, 1.0, np.int8(-1), -1.0, PLUS, np.float64(1.0), MINUS]
    trace = assert_decodes_like_oracle(hand_params, symbols)
    assert trace.h.tolist() == [1, 1, -1, -1, 1, 1, -1]


@pytest.mark.parametrize("position", [0, 5, 9])
@pytest.mark.parametrize("bad", [0, 2, None, "1", 1.5, False, math.nan])
def test_bad_symbols_raise_the_loops_error(hand_params, bad, position):
    bits = [PLUS, PLUS, PLUS, PLUS, MINUS, MINUS, PLUS, PLUS, MINUS, PLUS]
    bits[position] = bad
    # the oracle's message; the oracle itself reads a None symbol as "encode"
    with pytest.raises(NumericError) as got:
        decode_bitstream(hand_params, bits)
    assert str(got.value) == f"binary symbol must be +1 or -1, got {bad!r}"


@pytest.mark.parametrize("seed", range(12))
def test_erasure_scan_matches_oracle(seed):
    rng = random.Random(6500 + seed)
    params = random_codec(rng).with_rule(AdaptationRule.MODIFIED)
    bits = [rng.choice([PLUS, MINUS]) for _ in range(rng.randrange(1, 200))]
    symbols = list(transmit(bits, Erasure(p=0.9, seed=seed)).symbols)
    symbols[0] = None
    assert_decodes_like_oracle(params, symbols)


@st.composite
def modified_codecs(draw):
    a = draw(st.sampled_from([2.0, 1.5, 1.01]) | st.floats(1.0001, 2.0))
    mbar = draw(st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(1e-3, 1e3))
    m0 = draw(st.sampled_from([mbar or 1.0, 1e300, 1e-300]) | st.floats(1e-3, 1e3))
    return CodecParams(
        y0=draw(st.sampled_from([0.0, 1e308, -1e308]) | st.floats(-1e3, 1e3)),
        m0=min(m0 * a ** draw(st.integers(-40, 40)), 1e308) or 1.0,
        mbar=mbar,
        a=a,
        delta=draw(st.sampled_from([1.0, 0.01, 1e8]) | st.floats(1e-3, 10.0)),
    )


@st.composite
def bit_streams(draw):
    runs = draw(st.lists(st.integers(1, 12), max_size=60))
    bits = [sign for i, run in enumerate(runs) for sign in [(-1) ** i] * run]
    return bits if draw(st.booleans()) else [-b for b in bits]


@settings(max_examples=300, deadline=None)
@given(params=modified_codecs(), bits=bit_streams())
def test_scan_matches_oracle_property(params, bits):
    assert_decodes_like_oracle(params, bits)


def test_clean_modified_stream_is_decoded_by_the_scan(hand_params, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the _step loop ran")

    bits = [PLUS, MINUS, MINUS, PLUS] * 100
    want = decode_bitstream(hand_params, bits)
    monkeypatch.setattr(codec, "_run_stream", no_loop)
    assert decode_bitstream(hand_params, bits) == want
    assert decode_with_erasures(hand_params, ReceivedStream((None, *bits[1:]))).substituted[0]
    with pytest.raises(AssertionError, match="_step loop"):  # the Jayant rule declines
        decode_bitstream(hand_params.with_rule(AdaptationRule.JAYANT), bits)
    with pytest.raises(AssertionError, match="_step loop"):  # and so does an error
        decode_bitstream(hand_params, [PLUS] * 1100)


# --- the encode loop ------------------------------------------------------------
#
# Under the modified rule encode_signal decides the symbols in a comparison-only
# loop, codec._symbols, and builds the trace with codec._scan; it checks every
# symbol against the comparison rule on the scan's estimates, and declines to
# the _step loop wherever it cannot vouch. Its bits, columns and errors must be
# the oracle's.


@st.composite
def encode_cases(draw):
    """A modified-rule codec (slopes subnormal in some) and samples drawn run
    by run against the oracle's running estimate: exact ties, near ties,
    repeats, plain values and values near the float limit. A long run far
    from the estimate grows the slope until it or the estimate may overflow."""
    params = draw(modified_codecs())
    if draw(st.integers(0, 7)) == 0:
        tiny = draw(st.sampled_from([5e-324, 1e-320, 2.0 ** -1060]))
        params = replace(params, m0=tiny, mbar=draw(st.sampled_from([0.0, tiny, 4 * tiny])))
    state, values = oracle_start(params), []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 9))
        y = state.y if state.k == 0 else state.y + state.h * state.m * params.delta
        if kind < 4 and math.isfinite(y):
            x = y if kind < 3 else math.nextafter(y, draw(st.sampled_from([-math.inf, math.inf])))
        elif kind < 6 and values:
            x = values[-1]
        elif kind < 9:
            x = draw(st.floats(-1e3, 1e3))
        else:
            x = draw(st.sampled_from([1e308, -1e308, 1.7e308]))
        run = draw(st.sampled_from([1, 3, 80] if kind == 9 else [1, 1, 2, 3]))
        try:
            for _ in range(run):
                values.append(x)
                state, _ = oracle_advance(state, x, None)
        except NumericError:
            break
    return params, values


@settings(max_examples=300, deadline=None)
@given(case=encode_cases())
# n = 0, 1 and 2, a tie at step 0 included
@example(case=(CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), []))
@example(case=(CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [0.0]))
@example(case=(CodecParams(y0=-0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0), [0.0, 1.0]))
# M0 below and above Mbar
@example(case=(CodecParams(y0=0.0, m0=0.01, mbar=1.0, a=2.0, delta=0.5), [40.0] * 12 + [0.0] * 30))
@example(case=(CodecParams(y0=0.0, m0=2.0 ** 40, mbar=1.0, a=2.0, delta=0.01), [0.0] * 300))
# subnormal slopes, on tie-rich constants
@example(case=(CodecParams(y0=0.0, m0=5e-324, mbar=5e-324, a=1.5, delta=1.0), [0.0] * 50))
@example(case=(CodecParams(y0=0.0, m0=1e-320, mbar=5e-324, a=2.0, delta=1.0), [1e-318] * 50))
# the slope power a**1024 overflows
@example(case=(CodecParams(y0=0.0, m0=1e-300, mbar=1e-300, a=2.0, delta=1.0), [1e308] * 1100))
# the estimate overflows at the last step only; one step fewer, it does not
@example(case=(CodecParams(y0=1.5e308, m0=1e307, mbar=1e307, a=2.0, delta=1.0), [1.7e308] * 3))
@example(case=(CodecParams(y0=1.5e308, m0=1e307, mbar=1e307, a=2.0, delta=1.0), [1.7e308] * 2))
# a floor of 0 is a slope outside (0, inf)
@example(case=(CodecParams(y0=0.0, m0=1.0, mbar=0.0, a=2.0, delta=1.0), [0.0] * 1200))
def test_encode_matches_oracle_property(case):
    params, values = case
    encoded, want = same_outcome(
        lambda: encode_signal(params, SampledSignal(delta=params.delta, values=tuple(values))),
        lambda: oracle_encode_signal(params, values),
    )
    if want is not None:
        bits, trace = encoded
        assert bits == [r.h for r in want]
        assert_same_columns(trace, want)
        for name, kind in COLUMN_TYPES.items():
            assert all(type(v) is kind for v in trace_column(trace, name)), name


def test_clean_modified_encode_never_enters_the_loop(hand_params, hand_samples, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the _step loop ran")

    sine = sample(Sine(amplitude=3.0, frequency_hz=0.01), hand_params.delta, 400.0)
    want = [encode_signal(hand_params, s) for s in (hand_samples, sine)]
    monkeypatch.setattr(codec, "_run_stream", no_loop)
    assert [encode_signal(hand_params, s) for s in (hand_samples, sine)] == want
    declined = [
        (hand_params.with_rule(AdaptationRule.JAYANT), hand_samples),
        (hand_params, DuckSamples(1.0, [10, 10.0])),
        (hand_params, DuckSamples(1.0, [10.0, np.float64(10.0)])),
        (hand_params, DuckSamples(1.0, (10.0, math.nan))),
        (hand_params, DuckSamples(1.0, iter([10.0, 10.0]))),
        (CodecParams(y0=0.0, m0=1e-300, mbar=1e-300, a=2.0, delta=1.0), SampledSignal(1.0, (1e308,) * 1100)),
        (CodecParams(y0=1.5e308, m0=1e307, mbar=1e307, a=2.0, delta=1.0), SampledSignal(1.0, (1.7e308,) * 3)),
    ]
    for params, samples in declined:
        with pytest.raises(AssertionError, match="_step loop"):
            encode_signal(params, samples)


@pytest.mark.parametrize("position", [0, 4, 9])  # step 0, the first switch, the tie
def test_a_wrong_symbol_from_the_loop_only_costs_time(hand_params, hand_samples, monkeypatch, position):
    """The symbol check catches a fault in the comparison-only loop, and the
    _step loop encodes instead: the bits are right whatever the fast loop says."""
    want = encode_signal(hand_params, hand_samples)
    fast = codec._symbols

    def faulty(params, values):
        bits, ys = fast(params, values)
        bits[position] = -bits[position]
        return bits, ys

    monkeypatch.setattr(codec, "_symbols", faulty)
    assert encode_signal(hand_params, hand_samples) == want


@pytest.mark.parametrize("path", ["encode_signal", "run_simulation"])
def test_a_one_ulp_fault_in_the_scan_is_a_numeric_error(monkeypatch, path):
    """The encode trace is the decode scan of the symbols, and so is the
    decoder's: a fault in the scan would pass the mirror and check_trace. The
    comparison loop's own estimates catch it."""
    config = harness.load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "sine_steady.json"))
    samples = sample(config.signal, config.codec.delta, config.horizon)
    scan = codec._scan

    def one_ulp_up(params, bits, x=None):
        trace = scan(params, bits, x)
        trace.y[7:] = np.nextafter(trace.y[7:], math.inf)
        return trace

    monkeypatch.setattr(codec, "_scan", one_ulp_up)
    with pytest.raises(NumericError, match="decode scan's estimate differs from the encoder's at step 7: "):
        encode_signal(config.codec, samples) if path == "encode_signal" else harness.run_simulation(config)


# --- trace CSV writer and reader ----------------------------------------------
#
# The oracles are the csv-module writer and row-loop reader the columnar I/O
# replaced (the reader with its undecodable-file errors typed). The new
# writer must write the same bytes; the new reader must return an equal
# trace or raise a FormatError with the same message.


def oracle_format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def oracle_write_trace_csv(path, trace, x_values=None):
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for record in trace.records:
            x = record.x
            if x is None and x_values is not None:
                x = x_values[record.k]
            writer.writerow(
                [record.k, oracle_format_cell(record.t), oracle_format_cell(x),
                 oracle_format_cell(record.y), record.h, oracle_format_cell(record.m),
                 oracle_format_cell(record.in_switch)]
            )


def oracle_read_trace_csv(path, params):
    records = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected header {TRACE_COLUMNS}")
            if header != TRACE_COLUMNS:
                raise FormatError(f"{path}: row 1: header {header} != {TRACE_COLUMNS}")
            for i, row in enumerate(reader, start=2):
                if len(row) != len(TRACE_COLUMNS):
                    raise FormatError(f"{path}: row {i}: {len(row)} cells, expected {len(TRACE_COLUMNS)}")
                try:
                    k = int(row[0])
                    t = float(row[1])
                    x = float(row[2]) if row[2] else None
                    y = float(row[3])
                    h = int(row[4])
                    m = float(row[5])
                    in_switch = row[6] == "1"
                except ValueError as exc:
                    raise FormatError(f"{path}: row {i}: {exc}") from exc
                if h not in (1, -1):
                    raise FormatError(f"{path}: row {i}: h must be +1 or -1, got {row[4]}")
                if row[6] not in ("0", "1"):
                    raise FormatError(f"{path}: row {i}: in_switch must be 1 or 0, got {row[6]!r}")
                if k != len(records):
                    raise FormatError(f"{path}: row {i}: step index {k}, expected {len(records)}")
                if t != k * params.delta:
                    raise FormatError(f"{path}: row {i}: t={t!r} != k*delta={k * params.delta!r}")
                records.append(StepRecord(k, t, x, y, h, m, in_switch))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII trace CSV: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    return Trace(params, records)


def csv_traces():
    """(name, trace, x_values) from every producer of traces, the long ones
    spanning several write chunks."""
    spec = Sine(amplitude=0.9, frequency_hz=1.0, phase=0.3)
    params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    samples = sample(spec, params.delta, (2 * CHUNK_ROWS + 7) * params.delta)
    bits, encoded = encode_signal(params, samples)
    decoded = decode_bitstream(params, bits)
    received = transmit(bits, Erasure(p=0.2, seed=3))
    erased = decode_with_erasures(params, received)
    jayant = params.with_rule(AdaptationRule.JAYANT)
    exact = sample(spec, params.delta, CHUNK_ROWS * params.delta)
    _, exact_chunk = encode_signal(jayant, exact)
    x_values = samples.values.tolist()  # Python floats: the oracle reprs what it is given
    return [
        ("encode", encoded, None),
        ("encode_with_x_values", encoded, x_values),
        ("decode", decoded, None),
        ("decode_with_x_values", decoded, x_values),
        ("erasure", erased, None),
        ("erasure_with_x_values", erased, x_values),
        ("jayant_one_full_chunk", exact_chunk, None),
        ("empty", decode_bitstream(params, []), None),
        ("empty_with_x_values", decode_bitstream(params, []), ()),
    ]


def random_csv_traces(count):
    for seed in range(count):
        rng = random.Random(11000 + seed)
        params = random_codec(rng)
        values = random_values(rng, rng.randrange(0, 300))
        try:
            bits, trace = encode_signal(params, SampledSignal(params.delta, tuple(values)))
        except NumericError:
            continue
        yield f"random{seed}", trace, None
        yield f"random{seed}_decoded", decode_bitstream(params, bits), values


WRITER_CASES = csv_traces() + list(random_csv_traces(20))


@pytest.mark.parametrize(
    "trace,x_values", [case[1:] for case in WRITER_CASES], ids=[case[0] for case in WRITER_CASES]
)
def test_trace_csv_writer_matches_oracle_bytes(tmp_path, trace, x_values):
    write_trace_csv(tmp_path / "new.csv", trace, x_values=x_values)
    oracle_write_trace_csv(tmp_path / "old.csv", trace, x_values=x_values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    read = read_trace_csv(tmp_path / "new.csv", trace.params)
    assert read == oracle_read_trace_csv(tmp_path / "new.csv", trace.params)
    # a trace read back writes the same bytes again
    write_trace_csv(tmp_path / "again.csv", read)
    oracle_write_trace_csv(tmp_path / "again_old.csv", read)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "again_old.csv").read_bytes()


def float_bits(*values):
    return [int(v) for v in np.array(values, np.float64).view(np.int64)]


# float64 bit patterns whose reprs a formatter keyed on values would get
# wrong or mix up: signed zeros, subnormals, the extremes, infinities and
# NaNs of either sign, quiet and signalling
SPECIAL_FLOAT_BITS = float_bits(
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, 1e16, 1e-05, 0.1,
) + [0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001, -0x0000000000000001]


# float64 bit patterns at the edges of the range where orjson's shortest
# round-trip text is repr's (1e-4 <= |v| < 1e16, and +-0.0), and the neighbours
# on either side, of both signs
EDGE_FLOAT_BITS = float_bits(*(sign * v for sign in (1.0, -1.0) for v in (
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, math.inf), 0.0, 5e-324, math.inf,
))) + [0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001, 0x7FF8000000000001, -0x0000000000000001]


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(0, 40), st.sampled_from((CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5))),
    pools=st.lists(
        st.lists(st.one_of(st.sampled_from(SPECIAL_FLOAT_BITS + EDGE_FLOAT_BITS), st.integers(-2**63, 2**63 - 1)),
                 min_size=1, max_size=6),
        min_size=4, max_size=4),
    x_mode=st.sampled_from(("absent", "present")),
    x_values_form=st.sampled_from((None, "tuple", "list", "array")),
    delta=st.sampled_from((0.01, 1e-6, 1e15)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=CHUNK_ROWS + 1, pools=[float_bits(0.0, -0.0)] * 4, x_mode="absent",
         x_values_form="tuple", delta=0.01, seed=0)
@example(n=2 * CHUNK_ROWS + 5, pools=[SPECIAL_FLOAT_BITS] * 4, x_mode="absent",
         x_values_form="array", delta=0.01, seed=1)
@example(n=2 * CHUNK_ROWS + 5, pools=[EDGE_FLOAT_BITS] * 4, x_mode="absent",
         x_values_form="array", delta=1e-6, seed=2)
@example(n=CHUNK_ROWS + 1, pools=[EDGE_FLOAT_BITS] * 4, x_mode="present",
         x_values_form=None, delta=1e15, seed=3)
@example(n=40, pools=[EDGE_FLOAT_BITS] * 4, x_mode="present",
         x_values_form="list", delta=1e15, seed=4)
def test_trace_csv_writer_matches_oracle_on_any_float_bits(n, pools, x_mode, x_values_form, delta, seed):
    """Any float64 bit patterns in x, y, m and ``x_values``, those at the edges of
    orjson's agreement with repr among them, repeated within a chunk and across chunk
    boundaries, with x absent or present, write the oracle's bytes and no RuntimeWarning.
    ``delta`` takes the ``t`` cells across both edges (1e-6 below 1e-4, 1e15 past 1e16).
    ``x_values`` are read as float64 samples, so the oracle is given them as Python floats.
    On a trace with samples, ``x_values`` that differ from them in any bit pattern are refused."""
    rng = np.random.default_rng(seed)
    x, y, m, samples = (np.array(pool, np.int64).view(np.float64)[rng.integers(len(pool), size=n)]
                        for pool in pools)
    trace = Trace.from_columns(
        CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=delta),
        y=y, h=rng.choice(np.array([PLUS, MINUS], np.int8), size=n), m=m,
        in_switch=rng.random(n) < 0.5, substituted=None,
        x={"absent": None, "present": x}[x_mode],
    )
    x_values = {None: None, "tuple": tuple(samples.tolist()), "list": samples.tolist(),
                "array": samples}[x_values_form]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        if x_values is not None and x_mode == "present" and (x.view(np.int64) != samples.view(np.int64)).any():
            with pytest.raises(ParameterError, match="x_values differ from the trace's samples"):
                write_trace_csv(new, trace, x_values=x_values)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_trace_csv(new, trace, x_values=x_values)
        oracle_write_trace_csv(old, trace, x_values=None if x_values is None else samples.tolist())
        with open(new, "rb") as a, open(old, "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("layout", ["strided", "big_endian"])
def test_trace_csv_writer_reads_any_float64_layout(tmp_path, layout):
    """Float columns handed over strided, or as big-endian float64, and strided
    ``x_values``, write the oracle's bytes: the writer formats values, not buffers."""
    n = CHUNK_ROWS + 9
    values = np.sin(np.arange(2 * n) * 0.37) * 3.0  # every other one is used
    values[[0, 4, 8]] = (1e16, 1e-05, -0.0)  # cells outside orjson's agreement with repr, and a signed zero
    if layout == "strided":
        x, y, m = values[::2], values[1::2], values[::-2]
    else:
        x, y, m = (column.astype(">f8") for column in (values[:n], values[n:], values[::-2]))
    assert not (x.flags.c_contiguous and x.dtype.isnative)
    params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    common = dict(y=y, h=np.where(np.arange(n) % 3, PLUS, MINUS).astype(np.int8), m=m,
                  in_switch=np.arange(n) % 2 == 0, substituted=None)
    cases = {"samples": (Trace.from_columns(params, x=x, **common), None),
             "x_values": (Trace.from_columns(params, x=None, **common), x)}
    for name, (trace, x_values) in cases.items():
        write_trace_csv(tmp_path / f"{name}.csv", trace, x_values=x_values)
        oracle_write_trace_csv(tmp_path / f"{name}_old.csv", trace,
                               x_values=None if x_values is None else x_values.tolist())
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_old.csv").read_bytes()
        assert read_trace_csv(tmp_path / f"{name}.csv", params).y.tolist() == y.tolist()


def test_canonical_files_skip_the_row_loop(tmp_path, monkeypatch):
    def row_loop(path, delta):
        raise AssertionError("row loop ran on a file in the writer's form")

    monkeypatch.setattr(harness, "_read_csv_rows", row_loop)
    for name, trace, x_values in csv_traces():
        path = tmp_path / f"{name}.csv"
        write_trace_csv(path, trace, x_values=x_values)
        assert read_trace_csv(path, trace.params) == oracle_read_trace_csv(path, trace.params)


def csv_lines(tmp_path):
    """The CRLF lines (header first) of a decode trace with samples that
    spans three read chunks."""
    spec = Sine(amplitude=0.9, frequency_hz=1.0)
    params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    samples = sample(spec, params.delta, (2 * CHUNK_ROWS + 30) * params.delta)
    bits, _ = encode_signal(params, samples)
    path = tmp_path / "clean.csv"
    write_trace_csv(path, decode_bitstream(params, bits), x_values=samples.values)
    return params, path.read_bytes().split(b"\r\n")[:-1]


def set_cell(line, index, value):
    cells = line.split(b",")
    cells[index] = value
    return b",".join(cells)


def misaligned(lines, i):
    """Row i gets an 8th cell and row i + 1 loses its 7th, so the file holds
    the commas of 7-cell rows, with cells chosen so that a parser splitting
    the chunk into 7-cell rows would still see k run in order and h = +-1
    (shifted one cell right)."""
    lines[i] += b"," + str(i).encode()
    lines[i + 1] = set_cell(b",".join(lines[i + 1].split(b",")[:6]), 3, b"1")
    return lines


SECOND_CHUNK = CHUNK_ROWS + 10

CSV_MUTATIONS = {
    "clean": lambda lines: lines,
    "lf_only": lambda lines: lines + [b""],
    "no_final_newline": lambda lines: lines,
    "quoted_h": lambda lines: lines[:5] + [set_cell(lines[5], 4, b'"1"')] + lines[6:],
    "quoted_k": lambda lines: lines[:5] + [set_cell(lines[5], 0, b'"4"')] + lines[6:],
    "six_fields": lambda lines: lines[:5] + [b",".join(lines[5].split(b",")[:6])] + lines[6:],
    "nine_fields": lambda lines: lines[:5] + [lines[5] + b",extra,extra"] + lines[6:],
    "one_extra_cell": lambda lines: lines[:5] + [lines[5] + b",1"] + lines[6:],
    "six_and_eight_fields_misaligned": lambda lines: misaligned(lines, 20),
    "blank_line": lambda lines: lines[:5] + [b""] + lines[5:],
    "bad_h": lambda lines: lines[:5] + [set_cell(lines[5], 4, b"2")] + lines[6:],
    "bad_in_switch": lambda lines: lines[:5] + [set_cell(lines[5], 6, b"7")] + lines[6:],
    "bad_in_switch_second_chunk": lambda lines: lines[:SECOND_CHUNK] + [set_cell(lines[SECOND_CHUNK], 6, b"10")] + lines[SECOND_CHUNK + 1:],
    "empty_in_switch": lambda lines: lines[:5] + [set_cell(lines[5], 6, b"")] + lines[6:],
    "bad_h_second_chunk": lambda lines: lines[:SECOND_CHUNK] + [set_cell(lines[SECOND_CHUNK], 4, b"0")] + lines[SECOND_CHUNK + 1:],
    "out_of_order_k": lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
    "missing_row": lambda lines: lines[:SECOND_CHUNK] + lines[SECOND_CHUNK + 1:],
    "non_ascii_byte": lambda lines: lines[:5] + [lines[5] + b"\xe9"] + lines[6:],
    "non_ascii_byte_second_chunk": lambda lines: lines[:SECOND_CHUNK] + [set_cell(lines[SECOND_CHUNK], 6, b"\xc3\xa9")] + lines[SECOND_CHUNK + 1:],
    "nul_in_ignored_cell": lambda lines: lines[:5] + [lines[5] + b",\x00"] + lines[6:],  # an 8th cell, as err_abs was
    "bad_float_second_chunk": lambda lines: lines[:SECOND_CHUNK] + [set_cell(lines[SECOND_CHUNK], 1, b"1.0.0")] + lines[SECOND_CHUNK + 1:],
    "t_one_ulp_off_second_chunk": lambda lines: lines[:SECOND_CHUNK] + [set_cell(lines[SECOND_CHUNK], 1, repr(
        math.nextafter(float(lines[SECOND_CHUNK].split(b",")[1]), math.inf)).encode())] + lines[SECOND_CHUNK + 1:],
    "empty_x_cell": lambda lines: lines[:5] + [set_cell(lines[5], 2, b"")] + lines[6:],
    "signed_and_spaced_ints": lambda lines: lines[:5] + [set_cell(set_cell(lines[5], 0, b" +4"), 4, b"+1 ")] + lines[6:],
    "stray_cr": lambda lines: lines[:5] + [set_cell(lines[5], 6, b"1\r2")] + lines[6:],
    "lf_header": lambda lines: [lines[0] + b"\n" + lines[1]] + lines[2:],
    "bad_header": lambda lines: [b"k,t,x,y,h,m,in_switch"] + lines[1:],
    "legacy_header": lambda lines: [b"k,t,x,y,h,M,in_switch,err_abs"] + [line + b",0.0" for line in lines[1:]],
    "header_only": lambda lines: lines[:1],
    "empty_file": lambda lines: [],
}


@pytest.mark.parametrize("mutation", sorted(CSV_MUTATIONS))
def test_trace_csv_reader_matches_oracle_on_mutated_files(tmp_path, mutation):
    params, lines = csv_lines(tmp_path)
    lines = CSV_MUTATIONS[mutation](list(lines))
    if mutation == "lf_only":
        body = b"\n".join(lines)
    elif mutation in ("no_final_newline", "empty_file"):
        body = b"\r\n".join(lines)
    else:
        body = b"".join(line + b"\r\n" for line in lines)
    path = tmp_path / "mutated.csv"
    path.write_bytes(body)
    if mutation == "empty_x_cell":  # the oracle's records mix present and absent samples
        with pytest.raises(FormatError, match=r"row 6: x cell empty, unlike row 2's"):
            read_trace_csv(path, params)
        return
    outcome, want = same_outcome(
        lambda: read_trace_csv(path, params), lambda: oracle_read_trace_csv(path, params)
    )
    if want is not None:
        assert outcome == want
    elif mutation != "nul_in_ignored_cell":  # csv rejects NUL before Python 3.11
        assert mutation not in ("clean", "lf_only", "no_final_newline")


def test_misaligned_rows_read_like_the_row_loop(tmp_path):
    """The 8- and 6-cell rows above hold as many commas as two 7-cell rows;
    the row loop refuses the first of them, and so does the reader."""
    params, lines = csv_lines(tmp_path)
    path = tmp_path / "misaligned.csv"
    path.write_bytes(b"".join(line + b"\r\n" for line in misaligned(list(lines), 20)))
    with pytest.raises(FormatError, match="row 21: 8 cells, expected 7$"):
        read_trace_csv(path, params)


# --- steady-state scans ---------------------------------------------------------
#
# The oracle is the per-step loop the numpy scans of theory._check_steady
# replaced. With each steady claim violated alone, and with all of them
# interleaved, the report must match it exactly.


def oracle_check_steady(report, trace, xs, spec, switches, factor):
    params = trace.params
    n = report.n_steps
    eta = report.eta
    xs = xs.tolist()
    floor = params.mbar
    lifted = params.a * params.mbar
    report.checked += ["step_size_set", "switch_floor", "sample_error"]
    rows = ((r.m, r.in_switch, r.y, x) for r, x in zip(trace.records[eta:], xs[eta:]))
    for k, (m, in_switch, y, x) in enumerate(rows, start=eta):
        if m != floor and m != lifted:
            report.violations.append(
                theory.Violation("step_size_set", k, f"slope {m!r} not in {{mbar, a*mbar}}"))
        if in_switch and m != floor:
            report.violations.append(
                theory.Violation("switch_floor", k, f"switch slope {m!r} != mbar {floor!r}"))
        err = abs(x - y)
        if err > report.sample_error_bound:
            report.violations.append(
                theory.Violation("sample_error", k, f"|x - y| = {err} > {report.sample_error_bound}"))
    if spec is None:
        report.not_applicable.append(
            ("interval_error", "samples carry no signal spec to evaluate between grid points"))
    else:
        report.checked.append("interval_error")
        theory._check_interval_error(report, trace, spec, params.delta, factor)
    report.checked.append("switch_gap")
    post = [k for k in switches if k >= eta]
    for i, s in enumerate(post):
        nxt = post[i + 1] if i + 1 < len(post) else None
        if nxt is not None:
            if nxt - s > 3:
                report.violations.append(
                    theory.Violation("switch_gap", s, f"next switch only at {nxt} (> {s} + 3)"))
        elif s + 3 <= n - 1:
            report.violations.append(
                theory.Violation("switch_gap", s, f"no further switch in ({s}, {s + 3}]"))
    report.checked.append("symbol_run")
    run = 1
    hs = [r.h for r in trace.records]
    for k in range(eta + 2, n):
        run = run + 1 if hs[k] == hs[k - 1] else 1
        if run == 4:
            report.violations.append(theory.Violation("symbol_run", k, "four equal symbols in a row"))


def steady_verify(monkeypatch, oracle, *args, **kwargs):
    if not oracle:
        return verify_theorem(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(theory, "_check_steady", oracle_check_steady)
        return verify_theorem(*args, **kwargs)


def steady_run():
    """A sine trace whose steady-state claims all hold from an early eta."""
    spec = Sine(amplitude=0.9, frequency_hz=1.0, phase=0.3)
    params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)
    samples = sample(spec, params.delta, 8.0)
    _, trace = encode_signal(params, samples)
    variation = estimate_variation_bound(spec, params.delta, (0.0, len(samples) * params.delta), 32)
    return trace, samples, variation


def columns_of(trace):
    return {name: [r.x for r in trace.records] if name == "x" else getattr(trace, name).tolist()
            for name in Trace.COLUMNS}


def break_step_size_set(columns, values, k, params):
    while columns["in_switch"][k]:
        k += 1
    columns["m"][k] = params.mbar * 1.25


def break_switch_floor(columns, values, k, params):
    while not columns["in_switch"][k]:
        k += 1
    columns["m"][k] = params.a * params.mbar


def break_sample_error(columns, values, k, params):
    values[k] += 1.0


def break_switch_gap(columns, values, k, params):
    flags = columns["in_switch"]
    flags[k:k + 12] = [False] * len(flags[k:k + 12])


def break_symbol_run(columns, values, k, params):
    hs = columns["h"]
    hs[k:k + 5] = [hs[k]] * len(hs[k:k + 5])


STEADY_BREAKERS = {
    "step_size_set": break_step_size_set,
    "switch_floor": break_switch_floor,
    "sample_error": break_sample_error,
    "switch_gap": break_switch_gap,
    "symbol_run": break_symbol_run,
}


def broken_run(claims_at):
    trace, samples, variation = steady_run()
    columns, values = columns_of(trace), list(samples.values)
    for claim, k in claims_at:
        STEADY_BREAKERS[claim](columns, values, k, trace.params)
    broken = Trace.from_columns(trace.params, **columns)
    # no spec: interval_error is not applicable, so it cannot add violations
    return broken, SampledSignal(samples.delta, tuple(values)), variation


@pytest.mark.parametrize("claim", sorted(STEADY_BREAKERS))
@pytest.mark.parametrize("k", [300, 790])
def test_each_steady_claim_violated_alone_matches_oracle(monkeypatch, claim, k):
    args = broken_run([(claim, k)])
    report = steady_verify(monkeypatch, False, *args)
    expected = steady_verify(monkeypatch, True, *args)
    assert report.to_dict() == expected.to_dict()
    assert {v.claim for v in report.violations} == {claim}
    assert report.eta is not None and report.eta < 300


def test_all_steady_claims_interleaved_match_oracle(monkeypatch):
    claims_at = [
        (claim, k)
        for i, claim in enumerate(sorted(STEADY_BREAKERS))
        for k in (100 + 7 * i, 400 + 29 * i, 640 - 11 * i)
    ]
    claims_at.append(("switch_gap", 790))  # no switch in the last steps
    args = broken_run(claims_at)
    report = steady_verify(monkeypatch, False, *args)
    expected = steady_verify(monkeypatch, True, *args)
    assert report.to_dict() == expected.to_dict()
    assert {v.claim for v in report.violations} == set(STEADY_BREAKERS)
    # with the spec back, interval_error joins the interleaving
    broken, samples, variation = args
    with_spec = SampledSignal(samples.delta, samples.values, steady_run()[1].spec)
    report = steady_verify(monkeypatch, False, broken, with_spec, variation)
    assert report.to_dict() == steady_verify(monkeypatch, True, broken, with_spec, variation).to_dict()


@pytest.mark.parametrize("seed", range(30))
def test_randomly_broken_steady_state_matches_oracle(monkeypatch, seed):
    rng = random.Random(12000 + seed)
    trace, samples, certified, factor = random_run(rng)
    columns, values = columns_of(trace), list(samples.values)
    n = len(trace)
    for _ in range(rng.randrange(0, 6)):
        claim = rng.choice(sorted(STEADY_BREAKERS))
        k = rng.randrange(n)
        if claim == "step_size_set" and not all(columns["in_switch"][k:]):
            break_step_size_set(columns, values, k, trace.params)
        elif claim == "switch_floor" and any(columns["in_switch"][k:]):
            break_switch_floor(columns, values, k, trace.params)
        elif claim in ("sample_error", "switch_gap", "symbol_run"):
            STEADY_BREAKERS[claim](columns, values, k, trace.params)
    broken = Trace.from_columns(trace.params, **columns)
    spec = rng.choice([None, samples.spec])
    args = (broken, SampledSignal(samples.delta, tuple(values), spec), certified)
    kwargs = dict(oversample_factor=factor, start_index=rng.choice([0, rng.randrange(n)]))
    report = steady_verify(monkeypatch, False, *args, **kwargs)
    assert report.to_dict() == steady_verify(monkeypatch, True, *args, **kwargs).to_dict()


def test_steady_scans_stop_where_the_loops_stop(monkeypatch):
    """The symbol run is counted from eta + 1, switches from eta on, a gap
    of 4 is too long and the last switch may sit 3 steps before the end; the
    scans must find exactly what the oracle's loops find, one step either
    side of each edge."""
    trace, samples, variation = steady_run()
    clean = verify_theorem(trace, samples, variation)
    assert clean.ok and len(clean.checked) == 7
    samples = SampledSignal(samples.delta, samples.values)
    eta = clean.eta
    n = len(trace)

    def edited(h_at=None, last_switch=None, gap_at=None):
        columns = columns_of(trace)
        if gap_at is not None:
            columns["in_switch"][gap_at:gap_at + 5] = [True, False, False, False, True]
            columns["m"][gap_at] = columns["m"][gap_at + 4] = trace.params.mbar
        if h_at is not None:
            columns["h"][h_at - 1:h_at + 5] = [-1, 1, 1, 1, 1, -1]
        if last_switch is not None:
            flags = columns["in_switch"]
            flags[last_switch:] = [True] + [False] * (n - last_switch - 1)
            columns["m"][last_switch] = trace.params.mbar
        return Trace.from_columns(trace.params, **columns)

    def verify_both(broken):
        report = verify_theorem(broken, samples, variation)
        assert report.to_dict() == steady_verify(monkeypatch, True, broken, samples, variation).to_dict()
        return report

    assert [v.step for v in verify_both(edited(h_at=eta + 1)).violations] == [eta + 4]
    assert [v.step for v in verify_both(edited(last_switch=n - 4)).violations] == [n - 4]
    assert [v.step for v in verify_both(edited(gap_at=eta)).violations] == [eta]
    assert [v.step for v in verify_both(edited(gap_at=400)).violations] == [400]
    assert verify_both(edited(h_at=eta)).ok
    assert verify_both(edited(last_switch=n - 3)).ok


# --- growth certificates --------------------------------------------------------
#
# The oracles are the loops over every lag m that the pruned scans replaced.
# A lag whose largest possible ratio cannot raise the fitted scale, or whose
# smallest limit no sample can exceed, is skipped; the results must not move.


def oracle_fit_growth_bound(samples, exponent):
    values = np.abs(np.asarray(samples.values, dtype=float))
    scale = 0.0
    for m in range(1, len(values)):
        tau = (m * samples.delta) ** exponent
        ratios = values[m:] / (values[:-m] + tau)
        if ratios.size:
            scale = max(scale, float(ratios.max()))
    return GrowthBound(scale=max(scale, 1e-12), exponent=exponent)


def oracle_verify_growth(samples, bound):
    values = np.abs(np.asarray(samples.values, dtype=float))
    violations = []
    for m in range(1, len(values)):
        tau = (m * samples.delta) ** bound.exponent
        limits = bound.scale * (values[:-m] + tau)
        for k in np.nonzero(values[m:] > limits)[0]:
            violations.append(GrowthViolation(
                k=int(k), m=m, value=float(values[k + m]), limit=float(limits[k])))
    return violations


def random_growth_samples(rng: random.Random) -> SampledSignal:
    n = rng.randrange(0, 40)
    kind = rng.randrange(5)
    if kind == 0:
        values = [0.0] * n
    elif kind == 1:
        values = [rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 5.0)] * n
    elif kind == 2:  # huge and tiny magnitudes side by side
        values = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.choice([-300, -5, 0, 5, 300])
                  for _ in range(n)]
    else:
        values = random_values(rng, n)
    # 1e-200 makes tau underflow to 0 for exponents above 1.5
    delta = rng.choice([1e-200, 1e-3, 0.04, 0.5, 1.0, 3.0, rng.uniform(1e-3, 2.0)])
    return SampledSignal(delta, values)


@pytest.mark.parametrize("seed", range(300))
def test_growth_certificates_match_the_all_lags_loops(seed):
    rng = random.Random(seed)
    samples = random_growth_samples(rng)
    exponent = rng.uniform(0.5, 3.7)
    with np.errstate(all="ignore"):  # 0/0 and x/0 where tau underflows
        fitted = fit_growth_bound(samples, exponent)
        assert fitted == oracle_fit_growth_bound(samples, exponent)
        for bound in (fitted, GrowthBound(scale=rng.uniform(0.1, 8.0), exponent=exponent)):
            assert verify_growth(samples, bound) == oracle_verify_growth(samples, bound)


def test_growth_tau_overflow_raises_like_the_loops():
    samples = SampledSignal(1e200, [1.0, 2.0, 3.0])
    with pytest.raises(OverflowError):
        oracle_fit_growth_bound(samples, 2.0)
    with pytest.raises(OverflowError):
        fit_growth_bound(samples, 2.0)
    with pytest.raises(OverflowError):
        verify_growth(samples, GrowthBound(scale=1.0, exponent=2.0))
