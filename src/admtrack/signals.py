"""Test-signal definitions, grid sampling, and empirical regularity bounds.

Signals are small frozen dataclasses. Each kind has one evaluator,
``at_array(t)`` over an array of times; the sampler, the certificates and
the verifier all go through it, on grid times ``k*delta`` computed one way
(``np.arange(n) * delta``, the first column of :func:`cell_grid`). The
shared ``at(t)`` is ``at_array`` on one time, so a new kind defines
``at_array`` only. ``Piecewise`` segments run on local time (a segment
starting at ``s`` evaluates its child at ``t - s``) and are
right-continuous at their boundaries, so a jump placed on a grid point is
seen by the sampler at its new value.

Two empirical regularity certificates back the verification machinery:

* ``VariationBound`` - per-cell variation rate: ``|x(t) - x(t_k)| <= rate *
  delta`` for oversampled ``t`` in every full grid cell inside a window.
* ``GrowthBound`` - polynomial growth: ``|x(t + tau)| <= scale * (|x(t)| +
  tau**exponent)`` on grid pairs.

Both are certified on finite grids, not analytically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .errors import DomainError, NumericError, ParameterError

__all__ = [
    "Constant",
    "Ramp",
    "Sine",
    "Piecewise",
    "SignalSpec",
    "SampledSignal",
    "VariationBound",
    "GrowthBound",
    "GrowthViolation",
    "sample",
    "sample_count",
    "restart_index",
    "cell_grid",
    "estimate_variation_bound",
    "fit_growth_bound",
    "verify_growth",
    "discontinuities",
]

# Grid cells evaluated per numpy batch by the cell-grid kernels; bounds their
# temporaries to a few hundred kB whatever the trace length.
CHUNK_CELLS = 1024


def _check_float_range(what: str, value) -> None:
    """Every float operation on an int beyond float range overflows; reject it
    by its digit count, so an error line does not repeat hundreds of digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ParameterError(f"{what} is an int of {len(str(abs(value)))} digits, beyond float range")


class _Signal:
    def at(self, t: float) -> float:
        """x(t) at one time as a Python float: ``at_array`` on that time."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as at_array gives
            return self.at_array(np.array([t], dtype=float))[0].item()


class _FloatFields(_Signal):
    """Checks every field with :func:`_check_float_range`; stores them as given."""

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_float_range(f"{type(self).__name__}.{f.name}", getattr(self, f.name))


@dataclass(frozen=True)
class Constant(_FloatFields):
    level: float

    def at_array(self, t: np.ndarray) -> np.ndarray:
        return np.full(t.shape, self.level, dtype=float)


@dataclass(frozen=True)
class Ramp(_FloatFields):
    slope: float
    intercept: float

    def at_array(self, t: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * t


@dataclass(frozen=True)
class Sine(_FloatFields):
    amplitude: float
    frequency_hz: float
    phase: float = 0.0

    def at_array(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency_hz * t + self.phase)


@dataclass(frozen=True)
class Piecewise(_Signal):
    """Segments of (start_time, signal); each runs on its own local clock."""

    segments: tuple[tuple[float, "SignalSpec"], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for s, _ in self.segments:
            _check_float_range("Piecewise segment start", s)
        segs = tuple((float(s), spec) for s, spec in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ParameterError("piecewise signal needs at least one segment")
        if segs[0][0] != 0.0:
            raise ParameterError(f"first segment must start at 0, got {segs[0][0]}")
        starts = tuple(s for s, _ in segs)
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ParameterError(f"segment start times must strictly increase: {list(starts)}")
        object.__setattr__(self, "_starts", starts)

    def at_array(self, t: np.ndarray) -> np.ndarray:
        index = np.maximum(np.searchsorted(self._starts, t, side="right") - 1, 0)
        out = np.empty_like(t)
        for i, (start, spec) in enumerate(self.segments):
            mask = index == i
            if mask.any():
                out[mask] = spec.at_array(t[mask] - start)
        return out


SignalSpec = Union[Constant, Ramp, Sine, Piecewise]


@dataclass(frozen=True)
class SampledSignal:
    """Grid samples x(k*delta), k = 0..n-1, with optional provenance."""

    delta: float
    values: tuple[float, ...]
    spec: Optional[SignalSpec] = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        except OverflowError:  # an int beyond float range
            raise NumericError("samples must be finite") from None
        if self.delta <= 0.0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")
        if any(not math.isfinite(v) for v in self.values):
            raise NumericError("samples must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class VariationBound:
    """Certifies |x(t) - x(t_k)| <= rate*delta on full cells inside window."""

    rate: float
    window: tuple[float, float]
    oversample_factor: int


@dataclass(frozen=True)
class GrowthBound:
    """Certifies |x(t + tau)| <= scale * (|x(t)| + tau**exponent)."""

    scale: float
    exponent: float

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not (self.scale > 0.0 and self.exponent > 0.0):
            raise ParameterError("growth bound needs scale > 0 and exponent > 0")


@dataclass(frozen=True)
class GrowthViolation:
    k: int
    m: int
    value: float
    limit: float


def sample_count(delta: float, horizon: float) -> int:
    """Number of grid points k*delta in [0, horizon), computed on the actual
    float grid so the count is consistent with the sampler."""
    if delta <= 0.0 or horizon <= 0.0:
        raise ParameterError("delta and horizon must be > 0")
    return restart_index(delta, horizon)


def restart_index(delta: float, time: float) -> int:
    """Smallest k with k*delta >= time, on the actual float grid."""
    steps = time / delta
    # from 2**52 steps on, k + 1 can round to k as a float and the nudges below
    # would never end; nan and inf fail the test too
    if not steps < 2.0**52:
        raise ParameterError(f"time {time!r} is {steps!r} steps of {delta!r}; a grid index must be below 2**52")
    k = math.ceil(max(steps, 0.0))
    # float division can land one cell off the grid; nudge back
    while k * delta < time:
        k += 1
    while k > 0 and (k - 1) * delta >= time:
        k -= 1
    return k


def sample(spec: SignalSpec, delta: float, horizon: float) -> SampledSignal:
    """Evaluate the signal on the half-open grid [0, horizon)."""
    t = np.arange(sample_count(delta, horizon)) * delta  # bit-equal to k*delta
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, refused below
        x = spec.at_array(t)
    bad = ~np.isfinite(x)
    if bad.any():
        raise NumericError(f"signal is not finite at t={t[bad.argmax()].item()!r}")
    return SampledSignal(delta=delta, values=tuple(x.tolist()), spec=spec)


def cell_grid(ks: np.ndarray, delta: float, factor: int) -> np.ndarray:
    """Oversampled times covering the cells [k*delta, (k+1)*delta] of ``ks``,
    one row per cell: ``k*delta + j*(delta/factor)`` for j < factor, then
    ``(k+1)*delta``, so both endpoints sit on the grid exactly."""
    ks = np.asarray(ks, dtype=np.int64)
    try:
        grid = np.empty((len(ks), factor + 1))
    except ValueError:  # beyond numpy's dimension limit, before anything is allocated
        raise ParameterError(f"oversample factor {factor} is beyond numpy's array size limit") from None
    grid[:, :factor] = (ks * delta)[:, None] + np.arange(factor) * (delta / factor)
    grid[:, factor] = (ks + 1) * delta
    return grid


def estimate_variation_bound(
    spec: SignalSpec,
    delta: float,
    window: tuple[float, float],
    oversample_factor: int = 32,
) -> VariationBound:
    """Largest per-cell variation rate seen on the oversampled grid.

    Scans every full cell [t_k, t_{k+1}] inside the window and takes
    ``max |x(t) - x(t_k)| / delta`` over ``oversample_factor + 1`` points per
    cell. Nondecreasing when the factor is refined to a multiple.
    """
    if oversample_factor < 2:
        raise ParameterError("oversample_factor must be >= 2")
    alpha, beta = window
    if not alpha < beta:
        raise ParameterError(f"empty window: {window}")
    k_lo = max(int(math.floor(alpha / delta)) - 1, 0)
    k_hi = int(math.ceil(beta / delta)) + 1
    ks = np.arange(k_lo, k_hi, dtype=np.int64)
    with np.errstate(over="ignore"):  # a cell end past float range lies past beta too
        ks = ks[~((ks * delta < alpha) | ((ks + 1) * delta > beta))]
    if len(ks) == 0:
        raise DomainError(f"window {window} contains no full grid cell at delta={delta}")
    worst = 0.0
    for lo in range(0, len(ks), CHUNK_CELLS):
        x = spec.at_array(cell_grid(ks[lo:lo + CHUNK_CELLS], delta, oversample_factor))
        # column 0 is x(t_k); fmax skips NaN as the comparison max(worst, err) would
        worst = max(worst, float(np.fmax.reduce(np.abs(x - x[:, :1]), axis=None)))
    return VariationBound(rate=worst / delta, window=(alpha, beta), oversample_factor=oversample_factor)


def fit_growth_bound(samples: SampledSignal, exponent: float = 1.0) -> GrowthBound:
    """Smallest scale making the growth inequality hold on all grid pairs.

    The fitted certificate is tight by construction;
    :func:`verify_growth` on the same samples returns no violations.
    """
    values = np.abs(np.asarray(samples.values, dtype=float))
    n = len(values)
    vmax = float(values.max()) if n else 0.0
    scale = 0.0
    for m in range(1, n):
        tau = (m * samples.delta) ** exponent
        # Every ratio at this lag is at most vmax / tau (|x_k| + tau >= tau).
        if tau > 0.0 and vmax / tau <= scale:
            continue
        ratios = values[m:] / (values[:-m] + tau)
        scale = max(scale, float(ratios.max()))
    return GrowthBound(scale=max(scale, 1e-12), exponent=exponent)


def verify_growth(samples: SampledSignal, bound: GrowthBound) -> list[GrowthViolation]:
    """All grid pairs (k, m >= 1) breaking the growth inequality (closed)."""
    values = np.abs(np.asarray(samples.values, dtype=float))
    n = len(values)
    vmax = float(values.max()) if n else 0.0
    violations: list[GrowthViolation] = []
    for m in range(1, n):
        tau = (m * samples.delta) ** bound.exponent
        # Every limit at this lag is at least scale * tau (scale > 0).
        if bound.scale * tau >= vmax:
            continue
        limits = bound.scale * (values[:-m] + tau)
        bad = np.nonzero(values[m:] > limits)[0]
        for k in bad:
            violations.append(
                GrowthViolation(k=int(k), m=m, value=float(values[k + m]), limit=float(limits[k]))
            )
    return violations


def discontinuities(spec: SignalSpec, _offset: float = 0.0, _until: float = math.inf) -> list[tuple[float, float]]:
    """Jump locations (absolute time, signed jump size) of a signal.

    Only piecewise boundaries can jump; nested piecewise children are scanned
    within the span their parent keeps them active.
    """
    if not isinstance(spec, Piecewise):
        return []
    jumps: list[tuple[float, float]] = []
    segs = spec.segments
    for i, (start, child) in enumerate(segs):
        end = segs[i + 1][0] if i + 1 < len(segs) else math.inf
        if i > 0:
            prev_start, prev_child = segs[i - 1]
            left = prev_child.at(start - prev_start)
            right = child.at(0.0)
            if left != right and _offset + start < _until:
                jumps.append((_offset + start, right - left))
        jumps.extend(discontinuities(child, _offset + start, min(_until, _offset + end)))
    return sorted(jumps)
