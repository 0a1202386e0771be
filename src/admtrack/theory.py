"""Tracking-guarantee bounds and trace verification.

The codec comes with three phase guarantees on signals with a certified
variation rate ``D`` (see :mod:`admtrack.signals`) when the floor satisfies
``Mbar >= 2*D``:

* acquisition - the first switch index ``tau`` is bounded via a polynomial
  growth certificate for the signal;
* settling - within ``ceil(3*log_a(M_tau/Mbar) + 6)`` steps of ``tau`` there
  is a step ``eta`` whose slope sits on the floor and whose error is already
  inside the steady band;
* steady state - from ``eta`` on, the slope only takes the values ``Mbar``
  and ``a*Mbar`` (exactly ``Mbar`` on every switch), sample errors stay
  within ``(a*Mbar + D)*delta``, the reconstruction between samples within
  ``(a*Mbar + 2*D)*delta``, consecutive switches are at most 3 apart, and no
  symbol repeats four times.

:func:`verify_theorem` evaluates all of these on a concrete trace and
reports violations; claims whose preconditions fail are reported as not
applicable instead. After a signal jump at time ``s`` the same checks can be
re-applied to the trace suffix (``start_index = restart_index(delta, s)``)
with the initial estimate and slope taken from the trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .codec import AdaptationRule, CodecParams, Trace
from .errors import DivergenceError, DomainError, NumericError, ParameterError
from .signals import CHUNK_CELLS, GrowthBound, SampledSignal, VariationBound, cell_grid, restart_index

__all__ = [
    "Violation",
    "TheoremReport",
    "acquisition_bound",
    "settling_window",
    "steady_error_bounds",
    "detect_settling",
    "verify_theorem",
    "restart_index",
]


@dataclass(frozen=True)
class Violation:
    claim: str
    step: int
    detail: str


@dataclass
class TheoremReport:
    """Outcome of verifying one trace against the tracking guarantees."""

    tau: Optional[int]
    tau_bound: Optional[int]
    eta: Optional[int]
    eta_window_end: Optional[int]
    sample_error_bound: float
    interval_error_bound: float
    variation_rate: float
    oversample_factor: int
    start_index: int
    n_steps: int
    violations: list[Violation] = field(default_factory=list)
    not_applicable: list[tuple[str, str]] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "not_applicable": [{"claim": c, "reason": r} for c, r in self.not_applicable],
            "ok": self.ok,
        }


def acquisition_bound(
    params: CodecParams,
    initial_gap: float,
    growth: Optional[GrowthBound],
    cap: int = 10**6,
) -> int:
    """Smallest m with ``m0*(1 + a + ... + a**m)*delta`` covering the initial
    gap plus the growth allowance ``scale*(1 + (m*delta)**exponent)``.

    ``growth=None`` drops the allowance (a signal frozen at its initial
    value). The geometric sum guarantees termination for a > 1; the cap is a
    safety net only.
    """
    if not math.isfinite(initial_gap) or initial_gap < 0.0:
        raise ParameterError(f"initial gap must be finite and >= 0, got {initial_gap!r}")
    geom = 0.0
    a_pow = 1.0
    for m in range(cap + 1):
        geom += a_pow
        allowance = 0.0
        if growth is not None:
            try:
                allowance = growth.scale * (1.0 + (m * params.delta) ** growth.exponent)
            except OverflowError:
                allowance = math.inf
            if allowance == math.inf:  # no finite sum can cover it
                raise NumericError(f"growth allowance overflowed at m={m}")
        if params.m0 * geom * params.delta >= initial_gap + allowance:
            return m
        a_pow *= params.a
    raise DivergenceError(f"no acquisition index within cap={cap}")


def settling_window(m_tau: float, params: CodecParams) -> int:
    """Length of the settling window, ``ceil(3*log_a(m_tau/mbar) + 6)``.

    Clamped below at 6 (the value for m_tau == mbar) so a first switch that
    never lifted the slope above the floor still gets the base window. The
    ceiling is taken with a 1e-9 snap so exact powers of ``a`` are not pushed
    up a step by log rounding.
    """
    if params.mbar <= 0.0:
        raise DomainError("settling window needs a positive slope floor")
    if m_tau <= 0.0:
        raise DomainError(f"slope at the first switch must be > 0, got {m_tau!r}")
    width = 3.0 * math.log(m_tau / params.mbar) / math.log(params.a) + 6.0
    return max(6, math.ceil(width - 1e-9))


def steady_error_bounds(params: CodecParams, rate: float) -> tuple[float, float]:
    """(sample bound, interval bound) = ((a*mbar + D)*delta, (a*mbar + 2D)*delta)."""
    if rate < 0.0:
        raise ParameterError(f"variation rate must be >= 0, got {rate!r}")
    sample_bound = (params.a * params.mbar + rate) * params.delta
    interval_bound = (params.a * params.mbar + 2.0 * rate) * params.delta
    return sample_bound, interval_bound


def detect_settling(
    trace: Trace,
    x_samples: SampledSignal,
    rate: float,
    start_index: int = 0,
) -> Optional[int]:
    """First step whose slope sits exactly on the floor with the sample error
    already inside the steady band, or None."""
    params = trace.params
    if params.rule is not AdaptationRule.MODIFIED:
        raise ParameterError("settling detection applies to the modified rule only")
    if params.mbar < 2.0 * rate:
        raise ParameterError(
            f"floor {params.mbar} below twice the variation rate {rate}; steady tracking not guaranteed"
        )
    _check_grids(trace, x_samples)
    bound = steady_error_bounds(params, rate)[0]
    return _first_settled(trace, np.array(x_samples.values), start_index, len(trace) - 1, bound)


def _first_settled(trace: Trace, xs: np.ndarray, first: int, last: int, sample_bound: float) -> Optional[int]:
    """First k in [first, last] that meets the settling predicate (slope
    exactly on the floor, sample error inside the steady band), or None."""
    rows = slice(first, last + 1)
    settled = (trace.m[rows] == trace.params.mbar) & (np.abs(xs[rows] - trace.y[rows]) <= sample_bound)
    return first + int(settled.argmax()) if settled.any() else None


def _check_grids(trace: Trace, x_samples: SampledSignal) -> None:
    if x_samples.delta != trace.params.delta:
        raise ParameterError(
            f"sample grid delta {x_samples.delta!r} != trace delta {trace.params.delta!r}"
        )
    if len(x_samples) != len(trace):
        raise ParameterError(
            f"sample count {len(x_samples)} != trace length {len(trace)}"
        )


def verify_theorem(
    trace: Trace,
    x_samples: SampledSignal,
    variation: VariationBound,
    growth: Optional[GrowthBound] = None,
    oversample_factor: int = 32,
    start_index: int = 0,
) -> TheoremReport:
    """Check every applicable tracking claim on a concrete trace.

    The acquisition claim runs only when a growth certificate is supplied
    (the certificate is the caller's responsibility and should be verified
    on the signal first). Settling and steady-state claims run under the
    modified rule with ``mbar >= 2*variation.rate``; otherwise they are
    reported as not applicable. ``start_index`` re-applies everything to a
    trace suffix, taking the estimate and slope found there as the new
    initial conditions (the post-jump restart reading).
    """
    params = trace.params
    _check_grids(trace, x_samples)
    n = len(trace)
    if n == 0:
        raise ParameterError("empty trace")
    if not 0 <= start_index < n:
        raise ParameterError(f"start_index {start_index} outside trace of length {n}")

    rate = variation.rate
    xs = x_samples.values
    sample_bound, interval_bound = steady_error_bounds(params, rate)
    report = TheoremReport(
        tau=None,
        tau_bound=None,
        eta=None,
        eta_window_end=None,
        sample_error_bound=sample_bound,
        interval_error_bound=interval_bound,
        variation_rate=rate,
        oversample_factor=oversample_factor,
        start_index=start_index,
        n_steps=n,
    )

    switches = [k for k in trace.switch_indices() if k > start_index]
    report.tau = switches[0] if switches else None

    _check_acquisition(report, trace, xs, growth, switches)
    _check_settling_and_steady(report, trace, x_samples, rate, switches, oversample_factor)
    return report


def _check_acquisition(report, trace, xs, growth, switches) -> None:
    if growth is None:
        report.not_applicable.append(("acquisition", "no growth certificate supplied"))
        return
    report.checked.append("acquisition")
    params = trace.params
    start = report.start_index
    start_params = params if start == 0 else replace(params, y0=trace.y[start].item(), m0=trace.m[start].item())
    gap = abs(start_params.y0 - xs[start])
    report.tau_bound = start + acquisition_bound(start_params, gap, growth)
    if report.tau is not None:
        if report.tau > report.tau_bound:
            report.violations.append(
                Violation(
                    "acquisition",
                    report.tau,
                    f"first switch at {report.tau} exceeds bound {report.tau_bound}",
                )
            )
    elif report.tau_bound <= report.n_steps - 1:
        report.violations.append(
            Violation("acquisition", report.tau_bound, f"no switch by bound {report.tau_bound}")
        )
    else:
        report.not_applicable.append(
            ("acquisition", f"horizon ends before the bound {report.tau_bound}")
        )


def _check_settling_and_steady(report, trace, x_samples, rate, switches, factor) -> None:
    params = trace.params
    n = report.n_steps

    if params.rule is not AdaptationRule.MODIFIED:
        reason = "Jayant rule carries no floor guarantees"
    elif params.mbar <= 0.0:
        reason = "slope floor is zero"
    elif params.mbar < 2.0 * rate:
        reason = f"floor {params.mbar} below twice the variation rate {rate}"
    else:
        reason = None
    if reason is not None:
        report.not_applicable.append(("settling", reason))
        report.not_applicable.append(("steady_state", reason))
        return

    xs = np.array(x_samples.values)
    report.eta = _first_settled(trace, xs, report.start_index, n - 1, report.sample_error_bound)

    # settling: a floored, in-band step must exist within the window past tau
    if report.tau is None:
        report.not_applicable.append(("settling", "no switch within the horizon"))
    else:
        window = settling_window(trace.m[report.tau].item(), params)
        report.eta_window_end = report.tau + window
        last = min(report.eta_window_end, n - 1)
        settled = _first_settled(trace, xs, report.tau, last, report.sample_error_bound)
        if settled is not None:
            report.checked.append("settling")
        elif report.eta_window_end <= n - 1:
            report.checked.append("settling")
            report.violations.append(
                Violation(
                    "settling",
                    report.tau,
                    f"no settled step in [{report.tau}, {report.eta_window_end}]",
                )
            )
        else:
            report.not_applicable.append(
                ("settling", f"horizon ends inside the window [{report.tau}, {report.eta_window_end}]")
            )

    if report.eta is None:
        report.not_applicable.append(("steady_state", "no settled step detected"))
        return
    _check_steady(report, trace, x_samples, switches, factor)


def _check_steady(report, trace, x_samples, switches, factor) -> None:
    """The steady-state claims from eta on, each one numpy mask over the
    columns; violations are built from the flagged steps, in step order."""
    params = trace.params
    n = report.n_steps
    eta = report.eta
    xs = np.array(x_samples.values[eta:])
    floor = params.mbar
    lifted = params.a * params.mbar  # the only other steady slope value

    report.checked += ["step_size_set", "switch_floor", "sample_error"]
    bound = report.sample_error_bound
    m = trace.m[eta:]
    off_floor = m != floor
    bad_set = off_floor & (m != lifted)
    bad_floor = off_floor & trace.in_switch[eta:]
    err = np.abs(xs - trace.y[eta:])
    bad_error = err > bound
    # details format Python floats: numpy 2 scalars repr differently
    for i in np.flatnonzero(bad_set | bad_floor | bad_error).tolist():
        k = eta + i
        if bad_set[i]:
            report.violations.append(Violation("step_size_set", k, f"slope {m[i].item()!r} not in {{mbar, a*mbar}}"))
        if bad_floor[i]:
            report.violations.append(Violation("switch_floor", k, f"switch slope {m[i].item()!r} != mbar {floor!r}"))
        if bad_error[i]:
            report.violations.append(Violation("sample_error", k, f"|x - y| = {err[i].item()} > {bound}"))

    if x_samples.spec is None:
        report.not_applicable.append(
            ("interval_error", "samples carry no signal spec to evaluate between grid points")
        )
    else:
        report.checked.append("interval_error")
        _check_interval_error(report, trace, x_samples.spec, params.delta, factor)

    report.checked.append("switch_gap")
    post = [k for k in switches if k >= eta]
    for i in np.flatnonzero(np.diff(post) > 3).tolist():
        s, nxt = post[i], post[i + 1]
        report.violations.append(Violation("switch_gap", s, f"next switch only at {nxt} (> {s} + 3)"))
    if post and post[-1] + 3 <= n - 1:
        s = post[-1]
        report.violations.append(Violation("switch_gap", s, f"no further switch in ({s}, {s + 3}]"))

    report.checked.append("symbol_run")
    # runs are counted from eta + 1; a run reaches four symbols where three
    # equal neighbouring pairs in a row follow an unequal pair (or eta + 1)
    hs = trace.h[eta + 1:]
    same = np.concatenate(([False], hs[1:] == hs[:-1]))
    fourth = same[1:-2] & same[2:-1] & same[3:] & ~same[:-3]
    for i in np.flatnonzero(fourth).tolist():
        report.violations.append(Violation("symbol_run", eta + 4 + i, "four equal symbols in a row"))


def _check_interval_error(report, trace, spec, delta, factor) -> None:
    """Worst |x(t) - y(t)| over the oversampled points of every cell from
    eta on, with y(t) the piecewise-linear reconstruction of
    :func:`admtrack.codec.reconstruct` on the cell's :func:`cell_grid` row
    (elapsed time exactly ``delta`` at its right end), evaluated CHUNK_CELLS
    cells at a time. The cells are the grid's, whatever the trace's ``t``
    column says; :func:`admtrack.codec.check_trace` checks that column."""
    eta = report.eta
    ks = np.arange(eta, len(trace), dtype=np.int64)
    y = trace.y[eta:]
    hm = trace.h[eta:] * trace.m[eta:]
    bound = report.interval_error_bound
    for lo in range(0, len(ks), CHUNK_CELLS):
        rows = slice(lo, lo + CHUNK_CELLS)
        t = cell_grid(ks[rows], delta, factor)
        elapsed = np.where(t == t[:, -1:], delta, t - t[:, :1])
        with np.errstate(invalid="ignore"):  # an infinite slope times the elapsed 0 of a cell start
            y_t = y[rows, None] + hm[rows, None] * elapsed
        err = np.abs(spec.at_array(t) - y_t)
        # fmax/nanargmax skip NaN as the comparison err > worst would
        for i in np.nonzero(np.fmax.reduce(err, axis=1) > bound)[0]:
            j = int(np.nanargmax(err[i]))
            report.violations.append(
                Violation(
                    "interval_error",
                    int(ks[lo + i]),
                    f"|x - y| = {float(err[i, j])} at t={float(t[i, j])} > {bound}",
                )
            )
