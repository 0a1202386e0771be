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
re-applied to the trace suffix (``start_index = signals.restart_index(delta, s)``)
with the initial estimate and slope taken from the trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .codec import AdaptationRule, CodecParams, Trace
from .errors import DivergenceError, DomainError, NumericError, ParameterError
from .signals import _EPS, _TINY, CHUNK_CELLS, GrowthBound, SampledSignal, VariationBound, cell_grid

__all__ = [
    "Violation",
    "TheoremReport",
    "acquisition_bound",
    "settling_window",
    "steady_error_bounds",
    "verify_theorem",
]


@dataclass(frozen=True)
class Violation:
    claim: str
    step: int
    detail: str


@dataclass
class TheoremReport:
    """Outcome of verifying one trace against the tracking guarantees."""

    sample_error_bound: float
    interval_error_bound: float
    variation_rate: float
    oversample_factor: int
    start_index: int
    n_steps: int
    tau: Optional[int] = None
    tau_bound: Optional[int] = None
    eta: Optional[int] = None
    eta_window_end: Optional[int] = None
    violations: list[Violation] = field(default_factory=list)
    not_applicable: list[tuple[str, str]] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        """``violated`` with a violation, else ``vacuous`` when no claim was checked, else ``verified``."""
        return "violated" if self.violations else "verified" if self.checked else "vacuous"

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "not_applicable": [{"claim": c, "reason": r} for c, r in self.not_applicable],
            "ok": self.ok,
            "status": self.status,
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
    up a step by log rounding. A slope that is not > 0, or whose window is
    not finite (an infinite or NaN slope), is a DomainError.
    """
    if params.mbar <= 0.0:
        raise DomainError("settling window needs a positive slope floor")
    width = 3.0 * math.log(max(m_tau / params.mbar, 1.0)) / math.log(params.a) + 6.0
    if not (m_tau > 0.0 and width < math.inf):  # a NaN slope fails both
        raise DomainError(f"no finite settling window for the slope {m_tau!r} at the first switch")
    return math.ceil(width - 1e-9)


def steady_error_bounds(params: CodecParams, rate: float) -> tuple[float, float]:
    """(sample bound, interval bound) = ((a*mbar + D)*delta, (a*mbar + 2D)*delta)."""
    if not rate >= 0.0:  # nan fails too
        raise ParameterError(f"variation rate must be >= 0, got {rate!r}")
    sample_bound = (params.a * params.mbar + rate) * params.delta
    interval_bound = (params.a * params.mbar + 2.0 * rate) * params.delta
    return sample_bound, interval_bound


def _steady_premise(params: CodecParams, rate: float) -> Optional[str]:
    """Why the settling and steady-state claims do not apply, or None when
    their premise holds: the modified rule with ``0 < mbar`` and ``mbar >= 2*rate``."""
    if params.rule is not AdaptationRule.MODIFIED:
        return "Jayant rule carries no floor guarantees"
    if params.mbar <= 0.0:
        return "slope floor is zero"
    if params.mbar < 2.0 * rate:
        return f"floor {params.mbar} below twice the variation rate {rate}"
    return None


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
    if x_samples.delta != params.delta:
        raise ParameterError(f"sample grid delta {x_samples.delta!r} != trace delta {params.delta!r}")
    n = len(trace)
    if len(x_samples) != n:
        raise ParameterError(f"sample count {len(x_samples)} != trace length {n}")
    if n == 0:
        raise ParameterError("empty trace")
    if not 0 <= start_index < n:
        raise ParameterError(f"start_index {start_index} outside trace of length {n}")

    rate = variation.rate
    xs = x_samples.values
    sample_bound, interval_bound = steady_error_bounds(params, rate)
    switches = np.flatnonzero(trace.in_switch)
    switches = switches[switches > start_index]  # the steps of the suffix's switches, past its first
    report = TheoremReport(
        sample_error_bound=sample_bound,
        interval_error_bound=interval_bound,
        variation_rate=rate,
        oversample_factor=oversample_factor,
        start_index=start_index,
        n_steps=n,
        tau=switches[0].item() if len(switches) else None,
    )

    _check_acquisition(report, trace, xs, growth)
    _check_settling_and_steady(report, trace, xs, x_samples.spec, rate, switches, oversample_factor)
    return report


def _check_acquisition(report, trace, xs, growth) -> None:
    if growth is None:
        report.not_applicable.append(("acquisition", "no growth certificate supplied"))
        return
    report.checked.append("acquisition")
    params = trace.params
    start = report.start_index
    start_params = params if start == 0 else replace(params, y0=trace.y[start].item(), m0=trace.m[start].item())
    gap = abs(start_params.y0 - xs[start].item())
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


def _check_settling_and_steady(report, trace, xs, spec, rate, switches, factor) -> None:
    reason = _steady_premise(trace.params, rate)
    if reason is not None:
        report.not_applicable += [("settling", reason), ("steady_state", reason)]
        return

    first, tau = report.start_index, report.tau
    # the settling predicate: the slope exactly on the floor, the sample error inside the steady band
    in_band = np.abs(xs[first:] - trace.y[first:]) <= report.sample_error_bound
    settled = (trace.m[first:] == trace.params.mbar) & in_band
    report.eta = first + int(settled.argmax()) if settled.any() else None

    # settling: a floored, in-band step must exist within the window past tau
    if tau is None:
        report.not_applicable.append(("settling", "no switch within the horizon"))
    else:
        end = report.eta_window_end = tau + settling_window(trace.m[tau].item(), trace.params)
        if settled[tau - first:end - first + 1].any():
            report.checked.append("settling")
        elif end <= report.n_steps - 1:
            report.checked.append("settling")
            report.violations.append(Violation("settling", tau, f"no settled step in [{tau}, {end}]"))
        else:
            report.not_applicable.append(("settling", f"horizon ends inside the window [{tau}, {end}]"))

    if report.eta is None:
        report.not_applicable.append(("steady_state", "no settled step detected"))
        return
    _check_steady(report, trace, xs, spec, switches, factor)


def _check_steady(report, trace, xs, spec, switches, factor) -> None:
    """The steady-state claims from eta on, each one numpy mask over the
    columns (``xs`` is the samples' array, ``spec`` their signal or None);
    violations are built from the flagged steps, in step order."""
    params = trace.params
    n = report.n_steps
    eta = report.eta
    xs = xs[eta:]
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

    if spec is None:
        report.not_applicable.append(
            ("interval_error", "samples carry no signal spec to evaluate between grid points")
        )
    else:
        report.checked.append("interval_error")
        _check_interval_error(report, trace, spec, params.delta, factor)

    report.checked.append("switch_gap")
    post = switches[switches >= eta]
    for i in np.flatnonzero(np.diff(post) > 3).tolist():
        s, nxt = post[i].item(), post[i + 1].item()
        report.violations.append(Violation("switch_gap", s, f"next switch only at {nxt} (> {s} + 3)"))
    if len(post) and post[-1] + 3 <= n - 1:
        s = post[-1].item()
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
    column says; :func:`admtrack.codec.check_trace` checks that column. A cell
    gets no row where |x_k - y| at both ends of y's segment, plus ``cell_reach``
    and a rounding slack, stays within the bound."""
    eta = report.eta
    ks = np.arange(eta, len(trace), dtype=np.int64)
    y = trace.y[eta:]
    hm = trace.h[eta:] * trace.m[eta:]
    bound = report.interval_error_bound
    for lo in range(0, len(ks), CHUNK_CELLS):
        rows = np.arange(lo, min(lo + CHUNK_CELLS, len(ks)))
        reach = spec.cell_reach(ks[rows], delta)
        if reach is not None:
            x_k, y_k, hm_k = spec.at_array(ks[rows] * delta), y[rows], hm[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                env = np.maximum(np.abs(x_k - y_k), np.abs(x_k - (y_k + hm_k * delta))) + reach
                slack = 8 * _EPS * (env + np.abs(y_k) + np.abs(hm_k) * ((ks[rows] + 2) * delta)) + _TINY
            rows = rows[~(env + slack <= bound)]  # NaN or inf keeps the cell
        t = cell_grid(ks[rows], delta, factor)
        elapsed = np.where(t == t[:, -1:], delta, t - t[:, :1])
        with np.errstate(invalid="ignore"):  # an infinite slope times the elapsed 0 of a cell start
            y_t = y[rows, None] + hm[rows, None] * elapsed
        err = np.abs(spec.at_array(t) - y_t)
        # fmax/nanargmax skip NaN as the comparison err > worst would
        for i in np.nonzero(np.fmax.reduce(err, axis=1) > bound)[0]:
            j = int(np.nanargmax(err[i]))
            detail = f"|x - y| = {float(err[i, j])} at t={float(t[i, j])} > {bound}"
            report.violations.append(Violation("interval_error", int(ks[rows[i]]), detail))
