"""Experiment orchestration: configs, simulation runs, trace/report files.

An experiment is one JSON document (see ``configs/`` for checked-in
examples)::

    {
      "signal":  {"kind": "sine", "amplitude": 1.0, "frequency_hz": 1.0, "phase": 0.0},
      "codec":   {"y0": 5.0, "M0": 13.0, "Mbar": 13.0, "a": 1.5,
                  "delta": 0.01, "rule": "modified"},
      "horizon": 4.0,
      "channel": {"kind": "noiseless"},
      "oversample_factor": 32,
      "growth":  {"scale": 10.0, "exponent": 1.0},
      "outputs": {"trace_csv": "trace.csv", "report_json": "report.json"},
      "comparison": {"baseline": "jayant", "proximity_band_multiplier": 1.0}
    }

``growth`` and ``comparison`` are optional. Every number in a config is a
JSON number or a numeric string, never a bool; ``oversample_factor`` and
``channel.seed`` must be integers, every other number must fit a float.

Trace CSVs have the fixed header ``k,t,x,y,h,M,in_switch,err_abs`` (x and
err_abs cells are empty on decode-only traces); report JSONs are sorted-key
documents. Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Optional

from .codec import (
    AdaptationRule,
    CodecParams,
    Symbol,
    Trace,
    _number,
    check_trace,
    codec_from_dict,
    codec_to_dict,
    encode_signal,
)
from .channel import ChannelModel, Erasure, Noiseless, ReceivedStream, decode_with_erasures, transmit
from .errors import DomainError, FormatError, ParameterError
from .signals import (
    Constant,
    GrowthBound,
    Piecewise,
    Ramp,
    SampledSignal,
    SignalSpec,
    Sine,
    discontinuities,
    estimate_variation_bound,
    restart_index,
    sample,
)
from .theory import TheoremReport, Violation, verify_theorem

__all__ = [
    "TRACE_COLUMNS",
    "ComparisonSettings",
    "ComparisonReport",
    "ExperimentOutputs",
    "ExperimentConfig",
    "SimulationResult",
    "signal_from_dict",
    "channel_to_dict",
    "channel_from_dict",
    "config_from_dict",
    "load_config",
    "run_simulation",
    "verify_run",
    "run_compare",
    "recovery_steps",
    "write_trace_csv",
    "read_trace_csv",
    "write_json",
]

TRACE_COLUMNS = ["k", "t", "x", "y", "h", "M", "in_switch", "err_abs"]


@dataclass(frozen=True)
class ComparisonSettings:
    baseline: AdaptationRule = AdaptationRule.JAYANT
    proximity_band_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.baseline, AdaptationRule):
            object.__setattr__(self, "baseline", AdaptationRule(self.baseline))
        if not self.proximity_band_multiplier > 0.0:  # nan fails too
            raise ParameterError("proximity band multiplier must be > 0")


@dataclass(frozen=True)
class ExperimentOutputs:
    trace_csv: str = "trace.csv"
    report_json: str = "report.json"


@dataclass(frozen=True)
class ExperimentConfig:
    signal: SignalSpec
    codec: CodecParams
    horizon: float
    channel: ChannelModel = field(default_factory=Noiseless)
    oversample_factor: int = 32
    growth: Optional[GrowthBound] = None
    outputs: ExperimentOutputs = field(default_factory=ExperimentOutputs)
    comparison: Optional[ComparisonSettings] = None

    def __post_init__(self) -> None:
        # false for nan, +-inf and ints beyond float range (isfinite raises on those)
        if not (abs(self.horizon) <= sys.float_info.max and self.horizon > 0.0):
            raise ParameterError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.horizon < self.codec.delta:
            raise ParameterError("horizon shorter than one sampling period")
        if self.oversample_factor < 2:
            raise ParameterError("oversample_factor must be >= 2")


@dataclass
class ComparisonReport:
    """Post-jump recovery of the configured rule vs the baseline rule.

    Recovery counts steps after the jump until the sample error re-enters the
    proximity band and stays there for 3 consecutive steps; ``None`` means
    the rule did not recover within the horizon.
    """

    jump_time: float
    band: float
    recovery_steps_modified: Optional[int]
    recovery_steps_baseline: Optional[int]
    baseline_rule: AdaptationRule
    band_multiplier: float
    variation_rate: float


@dataclass
class SimulationResult:
    config: ExperimentConfig
    samples: SampledSignal
    bits: list[Symbol]
    received: ReceivedStream
    encoder_trace: Trace
    decoder_trace: Trace
    report: TheoremReport


# --- JSON (de)serialization ------------------------------------------------


def signal_from_dict(data: dict) -> SignalSpec:
    try:
        kind = data["kind"]
        if kind == "constant":
            return Constant(level=_number(data["level"], "signal.level"))
        if kind == "ramp":
            return Ramp(
                slope=_number(data["slope"], "signal.slope"),
                intercept=_number(data["intercept"], "signal.intercept"),
            )
        if kind == "sine":
            return Sine(
                amplitude=_number(data["amplitude"], "signal.amplitude"),
                frequency_hz=_number(data["frequency_hz"], "signal.frequency_hz"),
                phase=_number(data.get("phase", 0.0), "signal.phase"),
            )
        if kind == "piecewise":
            return Piecewise(
                segments=tuple(
                    (_number(seg["start"], "segment start"), signal_from_dict(seg["signal"]))
                    for seg in data["segments"]
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad signal spec {data!r}: {exc}") from exc
    raise FormatError(f"unknown signal kind {data.get('kind')!r}")


def channel_to_dict(model: ChannelModel) -> dict:
    if isinstance(model, Noiseless):
        return {"kind": "noiseless"}
    return {"kind": "erasure", "p": model.p, "seed": model.seed}


def channel_from_dict(data: dict) -> ChannelModel:
    kind = _object(data, "channel").get("kind", "noiseless")
    if kind == "noiseless":
        return Noiseless()
    if kind == "erasure":
        try:
            return Erasure(p=_number(data["p"], "channel.p"), seed=_integer(data.get("seed", 0), "channel.seed"))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad erasure channel {data!r}: {exc}") from exc
    raise FormatError(f"unknown channel kind {kind!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise FormatError("config must be a JSON object")
    missing = {"signal", "codec", "horizon"} - set(data)
    if missing:
        raise FormatError(f"config missing keys: {sorted(missing)}")
    growth = None
    if "growth" in data and data["growth"] is not None:
        g = data["growth"]
        try:
            growth = GrowthBound(
                scale=_number(g["scale"], "growth.scale"),
                exponent=_number(g.get("exponent", 1.0), "growth.exponent"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad growth section {g!r}: {exc}") from exc
    comparison = None
    if "comparison" in data and data["comparison"] is not None:
        c = _object(data["comparison"], "comparison")
        try:
            baseline = AdaptationRule(c.get("baseline", "jayant"))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"comparison.baseline: {exc}") from exc
        comparison = ComparisonSettings(
            baseline=baseline,
            proximity_band_multiplier=_number(
                c.get("proximity_band_multiplier", 1.0), "comparison.proximity_band_multiplier"
            ),
        )
    outputs = _object(data.get("outputs", {}), "outputs")
    names = {}
    for key, default in (("trace_csv", "trace.csv"), ("report_json", "report.json")):
        names[key] = outputs.get(key, default)
        if not isinstance(names[key], str):
            raise FormatError(f"outputs.{key} must be a file name, got {names[key]!r}")
    return ExperimentConfig(
        signal=signal_from_dict(data["signal"]),
        codec=codec_from_dict(data["codec"]),
        horizon=_number(data["horizon"], "horizon"),
        channel=channel_from_dict(data.get("channel", {"kind": "noiseless"})),
        oversample_factor=_integer(data.get("oversample_factor", 32), "oversample_factor"),
        growth=growth,
        outputs=ExperimentOutputs(**names),
        comparison=comparison,
    )


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A document integer; a non-integral number is a FormatError, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return _number(value, what, int)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: bad JSON: {exc}") from exc
    return config_from_dict(data)


# --- simulation ------------------------------------------------------------


def run_simulation(config: ExperimentConfig) -> SimulationResult:
    """Sample, encode, transmit, decode, and verify one experiment."""
    samples = sample(config.signal, config.codec.delta, config.horizon)
    bits, encoder_trace = encode_signal(config.codec, samples)
    received = transmit(bits, config.channel)
    decoder_trace = decode_with_erasures(config.codec, received)
    return SimulationResult(
        config=config,
        samples=samples,
        bits=bits,
        received=received,
        encoder_trace=encoder_trace,
        decoder_trace=decoder_trace,
        report=verify_run(config, decoder_trace, samples),
    )


def verify_run(config: ExperimentConfig, trace: Trace, samples: SampledSignal) -> TheoremReport:
    """Certify the signal's variation rate over the sampled span and check
    every tracking claim on ``trace`` against ``samples``."""
    variation = estimate_variation_bound(
        config.signal,
        config.codec.delta,
        (0.0, len(samples) * config.codec.delta),
        config.oversample_factor,
    )
    return verify_theorem(
        trace,
        samples,
        variation,
        growth=config.growth,
        oversample_factor=config.oversample_factor,
    )


# 3 consecutive in-band steps are required so a transient crossing of the
# band does not count as recovery (3 matches the maximum steady-state switch gap)
RECOVERY_PERSISTENCE = 3


def recovery_steps(errors: list[float], start: int, band: float) -> Optional[int]:
    """Steps past ``start`` until RECOVERY_PERSISTENCE consecutive in-band errors."""
    n = len(errors)
    for r in range(max(n - start - RECOVERY_PERSISTENCE + 1, 0)):
        if all(errors[start + r + j] <= band for j in range(RECOVERY_PERSISTENCE)):
            return r
    return None


def _segment_variation_rate(config: ExperimentConfig, horizon_end: float) -> float:
    """Largest per-segment variation rate, jumps excluded.

    Cells are closed intervals, so a window ending exactly on a jump would
    see the jump's right value at its last point; each segment's window is
    clipped back to the last grid time strictly before the jump.
    """
    delta = config.codec.delta
    jumps = [t for t, _ in discontinuities(config.signal) if 0.0 < t < horizon_end]
    edges = [0.0] + jumps + [horizon_end]
    worst = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi < horizon_end:
            hi = (restart_index(delta, hi) - 1) * delta
        if hi <= lo:
            continue
        try:
            bound = estimate_variation_bound(
                config.signal, delta, (lo, hi), config.oversample_factor
            )
        except DomainError:
            continue  # segment shorter than one grid cell
        worst = max(worst, bound.rate)
    return worst


def run_compare(config: ExperimentConfig) -> ComparisonReport:
    """Run the configured rule and the baseline rule on identical samples and
    measure post-jump proximity recovery for both."""
    settings = config.comparison
    if settings is None:
        raise ParameterError("config has no comparison section")
    horizon_end = config.horizon
    jumps = [t for t, _ in discontinuities(config.signal) if 0.0 < t < horizon_end]
    if not jumps:
        raise ParameterError("comparison needs a signal with at least one jump")
    jump_time = jumps[0]
    start = restart_index(config.codec.delta, jump_time)

    samples = sample(config.signal, config.codec.delta, config.horizon)
    rate = _segment_variation_rate(config, horizon_end)
    band = settings.proximity_band_multiplier * (
        (config.codec.a * config.codec.mbar + rate) * config.codec.delta
    )

    results: dict[str, Optional[int]] = {}
    for label, params in (
        ("modified", config.codec),
        ("baseline", config.codec.with_rule(settings.baseline)),
    ):
        _, trace = encode_signal(params, samples)
        errors = [abs(x - y) for x, y in zip(samples.values, trace.y)]
        results[label] = recovery_steps(errors, start, band)

    return ComparisonReport(
        jump_time=jump_time,
        band=band,
        recovery_steps_modified=results["modified"],
        recovery_steps_baseline=results["baseline"],
        baseline_rule=settings.baseline,
        band_multiplier=settings.proximity_band_multiplier,
        variation_rate=rate,
    )


# --- file I/O ---------------------------------------------------------------


# Trace CSVs are read and written CHUNK_ROWS rows at a time, so the text,
# cell and formatting temporaries stay bounded on long traces.
CHUNK_ROWS = 1024

_HEADER_LINE = ",".join(TRACE_COLUMNS) + "\r\n"


def write_trace_csv(path, trace: Trace, x_values=None) -> None:
    """Write the fixed-schema trace CSV; ``x_values`` fills the x/err_abs
    columns for decode-side traces whose records carry no samples.

    Rows end in CRLF; floats are written as ``repr``, ``in_switch`` as
    1/0 and an absent x (with its err_abs) as an empty cell. The columns are
    formatted whole, CHUNK_ROWS rows per write.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write(_HEADER_LINE)
        for lo in range(0, len(trace), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            ks, xs, ys = trace.k[rows], trace.x[rows], trace.y[rows]
            if x_values is not None:
                xs = [x_values[k] if x is None else x for k, x in zip(ks, xs)]
            cells = zip(
                map(str, ks),
                map(repr, trace.t[rows]),
                ["" if x is None else repr(x) for x in xs],
                map(repr, ys),
                map(str, trace.h[rows]),
                map(repr, trace.m[rows]),
                ["1" if s else "0" for s in trace.in_switch[rows]],
                ["" if x is None else repr(abs(x - y)) for x, y in zip(xs, ys)],
            )
            fh.write("\r\n".join(map(",".join, cells)))
            fh.write("\r\n")
    os.replace(tmp, path)


def read_trace_csv(path, params: CodecParams) -> Trace:
    """Read a trace CSV back; codec params come from the caller (the CSV
    carries none). Raises FormatError naming the file, and the offending row
    where there is one.

    Files in the form :func:`write_trace_csv` writes are parsed column-wise;
    any other file (LF line ends, quoted cells, short or long rows, ...) is
    read by the row loop, which alone names the row of an error.
    """
    columns = _read_canonical_csv(path)
    if columns is None:
        columns = _read_csv_rows(path)
    k, t, x, y, h, m, in_switch = columns
    return Trace.from_columns(
        params, k=k, t=t, x=x, y=y, h=h, m=m,
        in_switch=in_switch, substituted=[False] * len(k),
    )


def _read_canonical_csv(path) -> Optional[tuple[list, ...]]:
    """The columns of a file in the writer's form, or None for any other file:
    ASCII with the fixed header, every line ending in CRLF and holding
    exactly 8 cells, no quote or NUL, ``k`` running 0..n-1 and ``h`` +-1.
    Cells are converted as the row loop converts them. (A NUL is left to the
    row loop because ``csv`` rejects it before Python 3.11.)"""
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    k_col, t_col, x_col, y_col, h_col, m_col, switch_col = columns
    with open(path, "rb") as fh:
        if fh.readline() != _HEADER_LINE.encode("ascii"):
            return None
        while True:
            chunk = b"".join(islice(fh, CHUNK_ROWS))
            if not chunk:
                # exact-size copies: a trace keeps no list growth slack
                return tuple(column[:] for column in columns)
            try:
                text = chunk.decode("ascii")
                lines = text.split("\r\n")
                tail = lines.pop()  # "" when the chunk ends in CRLF
                n = len(lines)
                if (
                    tail
                    or text.count("\n") != n
                    or text.count("\r") != n
                    or '"' in text
                    or "\0" in text
                    or list(map(str.count, lines, repeat(","))).count(7) != n
                ):
                    return None
                cells = ",".join(lines).split(",")
                base = len(k_col)
                ks = list(map(int, cells[0::8]))
                hs = list(map(int, cells[4::8]))
                if ks != list(range(base, base + n)) or hs.count(1) + hs.count(-1) != n:
                    return None
                xs = cells[2::8]
                xs = [float(x) if x else None for x in xs] if "" in xs else list(map(float, xs))
                t_col += map(float, cells[1::8])
                y_col += map(float, cells[3::8])
                m_col += map(float, cells[5::8])
            except ValueError:  # a cell the row loop rejects, or a non-ASCII byte
                return None
            k_col += ks
            x_col += xs
            h_col += hs
            switch_col += map("1".__eq__, cells[6::8])


def _read_csv_rows(path) -> tuple[list, ...]:
    """The row loop behind :func:`read_trace_csv`: ``csv.reader`` over the
    file, one converted and checked row at a time."""
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    k_col, t_col, x_col, y_col, h_col, m_col, switch_col = columns
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected header {TRACE_COLUMNS}")
            if header != TRACE_COLUMNS:
                raise FormatError(f"{path}: row 1: header {header} != {TRACE_COLUMNS}")
            for i, row in enumerate(reader, start=2):
                try:
                    k = int(row[0])
                    t = float(row[1])
                    x = float(row[2]) if row[2] else None
                    y = float(row[3])
                    h = int(row[4])
                    m = float(row[5])
                    in_switch = row[6] == "1"
                except (IndexError, ValueError) as exc:
                    raise FormatError(f"{path}: row {i}: {exc}") from exc
                if h not in (1, -1):
                    raise FormatError(f"{path}: row {i}: h must be +1 or -1, got {row[4]}")
                if k != len(k_col):
                    raise FormatError(f"{path}: row {i}: step index {k}, expected {len(k_col)}")
                k_col.append(k)
                t_col.append(t)
                x_col.append(x)
                y_col.append(y)
                h_col.append(h)
                m_col.append(m)
                switch_col.append(in_switch)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII trace CSV: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    return columns


def write_json(path, document: dict) -> None:
    """Sorted-key JSON with a trailing newline, written atomically."""
    tmp = f"{path}.tmp"
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def simulation_document(result: SimulationResult) -> dict:
    """Report JSON body for one simulation run."""
    return {
        "codec": codec_to_dict(result.config.codec),
        "channel": channel_to_dict(result.config.channel),
        "horizon": result.config.horizon,
        "n_samples": len(result.samples),
        "n_bits": len(result.bits),
        "n_erasures": len(result.received.erased_positions()),
        "verification": result.report.to_dict(),
    }


def consistency_violations(trace: Trace) -> list[Violation]:
    """check_trace problems as ``trace_consistency`` violations."""
    return [Violation("trace_consistency", k, msg) for k, msg in check_trace(trace)]
