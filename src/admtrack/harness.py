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

Only signal, codec and horizon are required; an absent key takes its dataclass
field's default. Numbers are JSON numbers or numeric strings, never bools;
``oversample_factor`` and ``channel.seed`` are integers, the others fit a float.

Trace CSVs have the fixed header ``k,t,x,y,h,M,in_switch`` (x cells are
empty on every row of a trace without samples, or on none) and floats in
``repr`` text, printed by orjson where its text is repr's; report JSONs
are sorted-key documents. Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import orjson

from .codec import (
    MINUS,
    PLUS,
    AdaptationRule,
    CodecParams,
    Trace,
    _differs,
    _exact,
    codec_from_dict,
    codec_to_dict,
    encode_signal,
    read_section,
)
from .channel import ChannelModel, Erasure, Noiseless, _replacing, decode_with_erasures, transmit
from .errors import DomainError, FormatError, NumericError, ParameterError
from .signals import (
    Constant,
    GrowthBound,
    Piecewise,
    Ramp,
    SampledSignal,
    SignalSpec,
    Sine,
    _check_real,
    discontinuities,
    estimate_variation_bound,
    restart_index,
    sample,
)
from .theory import TheoremReport, steady_error_bounds, verify_theorem

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

TRACE_COLUMNS = ["k", "t", "x", "y", "h", "M", "in_switch"]


@dataclass(frozen=True)
class ComparisonSettings:
    baseline: AdaptationRule = AdaptationRule.JAYANT
    proximity_band_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.baseline, AdaptationRule):
            object.__setattr__(self, "baseline", AdaptationRule(self.baseline))
        value = self.proximity_band_multiplier
        _check_real("ComparisonSettings.proximity_band_multiplier", value)
        if not 0.0 < value <= sys.float_info.max:  # nan fails too
            raise ParameterError(f"proximity band multiplier must be > 0 and finite, got {value}")


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
        # false for nan, +-inf and ints beyond float range (isfinite raises on those);
        # a bool or a non-number is left to _check_real
        if isinstance(self.horizon, (int, float)) and not (
                abs(self.horizon) <= sys.float_info.max and self.horizon > 0.0):
            raise ParameterError(f"horizon must be finite and > 0, got {self.horizon}")
        _check_real("ExperimentConfig.horizon", self.horizon)
        if self.horizon < self.codec.delta:
            raise ParameterError("horizon shorter than one sampling period")
        if isinstance(self.oversample_factor, bool) or not isinstance(self.oversample_factor, int):
            raise ParameterError(f"oversample_factor must be an integer, got {self.oversample_factor!r}")
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
    decoder_trace: Trace
    report: TheoremReport


# --- JSON (de)serialization ------------------------------------------------


# the classes of the tagged sections, by their "kind"
_SIGNALS = {"constant": Constant, "ramp": Ramp, "sine": Sine, "piecewise": Piecewise}
_CHANNELS = {"noiseless": Noiseless, "erasure": Erasure}


@dataclass(frozen=True)
class _Segment:  # one entry of a piecewise signal's "segments" list
    start: float
    signal: dict


def _kind(table: dict, data, what: str) -> type:
    """The class of ``table`` that the tagged section ``data`` names."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not (isinstance(kind, str) and kind in table):
        raise FormatError(f"unknown {what} kind {kind!r}")
    return table[kind]


def signal_from_dict(data: dict) -> SignalSpec:
    cls = _kind(_SIGNALS, data, "signal")
    if cls is not Piecewise:
        return read_section(cls, data, "signal", elsewhere=("kind",))
    segments = data.get("segments", [])
    if not isinstance(segments, list):
        raise FormatError(f"signal segments must be a JSON list, got {type(segments).__name__}")
    segments = [read_section(_Segment, segment, "segment") for segment in segments]
    return read_section(Piecewise, data, "signal", elsewhere=("kind",), segments=tuple(
        (segment.start, signal_from_dict(segment.signal)) for segment in segments))


def channel_to_dict(model: ChannelModel) -> dict:
    return {"kind": next(kind for kind, cls in _CHANNELS.items() if isinstance(model, cls)), **vars(model)}


def channel_from_dict(data: dict) -> ChannelModel:
    return read_section(_kind(_CHANNELS, data, "channel"), data, "channel", elsewhere=("kind",))


def config_from_dict(data: dict) -> ExperimentConfig:
    """An experiment config from its JSON document; every section is read by
    :func:`read_section`, so an absent optional key takes its field's default."""
    if not isinstance(data, dict):
        raise FormatError("config must be a JSON object")
    missing = {"signal", "codec", "horizon"} - set(data)
    if missing:
        raise FormatError(f"config missing keys: {sorted(missing)}")
    given = {"signal": signal_from_dict(data["signal"]), "codec": codec_from_dict(data["codec"])}
    if "channel" in data:
        given["channel"] = channel_from_dict(data["channel"])
    if "outputs" in data:
        given["outputs"] = read_section(ExperimentOutputs, data["outputs"], "outputs")
    for key, cls in (("growth", GrowthBound), ("comparison", ComparisonSettings)):
        if data.get(key) is not None:  # null is the field's default, None
            given[key] = read_section(cls, data[key], key)
    return read_section(ExperimentConfig, data, "config", **given)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # a RecursionError: nesting deeper than the parser or the section readers can follow
            return config_from_dict(json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FormatError(f"{path}: bad JSON: {exc}") from exc


# --- simulation ------------------------------------------------------------


def run_simulation(config: ExperimentConfig) -> SimulationResult:
    """Sample, encode, transmit, decode, and verify one experiment; a run with no held symbol checks the mirror first."""
    samples = sample(config.signal, config.codec.delta, config.horizon)
    bits, sent = encode_signal(config.codec, samples)
    trace = decode_with_erasures(config.codec, transmit(bits, config.channel))
    if not trace.substituted.any():  # a held symbol makes the traces differ on purpose
        _check_mirror(sent, trace)
    return SimulationResult(config, samples, trace, verify_run(config, trace, samples))


def _check_mirror(sent: Trace, received: Trace) -> None:
    """Raise a NumericError at the first step and column where ``received`` is not ``sent`` bit for bit."""
    names = ("y", "h", "m", "in_switch")
    pairs = [(getattr(sent, name), getattr(received, name)) for name in names]
    differs = np.array([_differs(a, b) for a, b in pairs])  # -0.0 is not 0.0
    for k in np.flatnonzero(differs.any(axis=0))[:1].tolist():
        i = int(differs[:, k].argmax())
        raise NumericError(f"decoder trace differs from the encoder's at step {k}, column {names[i]}: "
                           f"decoder {pairs[i][1][k].item()!r}, encoder {pairs[i][0][k].item()!r}")


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


def _segment_variation_rate(config: ExperimentConfig, jumps: list[float], horizon_end: float) -> float:
    """Largest variation rate over the segments between ``jumps`` (the jump
    times inside (0, horizon_end)), jumps excluded.

    Cells are closed intervals, so a window ending exactly on a jump would
    see the jump's right value at its last point; each segment's window is
    clipped back to the last grid time strictly before the jump.
    """
    delta = config.codec.delta
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
    rate = _segment_variation_rate(config, jumps, horizon_end)
    band = settings.proximity_band_multiplier * steady_error_bounds(config.codec, rate)[0]

    results: dict[str, Optional[int]] = {}
    for label, params in (
        ("modified", config.codec),
        ("baseline", config.codec.with_rule(settings.baseline)),
    ):
        _, trace = encode_signal(params, samples)
        errors = np.abs(samples.values - trace.y).tolist()
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


# Trace CSVs are written CHUNK_ROWS rows at a time, so every cell and
# formatting temporary is chunk-sized, however long the trace.
CHUNK_ROWS = 1024

_HEADER_LINE = ",".join(TRACE_COLUMNS) + "\r\n"

# str(v) at index v for every int8 v (negative indices count from the end)
_INT8_TEXT = tuple(map(str, range(128))) + tuple(map(str, range(-128, 0)))


def _float_text(column: np.ndarray) -> list:
    """``repr`` of each float64 of a non-empty ``column``. orjson prints the shortest
    round-trip text, which is repr's wherever 1e-4 <= |v| < 1e16 or v is +-0.0; every
    other cell (1e16 is ``1e16`` there, 1e-05 ``0.00001``, inf and nan ``null``) keeps repr."""
    column = np.ascontiguousarray(column, np.float64)  # orjson reads the buffer: C order, native bytes
    text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii").split(",")
    magnitude = np.abs(column)
    for i in np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16) | (column == 0.0))).tolist():
        text[i] = repr(column[i].item())
    return text


# one row's cells (every other entry, filled per chunk) and the separators after them
_ROW = ["", ","] * (len(TRACE_COLUMNS) - 1) + ["", "\r\n"]


def write_trace_csv(path, trace: Trace, x_values=None) -> None:
    """Write the fixed-schema trace CSV; ``x_values`` (one float per step) fills
    the x cells of a trace without samples, or they are empty. On a trace with
    samples, ``x_values`` must equal them bit for bit. Anything else is a ParameterError.

    Rows end in CRLF; floats are ``repr`` text (see :func:`_float_text`), ``in_switch``
    1/0. Each CHUNK_ROWS chunk is one joined write."""
    n = len(trace)
    with _replacing(path, encoding="ascii", newline="") as fh:
        samples = trace.x
        if x_values is not None:
            given = _exact("x", x_values, np.float64)
            if len(given) != n:
                raise ParameterError(f"x_values holds {len(given)} samples for {n} steps")
            if samples is not None and (off := _differs(given, samples)).any():
                k = int(off.argmax())
                raise ParameterError(f"x_values differ from the trace's samples at step {k}: "
                                     f"{given[k].item()!r} against {samples[k].item()!r}")
            samples = given
        fh.write(_HEADER_LINE)
        width = len(_ROW)
        for lo in range(0, n, CHUNK_ROWS):
            rows, hi = slice(lo, lo + CHUNK_ROWS), min(lo + CHUNK_ROWS, n)
            cells = _ROW * (hi - lo)
            cells[0::width] = map(str, range(lo, hi))
            cells[2::width] = _float_text(np.arange(lo, hi) * trace.params.delta)
            if samples is not None:
                cells[4::width] = _float_text(samples[rows])
            cells[6::width] = _float_text(trace.y[rows])
            cells[8::width] = map(_INT8_TEXT.__getitem__, trace.h[rows].tolist())
            cells[10::width] = _float_text(trace.m[rows])
            cells[12::width] = map(_INT8_TEXT.__getitem__, trace.in_switch[rows].tolist())
            fh.write("".join(cells))


def read_trace_csv(path, params: CodecParams) -> Trace:
    """Read a trace CSV back; codec params come from the caller (the CSV
    carries none). Files in the writer's form are parsed by numpy's C
    tokeniser; any other (LF line ends, quotes, whitespace, ...) goes to the
    row loop. Raises FormatError naming the file, and the row loop names the
    offending row where there is one: a row not of 7 cells is one, as is a
    mix of empty and filled x cells.
    """
    columns = _read_canonical_csv(path, params.delta) or _read_csv_rows(path, params.delta)
    return Trace.from_columns(params, **columns, substituted=None)


# The bytes a trace CSV in the writer's form holds after its header: digits,
# the float syntax of repr (signs, point, exponent, nan, inf), commas, CRLF.
_CANONICAL_BYTES = b"0123456789+-.eEnNaAiIfFtTyY,\r\n"


def _read_canonical_csv(path, delta: float) -> Optional[dict]:
    """The columns of a file in the writer's form, or None where the row loop
    might read other columns from it.

    After the header, no byte outside ``_CANONICAL_BYTES`` may occur (so no
    quote, ``#``, whitespace or non-ASCII), and there are 6 commas a line
    (``np.loadtxt`` reads no cell past the 7th). Its number cells accept a
    subset of what ``int``/``float`` accept, with equal values; a stray CR
    or a short row fails it, a blank line shows in the row count.
    ``h`` must be ``1``/``-1`` and ``in_switch`` ``1``/``0``, matched as text
    (loadtxt reads ``+1`` as 1), ``k`` plain digits (older numpy parses an
    int cell through float) running 0..n-1, ``t`` k*delta, and x all empty
    or all numbers.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER_LINE.encode("ascii")
    rows = data.count(b"\n") - data.endswith(b"\n")  # lines after the header
    if not data.startswith(header) or data.count(b",") != header.count(b",") * (rows + 1) or (
            data.translate(None, _CANONICAL_BYTES) != header.translate(None, _CANONICAL_BYTES)):
        return None
    x_empty = data[len(header):data.find(b"\n", len(header))].split(b",")[2:3] == [b""]
    width = len(str(rows)) + 1  # one more than any k in range, so none is cut
    fields = [("k", "i8"), ("k_text", f"S{width}"), ("t", "f8"), ("x", "S1" if x_empty else "f8"),
              ("y", "f8"), ("h", "S3"), ("m", "f8"), ("in_switch", "S2")]
    try:
        table = np.zeros(0, fields) if not rows else np.loadtxt(
            io.BytesIO(data), dtype=fields, delimiter=",", comments=None, skiprows=1,
            usecols=(0, 0, 1, 2, 3, 4, 5, 6), encoding="ascii", ndmin=1)
    except ValueError:
        return None
    k_text = np.ascontiguousarray(table["k_text"]).view(np.uint8).reshape(-1, width)
    h, switch = table["h"], table["in_switch"] == b"1"
    if (
        k_text[:, -1].any()
        or ((k_text - 48 > 9) & (k_text > 0)).any()  # a byte other than a digit or padding
        or not np.array_equal(table["k"], np.arange(rows))  # a skipped blank line fails this too
        or (table["t"] != np.arange(rows) * delta).any()
        or np.count_nonzero(h == b"1") + np.count_nonzero(h == b"-1") != rows
        or np.count_nonzero(switch) + np.count_nonzero(table["in_switch"] == b"0") != rows
        or (x_empty and (table["x"] != b"").any())
    ):
        return None
    return dict(x=None if x_empty else table["x"].copy(),
                y=table["y"].copy(), h=np.where(h == b"1", PLUS, MINUS).astype(np.int8),
                m=table["m"].copy(), in_switch=switch)


def _read_csv_rows(path, delta: float) -> dict:
    """The row loop behind :func:`read_trace_csv`: ``csv.reader`` over the
    file, one converted and checked row at a time. Row k+2 holds step k at
    time k*delta, and every x cell is empty, as on row 2, or none is."""
    rows: list[tuple] = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected header {TRACE_COLUMNS}")
            if header != TRACE_COLUMNS:
                raise FormatError(f"{path}: row 1: header {header} != {TRACE_COLUMNS}")
            for i, row in enumerate(reader, start=2):
                if len(row) != len(TRACE_COLUMNS):  # a cell too many would go unread
                    raise FormatError(f"{path}: row {i}: {len(row)} cells, expected {len(TRACE_COLUMNS)}")
                try:  # k, t, x, y, h, m, in_switch
                    cells = (int(row[0]), float(row[1]), float(row[2]) if row[2] else None,
                             float(row[3]), int(row[4]), float(row[5]), row[6] == "1")
                except ValueError as exc:
                    raise FormatError(f"{path}: row {i}: {exc}") from exc
                if cells[4] not in (1, -1):
                    raise FormatError(f"{path}: row {i}: h must be +1 or -1, got {row[4]}")
                if row[6] not in ("0", "1"):
                    raise FormatError(f"{path}: row {i}: in_switch must be 1 or 0, got {row[6]!r}")
                if cells[0] != len(rows):
                    raise FormatError(f"{path}: row {i}: step index {cells[0]}, expected {len(rows)}")
                if cells[1] != cells[0] * delta:
                    raise FormatError(f"{path}: row {i}: t={cells[1]!r} != k*delta={cells[0] * delta!r}")
                if rows and (cells[2] is None) != (rows[0][0] is None):  # samples at every step or at none
                    raise FormatError(f"{path}: row {i}: x cell {'filled' if row[2] else 'empty'}, unlike row 2's")
                rows.append(cells[2:])
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII trace CSV: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}: row {reader.line_num}: {exc}") from exc
    columns = dict(zip(("x", "y", "h", "m", "in_switch"), list(zip(*rows)) or [()] * 5))
    return {**columns, "x": None if rows and rows[0][0] is None else columns["x"]}


def write_json(path, document: dict) -> None:
    """Sorted-key JSON with a trailing newline, written atomically."""
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    with _replacing(path, encoding="utf-8") as fh:
        fh.write(text)


def simulation_document(result: SimulationResult) -> dict:
    """Report JSON body for one simulation run."""
    return {
        "codec": codec_to_dict(result.config.codec),
        "channel": channel_to_dict(result.config.channel),
        "horizon": result.config.horizon,
        "n_samples": len(result.samples),
        "n_bits": len(result.decoder_trace),
        "n_erasures": int(np.count_nonzero(result.decoder_trace.substituted)),
        "verification": result.report.to_dict(),
    }
