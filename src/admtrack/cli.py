"""Command-line front end.

Subcommands::

    admtrack simulate --config CFG [--out DIR] [overrides]
    admtrack verify   --config CFG [--trace CSV] [--out DIR] [overrides]
    admtrack compare  --config CFG [--out DIR] [overrides]
    admtrack encode   SAMPLES.csv --delta D --y0 Y0 --m0 M0 [--mbar M] [--a A] [--rule R] [--out DIR]
    admtrack decode   BITSTREAM.odm [--out DIR]

Codec overrides (--delta, --a, --m0, --mbar, --y0, --rule) and --seed (erasure
channels only) take precedence over config values. --out redirects output
files into DIR, keeping their configured base names.

Exit codes: 0 success / verified, 1 verification violations, 2 usage, config,
format, or I/O errors. ``verify`` exits 0 on a run that checked no claim too
(report status ``vacuous``), printing "no claim checked". A ``verify`` report's
top-level ``status`` is ``violated`` when a claim or the trace's consistency
check failed (exit 1), else its ``verification`` section's status.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import asdict, replace
from typing import Optional

from .codec import AdaptationRule, CodecParams, check_trace, codec_to_dict, decode_bitstream, encode_signal
from .channel import Erasure, read_bitstream, write_bitstream
from .errors import AdmTrackError, FormatError
from .harness import (
    ExperimentConfig,
    SimulationResult,
    load_config,
    read_trace_csv,
    run_compare,
    run_simulation,
    simulation_document,
    verify_run,
    write_json,
    write_trace_csv,
)
from .signals import SampledSignal, sample
from .theory import Violation

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    ``parse_args`` returns a fresh namespace on every call, so no value
    carries over from one :func:`main` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="admtrack",
        description="One-bit-per-sample signal tracking codec: simulate, verify, compare, encode, decode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, help="override sampling period")
        p.add_argument("--a", type=float, help="override adaptation factor")
        p.add_argument("--m0", type=float, help="override initial slope")
        p.add_argument("--mbar", type=float, help="override slope floor")
        p.add_argument("--y0", type=float, help="override initial estimate")
        p.add_argument("--rule", choices=["modified", "jayant"], help="override adaptation rule")
        p.add_argument("--seed", type=int, help="override erasure channel seed")

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="directory for output files")
        add_overrides(p)

    p_sim = sub.add_parser("simulate", help="run one experiment, write trace CSV and report JSON")
    p_sim.set_defaults(handler=cmd_simulate)
    add_config(p_sim)

    p_ver = sub.add_parser("verify", help="run and check the tracking guarantees (exit 1 on violations)")
    p_ver.set_defaults(handler=cmd_verify)
    add_config(p_ver)
    p_ver.add_argument("--trace", help="verify this existing trace CSV instead of simulating")

    p_cmp = sub.add_parser("compare", help="compare post-jump recovery against the baseline rule")
    p_cmp.set_defaults(handler=cmd_compare)
    add_config(p_cmp)

    p_enc = sub.add_parser("encode", help="encode a samples CSV into an ODM/1 bitstream")
    p_enc.set_defaults(handler=cmd_encode)
    p_enc.add_argument("samples", help="CSV with an 'x' column of grid samples")
    p_enc.add_argument("--out", help="directory for the bitstream file")
    p_enc.add_argument("--delta", type=float, required=True)
    p_enc.add_argument("--y0", type=float, required=True)
    p_enc.add_argument("--m0", type=float, required=True)
    p_enc.add_argument("--mbar", type=float, default=0.0)
    p_enc.add_argument("--a", type=float, default=1.5)
    p_enc.add_argument("--rule", choices=["modified", "jayant"], default="modified")

    p_dec = sub.add_parser("decode", help="decode an ODM/1 bitstream into a trace CSV")
    p_dec.set_defaults(handler=cmd_decode)
    p_dec.add_argument("bitstream", help="ODM/1 file")
    p_dec.add_argument("--out", help="directory for the trace CSV")

    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    codec = config.codec
    for name in ("delta", "a", "m0", "mbar", "y0"):
        value = getattr(args, name, None)
        if value is not None:
            codec = replace(codec, **{name: value})
    if getattr(args, "rule", None):
        codec = codec.with_rule(AdaptationRule(args.rule))
    channel = config.channel
    if getattr(args, "seed", None) is not None:
        if isinstance(channel, Erasure):
            channel = replace(channel, seed=args.seed)
        else:
            print("warning: --seed ignored for a noiseless channel", file=sys.stderr)
    return replace(config, codec=codec, channel=channel)


def _out_path(configured: str, out_dir: Optional[str]) -> str:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, os.path.basename(configured))
    return configured


def _write_run(result: SimulationResult, out_dir: Optional[str], **extra) -> tuple[str, str]:
    """Write a run's trace CSV and its report JSON (the simulation document
    plus ``extra``); return (trace path, report path)."""
    trace_path = _out_path(result.config.outputs.trace_csv, out_dir)
    report_path = _out_path(result.config.outputs.report_json, out_dir)
    write_trace_csv(trace_path, result.decoder_trace, x_values=result.samples.values)
    write_json(report_path, {**simulation_document(result), **extra})
    return trace_path, report_path


def cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    result = run_simulation(config)
    trace_path, report_path = _write_run(result, args.out)
    print(f"{len(result.decoder_trace)} bits over {config.horizon}s -> {trace_path}, {report_path}")
    return 0


def cmd_verify(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if args.trace:
        samples = sample(config.signal, config.codec.delta, config.horizon)
        trace = read_trace_csv(args.trace, config.codec)
        report = verify_run(config, trace, samples)
    else:
        result = run_simulation(config)
        trace, report = result.decoder_trace, result.report
    consistency = [Violation("trace_consistency", k, msg) for k, msg in check_trace(trace)]
    # the run's status: the claims' unless the trace is inconsistent with its own bits or samples
    document = {"trace_consistency": [asdict(v) for v in consistency],
                "status": "violated" if consistency else report.status}
    if args.trace:
        report_path = _out_path(config.outputs.report_json, args.out)
        write_json(report_path, {"codec": codec_to_dict(config.codec), "trace": args.trace,
                                 "verification": report.to_dict(), **document})
    else:
        _, report_path = _write_run(result, args.out, **document)

    for claim, reason in report.not_applicable:
        print(f"warning: claim {claim!r} not applicable: {reason}", file=sys.stderr)
    violations = report.violations + consistency
    if violations:
        for violation in violations:
            print(f"violation: {violation.claim} at step {violation.step}: {violation.detail}")
        print(f"{len(violations)} violation(s) -> {report_path}")
        return 1
    # a run that checked no claim exits 0 too, but does not read as one that held them all
    print(f"{'no claim checked' if report.status == 'vacuous' else 'all applicable claims hold'} -> {report_path}")
    return 0


def cmd_compare(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run_compare(config)
    report_path = _out_path(config.outputs.report_json, args.out)
    write_json(report_path, asdict(report))

    def show(steps):
        return "unrecovered within horizon" if steps is None else f"{steps} steps"

    print(
        f"jump at t={report.jump_time}: {config.codec.rule.value} recovers in "
        f"{show(report.recovery_steps_modified)}, {report.baseline_rule.value} baseline in "
        f"{show(report.recovery_steps_baseline)} (band {report.band:.4g})"
    )
    return 0


def _read_samples_csv(path) -> list[float]:
    """Read the 'x' column; a zero-byte or header-only file is empty."""
    # utf-8-sig drops the byte-order mark spreadsheet exports start with
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                return []
            if "x" not in reader.fieldnames:
                raise FormatError(f"{path}: row 1: no 'x' column in {reader.fieldnames}")
            values = []
            for i, row in enumerate(reader, start=2):
                try:
                    values.append(float(row["x"]))
                except (TypeError, ValueError) as exc:
                    raise FormatError(f"{path}: row {i}: bad sample {row.get('x')!r}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a UTF-8 samples CSV: {exc}") from exc
        except csv.Error as exc:
            # DictReader.line_num lags a row that fails to parse; its reader's does not
            raise FormatError(f"{path}: row {reader.reader.line_num}: {exc}") from exc
    return values


def cmd_encode(args) -> int:
    params = CodecParams(
        y0=args.y0,
        m0=args.m0,
        mbar=args.mbar,
        a=args.a,
        delta=args.delta,
        rule=AdaptationRule(args.rule),
    )
    values = _read_samples_csv(args.samples)
    samples = SampledSignal(delta=args.delta, values=values)
    bits, _ = encode_signal(params, samples)
    stem = os.path.splitext(os.path.basename(args.samples))[0]
    out_path = _out_path(f"{stem}.odm", args.out or os.path.dirname(args.samples) or ".")
    write_bitstream(out_path, params, bits)
    print(f"{len(bits)} bits -> {out_path}")
    return 0


def cmd_decode(args) -> int:
    params, bits = read_bitstream(args.bitstream)
    trace = decode_bitstream(params, bits)
    stem = os.path.splitext(os.path.basename(args.bitstream))[0]
    out_path = _out_path(f"{stem}_trace.csv", args.out or os.path.dirname(args.bitstream) or ".")
    write_trace_csv(out_path, trace)
    print(f"{len(bits)} bits -> {out_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AdmTrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
