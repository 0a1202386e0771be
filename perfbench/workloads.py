"""The benchmark's four workloads.

Each workload builds its inputs from a seed in ``__init__`` (that is the
set-up ``setup_s`` measures), runs one pass with ``run`` (the timed part) and
checks the pass's outputs with ``check`` (untimed). Every call into a layer
of admtrack goes through the tracer, which records a span named
``<layer>.<function>`` when tracing is on and costs nothing when it is off.

All four are closed loops with one caller, one process and one thread.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import admtrack as A
from admtrack.cli import main as cli_main
from admtrack.harness import config_from_dict

OVERSAMPLE = 32
# fit_growth_bound and verify_growth are O(n^2), so they run on a fixed prefix
GROWTH_PREFIX = 2_000


def bits_digest(bits) -> str:
    return hashlib.sha256(np.asarray(bits, dtype=np.int8).tobytes()).hexdigest()


def trace_columns(trace: A.Trace) -> dict:
    records = trace.records
    n = len(records)
    return {
        "k": np.fromiter((r.k for r in records), np.int64, n),
        "t": np.fromiter((r.t for r in records), np.float64, n),
        "y": np.fromiter((r.y for r in records), np.float64, n),
        "h": np.fromiter((r.h for r in records), np.int8, n),
        "m": np.fromiter((r.m for r in records), np.float64, n),
        "in_switch": np.fromiter((r.in_switch for r in records), np.bool_, n),
    }


def trace_digest(columns: dict) -> str:
    """sha256 over the codec columns k, y, h, m, in_switch."""
    h = hashlib.sha256()
    for name in ("k", "y", "h", "m", "in_switch"):
        h.update(columns[name].tobytes())
    return h.hexdigest()


def same_columns(a: dict, b: dict, names=("k", "t", "y", "h", "m", "in_switch")) -> bool:
    return all(np.array_equal(a[name], b[name]) for name in names)


class SineVerify:
    """configs/sine_steady.json stretched: every claim applies, so the
    certificate, the verifier, check_trace and CSV I/O dominate the pass."""

    name = "sine_verify"
    default_steps = 10_000
    delta = 0.01
    growth = A.GrowthBound(scale=8.0, exponent=1.0)

    def __init__(self, seed: int, steps: int) -> None:
        rng = np.random.default_rng(seed)
        # amplitude <= 1 keeps the variation rate 2*pi*A <= Mbar/2
        self.spec = A.Sine(
            amplitude=float(rng.uniform(0.8, 1.0)),
            frequency_hz=1.0,
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        self.params = A.CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=self.delta)
        self.horizon = steps * self.delta
        self.steps = A.sample_count(self.delta, self.horizon)

    def run(self, tr, workdir: str) -> dict:
        call = tr.call
        params = self.params
        samples = call("signals.sample", A.sample, self.spec, self.delta, self.horizon)
        window = (0.0, len(samples) * self.delta)
        variation = call(
            "signals.estimate_variation_bound",
            A.estimate_variation_bound, self.spec, self.delta, window, OVERSAMPLE,
        )
        bits, enc = call("codec.encode_signal", A.encode_signal, params, samples)
        received = call("channel.transmit", A.transmit, bits, A.Noiseless())
        dec = call("codec.decode_bitstream", A.decode_bitstream, params, list(received.symbols))
        report = call(
            "theory.verify_theorem", A.verify_theorem, dec, samples, variation,
            growth=self.growth, oversample_factor=OVERSAMPLE,
        )
        csv_path = os.path.join(workdir, "sine_trace.csv")
        call("harness.write_trace_csv", A.write_trace_csv, csv_path, dec, x_values=samples.values)
        read = call("harness.read_trace_csv", A.read_trace_csv, csv_path, params)
        problems = call("codec.check_trace", A.check_trace, read)
        prefix = A.SampledSignal(self.delta, samples.values[:GROWTH_PREFIX], self.spec)
        call("signals.fit_growth_bound", A.fit_growth_bound, prefix)
        growth_violations = call("signals.verify_growth", A.verify_growth, prefix, self.growth)
        return {
            "bits": bits, "enc": enc, "dec": dec, "read": read, "report": report,
            "problems": problems, "growth_violations": growth_violations,
            "csv_bytes": os.path.getsize(csv_path),
        }

    def check(self, out: dict) -> tuple[list[str], dict, dict]:
        report = out["report"]
        enc, dec = trace_columns(out["enc"]), trace_columns(out["dec"])
        failures = []
        if not same_columns(enc, dec):
            failures.append("decoder trace differs from encoder trace")
        if out["problems"]:
            failures.append(f"check_trace found {len(out['problems'])} problems")
        if report.violations:
            failures.append(f"verify_theorem found {len(report.violations)} violations")
        if len(report.checked) != 8:
            failures.append(f"verify_theorem checked {report.checked}, expected all 8 claims")
        if not same_columns(dec, trace_columns(out["read"])):
            failures.append("CSV round trip changed k, t, y, h, m or in_switch")
        if out["growth_violations"]:
            failures.append("the growth certificate fails on the prefix")
        digests = {"bits": bits_digest(out["bits"]), "trace": trace_digest(enc)}
        counts = {
            "theory.violations": len(report.violations),
            "theory.claims_checked": len(report.checked),
            "theory.claims_not_applicable": len(report.not_applicable),
            "harness.csv_bytes_per_step": out["csv_bytes"] / self.steps,
        }
        return failures, digests, counts

    def coded_bits(self, out: dict):
        return self.params, out["bits"]


class JumpTrain:
    """Constants and gentle ramps with a jump at every segment start.

    Each segment is certified and verified on its own (the restart reading),
    so the verifier runs as many short suffix checks; the Jayant branch of the
    codec runs alongside the modified rule.
    """

    name = "jump_train"
    default_steps = 5_000
    delta = 0.04
    segment_steps = 200
    max_slope = 0.03  # keeps the certified rate below Mbar/2 = 0.04

    def __init__(self, seed: int, steps: int) -> None:
        rng = np.random.default_rng(seed)
        segment_s = self.segment_steps * self.delta
        n_segments = max(steps // self.segment_steps, 2)
        segments = []
        end_value = None
        for i in range(n_segments):
            level = float(rng.uniform(-3.0, 3.0))
            while end_value is not None and abs(level - end_value) < 0.5:
                level = float(rng.uniform(-3.0, 3.0))
            # constants and ramps alternate, so every seed evaluates the same mix
            if i % 2 == 0:
                child = A.Constant(level=level)
                end_value = level
            else:
                slope = float(rng.uniform(-self.max_slope, self.max_slope))
                child = A.Ramp(slope=slope, intercept=level)
                end_value = child.at(segment_s)
            segments.append((i * segment_s, child))
        self.spec = A.Piecewise(segments=tuple(segments))
        self.horizon = n_segments * segment_s
        self.steps = A.sample_count(self.delta, self.horizon)
        self.params = A.CodecParams(y0=0.0, m0=0.08, mbar=0.08, a=1.5, delta=self.delta)
        self.jayant = self.params.with_rule(A.AdaptationRule.JAYANT)
        self.band = (self.params.a * self.params.mbar + self.max_slope) * self.delta

    def run(self, tr, workdir: str) -> dict:
        call = tr.call
        delta = self.delta
        samples = call("signals.sample", A.sample, self.spec, delta, self.horizon)
        n = len(samples)
        bits, enc = call("codec.encode_signal", A.encode_signal, self.params, samples)
        bits_j, enc_j = call("codec.encode_signal_jayant", A.encode_signal, self.jayant, samples)
        dec = call("codec.decode_bitstream", A.decode_bitstream, self.params, bits)
        dec_j = call("codec.decode_bitstream", A.decode_bitstream, self.jayant, bits_j)

        jumps = [t for t, _ in call("signals.discontinuities", A.discontinuities, self.spec)]
        starts = [call("theory.restart_index", A.restart_index, delta, t) for t in jumps]
        recovery = {}
        for rule, trace in (("modified", enc), ("jayant", enc_j)):
            errors = [abs(x - r.y) for x, r in zip(samples.values, trace.records)]
            recovery[rule] = [
                call("harness.recovery_steps", A.recovery_steps, errors, k, self.band)
                for k in starts
            ]

        # segment i runs from its jump to the last full cell before the next
        # one; a prefix ending on the jump cell would see the jump itself
        seg_times = [0.0] + jumps
        seg_starts = [0] + starts
        seg_ends = [k - 1 for k in starts] + [n]
        reports = []
        for t0, k0, k1 in zip(seg_times, seg_starts, seg_ends):
            variation = call(
                "signals.estimate_variation_bound",
                A.estimate_variation_bound, self.spec, delta, (t0, k1 * delta), OVERSAMPLE,
            )
            prefix = A.Trace(params=self.params, records=dec.records[:k1])
            prefix_samples = A.SampledSignal(delta, samples.values[:k1], self.spec)
            reports.append(call(
                "theory.verify_theorem", A.verify_theorem, prefix, prefix_samples, variation,
                oversample_factor=OVERSAMPLE, start_index=k0,
            ))
        return {
            "bits": bits, "bits_j": bits_j, "enc": enc, "enc_j": enc_j,
            "dec": dec, "dec_j": dec_j, "recovery": recovery, "reports": reports,
        }

    def check(self, out: dict) -> tuple[list[str], dict, dict]:
        failures = []
        digests = {}
        for rule, suffix in (("modified", ""), ("jayant", "_j")):
            enc = trace_columns(out["enc" + suffix])
            if not same_columns(enc, trace_columns(out["dec" + suffix])):
                failures.append(f"{rule}: decoder trace differs from encoder trace")
            digests[f"{rule}.bits"] = bits_digest(out["bits" + suffix])
            digests[f"{rule}.trace"] = trace_digest(enc)
            digests[f"{rule}.recovery_steps"] = out["recovery"][rule]
        if A.check_trace(out["dec"]):
            failures.append("check_trace found problems in the decoder trace")
        reports = out["reports"]
        violations = sum(len(r.violations) for r in reports)
        checked = sum(len(r.checked) for r in reports)
        if violations:
            failures.append(f"verify_theorem found {violations} violations over the segments")
        if checked != 7 * len(reports):
            failures.append(f"{checked} claims checked, expected 7 x {len(reports)} segments")
        counts = {
            "theory.violations": violations,
            "theory.claims_checked": checked,
            "theory.claims_not_applicable": sum(len(r.not_applicable) for r in reports),
        }
        return failures, digests, counts

    def coded_bits(self, out: dict):
        return self.params, out["bits"]


class StreamCodec:
    """A sample stream with no signal spec, coded one step at a time.

    No certificate or verifier runs, so verifier changes must leave this
    workload unchanged; it also times the per-step API call by call.
    """

    name = "stream_codec"
    default_steps = 25_000
    erasure_p = 0.05

    def __init__(self, seed: int, steps: int) -> None:
        rng = np.random.default_rng(seed)
        # increments of at most 0.05 per 0.01 s step: a rate of 5, Mbar = 2 * 5
        self.values = np.cumsum(rng.uniform(-0.05, 0.05, steps)).tolist()
        self.steps = steps
        self.params = A.CodecParams(y0=0.0, m0=10.0, mbar=10.0, a=1.5, delta=0.01)
        self.channel = A.Erasure(p=self.erasure_p, seed=seed)

    def run(self, tr, workdir: str) -> dict:
        call = tr.call
        params = self.params
        encode_step = tr.wrap("codec.encode_step", A.encode_step)
        decode_step = tr.wrap("codec.decode_step", A.decode_step)
        clock = time.perf_counter_ns
        enc_state = A.init_state(params)
        dec_state = A.init_state(params)
        bits, enc_records, dec_records = [], [], []
        latency = np.empty(len(self.values), dtype=np.int64)
        for i, x in enumerate(self.values):
            t0 = clock()
            enc_state, h, enc_record = encode_step(enc_state, x)
            dec_state, dec_record = decode_step(dec_state, h)
            latency[i] = clock() - t0
            bits.append(h)
            enc_records.append(enc_record)
            dec_records.append(dec_record)
        enc = A.Trace(params=params, records=tuple(enc_records))
        dec = A.Trace(params=params, records=tuple(dec_records))

        odm_path = os.path.join(workdir, "stream.odm")
        call("channel.write_bitstream", A.write_bitstream, odm_path, params, bits)
        read_params, read_bits = call("channel.read_bitstream", A.read_bitstream, odm_path)
        received = call("channel.transmit", A.transmit, bits, self.channel)
        erased = call("channel.decode_with_erasures", A.decode_with_erasures, params, received)
        problems = call("codec.check_trace", A.check_trace, enc)
        return {
            "bits": bits, "enc": enc, "dec": dec, "read_params": read_params,
            "read_bits": read_bits, "received": received, "erased": erased,
            "problems": problems, "latency_ns": latency,
            "odm_bytes": os.path.getsize(odm_path),
        }

    def check(self, out: dict) -> tuple[list[str], dict, dict]:
        failures = []
        enc = trace_columns(out["enc"])
        if not same_columns(enc, trace_columns(out["dec"])):
            failures.append("decoder trace differs from encoder trace")
        if out["problems"]:
            failures.append(f"check_trace found {len(out['problems'])} problems")
        if out["read_bits"] != out["bits"] or out["read_params"] != self.params:
            failures.append("ODM/1 round trip changed the bits or the parameters")
        received = out["received"].symbols
        if any(r is not None and r != b for r, b in zip(received, out["bits"])):
            failures.append("the erasure channel flipped a symbol")
        n_erased = sum(r is None for r in received)
        substituted = sum(r.substituted for r in out["erased"].records)
        if substituted != n_erased:
            failures.append(f"{substituted} substituted steps for {n_erased} erasures")
        digests = {
            "bits": bits_digest(out["bits"]),
            "trace": trace_digest(enc),
            "erasure_trace": trace_digest(trace_columns(out["erased"])),
        }
        counts = {
            "channel.erased": n_erased,
            "channel.odm_bytes_per_step": out["odm_bytes"] / self.steps,
        }
        return failures, digests, counts

    def coded_bits(self, out: dict):
        return self.params, out["bits"]


class CliConfigs:
    """``admtrack`` subcommands in-process over the checked-in configs.

    Runs are 50 to 400 steps long, so argument parsing, config parsing,
    report JSON and file replacement are a visible share: fixed costs show
    here and per-step speed-ups barely do. The configs are the inputs, so
    the seed changes nothing here.
    """

    name = "cli_configs"
    default_steps = None

    def __init__(self, config_dir: str) -> None:
        self.configs = []
        self.steps = 0
        for path in sorted(os.listdir(config_dir)):
            if not path.endswith(".json"):
                continue
            path = os.path.join(config_dir, path)
            with open(path, encoding="utf-8") as fh:
                config = config_from_dict(json.load(fh))
            n = A.sample_count(config.codec.delta, config.horizon)
            compare = config.comparison is not None
            # simulate, verify and verify --trace each run n steps; compare runs two rules
            self.steps += 3 * n + (2 * n if compare else 0)
            self.configs.append((path, os.path.basename(config.outputs.trace_csv), compare))
        if not self.configs:
            raise FileNotFoundError(f"no configs in {config_dir}")

    def run(self, tr, workdir: str) -> dict:
        sink = io.StringIO()
        codes = []
        for path, trace_name, compare in self.configs:
            base = ["--config", path, "--out", workdir]
            invocations = [
                ("simulate", ["simulate"] + base),
                ("verify", ["verify"] + base),
                ("verify_trace", ["verify"] + base + ["--trace", os.path.join(workdir, trace_name)]),
            ]
            if compare:
                invocations.append(("compare", ["compare"] + base))
            for kind, argv in invocations:
                sink.seek(0)
                sink.truncate()
                try:
                    with redirect_stdout(sink), redirect_stderr(sink):
                        code = tr.call(f"cli.{kind}", cli_main, argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # an escaped exception is a failed invocation
                    code = f"{type(exc).__name__}: {exc}"
                codes.append((os.path.basename(path), kind, code))
        return {"codes": codes}

    def check(self, out: dict) -> tuple[list[str], dict, dict]:
        # exit 1 (violations found) is a verdict on the run, not a failure
        failures = [f"{c} {k} exited with {code!r}" for c, k, code in out["codes"] if code not in (0, 1)]
        counts = {"cli.exit1": sum(code == 1 for _, _, code in out["codes"])}
        return failures, {}, counts

    def coded_bits(self, out: dict):
        return None

    def ops(self, out: dict) -> int:
        return len(out["codes"])


WORKLOADS = {w.name: w for w in (SineVerify, JumpTrain, StreamCodec, CliConfigs)}
