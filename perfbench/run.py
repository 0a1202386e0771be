"""admtrack benchmark runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sine_verify --seed 3 --seconds 55 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``sine_verify``  - sample, certify, encode, transmit, decode, verify all
  eight claims, trace CSV round trip, check_trace, growth certificates on a
  fixed prefix.
* ``jump_train``   - piecewise constants and ramps with a jump every 200
  steps; both adaptation rules, recovery after every jump, and a certificate
  and a restart-reading verification per segment.
* ``stream_codec`` - a spec-less sample stream through encode_step and
  decode_step in lockstep, ODM/1 round trip, an erasure channel and
  check_trace.
* ``cli_configs``  - ``admtrack`` simulate / verify / verify --trace /
  compare in-process over every config in ``configs/``.

``BENCHMARK.json`` gates sine_verify and cli_configs; jump_train and
stream_codec are run by hand.

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` measures peak memory with tracemalloc in one untimed pass,
then alternates untraced and traced passes and prints the per-layer metrics,
derived from spans around every call into admtrack, plus the tracing
overhead. Every pass is checked: the encoder and decoder traces must
agree, check_trace must find nothing, the verifier must find no violation
and check every claim, ODM/1 and CSV files must round-trip. Before timing,
one pass at the default seed and size is compared with ``goldens.json``
(sha256 of the bits and of the trace columns k, y, h, m, in_switch).

``--steps`` changes the grid steps per pass for a manual size sweep; the
gating runs use each workload's default. ``--write-goldens`` records the
golden digests anew and should only follow an intended change of codec
output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name and unit. Spans of a traced run are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDENS = os.path.join(HERE, "goldens.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# a p90 needs at least ten rounds beyond it
MIN_CLI_ROUNDS = 100
WORKLOAD_NAMES = ["sine_verify", "jump_train", "stream_codec", "cli_configs"]

END_TO_END = [
    ("steps_per_s", "steps/s"),
    ("setup_s", "s"),
]

# (metric, unit, how it is derived, span or counter name)
PER_LAYER = [
    # tracemalloc slows a pass about ninefold; the traced run pays for that
    # extra pass, so that untraced runs keep a long timed window
    ("peak_bytes_per_step", "B/step", "counter", "peak_bytes_per_step"),
    ("signals.sample.us_per_step", "us/step", "per_step", "signals.sample"),
    ("signals.estimate_variation_bound.us_per_step", "us/step", "per_step", "signals.estimate_variation_bound"),
    ("signals.estimate_variation_bound.calls", "count", "calls", "signals.estimate_variation_bound"),
    ("signals.fit_growth_bound.ms", "ms", "ms", "signals.fit_growth_bound"),
    ("signals.verify_growth.ms", "ms", "ms", "signals.verify_growth"),
    ("codec.encode_signal.us_per_step", "us/step", "per_step", "codec.encode_signal"),
    ("codec.encode_signal_jayant.us_per_step", "us/step", "per_step", "codec.encode_signal_jayant"),
    ("codec.decode_bitstream.us_per_step", "us/step", "per_step", "codec.decode_bitstream"),
    ("codec.encode_step.us_p50", "us", "p50_us", "codec.encode_step"),
    ("codec.decode_step.us_p50", "us", "p50_us", "codec.decode_step"),
    ("codec.check_trace.us_per_step", "us/step", "per_step", "codec.check_trace"),
    ("codec.trace_bytes_per_step", "B/step", "counter", "codec.trace_bytes_per_step"),
    ("channel.transmit.us_per_step", "us/step", "per_step", "channel.transmit"),
    ("channel.decode_with_erasures.us_per_step", "us/step", "per_step", "channel.decode_with_erasures"),
    ("channel.write_bitstream.us_per_step", "us/step", "per_step", "channel.write_bitstream"),
    ("channel.read_bitstream.us_per_step", "us/step", "per_step", "channel.read_bitstream"),
    ("channel.erased", "count", "counter", "channel.erased"),
    ("channel.odm_bytes_per_step", "B/step", "counter", "channel.odm_bytes_per_step"),
    ("theory.verify_theorem.us_per_step", "us/step", "per_step", "theory.verify_theorem"),
    ("theory.verify_theorem.calls", "count", "calls", "theory.verify_theorem"),
    ("theory.violations", "count", "counter", "theory.violations"),
    ("theory.claims_checked", "count", "counter", "theory.claims_checked"),
    ("theory.claims_not_applicable", "count", "counter", "theory.claims_not_applicable"),
    ("harness.write_trace_csv.us_per_step", "us/step", "per_step", "harness.write_trace_csv"),
    ("harness.read_trace_csv.us_per_step", "us/step", "per_step", "harness.read_trace_csv"),
    ("harness.csv_bytes_per_step", "B/step", "counter", "harness.csv_bytes_per_step"),
    ("harness.recovery_steps.us_per_step", "us/step", "per_step", "harness.recovery_steps"),
    ("cli.simulate.ms_p50", "ms", "p50_ms", "cli.simulate"),
    ("cli.verify.ms_p50", "ms", "p50_ms", "cli.verify"),
    ("cli.verify_trace.ms_p50", "ms", "p50_ms", "cli.verify_trace"),
    ("cli.compare.ms_p50", "ms", "p50_ms", "cli.compare"),
    ("cli.exit1", "count", "counter", "cli.exit1"),
    ("bench.glue.us_per_step", "us/step", "per_step", "pass"),
    ("tracing.overhead_ms", "ms", "overhead", None),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0, help="how long to time passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steps", type=int, help="grid steps per pass (default: the workload's)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import admtrack, build the inputs and exit (timed by setup_s)")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the workload's goldens at the default seed and size, then exit")
    args = parser.parse_args(argv)
    if args.steps is not None and (args.steps < 1 or args.workload == "cli_configs"):
        parser.error("--steps takes a positive count and does not apply to cli_configs")
    return args


def import_admtrack():
    """Import admtrack from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "admtrack", "__init__.py")):
        sys.exit(f"error: no admtrack sources under {SRC}")
    sys.path.insert(0, SRC)
    import admtrack

    if not os.path.abspath(admtrack.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: admtrack imported from {admtrack.__file__}, not {SRC}")


def build(name: str, seed: int, steps):
    from workloads import WORKLOADS, CliConfigs

    cls = WORKLOADS[name]
    if cls is CliConfigs:
        return CliConfigs(os.path.join(ROOT, "configs"))
    return cls(seed, steps or cls.default_steps)


class Run:
    """Runs passes of one workload, counts ops and checks every output."""

    def __init__(self, workload, workdir: str, expected) -> None:
        self.workload = workload
        self.workdir = workdir
        # golden digests, or None until the first pass sets the reference
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer):
        """One timed pass; returns (seconds, outputs) or None if it failed."""
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer.enabled:
                out = tracer.call("pass", self.workload.run, tracer, self.workdir)
            else:
                out = self.workload.run(tracer, self.workdir)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        return time.perf_counter() - start, out

    def check(self, out):
        """Check one pass's outputs; returns its counters, or None if it failed."""
        failures, digests, counts = self.workload.check(out)
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            bad = sorted(k for k in set(digests) | set(self.expected) if digests.get(k) != self.expected.get(k))
            failures.append(f"outputs differ from the reference digests: {bad}")
        ops = self.workload.ops(out) if hasattr(self.workload, "ops") else 1
        self.attempted += ops
        self.failed += min(len(failures), ops)
        for failure in failures:
            print(f"check failed: {self.workload.name}: {failure}", file=sys.stderr)
        return None if failures else counts

    def checked_pass(self, tracer):
        result = self.run_pass(tracer)
        if result is None:
            return None
        seconds, out = result
        counts = self.check(out)
        return None if counts is None else (seconds, out, counts)


def measure_setup(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.steps is not None:
        cmd += ["--steps", str(args.steps)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_bytes(run: Run, tracer):
    """tracemalloc peak of one untimed pass, above what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run.run_pass(tracer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    if result is None or run.check(result[1]) is None:
        return None
    return peak


def retained_trace_bytes(coded) -> float:
    """Bytes a decoded Trace keeps alive, per step; ``coded`` is (params, bits)."""
    from admtrack import decode_bitstream

    if coded is None:
        return 0.0
    params, bits = coded
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = decode_bitstream(params, bits)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del trace
    return (after - before) / len(bits)


def timed_loop(run: Run, seconds: float, min_passes: int, tracers, keep):
    """Cycle through ``tracers`` pass by pass for ``seconds``. Returns the
    successful passes as (tracer index, seconds, counters, keep(outputs));
    the outputs themselves are dropped as they come."""
    passes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < min_passes:
        which = i % len(tracers)
        result = run.checked_pass(tracers[which])
        if result is not None:
            seconds_, out, counts = result
            passes.append((which, seconds_, counts, keep(out)))
        result = out = None
        i += 1
    return passes


def end_to_end(args, run: Run, workload) -> tuple[dict, list]:
    """Gated metrics, plus the workload-specific ones, which are printed only."""
    from spans import NullTracer

    null = NullTracer()
    stream = workload.name == "stream_codec"
    cli = workload.name == "cli_configs"
    keep = (lambda out: out["latency_ns"]) if stream else (lambda out: None)
    passes = timed_loop(run, args.seconds, MIN_CLI_ROUNDS if cli else 1, [null], keep)
    setup = measure_setup(args)
    if not passes:
        return {}, []
    steps = workload.steps
    times = [seconds for _, seconds, _, _ in passes]
    metrics = {
        "steps_per_s": statistics.median(steps / s for s in times),
        "setup_s": setup,
    }
    na = "n/a"
    latency = np.concatenate([lat for _, _, _, lat in passes]) / 1e3 if stream else None
    rounds = np.array(times) * 1e3
    claims = passes[-1][2].get("theory.claims_checked", na)
    report = [
        ("timed passes", len(passes), "count"),
        ("step_latency_us_p50", float(np.percentile(latency, 50)) if stream else na, "us"),
        ("step_latency_us_p99", float(np.percentile(latency, 99)) if stream else na, "us"),
        ("cli_round_ms_p50", float(np.percentile(rounds, 50)) if cli else na, "ms"),
        ("cli_round_ms_p90", float(np.percentile(rounds, 90)) if cli else na, "ms"),
        ("claims_checked", claims, "count/pass"),
        ("peak_bytes_per_step", "--trace 1", "B/step"),
    ]
    return metrics, report


def per_layer(args, run: Run, workload) -> tuple[dict, list]:
    from spans import NullTracer, Tracer, durations, per_pass

    peak = peak_bytes(run, NullTracer())
    tracer = Tracer()
    passes = timed_loop(run, args.seconds, 2, [NullTracer(), tracer], workload.coded_bits)
    plain = [s for which, s, _, _ in passes if which == 0]
    traced = [s for which, s, _, _ in passes if which == 1]
    if not plain or not traced or peak is None:
        return {}, []
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}.npz")
    tracer.save(spans_path)
    spans = tracer.arrays()
    roots = np.nonzero(spans["parent"] == -1)[0]
    counts = dict(passes[-1][2])
    counts["codec.trace_bytes_per_step"] = retained_trace_bytes(passes[-1][3])
    counts["peak_bytes_per_step"] = peak / workload.steps
    steps = workload.steps
    metrics = {}
    for metric, _, how, source in PER_LAYER:
        if how in ("per_step", "calls", "ms"):
            values = per_pass(spans, source, roots)
            if how == "per_step":
                value = statistics.median(ns / 1e3 / steps for ns, _ in values)
            elif how == "calls":
                value = statistics.median(calls for _, calls in values)
            else:
                value = statistics.median(ns / 1e6 for ns, _ in values)
        elif how in ("p50_us", "p50_ms"):
            d = durations(spans, source)
            value = float(np.median(d)) / (1e3 if how == "p50_us" else 1e6) if len(d) else 0.0
        elif how == "counter":
            value = counts.get(source, 0)
        else:
            value = (statistics.median(traced) - statistics.median(plain)) * 1e3
        metrics[metric] = float(value)
    report = [("traced passes", len(traced), "count"), ("untraced passes", len(plain), "count"),
              ("spans", len(spans["parent"]), "count"),
              ("spans file", os.path.relpath(spans_path, ROOT), "")]
    return metrics, report


def write_goldens(names) -> int:
    from spans import NullTracer
    from workloads import WORKLOADS

    goldens = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
    workdir = os.path.join(OUT, f"goldens-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in names:
            if WORKLOADS[name].default_steps is None:
                continue  # cli_configs has no codec output of its own
            workload = build(name, DEFAULT_SEED, None)
            failures, digests, _ = workload.check(workload.run(NullTracer(), workdir))
            if failures:
                print(f"error: {name}: {failures}", file=sys.stderr)
                return 1
            goldens[name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDENS, ROOT)} for {', '.join(names)}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.steps is not None and name != "cli_configs":
            cmd += ["--steps", str(args.steps)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    import_admtrack()
    if args.write_goldens:
        return write_goldens(WORKLOAD_NAMES if args.workload == "all" else [args.workload])
    if args.workload == "all":
        return run_all(args)
    workload = build(args.workload, args.seed, args.steps)
    if args.setup_only:
        return 0
    from spans import NullTracer

    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh).get(workload.name, {})
    workdir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # the golden pass doubles as warm-up; passes at another seed or size
        # must reproduce the digests of their own first pass
        golden_run = Run(build(args.workload, DEFAULT_SEED, None), workdir, goldens)
        golden_run.checked_pass(NullTracer())
        is_default = args.seed == DEFAULT_SEED and args.steps is None
        run = Run(workload, workdir, goldens if is_default else None)
        if args.trace:
            metrics, report = per_layer(args, run, workload)
            units = {m: u for m, u, _, _ in PER_LAYER}
        else:
            metrics, report = end_to_end(args, run, workload)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("error: no pass succeeded", file=sys.stderr)
        return 1
    attempted = golden_run.attempted + run.attempted
    failed = golden_run.failed + run.failed
    report.append(("failure_ratio", failed / attempted, "failed/attempted"))

    print(f"workload {workload.name}  seed {args.seed}  steps/pass {workload.steps}  "
          f"trace {args.trace}  ops {attempted} attempted, {failed} failed")
    for name, value, unit in [(m, v, units[m]) for m, v in metrics.items()] + report:
        shown = f"{value:16.6g}" if isinstance(value, float) else f"{value:>16}"
        print(f"  {name:46s} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
