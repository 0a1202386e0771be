"""Experiment orchestration, file I/O, and the command-line interface."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admtrack import (
    AdaptationRule,
    CodecParams,
    ComparisonSettings,
    Constant,
    ExperimentConfig,
    FormatError,
    ParameterError,
    Piecewise,
    Ramp,
    Trace,
    decode_bitstream,
    load_config,
    read_trace_csv,
    recovery_steps,
    run_compare,
    run_simulation,
    write_bitstream,
    write_trace_csv,
)
from admtrack.cli import _build_parser, main
import admtrack.harness as harness
from admtrack.harness import TRACE_COLUMNS, config_from_dict, write_json

from conftest import HAND_BODY

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

JUMP_SIGNAL = Piecewise(segments=((0.0, Constant(2.0)), (1.0, Ramp(slope=0.03, intercept=-1.0))))
PAPER_CODEC = CodecParams(y0=5.0, m0=0.08, mbar=0.08, a=1.5, delta=0.04)
# an ODM/1 header without its count: the hand trace's parameters
HEADER = '{"M0": 1.0, "Mbar": 1.0, "a": 2.0, "delta": 1.0, "rule": "modified", "y0": 0.0}'


def jump_config(**overrides):
    base = dict(signal=JUMP_SIGNAL, codec=PAPER_CODEC, horizon=2.0,
                comparison=ComparisonSettings(baseline=AdaptationRule.JAYANT))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_all_shipped_configs_load(self):
        for path in sorted(CONFIGS.glob("*.json")):
            assert load_config(path).horizon > 0

    def test_missing_keys_rejected(self):
        with pytest.raises(FormatError, match="missing"):
            config_from_dict({"signal": {"kind": "constant", "level": 1.0}})

    def test_bad_signal_kind_rejected(self):
        with pytest.raises(FormatError, match="kind"):
            config_from_dict(
                {
                    "signal": {"kind": "sawtooth"},
                    "codec": {"y0": 0, "M0": 1, "Mbar": 0, "a": 1.5, "delta": 0.1},
                    "horizon": 1.0,
                }
            )

    def test_horizon_must_cover_one_sample(self):
        with pytest.raises(ParameterError):
            jump_config(horizon=0.01)


BAD_CONFIG_VALUES = [
    ("horizon", "x"),
    ("oversample_factor", "x"),
    ("outputs", []),
    ("comparison", {"baseline": "nope"}),
    ("codec.delta", True),
    ("channel", []),
    ("outputs", {"trace_csv": 5}),
    # beyond float range: each ended in a raw OverflowError traceback (exit 1)
    ("signal", {"kind": "sine", "amplitude": 10**400, "frequency_hz": 1.0}),
    ("signal", {"kind": "piecewise", "segments": [
        {"start": 0.0, "signal": {"kind": "constant", "level": 2.0}},
        {"start": 10**400, "signal": {"kind": "constant", "level": 1.0}},
    ]}),
    ("growth", {"scale": 10**400, "exponent": 1.0}),
    ("channel", {"kind": "erasure", "p": 10**400}),
    # bools were read as 1.0 and 0.0
    ("signal", {"kind": "sine", "amplitude": True, "frequency_hz": 1.0}),
    ("growth", {"scale": True}),
    ("channel", {"kind": "erasure", "p": False}),
]


def _bad_config(key, value, name="compare_jump.json"):
    document = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    section, _, field = key.partition(".")
    if field:
        document[section][field] = value
    else:
        document[section] = value
    return document


@pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_is_a_format_error(key, value):
    with pytest.raises(FormatError):
        config_from_dict(_bad_config(key, value))


@pytest.mark.parametrize("command", ["simulate", "verify", "compare"])
@pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_2(key, value, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config(key, value)), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # an int beyond float range is named by its digit count; only the section may show it
    assert err.count("0" * 400) <= 1


OVERFLOWING_CONFIG_VALUES = {
    # 2*pi*f overflows to inf, and inf*0 is nan at the segment's start; the
    # error names the absolute time, not the time on the segment's own clock (0.0)
    "sine_frequency": ("signal", {"kind": "piecewise", "segments": [
        {"start": 0.0, "signal": {"kind": "constant", "level": 2.0}},
        {"start": 1.0, "signal": {"kind": "sine", "amplitude": 1.0, "frequency_hz": 1e308}},
    ]}, "signal is not finite at t=1.0\n"),
    # (m*delta)**exponent overflows once m*delta > 1 in the acquisition bound
    "growth_exponent": ("growth", {"scale": 1e6, "exponent": 1e308}, "overflowed"),
    # horizon/delta is inf, or a count of steps no float grid index holds exactly;
    # each is refused before anything is allocated
    "delta": ("codec.delta", 1e-308, "a grid index must be below 2**52"),
    "horizon": ("horizon", 1e308, "a grid index must be below 2**52"),
    "horizon_finite": ("horizon", 1e300, "a grid index must be below 2**52"),
    # 10**30 + 1 points per cell is past numpy's dimension limit
    "oversample_factor": ("oversample_factor", 10**30, "is beyond numpy's array size limit"),
}


@pytest.mark.parametrize("command", ["simulate", "verify", "compare"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_CONFIG_VALUES))
def test_overflowing_config_value_exits_2(case, command, tmp_path, capsys):
    key, value, message = OVERFLOWING_CONFIG_VALUES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config(key, value)), encoding="utf-8")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if case == "growth_exponent" and command == "compare":
        assert code == 0  # compare checks no claim, so it never reads the growth section
    else:
        assert code == 2
        assert err.startswith("error: ") and message in err


# nan > 0.0 is False, so "<= 0.0" checks let these through: a nan growth
# scale ran the acquisition scan to its cap, a nan band multiplier made
# compare write "band": NaN, which is no JSON
NAN_CONFIG_VALUES = [
    ("growth", {"scale": math.nan, "exponent": 1.0}, "needs scale > 0"),
    ("comparison.proximity_band_multiplier", math.nan, "band multiplier must be > 0"),
]


@pytest.mark.parametrize("command", ["simulate", "verify", "compare"])
@pytest.mark.parametrize("key,value,message", NAN_CONFIG_VALUES)
def test_nan_config_value_exits_2(key, value, message, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config(key, value)), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_horizon_beyond_float_range_rejected(bad):
    # math.isfinite overflows on an int beyond float range instead of answering
    with pytest.raises(ParameterError, match="horizon must be finite"):
        jump_config(horizon=bad)


# each was accepted before: a negative seed ended in numpy's raw ValueError
# (exit 1), a non-integral number was silently truncated
BAD_INTEGER_VALUES = [
    ("channel.seed", -1, []),
    ("channel.seed", 1.5, []),
    ("channel.seed", True, []),
    ("oversample_factor", 2.5, []),
    ("channel.seed", 7, ["--seed", "-1"]),
]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("key,value,flags", BAD_INTEGER_VALUES)
def test_bad_seed_or_integer_field_exits_2(key, value, flags, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config(key, value, "erasure_jump.json")), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key.rpartition(".")[2] in err


def test_codec_section_accepts_numeric_strings_and_rejects_out_of_range():
    document = _bad_config("codec.delta", "0.04")
    assert config_from_dict(document).codec.delta == 0.04
    with pytest.raises(FormatError, match="adaptation factor"):
        config_from_dict(_bad_config("codec.a", 9.0))


@pytest.mark.parametrize("name", ["y0", "m0", "mbar", "a", "delta"])
def test_codec_params_reject_bools(name):
    values = dict(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
    values[name] = True
    with pytest.raises(ParameterError, match=name):
        CodecParams(**values)


class TestRunSimulation:
    def test_paper_bit_budget(self):
        result = run_simulation(jump_config())
        assert len(result.bits) == 50
        assert len(result.decoder_trace) == 50

    def test_half_delta_doubles_bits(self):
        codec = CodecParams(y0=5.0, m0=0.04, mbar=0.04, a=1.5, delta=0.02)
        result = run_simulation(jump_config(codec=codec))
        assert len(result.bits) == 100

    def test_decoder_mirrors_encoder_over_noiseless(self):
        result = run_simulation(jump_config())
        assert result.decoder_trace.records == tuple(
            r.__class__(**{**r.__dict__, "x": None}) for r in result.encoder_trace.records
        )

    def test_jump_gates_steady_claims(self):
        # whole-horizon variation includes the jump, so the floor cannot
        # dominate it and the steady claims are n/a rather than violated
        result = run_simulation(jump_config())
        assert result.report.violations == []
        assert any(c == "steady_state" for c, _ in result.report.not_applicable)


class TestRecoverySteps:
    def test_immediate(self):
        assert recovery_steps([0.0] * 5, 1, band=1.0) == 0

    def test_never(self):
        assert recovery_steps([2.0] * 5, 0, band=1.0) is None

    def test_transient_crossing_not_counted(self):
        errors = [5.0, 0.5, 5.0, 0.4, 0.4, 0.4]
        assert recovery_steps(errors, 0, band=1.0) == 3

    def test_tail_too_short_for_persistence(self):
        assert recovery_steps([0.0, 0.0], 0, band=1.0) is None


class TestRunCompare:
    def test_modified_recovers_no_slower_than_jayant(self):
        report = run_compare(jump_config(horizon=4.0))
        assert report.jump_time == 1.0
        assert report.recovery_steps_modified is not None
        baseline = report.recovery_steps_baseline
        assert baseline is None or report.recovery_steps_modified <= baseline

    def test_self_comparison_is_identical(self):
        config = jump_config(
            horizon=4.0, comparison=ComparisonSettings(baseline=AdaptationRule.MODIFIED)
        )
        report = run_compare(config)
        assert report.recovery_steps_modified == report.recovery_steps_baseline

    def test_band_formula_with_zero_rate(self):
        # constant-then-constant jump: segment variation is zero
        signal = Piecewise(segments=((0.0, Constant(2.0)), (1.0, Constant(-1.0))))
        report = run_compare(jump_config(signal=signal, horizon=4.0))
        assert report.variation_rate == 0.0
        assert report.band == (PAPER_CODEC.a * PAPER_CODEC.mbar + 0.0) * PAPER_CODEC.delta

    def test_signal_without_jump_rejected(self):
        with pytest.raises(ParameterError, match="jump"):
            run_compare(jump_config(signal=Constant(2.0), horizon=4.0))

    def test_config_without_comparison_rejected(self):
        with pytest.raises(ParameterError, match="comparison"):
            run_compare(jump_config(comparison=None))


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        result = run_simulation(jump_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.encoder_trace)
        back = read_trace_csv(path, PAPER_CODEC)
        assert back.records == result.encoder_trace.records

    def test_header_schema(self, tmp_path):
        result = run_simulation(jump_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.decoder_trace, x_values=result.samples.values)
        first = path.read_text().splitlines()[0]
        assert first == "k,t,x,y,h,M,in_switch,err_abs"

    def test_decode_only_trace_has_empty_x_cells(self, tmp_path):
        result = run_simulation(jump_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.decoder_trace)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "" and row[7] == ""

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,t,x,y,h,M,in_switch,err_abs\n0,0.0,1.0,oops,1,1.0,0,\n")
        with pytest.raises(FormatError, match="row 2"):
            read_trace_csv(path, PAPER_CODEC)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(FormatError, match="header"):
            read_trace_csv(path, PAPER_CODEC)

    def test_csv_error_is_a_format_error(self, tmp_path):
        # a cell beyond csv.field_size_limit() is a csv.Error on every version
        path = tmp_path / "bad.csv"
        big = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"k,t,x,y,h,M,in_switch,err_abs\n0,0.0,,0.0,1,1.0,0,{big}\n")
        with pytest.raises(FormatError, match="row 2") as error:
            read_trace_csv(path, PAPER_CODEC)
        assert str(path) in str(error.value)


def _run_in(tmp_path, config_name, *args):
    config = CONFIGS / config_name
    return main([args[0], "--config", str(config), "--out", str(tmp_path), *args[1:]])


class TestCliSimulate:
    def test_writes_trace_and_report(self, tmp_path, capsys):
        assert _run_in(tmp_path, "paper_delta004.json", "simulate") == 0
        rows = (tmp_path / "trace_delta004.csv").read_text().splitlines()
        assert len(rows) == 51  # header + 50 steps
        report = json.loads((tmp_path / "report_delta004.json").read_text())
        assert report["n_bits"] == 50

    def test_hundred_bits_at_half_delta(self, tmp_path):
        assert _run_in(tmp_path, "paper_delta002.json", "simulate") == 0
        rows = (tmp_path / "trace_delta002.csv").read_text().splitlines()
        assert len(rows) == 101

    def test_deterministic_outputs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        _run_in(a_dir, "erasure_jump.json", "simulate")
        _run_in(b_dir, "erasure_jump.json", "simulate")
        for name in ("erasure_trace.csv", "erasure_report.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_overrides_change_the_run(self, tmp_path):
        assert _run_in(tmp_path, "paper_delta004.json", "simulate", "--delta", "0.02",
                       "--m0", "0.04", "--mbar", "0.04") == 0
        rows = (tmp_path / "trace_delta004.csv").read_text().splitlines()
        assert len(rows) == 101

    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "paper_delta004.json").read_text())
        config["outputs"] = {
            "trace_csv": str(tmp_path / "missing_dir" / "trace.csv"),
            "report_json": str(tmp_path / "missing_dir" / "report.json"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path)]) == 2
        assert not (tmp_path / "missing_dir").exists()
        assert "error:" in capsys.readouterr().err


class TestCliVerify:
    def test_sine_config_verifies(self, tmp_path, capsys):
        assert _run_in(tmp_path, "sine_steady.json", "verify") == 0
        out = capsys.readouterr().out
        assert "all applicable claims hold" in out
        report = json.loads((tmp_path / "sine_report.json").read_text())
        assert report["verification"]["ok"] is True
        assert report["verification"]["tau_bound"] is not None

    def test_small_floor_warns_but_passes(self, tmp_path, capsys):
        # shrink the floor below twice the variation rate: claims go n/a
        assert _run_in(tmp_path, "sine_steady.json", "verify", "--mbar", "1.0", "--m0", "1.0") == 0
        err = capsys.readouterr().err
        assert "not applicable" in err

    def test_tampered_trace_fails(self, tmp_path, capsys):
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_text().splitlines()
        cells = rows[200].split(",")
        x, y = float(cells[2]), float(cells[3])
        forged = y + 0.5
        cells[3] = repr(forged)  # forge the estimate at step 199
        rows[200] = ",".join(cells)
        trace_path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path)])
        assert code == 1
        report_path = tmp_path / "sine_report.json"
        report = json.loads(report_path.read_text())
        bound = report["verification"]["sample_error_bound"]
        consistency = f"y={forged!r} != recursion value {y!r}"
        # verifier violations first, then the consistency problems, one shape
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"violation: sample_error at step 199: |x - y| = {abs(x - forged)} > {bound}"
        assert out[1].startswith("violation: interval_error at step 199: ")
        assert out[2:] == [
            f"violation: trace_consistency at step 199: {consistency}",
            f"3 violation(s) -> {report_path}",
        ]
        assert report["trace_consistency"] == [
            {"claim": "trace_consistency", "step": 199, "detail": consistency}
        ]

    def _verify_edited_cell(self, tmp_path, row, column, text):
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_text().splitlines()
        cells = rows[row].split(",")
        cells[TRACE_COLUMNS.index(column)] = text
        rows[row] = ",".join(cells)
        trace_path.write_text("\n".join(rows) + "\n")
        return main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path)])

    @pytest.mark.parametrize("text", [repr(math.nextafter(3.0, 4.0)), repr(math.nextafter(3.0, 2.0))])
    def test_time_one_ulp_off_is_a_consistency_violation(self, tmp_path, capsys, text):
        # the verifier's cells are the grid's, so t is check_trace's finding alone
        assert self._verify_edited_cell(tmp_path, 301, "t", text) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [f"violation: trace_consistency at step 300: t={text} != k*delta=3.0",
                            f"1 violation(s) -> {tmp_path / 'sine_report.json'}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_slope_cell_is_flagged_without_a_warning(self, tmp_path, capsys):
        assert self._verify_edited_cell(tmp_path, 301, "M", "1e400") == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("3 violation(s)")

    def test_clean_trace_passes_file_verification(self, tmp_path):
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(tmp_path / "sine_trace.csv"), "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_verify_and_verify_trace_agree(self, tmp_path, config):
        # both paths certify and verify through harness.verify_run
        run_dir, file_dir = tmp_path / "run", tmp_path / "file"
        _run_in(run_dir, config, "verify")
        trace_csv = next(run_dir.glob("*.csv"))
        main(["verify", "--config", str(CONFIGS / config), "--trace", str(trace_csv), "--out", str(file_dir)])
        run_report, file_report = (json.loads(next(d.glob("*.json")).read_text()) for d in (run_dir, file_dir))
        assert file_report["verification"] == run_report["verification"]

    @pytest.mark.parametrize(
        "row",
        [
            "0,0.0,,0.0,1,1.0,0,\u00e9",  # not ASCII
            "0,0.0,,0.\x00,1,1.0,0,",  # NUL: csv.Error on Python 3.10, a bad float later
        ],
    )
    def test_undecodable_trace_exits_2(self, tmp_path, capsys, row):
        trace_path = tmp_path / "bad_trace.csv"
        trace_path.write_bytes(f"k,t,x,y,h,M,in_switch,err_abs\r\n{row}\r\n".encode("utf-8"))
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(trace_path) in err
        assert "Traceback" not in err


class TestCliCompare:
    def test_compare_reports_ordering(self, tmp_path, capsys):
        assert _run_in(tmp_path, "compare_jump.json", "compare") == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        modified = report["recovery_steps_modified"]
        baseline = report["recovery_steps_baseline"]
        assert modified is not None
        assert baseline is None or modified <= baseline
        assert "jump at t=1.0" in capsys.readouterr().out

    def test_compare_without_jump_exits_2(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "compare_jump.json").read_text())
        config["signal"] = {"kind": "constant", "level": 2.0}
        path = tmp_path / "nojump.json"
        path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "jump" in capsys.readouterr().err


class TestCliEncodeDecode:
    def test_hand_trace_file_round_trip(self, tmp_path, capsys):
        samples_path = tmp_path / "hand.csv"
        samples_path.write_text("x\n" + "\n".join(["10.0"] * 10) + "\n")
        code = main(["encode", str(samples_path), "--delta", "1", "--y0", "0",
                     "--m0", "1", "--mbar", "1", "--a", "2"])
        assert code == 0
        odm = tmp_path / "hand.odm"
        assert odm.read_text().splitlines()[2] == HAND_BODY

        assert main(["decode", str(odm)]) == 0
        trace = read_trace_csv(tmp_path / "hand_trace.csv",
                               CodecParams(y0=0, m0=1, mbar=1, a=2, delta=1))
        from conftest import HAND_M, HAND_Y

        assert [r.y for r in trace.records] == HAND_Y
        assert [r.m for r in trace.records] == HAND_M

    def test_decode_of_encode_matches_encoder_columns(self, tmp_path):
        result = run_simulation(jump_config())
        samples_path = tmp_path / "samples.csv"
        write_trace_csv(samples_path, result.encoder_trace)  # has an x column
        assert main(["encode", str(samples_path), "--delta", "0.04", "--y0", "5",
                     "--m0", "0.08", "--mbar", "0.08", "--a", "1.5"]) == 0
        assert main(["decode", str(tmp_path / "samples.odm")]) == 0
        decoded = read_trace_csv(tmp_path / "samples_trace.csv", PAPER_CODEC)
        for a, b in zip(decoded.records, result.encoder_trace.records):
            assert (a.y, a.m) == (b.y, b.m)

    def test_decode_slope_overflow_exits_2(self, tmp_path, capsys):
        # the slope M0 * a**p stays finite, but a**p alone overflows a float
        odm = tmp_path / "tiny.odm"
        write_bitstream(odm, CodecParams(y0=0, m0=1e-300, mbar=1e-300, a=2, delta=1), [1] * 1100)
        assert main(["decode", str(odm)]) == 2
        err = capsys.readouterr().err
        assert "overflowed" in err and "Traceback" not in err

    def test_non_ascii_bitstream_exits_2(self, tmp_path, capsys):
        odm = tmp_path / "accent.odm"
        write_bitstream(odm, PAPER_CODEC, [1, 1, -1])
        odm.write_bytes(odm.read_bytes().replace(b"\n110\n", b"\n1\xe90\n"))
        assert main(["decode", str(odm)]) == 2
        err = capsys.readouterr().err
        assert str(odm) in err and "ASCII" in err and "Traceback" not in err

    def test_samples_csv_with_byte_order_mark(self, tmp_path, capsys):
        samples_path = tmp_path / "bom.csv"
        samples_path.write_bytes(b"\xef\xbb\xbfx\n" + b"10.0\n" * 10)
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0",
                     "--m0", "1", "--mbar", "1", "--a", "2"]) == 0
        assert (tmp_path / "bom.odm").read_text().splitlines()[2] == HAND_BODY

    @pytest.mark.parametrize(
        "text,message",
        [
            ("NOPE\n{}\n\n", "line 1: bad magic"),
            ("ODM/1\n", "file truncated"),
            ("ODM/1\nnot json\n\n", "line 2: bad header JSON"),
            ('ODM/1\n{"y0": 0.0, "count": 0}\n\n', "line 2: header must carry keys"),
            (f'ODM/1\n{HEADER[:-1]}, "count": true}}\n1\n', "line 2: count must be"),
            (f'ODM/1\n{HEADER[:-1]}, "count": -1}}\n\n', "line 2: count must be"),
            (f'ODM/1\n{HEADER[:-1].replace("2.0", "9.0")}, "count": 0}}\n\n', "line 2: bad codec parameters"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 2}}\n1\n', "line 3: body holds 1 symbols"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 1}}\nx\n', "line 3, offset 0: invalid character"),
        ],
        ids=["magic", "truncated", "json", "keys", "count_bool", "count_negative", "params", "length", "char"],
    )
    def test_bad_bitstream_error_names_the_file(self, tmp_path, capsys, text, message):
        odm = tmp_path / "bad.odm"
        odm.write_text(text, encoding="ascii")
        assert main(["decode", str(odm)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {odm}: {message}")
        assert "Traceback" not in err

    def test_bitstream_header_numbers_read_as_in_configs(self, tmp_path, capsys):
        # the header goes through codec_from_dict, like a config's codec section:
        # a numeric string is a number, an integer beyond float range is an error
        odm = tmp_path / "strings.odm"
        odm.write_text(f'ODM/1\n{HEADER[:-1].replace("0.0", chr(34) + "0.0" + chr(34))}, "count": 1}}\n1\n')
        assert main(["decode", str(odm)]) == 0
        odm.write_text(f'ODM/1\n{HEADER[:-1].replace("0.0", "1" + "0" * 400)}, "count": 1}}\n1\n')
        assert main(["decode", str(odm)]) == 2
        assert "y0 is an int of 401 digits, beyond float range" in capsys.readouterr().err

    def test_non_utf8_samples_csv_exits_2(self, tmp_path, capsys):
        samples_path = tmp_path / "bad.csv"
        samples_path.write_bytes(b"x\n1.0\n\xff\n")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 2
        err = capsys.readouterr().err
        assert str(samples_path) in err and "UTF-8" in err

    def test_samples_cell_over_field_limit_exits_2(self, tmp_path, capsys):
        samples_path = tmp_path / "big.csv"
        big = "1" * (csv.field_size_limit() + 1)
        samples_path.write_text(f"x\n1.0\n{big}\n2.0\n")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 2
        assert f"{samples_path}: row 3: field larger than field limit" in capsys.readouterr().err

    def test_empty_samples_csv(self, tmp_path, capsys):
        samples_path = tmp_path / "empty.csv"
        samples_path.write_text("")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 0
        assert "0 bits" in capsys.readouterr().out

    def test_header_only_csv(self, tmp_path):
        samples_path = tmp_path / "header.csv"
        samples_path.write_text("x\n")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 0

    def test_csv_without_x_column_exits_2(self, tmp_path, capsys):
        samples_path = tmp_path / "bad.csv"
        samples_path.write_text("value\n1.0\n")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 2
        assert "x" in capsys.readouterr().err

    def test_bad_sample_cell_reports_row(self, tmp_path, capsys):
        samples_path = tmp_path / "bad.csv"
        samples_path.write_text("x\n1.0\nnope\n")
        assert main(["encode", str(samples_path), "--delta", "1", "--y0", "0", "--m0", "1"]) == 2
        assert "row 3" in capsys.readouterr().err


# ODM/1 header values: numbers at the edges of the floats, numeric strings,
# bools, ints beyond float range and wrong types
ODM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e300, -1e300, 1e-300, 5e-324, 10**400, -10**400]),
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from(["1.5", "2", "1e-300", "nan", "x", "", True, False, None, [], {}]),
)


@st.composite
def odm_files(draw):
    body = draw(st.text(alphabet="10", max_size=300))
    if draw(st.integers(0, 3)):  # three in four are well formed, so most of them decode
        header = {
            "y0": draw(st.floats(-1e300, 1e300)),
            "M0": draw(st.sampled_from([1.0, 1e-300, 1e300]) | st.floats(1e-3, 1e3)),
            "Mbar": draw(st.sampled_from([0.0, 1.0, 1e-300]) | st.floats(1e-3, 1e3)),
            "a": draw(st.sampled_from([2.0, 1.5]) | st.floats(1.01, 2.0)),
            "delta": draw(st.sampled_from([1.0, 0.01]) | st.floats(1e-3, 10.0)),
            "rule": "modified",
            "count": len(body),
        }
    else:
        body = draw(st.sampled_from([body]) | st.text(alphabet="10x \n\u00e9", max_size=8))
        header = {key: draw(ODM_VALUES) for key in ("y0", "M0", "Mbar", "a", "delta", "count")}
        header["rule"] = draw(st.sampled_from(["modified", "jayant", "other", 1]))
        if draw(st.booleans()):
            header["count"] = len(body)
        if draw(st.booleans()):
            del header[draw(st.sampled_from(sorted(header)))]
    return f"ODM/1\n{json.dumps(header)}\n{body}\n"


@settings(max_examples=200, deadline=None)
@given(text=odm_files())
def test_decode_of_any_odm_file_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.odm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["decode", path, "--out", tmp]) in (0, 2)


# --- trace CSV reader fuzz ------------------------------------------------------
#
# read_trace_csv parses files in the writer's form with numpy's C tokeniser and
# sends every other file to the row loop _read_csv_rows. On any file the two
# must agree: the same records, or the same FormatError.

SINE_STEADY = CONFIGS / "sine_steady.json"


@functools.cache
def _written_trace_csvs() -> tuple[tuple[str, ...], ...]:
    """The lines of sine_steady's trace CSV as simulate writes it (x filled)
    and as decode writes it (x cells all empty)."""
    result = run_simulation(load_config(SINE_STEADY))
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        for x_values in (result.samples.values, None):
            path = os.path.join(tmp, "trace.csv")
            write_trace_csv(path, result.decoder_trace, x_values=x_values)
            with open(path, encoding="ascii", newline="") as fh:
                files.append(tuple(fh.read().split("\r\n")[:-1]))
    return tuple(files)


# cell texts that float()/int() and np.loadtxt may read differently, or not at
# all; "\udce9" becomes the single non-UTF-8 byte 0xe9
CSV_CELLS = ["", "+1", "-1", "01", "00", " 1", "1 ", "\t1", "1.0", "4.0", "1e5", "0x1p3", "nan",
             "-nan", "NaN", "inf", "-inf", "Infinity", "1_0", "1e400", "-0", '"1"', '""', "#1",
             "1#", "\x00", "\u00e9", "\u0663", "\udce9", "10", "-10", "2", "300", "abc"]
CSV_AFFIXES = ["+", "-", "0", "00", " ", "\t", '"', "#", "\x00", "\udce9", "\r", "\n"]


@st.composite
def trace_csv_files(draw):
    lines = list(draw(st.sampled_from(_written_trace_csvs())))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        edit = draw(st.sampled_from(["cell", "prefix", "suffix", "drop", "add", "blank", "x_all"]))
        if edit == "cell":
            cells[j] = draw(st.sampled_from(CSV_CELLS))
        elif edit == "prefix":
            cells[j] = draw(st.sampled_from(CSV_AFFIXES)) + cells[j]
        elif edit == "suffix":
            cells[j] += draw(st.sampled_from(CSV_AFFIXES))
        elif edit == "drop":  # 7 cells in the row
            del cells[j]
        elif edit == "add":  # 9 cells
            cells.insert(j, draw(st.sampled_from(CSV_CELLS)))
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "#"])))
        else:  # one text in every row's x cell: all empty, or all the same number
            value = draw(st.sampled_from(["", "1.5"]))
            lines[1:] = [",".join(row[:2] + [value] + row[3:]) for row in (r.split(",") for r in lines[1:])]
        if edit not in ("blank", "x_all"):
            lines[i] = ",".join(cells)
    ending = draw(st.sampled_from(["\r\n"] * 6 + ["\n", "\r"]))  # mostly the writer's
    text = ending.join(lines) + draw(st.sampled_from([ending, "", "\r\n"]))
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=trace_csv_files())
def test_trace_csv_reader_agrees_with_the_row_loop_on_any_file(data):
    params = load_config(SINE_STEADY).codec
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            want = Trace.from_columns(params, **harness._read_csv_rows(path), substituted=None)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_trace_csv(path, params)
            assert str(got.value) == str(exc)
        else:  # repr: a nan cell reads as nan on both sides, and nan != nan
            assert repr(read_trace_csv(path, params).records) == repr(want.records)
        assert main(["verify", "--config", str(SINE_STEADY), "--trace", path, "--out", tmp]) in (0, 1, 2)


# --- config and samples-CSV reader fuzz -----------------------------------------
#
# Any config or samples CSV must end in exit 0, 1 or 2 through cli.main, with
# no traceback and no warning on stderr. The palette keeps every grid small or
# refused before allocation: no horizon/delta between 1e4 and 2**52 steps
# (restart_index refuses the rest), no oversample factor between 64 and 10**30.

NESTED_PIECEWISE = {"kind": "piecewise", "segments": [
    {"start": 0.0, "signal": {"kind": "piecewise", "segments": [
        {"start": 0.0, "signal": {"kind": "sine", "amplitude": 1.0, "frequency_hz": 1e308}},
        {"start": 0.5, "signal": {"kind": "constant", "level": -1.0}},
    ]}},
    {"start": 1.0, "signal": {"kind": "ramp", "slope": 1e308, "intercept": 0.0}},
]}
# numbers at the edges of the floats, and values of the wrong kind
CONFIG_NUMBERS = ["nan", "inf", math.nan, math.inf, 10**400, 10**30, 1e-308, 1e308, -1, 0]
CONFIG_OTHERS = [True, None, "", "x", [], [1.0], {}, "jayant", NESTED_PIECEWISE, NESTED_PIECEWISE["segments"]]
CONFIG_KEYS = ["signal", "codec", "horizon", "channel", "oversample_factor", "growth", "outputs",
               "comparison", "signal.amplitude", "signal.frequency_hz", "signal.segments", "codec.delta",
               "codec.M0", "codec.a", "channel.p", "growth.exponent", "comparison.proximity_band_multiplier"]


def _grid_steps(document) -> float:
    """horizon/delta as floats, or nan where either is no plain number."""
    try:
        return float(document["horizon"]) / float(document["codec"]["delta"])
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError):
        return math.nan


@st.composite
def fuzzed_configs(draw):
    name = draw(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))))
    document = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), min_size=1, max_size=2)):
        value = copy.deepcopy(draw(st.sampled_from(CONFIG_NUMBERS) | st.sampled_from(CONFIG_OTHERS)))
        section, _, field = key.partition(".")
        if not field:
            document[section] = value
        elif isinstance(document.get(section), dict):
            document[section][field] = value
    assume(not 1e4 <= _grid_steps(document) < 2.0**52)
    return document


def _run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(document=fuzzed_configs())
def test_any_config_exits_0_1_or_2(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        for command in ("simulate", "verify", "compare"):
            code, err = _run_main([command, "--config", path, "--out", tmp])
            assert code in (0, 1, 2) and "Traceback" not in err


SAMPLE_HEADERS = ["x", "\ufeffx", "x,y", "y,x", '"x"', "y", ""]
SAMPLE_CELLS = ["1.0", "-2.5", "0", "1e5", "nan", "-inf", "1e400", "", " 1", '"1.0"', '"', '""',
                "\x00", "1\x00", "1,2", "\u00e9", "\udce9", "abc"]


@st.composite
def samples_csv_files(draw):
    lines = [draw(st.sampled_from(SAMPLE_HEADERS))]
    lines += draw(st.lists(st.sampled_from(SAMPLE_CELLS), max_size=6))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=samples_csv_files())
def test_any_samples_csv_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        code, err = _run_main(["encode", path, "--delta", "0.1", "--y0", "0", "--m0", "1", "--out", tmp])
        assert code in (0, 2) and "Traceback" not in err


class TestAtomicWrites:
    """A writer that fails, the final move included, leaves no temp file."""

    def test_simulate_onto_a_directory_exits_2_and_leaves_no_temp_file(self, tmp_path, capsys):
        (tmp_path / "sine_trace.csv").mkdir()
        assert main(["simulate", "--config", str(SINE_STEADY), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["sine_trace.csv"]

    @pytest.mark.parametrize("writer", ["trace_csv", "json", "bitstream"])
    def test_a_failed_move_removes_the_temp_file(self, tmp_path, monkeypatch, writer):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        bits = [1, 1, -1, 1]
        write = {
            "trace_csv": lambda path: write_trace_csv(path, decode_bitstream(params, bits)),
            "json": lambda path: write_json(path, {"a": 1}),
            "bitstream": lambda path: write_bitstream(path, params, bits),
        }[writer]

        def failed_move(src, dst):
            raise OSError("the move failed")

        monkeypatch.setattr(os, "replace", failed_move)
        with pytest.raises(OSError, match="the move failed"):
            write(tmp_path / "out")
        assert os.listdir(tmp_path) == []

    def test_a_failed_write_removes_the_temp_file(self, tmp_path):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        (tmp_path / "trace.csv").write_text("kept")
        with pytest.raises(IndexError):  # x_values shorter than the trace
            write_trace_csv(tmp_path / "trace.csv", decode_bitstream(params, [1, -1, 1]), x_values=(0.5,))
        assert os.listdir(tmp_path) == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_text() == "kept"


class TestCliRuleOverride:
    def test_rule_override_switches_to_baseline_dynamics(self, tmp_path):
        assert _run_in(tmp_path, "paper_delta004.json", "simulate", "--rule", "jayant") == 0
        trace = read_trace_csv(
            tmp_path / "trace_delta004.csv",
            PAPER_CODEC.with_rule(AdaptationRule.JAYANT),
        )
        # no hold branch: the slope changes at every step from step 1 on
        for prev, cur in zip(trace.records[1:], trace.records[2:]):
            assert cur.m != prev.m

    def test_trace_length_mismatch_exits_2(self, tmp_path, capsys):
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_text().splitlines()
        trace_path.write_text("\n".join(rows[:-10]) + "\n")  # drop the tail
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path)])
        assert code == 2
        assert "count" in capsys.readouterr().err


class TestCliUsage:
    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def _outputs(out: Path) -> dict:
    """Each file name in ``out`` mapped to its bytes."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _fresh_process_outputs(workdir: Path, *argv) -> dict:
    """The files the CLI writes when run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "admtrack.cli", *argv, "--out", str(workdir)],
                   env=env, capture_output=True, check=True, timeout=120)
    return _outputs(workdir)


class TestCliSharedParser:
    """main() reuses one parser per process, and no option carries over."""

    def test_options_do_not_carry_over_between_calls(self, tmp_path):
        _build_parser.cache_clear()
        sine = str(CONFIGS / "sine_steady.json")
        erasure = str(CONFIGS / "erasure_jump.json")

        main(["verify", "--config", sine, "--rule", "jayant", "--delta", "0.02",
              "--out", str(tmp_path / "jayant")])
        assert main(["verify", "--config", sine, "--out", str(tmp_path / "plain")]) == 0
        plain = _outputs(tmp_path / "plain")
        assert plain != _outputs(tmp_path / "jayant")
        assert plain == _fresh_process_outputs(tmp_path / "fresh_verify", "verify", "--config", sine)

        assert main(["simulate", "--config", erasure, "--seed", "3",
                     "--out", str(tmp_path / "seed3")]) == 0
        assert main(["simulate", "--config", erasure, "--out", str(tmp_path / "default")]) == 0
        default = _outputs(tmp_path / "default")
        assert default != _outputs(tmp_path / "seed3")
        assert default == _fresh_process_outputs(tmp_path / "fresh_simulate", "simulate", "--config", erasure)

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", sine, "--no-such-flag"])
        assert exc.value.code == 2
        assert main(["compare", "--config", str(CONFIGS / "compare_jump.json"),
                     "--out", str(tmp_path / "compare")]) == 0

        assert _build_parser.cache_info().misses == 1
