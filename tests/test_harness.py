"""Experiment orchestration, file I/O, and the command-line interface."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
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
    NumericError,
    ParameterError,
    Piecewise,
    Ramp,
    Sine,
    Trace,
    decode_bitstream,
    decode_with_erasures,
    encode_signal,
    estimate_variation_bound,
    load_config,
    read_bitstream,
    read_trace_csv,
    recovery_steps,
    run_compare,
    run_simulation,
    sample,
    write_bitstream,
    write_trace_csv,
)
from admtrack.cli import _build_parser, main
import admtrack.harness as harness
from admtrack.channel import Erasure, Noiseless
from admtrack.codec import codec_from_dict, codec_to_dict
from admtrack.harness import (
    TRACE_COLUMNS, SimulationResult, channel_from_dict, channel_to_dict, config_from_dict, write_json,
)
from admtrack.signals import GrowthBound

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


MINIMAL_CONFIG = {
    "signal": {"kind": "sine", "amplitude": 1.0, "frequency_hz": 1.0},
    "codec": {"y0": 5.0, "M0": 13.0, "Mbar": 13.0, "a": 1.5, "delta": 0.01},
    "horizon": 4.0,
}


def test_absent_keys_take_the_dataclass_defaults():
    expected = ExperimentConfig(Sine(amplitude=1.0, frequency_hz=1.0),
                                CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01), 4.0)
    assert config_from_dict(MINIMAL_CONFIG) == expected
    spelled_out = copy.deepcopy(MINIMAL_CONFIG)
    spelled_out["signal"]["phase"] = 0.0
    spelled_out["codec"]["rule"] = "modified"
    spelled_out.update(channel={"kind": "noiseless"}, oversample_factor=32, growth=None, comparison=None,
                       outputs={"trace_csv": "trace.csv", "report_json": "report.json"})
    assert config_from_dict(spelled_out) == expected
    # the defaults inside the optional sections
    sections = {"growth": {"scale": 8.0}, "comparison": {}, "channel": {"kind": "erasure", "p": 0.1}}
    config = config_from_dict({**MINIMAL_CONFIG, **sections})
    assert config.growth == GrowthBound(scale=8.0, exponent=1.0)
    assert config.comparison == ComparisonSettings(baseline=AdaptationRule.JAYANT, proximity_band_multiplier=1.0)
    assert config.channel == Erasure(p=0.1, seed=0)
    sections = {"growth": {"scale": 8.0, "exponent": 1.0}, "channel": {"kind": "erasure", "p": 0.1, "seed": 0},
                "comparison": {"baseline": "jayant", "proximity_band_multiplier": 1.0}}
    assert config_from_dict({**MINIMAL_CONFIG, **sections}) == config


@pytest.mark.parametrize("key,value,message", [
    ("signal", {"kind": "sine", "amplitude": 1.0}, "signal missing key 'frequency_hz'"),
    ("signal", {"kind": "piecewise", "segments": [{"signal": {"kind": "constant", "level": 1.0}}]},
     "segment missing key 'start'"),
    ("codec", {"y0": 0.0, "Mbar": 0.0, "a": 1.5, "delta": 0.1}, "codec parameters missing key 'M0'"),
    ("channel", {"kind": "erasure"}, "channel missing key 'p'"),
    ("growth", {"exponent": 1.0}, "growth missing key 'scale'"),
])
def test_missing_key_error_names_section_and_key(key, value, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        config_from_dict({**MINIMAL_CONFIG, key: value})


# erasure_jump.json with a growth and a comparison section: every section a config can hold
FULL_CONFIG = {**json.loads((CONFIGS / "erasure_jump.json").read_text()),
               "growth": {"scale": 8.0, "exponent": 1.0}, "comparison": {"baseline": "jayant"}}


@pytest.mark.parametrize("section, where, key, value", [
    ("config", (), "oversample_factr", 8),
    ("codec parameters", ("codec",), "rul", "jayant"),
    ("signal", ("signal", "segments", 0, "signal"), "levl", 3.0),
    ("segment", ("signal", "segments", 1), "strat", 2.0),
    ("channel", ("channel",), "sead", 99),
    ("growth", ("growth",), "exponnt", 2.0),
    ("comparison", ("comparison",), "proximity_band", 2.0),
    ("outputs", ("outputs",), "trace", "t.csv"),
    ("codec parameters", None, "cont", 1),  # the ODM/1 header
], ids=["config", "codec", "signal", "segment", "channel", "growth", "comparison", "outputs", "odm_header"])
def test_key_that_names_no_field_is_refused(tmp_path, section, where, key, value):
    assert config_from_dict(FULL_CONFIG).channel == Erasure(p=0.08, seed=7)  # kind and count are read elsewhere
    if where is None:
        path = tmp_path / "extra_key.odm"
        path.write_text(f"ODM/1\n{json.dumps({**json.loads(HEADER), 'count': 1, key: value})}\n1\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 2: {section}: unknown key {key!r}$"):
            read_bitstream(path)
        return
    document = copy.deepcopy(FULL_CONFIG)
    functools.reduce(lambda section, step: section[step], where, document)[key] = value
    with pytest.raises(FormatError, match=f"^{section}: unknown key {key!r}$"):
        config_from_dict(document)


CODEC_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(y0=CODEC_NUMBERS, m0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       mbar=st.floats(min_value=0.0, allow_infinity=False), a=st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
       delta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), jayant=st.booleans())
def test_codec_dict_round_trip(y0, m0, mbar, a, delta, jayant):
    params = CodecParams(y0=y0, m0=m0, mbar=0.0 if jayant else mbar, a=a, delta=delta,
                         rule=AdaptationRule.JAYANT if jayant else AdaptationRule.MODIFIED)
    document = codec_to_dict(params)
    assert document["rule"] == params.rule.value and type(document["rule"]) is str
    assert json.loads(json.dumps(document)) == document
    assert codec_from_dict(document) == params


@settings(max_examples=100, deadline=None)
@given(model=st.just(Noiseless()) | st.builds(Erasure, p=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                                             seed=st.integers(min_value=0, max_value=2**64)))
def test_channel_dict_round_trip(model):
    assert channel_from_dict(channel_to_dict(model)) == model


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
    # a key that names no field: each ran on the default of the key it meant
    ("channel.sead", 99),
    ("oversample_factr", 8),
    ("codec.rul", "jayant"),
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


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # a signal of 380 nested piecewise levels ended in a RecursionError traceback (exit 1)
    level = '{"kind": "piecewise", "segments": [{"start": 0.0, "signal": '
    document = json.loads((CONFIGS / "sine_steady.json").read_text(encoding="utf-8"))
    text = json.dumps({**document, "signal": None}).replace(
        "null", level * 380 + '{"kind": "constant", "level": 1.0}' + "}]}" * 380)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad JSON") and err.count("error:") == 1 and "Traceback" not in err


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


# built in code, not read from a config (whose numbers read_section converts):
# each raised a raw TypeError, sampled a string as a float or ended in
# numpy's UFuncTypeError
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: Erasure(p="0.1"), "Erasure.p", id="erasure_p_str"),
    pytest.param(lambda: Erasure(p=None), "Erasure.p", id="erasure_p_none"),
    pytest.param(lambda: ComparisonSettings(proximity_band_multiplier="1"),
                 "ComparisonSettings.proximity_band_multiplier", id="band_multiplier_str"),
    pytest.param(lambda: ComparisonSettings(proximity_band_multiplier=True),
                 "ComparisonSettings.proximity_band_multiplier", id="band_multiplier_bool"),
    pytest.param(lambda: GrowthBound(scale="1"), "GrowthBound.scale", id="growth_scale_str"),
    pytest.param(lambda: GrowthBound(scale=1.0, exponent=True), "GrowthBound.exponent", id="growth_exponent_bool"),
    pytest.param(lambda: Constant(level="2"), "Constant.level", id="constant_level_str"),
    pytest.param(lambda: Sine(amplitude="1", frequency_hz=1.0), "Sine.amplitude", id="sine_amplitude_str"),
    pytest.param(lambda: Ramp(slope=1.0, intercept=False), "Ramp.intercept", id="ramp_intercept_bool"),
    pytest.param(lambda: Piecewise(((0.0, Constant(1.0)), ("1", Constant(2.0)))),
                 "Piecewise segment start", id="segment_start_str"),
    pytest.param(lambda: CodecParams(y0="5", m0=1.0, mbar=1.0, a=1.5, delta=0.1), "y0", id="codec_y0_str"),
])
def test_library_parameters_must_be_real_numbers(build, field):
    with pytest.raises(ParameterError, match=f"^{field} must be a real number, got "):
        build()


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


@pytest.mark.parametrize("text", ["Infinity", "1e400"])
def test_infinite_band_multiplier_exits_2(text, tmp_path, capsys):
    # an infinite band holds every error: compare reported recovery in 0 steps
    # for both rules and wrote the non-standard JSON token Infinity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config("comparison.proximity_band_multiplier", 0.5)).replace("0.5", text))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: comparison: proximity band multiplier must be > 0 and finite, got inf\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_horizon_beyond_float_range_rejected(bad):
    # math.isfinite overflows on an int beyond float range instead of answering
    with pytest.raises(ParameterError, match="horizon must be finite"):
        jump_config(horizon=bad)


# a non-number raised a raw TypeError from abs() or "<"; True ran as a 1 s
# horizon and 4.5 as a fractional oversampling factor
@pytest.mark.parametrize("key, value, message", [
    ("horizon", "1", "ExperimentConfig.horizon must be a real number, got '1'"),
    ("horizon", None, "ExperimentConfig.horizon must be a real number, got None"),
    ("horizon", True, "ExperimentConfig.horizon must be a real number, got True"),
    ("oversample_factor", "4", "oversample_factor must be an integer, got '4'"),
    ("oversample_factor", None, "oversample_factor must be an integer, got None"),
    ("oversample_factor", 4.5, "oversample_factor must be an integer, got 4.5"),
    ("oversample_factor", 32.0, "oversample_factor must be an integer, got 32.0"),
    ("oversample_factor", True, "oversample_factor must be an integer, got True"),
])
def test_config_built_in_code_checks_its_types(key, value, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        jump_config(**{key: value})


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
        bits, _ = encode_signal(PAPER_CODEC, result.samples)
        assert len(bits) == 50
        assert len(result.decoder_trace) == 50

    def test_half_delta_doubles_bits(self):
        codec = CodecParams(y0=5.0, m0=0.04, mbar=0.04, a=1.5, delta=0.02)
        result = run_simulation(jump_config(codec=codec))
        assert len(result.decoder_trace) == 100
        assert result.decoder_trace.bits() == encode_signal(codec, result.samples)[0]

    def test_result_holds_one_trace(self):
        assert [f.name for f in fields(SimulationResult)] == ["config", "samples", "decoder_trace", "report"]
        result = run_simulation(jump_config())
        _, encoded = encode_signal(PAPER_CODEC, result.samples)
        assert result.decoder_trace.records == tuple(
            r.__class__(**{**r.__dict__, "x": None}) for r in encoded.records
        )

    @staticmethod
    def off_by_one_ulp(params, received):
        """``decode_with_erasures`` with the estimate at step 7 one ulp high."""
        trace = decode_with_erasures(params, received)
        y = trace.y.copy()
        y[7] = math.nextafter(y[7], math.inf)
        return Trace.from_columns(params, x=None, y=y, h=trace.h, m=trace.m,
                                  in_switch=trace.in_switch, substituted=trace.substituted)

    def test_decoder_mirrors_encoder_over_noiseless(self, monkeypatch, tmp_path, capsys):
        # a decoder one ulp off the encoder at one step is caught, not verified
        monkeypatch.setattr(harness, "decode_with_erasures", self.off_by_one_ulp)
        with pytest.raises(NumericError, match=r"at step 7, column y: decoder 4\.\d+, encoder 4\.\d+$"):
            run_simulation(jump_config())
        assert _run_in(tmp_path, "paper_delta004.json", "simulate") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: decoder trace differs from the encoder's at step 7")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column, change", [
        ("y", lambda v: -v),  # on a step where y is 0.0: -0.0 == 0.0, but its bits differ
        ("h", lambda v: -v),
        ("m", lambda v: 2 * v),
        ("in_switch", lambda v: not v),
    ], ids=["y_signed_zero", "h", "m", "in_switch"])
    def test_first_differing_step_and_column_are_named(self, monkeypatch, column, change):
        def tampered(params, received):
            trace = decode_with_erasures(params, received)
            columns = {name: getattr(trace, name).copy() for name in ("y", "h", "m", "in_switch")}
            columns[column][20] = change(columns[column][20])
            columns["y"][30] += 1.0  # a later step: not the one named
            return Trace.from_columns(params, x=None, substituted=None, **columns)

        monkeypatch.setattr(harness, "decode_with_erasures", tampered)
        config = jump_config(signal=Constant(0.0), codec=replace(PAPER_CODEC, y0=0.0))  # y is 0.0 on even steps
        with pytest.raises(NumericError, match=f"at step 20, column {column}: "):
            run_simulation(config)

    def test_erasure_run_that_held_no_symbol_is_compared(self, monkeypatch):
        # the mirror is checked whenever no symbol was substituted, whatever the channel
        config = jump_config(channel=Erasure(p=1e-9, seed=0))
        assert run_simulation(config).decoder_trace.substituted.sum() == 0
        monkeypatch.setattr(harness, "decode_with_erasures", self.off_by_one_ulp)
        with pytest.raises(NumericError, match=r"at step 7, column y: decoder 4\.\d+, encoder 4\.\d+$"):
            run_simulation(config)

    def test_erasure_runs_are_not_compared(self):
        result = run_simulation(jump_config(channel=Erasure(p=0.3, seed=1)))
        _, encoded = encode_signal(PAPER_CODEC, result.samples)
        assert result.decoder_trace.substituted.any()
        assert not np.array_equal(result.decoder_trace.y, encoded.y)

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

    @pytest.mark.parametrize("starts", [(1.0, 1.125), (1.125, 1.375)], ids=["no_grid_time", "no_full_cell"])
    def test_segment_shorter_than_a_cell_is_skipped(self, starts):
        # on delta = 0.25 the segment [1.0, 1.125) keeps no grid time before its
        # jump, and [1.125, 1.375) keeps (1.125, 1.25], which holds no full cell;
        # the steep ramp on it is left out, the other segments' rates remain
        codec = replace(PAPER_CODEC, delta=0.25)
        signal = Piecewise(segments=(
            (0.0, Constant(2.0)),
            (starts[0], Ramp(slope=1e6, intercept=0.0)),
            (starts[1], Ramp(slope=2.0, intercept=5.0)),
        ))
        report = run_compare(jump_config(signal=signal, codec=codec, horizon=3.0))
        assert report.variation_rate == estimate_variation_bound(signal, 0.25, (starts[1], 3.0), 32).rate == 2.0
        assert report.band == (codec.a * codec.mbar + 2.0) * codec.delta

    def test_signal_without_jump_rejected(self):
        with pytest.raises(ParameterError, match="jump"):
            run_compare(jump_config(signal=Constant(2.0), horizon=4.0))

    def test_config_without_comparison_rejected(self):
        with pytest.raises(ParameterError, match="comparison"):
            run_compare(jump_config(comparison=None))


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        _, encoded = encode_signal(PAPER_CODEC, sample(JUMP_SIGNAL, PAPER_CODEC.delta, 2.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, encoded)
        back = read_trace_csv(path, PAPER_CODEC)
        assert back.records == encoded.records

    def test_header_schema(self, tmp_path):
        result = run_simulation(jump_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.decoder_trace, x_values=result.samples.values)
        first = path.read_text().splitlines()[0]
        assert first == "k,t,x,y,h,M,in_switch"

    def test_decode_only_trace_has_empty_x_cells(self, tmp_path):
        result = run_simulation(jump_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.decoder_trace)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "" and len(row) == 7

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])  # the canonical reader and the row loop
    def test_header_only_trace_has_no_samples(self, tmp_path, line_end):
        path = tmp_path / "trace.csv"
        path.write_text("k,t,x,y,h,M,in_switch" + line_end, newline="")
        trace = read_trace_csv(path, PAPER_CODEC)
        assert len(trace) == 0 and trace.x is None

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,t,x,y,h,M,in_switch\n0,0.0,1.0,oops,1,1.0,0\n")
        with pytest.raises(FormatError, match="row 2"):
            read_trace_csv(path, PAPER_CODEC)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(FormatError, match="header"):
            read_trace_csv(path, PAPER_CODEC)

    def test_trace_csv_writer_memory_is_bounded(self, tmp_path):
        # every writer temporary is chunk-sized: ten times the rows may not
        # raise the writer's peak by half
        params = CodecParams(y0=5.0, m0=13.0, mbar=13.0, a=1.5, delta=0.01)

        def peak(n):
            samples = sample(Sine(amplitude=0.9, frequency_hz=1.0), params.delta, n * params.delta)
            bits, _ = encode_signal(params, samples)
            trace = decode_bitstream(params, bits)
            tracemalloc.start()
            try:
                write_trace_csv(tmp_path / "trace.csv", trace, x_values=samples.values)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.5 * peak(20_000)

    def test_csv_error_is_a_format_error(self, tmp_path):
        # a cell beyond csv.field_size_limit() is a csv.Error on every version
        path = tmp_path / "bad.csv"
        big = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"k,t,x,y,h,M,in_switch\n0,0.0,,0.0,1,1.0,{big}\n")
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

    def test_signed_zero_estimate_is_a_consistency_violation(self, tmp_path, capsys):
        # -0.0 == 0.0, so a value comparison passed this edit
        document = json.loads((CONFIGS / "sine_steady.json").read_text(encoding="utf-8"))
        document["codec"]["y0"] = 0.0
        config_path = tmp_path / "zero_start.json"
        config_path.write_text(json.dumps(document), encoding="utf-8")
        verify = ["verify", "--config", str(config_path), "--trace", str(tmp_path / "sine_trace.csv"),
                  "--out", str(tmp_path / "out")]
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        assert main(verify) == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_text().splitlines()
        cells = rows[1].split(",")
        assert cells[3] == "0.0"
        cells[3] = "-0.0"  # step 0, row 2
        rows[1] = ",".join(cells)
        trace_path.write_text("\r\n".join(rows) + "\r\n", newline="")
        capsys.readouterr()
        assert main(verify) == 1
        report = json.loads((tmp_path / "out" / "sine_report.json").read_text())
        assert report["trace_consistency"] == [
            {"claim": "trace_consistency", "step": 0, "detail": "y=-0.0 != recursion value 0.0"}
        ]
        assert "violation: trace_consistency at step 0: y=-0.0 != recursion value 0.0" in capsys.readouterr().out

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

    @pytest.mark.parametrize("column", TRACE_COLUMNS)
    def test_every_cell_of_a_trace_file_is_read(self, tmp_path, column):
        # one changed cell of any column (row 6, step 5) is refused, read as
        # another trace, or fails verify --trace: no column goes unchecked
        assert _run_in(tmp_path / "run", "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "run" / "sine_trace.csv"
        codec = load_config(CONFIGS / "sine_steady.json").codec
        written = read_trace_csv(trace_path, codec)
        rows = trace_path.read_bytes().split(b"\r\n")
        cells = rows[5].split(b",")
        i = TRACE_COLUMNS.index(column)
        cells[i] = b"-1" if cells[i] == b"1" else b"1"
        rows[5] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(rows))
        try:
            if read_trace_csv(trace_path, codec) != written:
                return
        except FormatError:
            return
        assert main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path / "file")]) != 0

    @pytest.mark.parametrize("text", [repr(math.nextafter(3.0, 4.0)), repr(math.nextafter(3.0, 2.0))])
    def test_time_one_ulp_off_is_a_format_error(self, tmp_path, capsys, text):
        # step k is at k*delta: the reader refuses a file off that grid, naming the row
        assert self._verify_edited_cell(tmp_path, 301, "t", text) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'sine_trace.csv'}: row 302: t={text} != k*delta=3.0\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_slope_cell_is_flagged_without_a_warning(self, tmp_path, capsys):
        assert self._verify_edited_cell(tmp_path, 301, "M", "1e400") == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("3 violation(s)")

    @pytest.mark.parametrize("text, slope", [("1e400", "inf"), ("nan", "nan")])
    def test_non_finite_slope_at_the_first_switch_exits_2(self, tmp_path, capsys, text, slope):
        # row 9 is step 8, the first switch: its slope sets the settling window
        assert self._verify_edited_cell(tmp_path, 9, "M", text) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: no finite settling window for the slope {slope} at the first switch"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["7", "-1", "10", "+1", ""])
    def test_in_switch_other_than_0_or_1_exits_2(self, tmp_path, capsys, text):
        # any cell but "1" was read as "not a switch", and the file verified
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_text().splitlines()
        cells = rows[6].split(",")
        cells[6] = text  # step 5, row 7
        rows[6] = ",".join(cells)
        trace_path.write_text("\r\n".join(rows) + "\r\n", newline="")
        capsys.readouterr()
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {trace_path}: row 7: in_switch must be 1 or 0, got {text!r}\n"

    @pytest.mark.parametrize("row, state", [(6, "empty"), (2, "filled")])
    def test_trace_mixing_empty_and_filled_x_cells_exits_2(self, tmp_path, capsys, row, state):
        # blanking row 2 leaves every later row filled, unlike it
        assert _run_in(tmp_path, "sine_steady.json", "simulate") == 0
        trace_path = tmp_path / "sine_trace.csv"
        rows = trace_path.read_bytes().split(b"\r\n")
        cells = rows[row - 1].split(b",")
        cells[2] = b""
        rows[row - 1] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(rows))
        code = main(["verify", "--config", str(CONFIGS / "sine_steady.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        bad_row = 3 if row == 2 else row
        assert err == f"error: {trace_path}: row {bad_row}: x cell {state}, unlike row 2's\n"

    def test_verify_reports_what_check_trace_finds_on_the_run(self, tmp_path, capsys, monkeypatch):
        import admtrack.cli as cli

        checked = []

        def one_problem(trace):
            checked.append(trace)
            return [(3, "forged problem")]

        monkeypatch.setattr(cli, "check_trace", one_problem)
        assert _run_in(tmp_path, "sine_steady.json", "verify") == 1
        report_path = tmp_path / "sine_report.json"
        assert capsys.readouterr().out.splitlines() == [
            "violation: trace_consistency at step 3: forged problem",
            f"1 violation(s) -> {report_path}",
        ]
        assert json.loads(report_path.read_text())["trace_consistency"] == [
            {"claim": "trace_consistency", "step": 3, "detail": "forged problem"}
        ]
        assert len(checked) == 1 and len(checked[0]) == 400

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

    @pytest.mark.parametrize("config", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 3: the trace CSV has no substituted column, so a held "
            "symbol disagrees with the comparison rule on the decoder's y")))
        if name == "erasure_jump.json" else name
        for name in sorted(p.name for p in CONFIGS.glob("*.json"))
    ])
    def test_simulated_trace_is_consistent_under_verify_trace(self, tmp_path, config):
        # every file the tool writes must verify with the tool itself
        assert _run_in(tmp_path / "run", config, "simulate") == 0
        trace_csv = next((tmp_path / "run").glob("*.csv"))
        main(["verify", "--config", str(CONFIGS / config), "--trace", str(trace_csv),
              "--out", str(tmp_path / "file")])
        report = json.loads(next((tmp_path / "file").glob("*.json")).read_text())
        assert report["trace_consistency"] == []

    @pytest.mark.parametrize(
        "row",
        [
            "0,0.0,,0.0,1,1.0,\u00e9",  # not ASCII
            "0,0.0,,0.\x00,1,1.0,0",  # NUL: csv.Error on Python 3.10, a bad float later
            # the same bytes in a row of the older 8-cell layout
            "0,0.0,,0.0,1,1.0,0,\u00e9",
            "0,0.0,,0.\x00,1,1.0,0,",  # csv.Error on Python 3.10, a cell too many later
        ],
    )
    def test_undecodable_trace_exits_2(self, tmp_path, capsys, row):
        trace_path = tmp_path / "bad_trace.csv"
        trace_path.write_bytes(f"k,t,x,y,h,M,in_switch\r\n{row}\r\n".encode("utf-8"))
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
        _, encoded = encode_signal(PAPER_CODEC, sample(JUMP_SIGNAL, PAPER_CODEC.delta, 2.0))
        samples_path = tmp_path / "samples.csv"
        write_trace_csv(samples_path, encoded)  # has an x column
        assert main(["encode", str(samples_path), "--delta", "0.04", "--y0", "5",
                     "--m0", "0.08", "--mbar", "0.08", "--a", "1.5"]) == 0
        assert main(["decode", str(tmp_path / "samples.odm")]) == 0
        decoded = read_trace_csv(tmp_path / "samples_trace.csv", PAPER_CODEC)
        for a, b in zip(decoded.records, encoded.records):
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
            (f'ODM/1\n{HEADER[:-1].replace("2.0", "9.0")}, "count": 0}}\n\n', "line 2: codec parameters: adaptation factor"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 2}}\n1\n', "line 3: body holds 1 symbols"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 1}}\nx\n', "line 3, offset 0: invalid character"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 5}}\n10x10\n', "line 3, offset 2: invalid character 'x'"),
            (f'ODM/1\n{HEADER[:-1]}, "count": 4}}\n0102\n', "line 3, offset 3: invalid character '2'"),
        ],
        ids=["magic", "truncated", "json", "keys", "count_bool", "count_negative", "params", "length", "char",
             "char_mid", "char_last"],
    )
    def test_bad_bitstream_error_names_the_file(self, tmp_path, capsys, text, message):
        odm = tmp_path / "bad.odm"
        odm.write_text(text, encoding="ascii")
        assert main(["decode", str(odm)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {odm}: {message}")
        assert "Traceback" not in err

    def test_deeply_nested_header_exits_2(self, tmp_path, capsys):
        # 100,000 nested arrays ended in a RecursionError traceback (exit 1)
        odm = tmp_path / "deep.odm"
        odm.write_text("ODM/1\n" + "[" * 100_000 + "\n1\n", encoding="ascii")
        assert main(["decode", str(odm)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {odm}: line 2: bad header JSON")
        assert err.count("error:") == 1 and "Traceback" not in err

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
            want = Trace.from_columns(params, **harness._read_csv_rows(path, params.delta), substituted=None)
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
        with pytest.raises(ParameterError, match="x_values holds 1 samples for 3 steps"):
            write_trace_csv(tmp_path / "trace.csv", decode_bitstream(params, [1, -1, 1]), x_values=(0.5,))
        assert os.listdir(tmp_path) == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_text() == "kept"

    def test_two_dimensional_x_values_are_refused_not_flattened(self, tmp_path):
        params = CodecParams(y0=0.0, m0=1.0, mbar=1.0, a=2.0, delta=1.0)
        with pytest.raises(ParameterError, match="trace column x must be a sequence of numbers"):
            write_trace_csv(tmp_path / "trace.csv", decode_bitstream(params, [1, -1, 1]), x_values=[[0.5]] * 3)
        assert os.listdir(tmp_path) == []


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
