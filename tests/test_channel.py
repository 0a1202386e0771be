"""Transport models and the ODM/1 bitstream format."""

import math
import random
import re

import numpy as np
import pytest

from admtrack import (
    CodecParams,
    Erasure,
    FormatError,
    Noiseless,
    ParameterError,
    ReceivedStream,
    decode_bitstream,
    decode_with_erasures,
    encode_signal,
    read_bitstream,
    transmit,
    write_bitstream,
)

from conftest import HAND_BODY, HAND_H


class TestTransmit:
    def test_noiseless_is_identity(self):
        bits = [1, -1, 1, 1, -1]
        assert list(transmit(bits, Noiseless()).symbols) == bits

    def test_zero_probability_erasure_is_identity(self):
        bits = [1, -1] * 50
        assert list(transmit(bits, Erasure(p=0.0, seed=3)).symbols) == bits

    def test_erasures_reproducible_and_plausible(self):
        bits = [1] * 1000
        model = Erasure(p=0.1, seed=7)
        first = transmit(bits, model)
        second = transmit(bits, model)
        assert first.symbols == second.symbols
        erased = len(first.erased_positions())
        assert 60 <= erased <= 140  # three sigma around 100 for Binomial(1000, 0.1)

    def test_values_never_flipped(self):
        rng = random.Random(5)
        bits = [rng.choice((1, -1)) for _ in range(500)]
        received = transmit(bits, Erasure(p=0.3, seed=11))
        assert len(received) == len(bits)
        for sent, got in zip(bits, received.symbols):
            assert got is None or got == sent

    def test_probability_range_checked(self):
        with pytest.raises(ParameterError):
            Erasure(p=1.0)

    @pytest.mark.parametrize("p", [False, True])
    def test_probability_must_not_be_a_bool(self, p):
        with pytest.raises(ParameterError, match=f"^Erasure.p must be a real number, got {p}$"):
            Erasure(p=p)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            Erasure(p=0.1, seed=seed)


class TestDecodeWithErasures:
    def test_erasure_free_matches_plain_decode(self, hand_params):
        received = transmit(HAND_H, Noiseless())
        held = decode_with_erasures(hand_params, received)
        plain = decode_bitstream(hand_params, HAND_H)
        assert held.records == plain.records

    def test_substitution_matching_truth_is_transparent(self, hand_params):
        # position 1 carries +1, equal to the held symbol h_0 = +1
        symbols = list(HAND_H)
        symbols[1] = None
        held = decode_with_erasures(hand_params, ReceivedStream(symbols=tuple(symbols)))
        plain = decode_bitstream(hand_params, HAND_H)
        assert held.records[1].substituted
        for a, b in zip(held.records, plain.records):
            assert (a.y, a.m, a.h, a.in_switch) == (b.y, b.m, b.h, b.in_switch)

    def test_substitution_flipping_truth_diverges(self, hand_params):
        # position 4 carries -1 after +1: the held +1 is wrong
        symbols = list(HAND_H)
        symbols[4] = None
        held = decode_with_erasures(hand_params, ReceivedStream(symbols=tuple(symbols)))
        plain = decode_bitstream(hand_params, HAND_H)
        assert held.records[4].h == 1 and plain.records[4].h == -1
        assert held.records[5].y != plain.records[5].y
        divergence = max(abs(a.y - b.y) for a, b in zip(held.records, plain.records))
        assert divergence > 0.0

    def test_erasure_at_step0_holds_plus_one(self, hand_params):
        held = decode_with_erasures(hand_params, ReceivedStream(symbols=(None,)))
        assert held.records[0].h == 1
        assert held.records[0].substituted


class TestBitstreamFile:
    def test_round_trip(self, tmp_path, hand_params):
        path = tmp_path / "hand.odm"
        write_bitstream(path, hand_params, HAND_H)
        params, bits = read_bitstream(path)
        assert params == hand_params
        assert bits == HAND_H

    def test_hand_trace_body(self, tmp_path, hand_params):
        path = tmp_path / "hand.odm"
        write_bitstream(path, hand_params, HAND_H)
        lines = path.read_text().splitlines()
        assert lines[0] == "ODM/1"
        assert lines[1] == (
            '{"M0": 1.0, "Mbar": 1.0, "a": 2.0, "count": 10, "delta": 1.0, "rule": "modified", "y0": 0.0}'
        )
        assert lines[2] == HAND_BODY

    def test_empty_bitstream(self, tmp_path, hand_params):
        path = tmp_path / "empty.odm"
        write_bitstream(path, hand_params, [])
        params, bits = read_bitstream(path)
        assert bits == [] and params == hand_params

    def test_gnarly_floats_round_trip(self, tmp_path):
        params = CodecParams(y0=-1.2345678901234567e-3, m0=1e-9, mbar=2.0 / 3.0, a=1.0000000001, delta=0.1)
        path = tmp_path / "odd.odm"
        write_bitstream(path, params, [1, -1])
        back, _ = read_bitstream(path)
        assert back == params

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.odm"
        path.write_text('ODM/2\n{"y0": 0}\n1\n')
        with pytest.raises(FormatError, match="magic"):
            read_bitstream(path)

    def test_truncated_body(self, tmp_path, hand_params):
        path = tmp_path / "trunc.odm"
        write_bitstream(path, hand_params, HAND_H)
        lines = path.read_text().split("\n")
        lines[2] = lines[2][:-3]
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="body"):
            read_bitstream(path)

    def test_invalid_body_character(self, tmp_path, hand_params):
        path = tmp_path / "char.odm"
        write_bitstream(path, hand_params, HAND_H)
        lines = path.read_text().split("\n")
        lines[2] = "x" + lines[2][1:]
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="offset 0"):
            read_bitstream(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "keys.odm"
        path.write_text('ODM/1\n{"y0": 0.0, "count": 0}\n\n')
        with pytest.raises(FormatError, match="keys"):
            read_bitstream(path)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "json.odm"
        path.write_text("ODM/1\nnot json\n\n")
        with pytest.raises(FormatError, match="JSON"):
            read_bitstream(path)

    def test_erased_symbols_not_serializable(self, tmp_path, hand_params):
        with pytest.raises(FormatError):
            write_bitstream(tmp_path / "none.odm", hand_params, [1, None, -1])

    def test_symbols_equal_to_plus_or_minus_one_are_written(self, tmp_path, hand_params):
        # True and 1.0 compare (and hash) equal to +1; a 0-d array compares equal but has no hash
        path = tmp_path / "loose.odm"
        write_bitstream(path, hand_params, [True, 1.0, -1, -1.0, np.int8(1), np.array(-1), np.array(1)])
        assert path.read_text().split("\n")[2] == "1100101"

    @pytest.mark.parametrize("bad", [2, 0, None, "1", [1], math.nan, False])
    def test_first_bad_symbol_is_named(self, tmp_path, hand_params, bad):
        path = tmp_path / "bad.odm"
        message = f"symbol at position 5 is {bad!r}, not +1/-1"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            write_bitstream(path, hand_params, [1, -1, 1, 1, -1, bad, 7])
        assert not path.exists() and not (tmp_path / "bad.odm.tmp").exists()

    def test_header_params_validated(self, tmp_path):
        path = tmp_path / "params.odm"
        path.write_text(
            'ODM/1\n{"y0": 0.0, "M0": 1.0, "Mbar": 0.0, "a": 9.0, "delta": 1.0, "rule": "modified", "count": 0}\n\n'
        )
        with pytest.raises(FormatError, match="parameters"):
            read_bitstream(path)


def test_erasure_run_keeps_recursion_alive(hand_params):
    # a longer run with scattered erasures: the decoder must stay finite and
    # mark exactly the erased steps
    from admtrack import Constant, sample

    samples = sample(Constant(10.0), 1.0, 60.0)
    bits, _ = encode_signal(hand_params, samples)
    received = transmit(bits, Erasure(p=0.15, seed=23))
    held = decode_with_erasures(hand_params, received)
    assert [r.k for r in held.records if r.substituted] == received.erased_positions()
    assert all(abs(r.y) < 1e6 for r in held.records)
