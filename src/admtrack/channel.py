"""Transport models and bitstream serialization.

Two channel models: ``Noiseless`` (identity) and ``Erasure`` (each symbol is
independently dropped with probability p under a seeded generator; the
receiver always sees *that* a position was dropped, never a flipped value).
Erased positions are represented as ``None`` so the received stream keeps
its length.

Bitstream files use the versioned text format ``ODM/1``::

    ODM/1
    {"M0": 1.0, "Mbar": 1.0, "a": 2.0, "count": 10, "delta": 1.0, "rule": "modified", "y0": 0.0}
    1111001101

Line 3 holds exactly ``count`` characters, '1' for +1 and '0' for -1.
Erasures are a transport phenomenon and are never serialized.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .codec import (
    MINUS,
    PLUS,
    CodecParams,
    Symbol,
    Trace,
    codec_from_dict,
    codec_to_dict,
    decode_bitstream,
)
from .errors import FormatError, ParameterError
from .signals import _check_real

__all__ = [
    "Noiseless",
    "Erasure",
    "ChannelModel",
    "ReceivedStream",
    "transmit",
    "decode_with_erasures",
    "write_bitstream",
    "read_bitstream",
]

MAGIC = "ODM/1"


@dataclass(frozen=True)
class Noiseless:
    pass


@dataclass(frozen=True)
class Erasure:
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_real("Erasure.p", self.p)
        if not 0.0 <= self.p < 1.0:
            raise ParameterError(f"erasure probability must be in [0, 1), got {self.p!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ParameterError(f"erasure seed must be a non-negative integer, got {self.seed!r}")


ChannelModel = Union[Noiseless, Erasure]


@dataclass(frozen=True)
class ReceivedStream:
    """Channel output; ``None`` marks an erased position."""

    symbols: tuple[Optional[Symbol], ...]

    def __len__(self) -> int:
        return len(self.symbols)

    def erased_positions(self) -> list[int]:
        return [k for k, s in enumerate(self.symbols) if s is None]


def transmit(bits: Sequence[Symbol], model: ChannelModel) -> ReceivedStream:
    """Push symbols through the channel; values are never flipped."""
    if isinstance(model, Noiseless):
        return ReceivedStream(symbols=tuple(bits))
    rng = np.random.default_rng(model.seed)
    erased = rng.random(len(bits)) < model.p
    return ReceivedStream(
        symbols=tuple(None if e else b for b, e in zip(bits, erased))
    )


def decode_with_erasures(params: CodecParams, received: ReceivedStream) -> Trace:
    """Decode a stream with erasures by substituting the previous symbol.

    Every erased position repeats the last seen symbol (+1 before step 0),
    :func:`admtrack.codec.decode_bitstream` decodes the held symbols, and the
    substituted steps are marked on the trace. On an erasure-free stream this
    is exactly that decode.
    """
    erased = received.erased_positions() if None in received.symbols else []
    held = list(received.symbols)
    for k in erased:  # in step order, so held[k - 1] is already the last seen symbol
        held[k] = held[k - 1] if k else PLUS
    trace = decode_bitstream(params, held)
    trace.substituted[erased] = True  # a fresh column of the fresh trace
    return trace


@contextmanager
def _replacing(path, **open_args):
    """``with _replacing(path, **open_args) as fh`` writes text to ``path.tmp``
    and moves it onto ``path`` at the end. On any error, the move's included,
    the temp file is removed and the error propagates."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", **open_args)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_bitstream(path, params: CodecParams, bits: Sequence[Symbol]) -> None:
    """Write an ODM/1 file; the header floats round-trip exactly."""
    try:  # one C-level pass checks and spells every symbol; True and 1.0 hash as 1
        body = "".join(map({PLUS: "1", MINUS: "0"}.__getitem__, bits))
    except (KeyError, TypeError):  # name the first bad symbol, or spell an unhashable one
        for k, b in enumerate(bits):
            if b != PLUS and b != MINUS:
                raise FormatError(f"symbol at position {k} is {b!r}, not +1/-1") from None
        body = "".join("1" if b == PLUS else "0" for b in bits)
    header = json.dumps({**codec_to_dict(params), "count": len(bits)}, sort_keys=True)
    with _replacing(path, encoding="ascii") as fh:
        fh.write(f"{MAGIC}\n{header}\n{body}\n")


def read_bitstream(path) -> tuple[CodecParams, list[Symbol]]:
    """Read an ODM/1 file back into (params, bits)."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not an ASCII ODM/1 file: {exc}") from exc
    lines = text.split("\n")
    if lines[0] != MAGIC:
        raise FormatError(f"{path}: line 1: bad magic {lines[0][:16]!r}, expected {MAGIC!r}")
    if len(lines) < 3:
        raise FormatError(f"{path}: file truncated: need magic, header, and body lines")
    try:
        header = json.loads(lines[1])
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"{path}: line 2: bad header JSON: {exc}") from exc
    required = {"y0", "M0", "Mbar", "a", "delta", "rule", "count"}
    if not isinstance(header, dict) or not required <= set(header):
        raise FormatError(f"{path}: line 2: header must carry keys {sorted(required)}")
    count = header.pop("count")  # the codec parameters are the other keys
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise FormatError(f"{path}: line 2: count must be a non-negative integer, got {count!r}")
    try:
        params = codec_from_dict(header)
    except FormatError as exc:
        raise FormatError(f"{path}: line 2: {exc}") from exc
    body = lines[2]
    if len(body) != count:
        raise FormatError(f"{path}: line 3: body holds {len(body)} symbols, header says {count}")
    offset = len(body) - len(body.lstrip("01"))  # of the first other character
    if offset < count:
        raise FormatError(f"{path}: line 3, offset {offset}: invalid character {body[offset]!r}")
    return params, [PLUS if ch == "1" else MINUS for ch in body]
