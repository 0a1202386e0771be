"""One-bit signal tracking codec (adaptive delta modulation, floored step size).

The encoder emits a single binary symbol per sample: +1 when the running
estimate sits below the sample, -1 when it sits above (an exact tie flips the
previous symbol). Both ends advance the same (estimate, slope) recursion from
shared parameters, so a decoder fed the symbol stream reproduces the encoder's
estimate bit for bit.

Per step k >= 1 the order is fixed: predict the estimate, emit the symbol,
classify the step as a switch (symbol differs from the previous one), then
update the slope. Step 0 is special: the initial estimate and slope are used
as-is and step 0 is never a switch.

Slope adaptation comes in two flavours:

* ``MODIFIED`` - grow by ``a`` on repeated symbols, hold right after a
  switch, and on a switch shrink by ``a`` but never below the floor ``Mbar``.
* ``JAYANT`` - the classical rule: grow by ``a`` off switches, shrink by
  ``a`` on switches, no hold and no floor.

The modified rule's slope is always ``M0 * a**p`` or ``Mbar * a**p`` for some
integer ``p`` (``p >= 0`` once floored). The state machine tracks that
base/power pair exactly and derives the float slope from it, so steady-state
slopes compare bit-exactly against ``Mbar`` and ``a * Mbar`` (a plain
multiplicative recursion can land one ulp off the floor after a grow/shrink
pair).

Under the modified rule, decoding makes no comparison: :func:`_scan` builds
the whole trace from the bits with numpy scans. Encoding makes one comparison
per step (:func:`_symbols`), and its trace is the decode scan of its symbols
plus the samples, returned once every symbol is confirmed against the
comparison rule on the scan's estimates. Where either cannot vouch for the
result (Jayant, bad symbols or samples, any error) it declines, and the
per-step loop runs, with its errors. The comparison loop computes the
estimates in Python floats too, and a scan estimate that differs from them
by a bit is a NumericError: the mirror is checked between two arithmetics.
A :class:`Trace` holds typed numpy columns.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from itertools import islice, repeat
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError, FormatError, NumericError, ParameterError, SequencingError
from .signals import SampledSignal, _check_real

__all__ = [
    "PLUS",
    "MINUS",
    "Symbol",
    "AdaptationRule",
    "CodecParams",
    "CodecState",
    "StepRecord",
    "Trace",
    "init_state",
    "symbol_for_sample",
    "encode_step",
    "decode_step",
    "reconstruct",
    "encode_signal",
    "decode_bitstream",
    "check_trace",
    "codec_to_dict",
    "codec_from_dict",
]

Symbol = int
PLUS: Symbol = 1
MINUS: Symbol = -1


class AdaptationRule(str, Enum):
    MODIFIED = "modified"
    JAYANT = "jayant"


# an enum member lookup costs a descriptor call; the per-step kernel
# compares against this alias instead
_JAYANT = AdaptationRule.JAYANT


@dataclass(frozen=True)
class CodecParams:
    """Shared contract between encoder and decoder.

    y0:    initial estimate (signal units)
    m0:    initial slope, > 0 (signal units per second)
    mbar:  slope floor, >= 0; ignored (and required to be 0) under JAYANT
    a:     adaptation factor, in (1, 2]
    delta: sampling period, > 0 (seconds)
    """

    y0: float
    m0: float
    mbar: float
    a: float
    delta: float
    rule: AdaptationRule = AdaptationRule.MODIFIED

    def __post_init__(self) -> None:
        for name in ("y0", "m0", "mbar", "a", "delta"):
            value = getattr(self, name)
            _check_real(name, value)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.rule, AdaptationRule):
            object.__setattr__(self, "rule", AdaptationRule(self.rule))
        if not 1.0 < self.a <= 2.0:
            raise ParameterError(f"adaptation factor a must be in (1, 2], got {self.a}")
        if self.delta <= 0.0:
            raise ParameterError(f"sampling period delta must be > 0, got {self.delta}")
        if self.m0 <= 0.0:
            raise ParameterError(f"initial slope m0 must be > 0, got {self.m0}")
        if self.mbar < 0.0:
            raise ParameterError(f"slope floor mbar must be >= 0, got {self.mbar}")
        if self.rule is AdaptationRule.JAYANT and self.mbar != 0.0:
            raise ParameterError("the Jayant rule has no slope floor; set mbar=0")

    def with_rule(self, rule: AdaptationRule) -> "CodecParams":
        """Same parameters under another rule (floor zeroed for JAYANT)."""
        rule = AdaptationRule(rule)
        mbar = 0.0 if rule is AdaptationRule.JAYANT else self.mbar
        return replace(self, rule=rule, mbar=mbar)


# config files and ODM/1 headers name two fields otherwise: (field, key) pairs
_CODEC_KEYS = (("m0", "M0"), ("mbar", "Mbar"))


def codec_to_dict(params: CodecParams) -> dict:
    """The parameters under the key names of config files and ODM/1 headers."""
    document = {key: getattr(params, name) for name, key, _, _ in _field_plan(CodecParams, _CODEC_KEYS)[0]}
    return {**document, "rule": params.rule.value}


def codec_from_dict(data: dict) -> CodecParams:
    """Inverse of :func:`codec_to_dict`, by :func:`read_section`."""
    return read_section(CodecParams, data, "codec parameters", _CODEC_KEYS)


def _number(value, what: str, kind=float):
    """A document number converted by ``kind``; bools and non-numbers are
    FormatErrors. An int beyond float range is named by its digit count: the
    caller's message may show the value already."""
    if isinstance(value, bool):
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise FormatError(f"{what} is an int of {len(str(abs(value)))} digits, beyond float range") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be a number, got {value!r}") from exc


def _integer(value, what: str) -> int:
    """A document integer; a non-integral number is a FormatError, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return _number(value, what, int)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {value!r}")
    return value


# read_section's reader for a field, by the name of its annotated type
_READERS = {"float": _number, "int": _integer, "str": _string}


@functools.cache
def _field_plan(cls, keys=(), elsewhere=()) -> tuple:
    """(name, key, required, reader or None) of each init field of the dataclass ``cls``, the
    (field, key) pairs ``keys`` renaming some; and the keys a section may hold: those and ``elsewhere``."""
    renames = dict(keys)
    plan = tuple((f.name, renames.get(f.name, f.name), f.default is MISSING and f.default_factory is MISSING,
                  _READERS.get(getattr(f.type, "__name__", f.type))) for f in fields(cls) if f.init)
    return plan, frozenset(key for _, key, _, _ in plan).union(elsewhere)


def read_section(cls, data, what: str, keys=(), elsewhere=(), **given):
    """The dataclass ``cls`` from the JSON object ``data``, the section ``what``
    of a document. Each init field not in ``given`` is read from its key
    (``keys`` renames some) by its type's reader, or taken as it is; an absent
    key takes the field's default. A key that names no field and is not one of
    ``elsewhere`` (read by the caller) is refused. Every fault is a FormatError naming ``what``."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    plan, known = _field_plan(cls, keys, elsewhere)
    if not known.issuperset(data):
        raise FormatError(f"{what}: unknown key {next(key for key in data if key not in known)!r}")
    for name, key, required, read in plan:
        if name in given:
            continue
        if key in data:
            given[name] = read(data[key], f"{what} {key}") if read else data[key]
        elif required:
            raise FormatError(f"{what} missing key {key!r}")
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class CodecState:
    """State after ``k`` completed steps; identical on both ends.

    ``y``/``m`` are the current estimate and slope, ``h`` the last emitted
    symbol (+1 before step 0). ``prev_in_switch`` says whether the last
    completed step was a switch. ``m_power``/``m_floored`` are the exact
    bookkeeping behind ``m``: the slope equals
    ``(mbar if m_floored else m0) * a**m_power`` (JAYANT tracks ``m``
    multiplicatively instead and leaves them at their running values).
    """

    params: CodecParams
    k: int
    y: float
    m: float
    h: Symbol
    prev_in_switch: bool
    m_power: int = 0
    m_floored: bool = False


@dataclass(frozen=True)
class StepRecord:
    """Everything known about one codec step (``x`` absent on decode)."""

    k: int
    t: float
    x: Optional[float]
    y: float
    h: Symbol
    m: float
    in_switch: bool
    substituted: bool = False


class Trace:
    """A codec run stored as typed numpy columns, one entry per step.

    Step k is the k-th measurement, at time k*delta: a record's ``k`` and
    ``t`` come from its row and ``params.delta``, not a column. The columns
    are the other :class:`StepRecord` fields: ``x``, ``y``, ``m`` float64;
    ``h`` int8; ``in_switch``, ``substituted`` bool. ``x`` is None on a
    decode: samples at every step or at none. The columns must not be mutated.
    ``records`` is the per-step view in Python scalars, built on first use and cached.
    """

    COLUMNS = ("x", "y", "h", "m", "in_switch", "substituted")
    _DTYPES = {"h": np.int8, "in_switch": np.bool_}  # the others float64

    def __init__(self, params: CodecParams, records: Iterable[StepRecord] = ()) -> None:
        records = tuple(records)
        columns = {name: [getattr(r, name) for r in records] for name in ("k", "t", *self.COLUMNS)}
        k, t, x = columns.pop("k"), columns.pop("t"), columns["x"]  # a mix of None and floats fails _exact
        self._fill(params, {**columns, "x": None if x.count(None) == len(x) else x})
        grid = np.arange(len(records))
        off = (_exact("k", k, np.int64) != grid) | (_exact("t", t, np.float64) != grid * params.delta)
        for i in np.flatnonzero(off)[:1].tolist():
            raise ParameterError(f"record {i} is off the grid: k={k[i]!r}, t={t[i]!r}, not {i}, {i * params.delta!r}")
        self.records = records  # seeds the cached view: the tuple given

    @classmethod
    def from_columns(cls, params: CodecParams, **columns) -> "Trace":
        """A trace over all of :attr:`COLUMNS`, of equal lengths, each converted to its
        dtype exactly or a ParameterError; an ``x`` or ``substituted`` of None means none."""
        trace = cls.__new__(cls)
        trace._fill(params, columns)
        return trace

    def _fill(self, params: CodecParams, columns: dict) -> None:
        if set(columns) != set(self.COLUMNS):
            raise ParameterError(f"trace columns must be exactly {self.COLUMNS}")
        self.params = params
        x, substituted = columns.pop("x"), columns.pop("substituted")
        for name, values in columns.items():
            setattr(self, name, _exact(name, values, self._DTYPES.get(name, np.float64)))
        n = len(self.y)
        self.x = None if x is None or not (n or np.size(x)) else _exact("x", x, np.float64)  # no steps: no samples
        self.substituted = np.zeros(n, bool) if substituted is None else _exact("substituted", substituted, np.bool_)
        if any(column is not None and len(column) != n for column in map(vars(self).get, self.COLUMNS)):
            raise ParameterError("trace columns differ in length")

    @functools.cached_property
    def records(self) -> tuple[StepRecord, ...]:
        k = np.arange(len(self))
        columns = [[None] * len(self) if column is None else column.tolist()  # no samples: an x of None at every step
                   for column in map(vars(self).get, self.COLUMNS)]
        return tuple(map(StepRecord, k.tolist(), (k * self.params.delta).tolist(), *columns))

    def __len__(self) -> int:
        return len(self.y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        pairs = [(getattr(self, name), getattr(other, name)) for name in self.COLUMNS]
        return self.params == other.params and len(self) == len(other) and all(  # an x of None is only None
            a is b or a is not None and b is not None and not _differs(a, b).any() for a, b in pairs)

    def __repr__(self) -> str:
        return f"Trace(params={self.params!r}, steps={len(self)})"

    def bits(self) -> list[Symbol]:
        return self.h.tolist()


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the equal-length columns ``a`` and ``b`` differ bit for bit: -0.0 is not 0.0."""
    return a.view(f"i{a.itemsize}") != b.view(f"i{b.itemsize}")


def _exact(name: str, values, dtype) -> np.ndarray:
    """``values`` as a 1-d array of ``dtype`` converted without loss, or a
    ParameterError (strings, objects, fractions for an integer dtype, ...)."""
    try:
        column = np.asarray(values)
    except (TypeError, ValueError) as exc:  # a ragged sequence
        raise ParameterError(f"trace column {name}: {exc}") from None
    if column.ndim != 1 or column.dtype.kind not in "biuf":
        raise ParameterError(f"trace column {name} must be a sequence of numbers, got {column.dtype}")
    if column.dtype == dtype:
        return column
    with np.errstate(invalid="ignore", over="ignore"):  # a cast that is not exact fails the check
        converted = column.astype(dtype)
        if (converted.astype(column.dtype) != column).any():
            raise ParameterError(f"trace column {name} does not convert exactly to {np.dtype(dtype)}")
    return converted


def init_state(params: CodecParams) -> CodecState:
    """Fresh pre-step-0 state: estimate y0, slope m0, symbol memory +1."""
    return CodecState(params=params, k=0, y=params.y0, m=params.m0, h=PLUS, prev_in_switch=False)


def symbol_for_sample(y_k: float, x_k: float, h_prev: Symbol) -> Symbol:
    """+1 if the estimate is below the sample, -1 if above, -h_prev on a tie.

    The tie uses exact float equality: it is an encoder-only branch and any
    epsilon would be arbitrary.
    """
    if not (math.isfinite(y_k) and math.isfinite(x_k)):
        raise NumericError(f"non-finite comparison: y={y_k!r}, x={x_k!r}")
    if y_k < x_k:
        return PLUS
    if y_k > x_k:
        return MINUS
    return -_check_symbol(h_prev)


def _check_symbol(h: Symbol) -> Symbol:
    if h == PLUS:
        return PLUS
    if h == MINUS:
        return MINUS
    raise NumericError(f"binary symbol must be +1 or -1, got {h!r}")


def _check_sample(x_k) -> float:
    try:
        if isinstance(x_k, (int, float)) and math.isfinite(x_k):
            return float(x_k)
    except OverflowError:  # an int beyond float range
        pass
    raise NumericError(f"sample must be finite, got {x_k!r}")


def _check_state(state: CodecState) -> None:
    if state.k < 0 or not math.isfinite(state.y) or not 0.0 < state.m < math.inf:
        raise SequencingError(f"corrupt codec state at step {state.k}")


def _slope_value(params: CodecParams, power: int, floored: bool) -> float:
    base = params.mbar if floored else params.m0
    # powers 0 and 1 are the steady-state values; keep them free of libm pow
    # so they compare bit-exactly against mbar and a*mbar
    if power == 0:
        return base
    if power == 1:
        return base * params.a
    try:
        return base * params.a ** power
    except OverflowError:
        raise NumericError(f"slope power a**{power} overflowed") from None


def _step(params, k, y, m, h_prev, power, floored, prev_in_switch, x_k, h_k):
    """The shared encoder/decoder recursion for step ``k``; :func:`_scan`
    restates it for whole decodes, :func:`_symbols` its symbol choice for
    whole encodes, and both are tested against it.

    ``y``, ``m``, ``h_prev``, ``power``, ``floored`` and ``prev_in_switch``
    describe the state after step k-1 (before step 0: y0, m0, +1, 0, False,
    False). Encoding gives the sample ``x_k`` (symbol from the comparison
    rule); decoding passes None for it and takes the symbol ``h_k`` from the
    channel, which must be +1 or -1. Returns
    ``(y, m, h, in_switch, power, floored)`` of step k.
    """
    if k == 0:
        # the initial estimate and slope are used as-is; step 0 never switches
        h = _check_symbol(h_k) if x_k is None else symbol_for_sample(y, x_k, h_prev)
        return y, m, h, False, power, floored
    y = y + h_prev * m * params.delta
    if not math.isfinite(y):
        raise NumericError(f"estimate overflowed at step {k}")
    h = _check_symbol(h_k) if x_k is None else symbol_for_sample(y, x_k, h_prev)
    in_switch = h_prev * h < 0
    if params.rule is _JAYANT:
        # No floor to re-anchor to, so track the slope multiplicatively;
        # this keeps the m_k/m_{k-1} ratio exactly a or 1/a.
        if in_switch:
            m = m / params.a
            power -= 1
        else:
            m = params.a * m
            power += 1
        floored = False
    elif in_switch:
        if not floored:
            if _slope_value(params, power - 1, False) > params.mbar:
                power -= 1
            else:
                power, floored = 0, True
            m = _slope_value(params, power, floored)
        elif power > 0:
            power -= 1
            m = _slope_value(params, power, True)
        # on the floor at power 0 the slope stays put
    elif not prev_in_switch:
        power += 1
        m = _slope_value(params, power, floored)
    # right after a switch the slope holds
    if not math.isfinite(m) or m <= 0.0:
        raise NumericError(f"slope left (0, inf) at step {k}: {m!r}")
    return y, m, h, in_switch, power, floored


def _state_step(state: CodecState, x_k: Optional[float], h_k: Optional[Symbol]):
    """:func:`_step` on a :class:`CodecState`; returns (new state, record)."""
    _check_state(state)
    params, k = state.params, state.k
    y, m, h, in_switch, power, floored = _step(
        params, k, state.y, state.m, state.h, state.m_power, state.m_floored,
        state.prev_in_switch, x_k, h_k,
    )
    record = StepRecord(k, k * params.delta, x_k, y, h, m, in_switch)
    return CodecState(params, k + 1, y, m, h, in_switch, power, floored), record


def encode_step(state: CodecState, x_k: float) -> tuple[CodecState, Symbol, StepRecord]:
    """Consume one sample, emit one symbol, advance the shared recursion."""
    new_state, record = _state_step(state, _check_sample(x_k), None)
    return new_state, record.h, record


def decode_step(state: CodecState, h_k: Symbol) -> tuple[CodecState, StepRecord]:
    """Consume one received symbol, advance the shared recursion."""
    return _state_step(state, None, h_k)


def reconstruct(record: StepRecord, t: float, delta: float) -> float:
    """Piecewise-linear estimate y(t) on the record's cell [t_k, t_{k+1}].

    At the right endpoint the elapsed time is taken as exactly ``delta`` so
    the value matches the next record's estimate bit for bit (the grid times
    k*delta and (k+1)*delta do not always differ by exactly delta in floats).
    """
    t_next = (record.k + 1) * delta
    if not record.t <= t <= t_next:
        raise DomainError(f"t={t} outside cell [{record.t}, {t_next}] of step {record.k}")
    elapsed = delta if t == t_next else t - record.t
    return record.y + record.h * record.m * elapsed


# power step of the modified rule, indexed by 2*switch + previous switch: grow
# off switches, hold right after one, shrink on one
_POWER_STEP = np.array([1, 0, -1, -1], dtype=np.int8)


def _scan(params: CodecParams, bits, x=None) -> Optional[Trace]:
    """The :func:`_step` loop's decode trace of ``bits``, bit for bit, from
    numpy scans, with ``x`` (None or a float64 array) as its samples; None
    where the loop might raise or the scan cannot vouch."""
    n = len(bits)
    if params.rule is _JAYANT or not n or bits.count(PLUS) + bits.count(MINUS) != n:
        return None
    top = -1  # the highest power reached on the floor
    try:
        h = np.array(bits, dtype=np.int8)  # TypeError on a complex symbol
        switch = _switches(h)
        flags = switch.view(np.int8)
        power = np.zeros(n, dtype=np.int32)  # before the floor: a plain cumulative sum
        np.add.accumulate(_POWER_STEP.take(2 * flags[1:] + flags[:-1]), dtype=np.int32, out=power[1:])
        lo, hi = int(power.min()), int(power.max())
        # the least power whose unfloored slope is above the floor, if the
        # slope rises with the power (checked on the table below)
        tau = lo + bisect_left(range(lo, hi + 1), True,
                               key=lambda p: _slope_value(params, p, False) > params.mbar)
        floor = (switch & (power < tau)).nonzero()[0]  # a switch below tau floors
        f = int(floor[0]) if len(floor) else n
        if f < n:  # from the floor step on, the walk clamped at power 0
            # the power falls on switches only, and those before f land at tau or above
            lo, hi = min(0, int(power[f])), int(power[:f].max())
            walk = power[f:]
            walk -= np.minimum.accumulate(walk)
            top = int(walk.max())
            walk += hi - lo + 1
        table = [_slope_value(params, p, False) for p in range(lo, hi + 1)]
        table += [_slope_value(params, q, True) for q in range(top + 1)]
    except (TypeError, NumericError):
        return None
    if not all(0.0 < m < math.inf for m in table) or any(
            (m > params.mbar) != (p >= tau) for p, m in zip(range(lo, hi + 1), table)):
        return None
    power[:f] -= lo  # now every step's index into the table
    with np.errstate(over="ignore", invalid="ignore"):
        # h*(m*delta) is the loop's (h*m)*delta: h is +-1 and rounding is symmetric
        y = np.concatenate(([params.y0], h[:-1] * (np.array(table) * params.delta)[power[:-1]]))
        np.add.accumulate(y, out=y)  # sequential, in the loop's order
    if not math.isfinite(y[-1]):  # a non-finite estimate stays non-finite
        return None
    return Trace.from_columns(params, x=x, y=y, h=h, m=np.array(table)[power],
                              in_switch=switch, substituted=None)


def _run_stream(params: CodecParams, xs: Iterable, hs: Iterable) -> Trace:
    """Run :func:`_step` over a whole stream and collect the trace columns.

    Encoding passes the (checked) samples as ``xs`` and None for every
    ``hs``; decoding the reverse. The stream ends with the shorter of the two.
    """
    x_col, y_col, h_col, m_col = [], [], [], []
    # bound once: the loop runs once per step
    add_x, add_y, add_h, add_m = x_col.append, y_col.append, h_col.append, m_col.append
    y, m, h, in_switch, power, floored = params.y0, params.m0, PLUS, False, 0, False
    for k, (x_k, h_k) in enumerate(zip(xs, hs)):
        y, m, h, in_switch, power, floored = _step(
            params, k, y, m, h, power, floored, in_switch, x_k, h_k
        )
        add_x(x_k)
        add_y(y)
        add_h(h)
        add_m(m)
    h = np.array(h_col, dtype=np.int8)
    return Trace.from_columns(
        params, x=np.array(x_col, dtype=float) if None not in x_col[:1] else None,
        y=np.array(y_col, dtype=float), h=h, m=np.array(m_col, dtype=float),
        in_switch=_switches(h), substituted=None,
    )


def _switches(h: np.ndarray) -> np.ndarray:
    """The switch flags of a symbol column: ``h[k-1] != h[k]``, never at step 0."""
    switch = np.zeros(len(h), dtype=bool)
    np.not_equal(h[1:], h[:-1], out=switch[1:])
    return switch


def _off_rule(y: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Where a symbol of ``h`` is not the comparison rule's for estimate ``y``,
    sample ``x`` and the symbol before it (+1 before step 0)."""
    h_prev = np.concatenate(([PLUS], h[:-1]))
    return np.where(y < x, PLUS, np.where(y > x, MINUS, -h_prev)) != h


def _symbols(params: CodecParams, values) -> tuple[list[Symbol], array]:
    """The modified rule's symbols for finite float samples, and the
    estimates they were compared with, from the comparisons alone: no check,
    record or call per step. The caller confirms every symbol, so a wrong
    one can only cost time; the estimates are the encoder's own arithmetic,
    which the caller compares with the decode scan's."""
    delta, mbar = params.delta, params.mbar
    # the slopes by power, off the floor or on it, each computed on first use
    free, floor = (functools.cache(functools.partial(_slope_value, params, floored=f)) for f in (False, True))
    y, m = params.y0, params.m0
    h = 1 if y < values[0] else -1  # step 0: a tie flips the +1 before it
    move = h * m * delta  # the estimate's next move, as the loop rounds it
    bits, ys = [h], array("d", [y])  # 8 bytes an estimate
    add, add_y = bits.append, ys.append
    power, floored, held = 0, False, False  # held: the last step was a switch
    for x in islice(values, 1, None):
        y += move
        add_y(y)
        s = 1 if y < x else -1 if y > x else -h
        if s != h:
            h, held = s, True
            if floored:
                if power:
                    power -= 1
                    m = floor(power)
            elif free(power - 1) > mbar:
                power -= 1
                m = free(power)
            else:
                power, floored, m = 0, True, floor(0)
            move = s * m * delta
        elif held:
            held = False
        else:
            power += 1
            m = floor(power) if floored else free(power)
            move = s * m * delta
        add(s)
    return bits, ys


def _encode(params: CodecParams, x: np.ndarray) -> Optional[Trace]:
    """The encode trace of a :class:`SampledSignal`'s samples ``x`` under the
    modified rule: :func:`_scan` of the symbols :func:`_symbols` decides, with
    ``x`` itself as its ``x``. None where it cannot vouch: no samples, an
    overflowing ``a**p``, the scan declining (a slope outside (0, inf), a
    non-finite estimate), or a symbol that breaks the comparison rule on the
    scan's estimates. Bits that pass that check are the :func:`_step` loop's.
    The scan's estimates must then be :func:`_symbols`' own, bit for bit: two
    arithmetics that disagree are a NumericError, as the mirror's are."""
    if params.rule is _JAYANT or not len(x):
        return None
    try:
        bits, y = _symbols(params, x.tolist())
    except NumericError:
        return None
    trace = _scan(params, bits, x=x)
    if trace is None or _off_rule(trace.y, x, trace.h).any():
        return None
    for k in np.flatnonzero(_differs(np.frombuffer(y), trace.y))[:1].tolist():
        raise NumericError(f"decode scan's estimate differs from the encoder's at step {k}: "
                           f"scan {trace.y[k].item()!r}, encoder {y[k]!r}")
    return trace


def encode_signal(params: CodecParams, samples) -> tuple[list[Symbol], Trace]:
    """Encode grid samples into one symbol each; returns (bits, full trace).

    ``samples`` is a ``signals.SampledSignal`` (or anything with ``delta``
    and ``values``); its grid must match ``params.delta`` exactly. Under the
    modified rule :func:`_encode` builds a SampledSignal's trace; where it
    declines, or for any other ``values``, the :func:`_step` loop runs,
    with its errors.
    """
    if samples.delta != params.delta:
        raise ParameterError(
            f"sample grid delta {samples.delta!r} != codec delta {params.delta!r}"
        )
    checked = isinstance(samples, SampledSignal)  # finite floats; any other values are checked step by step
    trace = _encode(params, samples.values) if checked else None
    if trace is None:
        xs = samples.values.tolist() if checked else map(_check_sample, samples.values)
        trace = _run_stream(params, xs, repeat(None))
    return trace.bits(), trace


def decode_bitstream(params: CodecParams, bits) -> Trace:
    """Mirror of :func:`encode_signal`: same recursion driven by the bits, by
    :func:`_scan`, or by the :func:`_step` loop where the scan declines. Both
    only read ``bits``, so a list or tuple is kept as given."""
    bits = bits if isinstance(bits, (list, tuple)) else list(bits)
    trace = _scan(params, bits)
    return _run_stream(params, repeat(None), bits) if trace is None else trace


def check_trace(trace: Trace) -> list[tuple[int, str]]:
    """Re-derive the whole trace from its bits and report any mismatch.

    Used to vet untrusted (possibly tampered) trace files: every y, m and
    switch flag must match the shared recursion bit for bit (-0.0 is not 0.0),
    and where samples are present the symbol must match the comparison rule. The
    columns are compared whole; a row pass over the flagged steps names the
    problems in row order. A non-finite sample raises NumericError.
    """
    want = decode_bitstream(trace.params, trace.bits())
    symbol = np.zeros(len(trace), bool)
    if trace.x is not None:
        for k in np.flatnonzero(~np.isfinite(trace.x))[:1].tolist():
            symbol_for_sample(want.y[k].item(), trace.x[k].item(), PLUS)  # raises its NumericError
        symbol = _off_rule(want.y, trace.x, trace.h)
    y_off, m_off, switch_off = (_differs(getattr(trace, name), getattr(want, name)) for name in ("y", "m", "in_switch"))
    problems: list[tuple[int, str]] = []
    rows = (trace.y, trace.m, trace.in_switch, want.y, want.m, want.in_switch)
    for k in np.flatnonzero(symbol | y_off | m_off | switch_off).tolist():
        y, m, in_switch, y_k, m_k, switch_k = (column[k].item() for column in rows)
        if y_off[k]:
            problems.append((k, f"y={y!r} != recursion value {y_k!r}"))
        if m_off[k]:
            problems.append((k, f"m={m!r} != recursion value {m_k!r}"))
        if switch_off[k]:
            problems.append((k, f"in_switch={in_switch} != {switch_k}"))
        if symbol[k]:
            problems.append((k, "symbol disagrees with the comparison rule"))
    return problems

