"""In-memory spans around the benchmark's calls into admtrack's layers.

A span is (name, start, end, parent). Spans are appended to flat arrays while
the run lasts and written out once, when it ends. Self time is a span's
duration minus the durations of its direct children (calls nest strictly in
this single-threaded benchmark, so children never overlap).
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(index)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter_ns()
            self.start[index] = t0
            self._stack.pop()

    def wrap(self, name, fn):
        call = self.call
        return lambda *args, **kwargs: call(name, fn, *args, **kwargs)

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        root = np.arange(len(parent))
        while True:
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "root": root,
            "self_ns": duration - children,
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def per_pass(spans: dict, name: str, pass_roots) -> list[tuple[float, int]]:
    """(self time in ns, call count) of spans called ``name`` under each root."""
    names = list(spans["names"])
    if name not in names:
        return [(0.0, 0) for _ in pass_roots]
    mine = spans["name_id"] == names.index(name)
    out = []
    for root in pass_roots:
        sel = mine & (spans["root"] == root)
        out.append((float(spans["self_ns"][sel].sum()), int(sel.sum())))
    return out


def durations(spans: dict, name: str) -> np.ndarray:
    """Durations in ns of every span called ``name``."""
    names = list(spans["names"])
    if name not in names:
        return np.zeros(0)
    sel = spans["name_id"] == names.index(name)
    return (spans["end_ns"] - spans["start_ns"])[sel]
