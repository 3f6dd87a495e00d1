"""Layer spans taken from outside the program.

A :class:`Tracer` replaces public functions with timing wrappers that
record ``(name, start, end, parent)`` spans in memory.  Nothing under
``src/`` knows it is being traced: the wrappers are installed on module
and class attributes, the same way a caller would monkeypatch them.
Every span uses :func:`time.monotonic`, which on Linux is one clock for
all processes, so spans written by the traced server line up with the
load generator's measurement window.

:func:`breakdown` turns spans into per-name call counts, inclusive time
and self time (a span's duration minus what its child spans cover),
clipped to a window; self times of every span plus the uncovered rest of
the window add up to the window's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

now = time.monotonic


class Tracer:
    """Records spans of wrapped calls.

    Spans live in flat arrays, not one object each: a traced server
    records hundreds of thousands of them, and as Python objects they
    would make every garbage collection of the program slower."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_of = array("i")
        self._start = array("d")
        self._end = array("d")
        #: index of the enclosing span; -1 is top level
        self._parent = array("i")
        self._stack: list[int] = []

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        """``(name, start, end, parent_index)`` per span, in start order."""
        names = self._names
        return [
            (names[n], start, end, parent)
            for n, start, end, parent in zip(self._name_of, self._start, self._end, self._parent)
        ]

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        name_of, start, end, parent, stack = (
            self._name_of, self._start, self._end, self._parent, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = now()
                stack.pop()

        return traced

    def patch(
        self, owner: object, attr: str, name: str, around: Callable | None = None
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).
        ``around(original)``, when given, returns the function to time
        in its place (e.g. one that also counts work done)."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, around(original) if around else original))

    def patch_everywhere(
        self, module: str, attr: str, name: str, around: Callable | None = None
    ) -> None:
        """Wrap ``module.attr`` and every loaded ``repro`` module that
        imported the same function by name, so each call site is traced
        whichever module it calls through."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, around(original) if around else original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def dump(self, path: str | Path) -> None:
        """Write the spans as compact JSON (a name table plus rows)."""
        rows = [list(row) for row in zip(self._name_of, self._start, self._end, self._parent)]
        Path(path).write_text(json.dumps({"names": self._names, "spans": rows}))


def load(path: str | Path) -> list[tuple[str, float, float, int]]:
    """Spans written by :meth:`Tracer.dump`."""
    doc = json.loads(Path(path).read_text())
    names = doc["names"]
    return [(names[n], start, end, parent) for n, start, end, parent in doc["spans"]]


def breakdown(spans: list[tuple], t0: float, t1: float) -> dict[str, dict[str, float]]:
    """Per span name: ``count`` of spans that ended inside ``[t0, t1]``,
    their inclusive ``total_s``, and the ``self_s`` every span of that
    name spent inside the window outside its children.  The entry
    ``"(other)"`` holds the part of the window no top-level span covers,
    so the ``self_s`` values sum to ``t1 - t0``."""

    def clipped(span: tuple) -> float:
        return max(0.0, min(span[2], t1) - max(span[1], t0))

    out: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    top = 0.0
    for span in spans:
        inside = clipped(span)
        if span[3] >= 0:
            child_time[span[3]] += inside
        else:
            top += inside
    for index, span in enumerate(spans):
        entry = out.setdefault(span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        if t0 <= span[2] <= t1:
            entry["count"] += 1
            entry["total_s"] += span[2] - span[1]
        entry["self_s"] += clipped(span) - child_time[index]
    out["(other)"] = {"count": 0, "total_s": 0.0, "self_s": (t1 - t0) - top}
    return out


def merge(parts: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum breakdowns of several windows (e.g. one per worker process)."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            acc = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
    return out
