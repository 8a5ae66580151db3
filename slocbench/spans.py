"""Span tracing of ``sloc``'s public functions from outside the package.

Every public function defined in a ``sloc`` module is wrapped in a span
(name, start, end, parent, pass id).  Modules that bind a function under its
own name (``from .sde import wiener_increment_array``) are patched too, and
so are the defining modules' globals, so internal calls are seen as well.
Spans are kept in memory and written to a gzipped CSV when the run ends; a
span's self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import csv
import functools
import gzip
import inspect
import pkgutil
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    pass_id: int = 0
    children_s: float = 0.0
    note: tuple = ()

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


def _sloc_modules(package) -> list:
    names = [package.__name__]
    names += [f"{package.__name__}.{m.name}" for m in pkgutil.iter_modules(package.__path__)]
    for name in names:
        __import__(name)
    return [sys.modules[n] for n in names]


@dataclass
class Tracer:
    """Collects spans while installed; ``clock`` must exclude calibration time."""

    clock: Callable[[], float]
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    pass_id: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self, package) -> int:
        """Wrap every public function of ``package``'s modules; returns the count."""
        modules = _sloc_modules(package)
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1] if "." in mod.__name__ else mod.__name__
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> Path:
        """Write every span as a row ``index, pass_id, name, start, end,
        parent, self_s`` (times in seconds of the tracer's clock, ``parent``
        the index of the enclosing span or -1)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "pass_id", "name", "start", "end", "parent", "self_s"])
            for i, span in enumerate(self.spans):
                out.writerow([i, span.pass_id, span.name, repr(span.start), repr(span.end), span.parent,
                              repr(span.self_s)])
        return path

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span named ``name`` on every call."""
        note_fn = self.notes.get(name)
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1, pass_id=self.pass_id)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.end - span.start
            if note_fn is not None:
                span.note = note_fn(args, kwargs, result)
            return result

        return traced


def summarize(spans: list[Span], pass_id: int) -> dict:
    """Per-name ``calls``, ``self_s`` and ``total_s`` for one pass, plus the
    per-note aggregates ``{(name, key): [self_s, total_s, amount]}``."""
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    by_note: dict[tuple, list] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for span in spans:
        if span.pass_id != pass_id:
            continue
        entry = by_name[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        entry["total_s"] += span.end - span.start
        if span.note:
            key, amount = span.note
            agg = by_note[(span.name, key)]
            agg[0] += span.self_s
            agg[1] += span.end - span.start
            agg[2] += amount
    return {"names": dict(by_name), "notes": dict(by_note)}
