"""Spans around holant's public functions, recorded from outside the package.

``Tracer.install`` rebinds each listed function in every ``holant`` module
that holds it by name, so calls between modules are traced as well as calls
from the benchmark.  A span records its name, task, parent, start, end, its
active time and the time covered by its children; self time is the active
time minus the children's.  A generator's span is active only while it runs
between two yields, and each such stretch counts as child time of the span
that resumed it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    task: str
    parent: int | None
    start: float
    end: float = 0.0
    active: float = 0.0
    children: float = 0.0
    yielded: int = 0

    @property
    def self_time(self) -> float:
        return self.active - self.children


@dataclass
class Tracer:
    """Collects spans in memory; one tracer per benchmark run."""

    spans: list[Span] = field(default_factory=list)
    task: str = "setup"
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    on_return: dict = field(default_factory=dict)

    # -- recording --

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.task, parent, perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _leave(self, index: int, began: float) -> None:
        now = perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span.end = now
        span.active += now - began
        if self._stack:
            self.spans[self._stack[-1]].children += now - began

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self._enter(name)
        began = self.spans[index].start
        try:
            result = fn(*args, **kwargs)
        finally:
            self._leave(index, began)
        hook = self.on_return.get(name)
        if hook is not None:
            hook(result)
        return result

    def _generator(self, name: str, gen):
        index = None
        while True:
            if index is None:
                index = self._enter(name)
                began = self.spans[index].start
            else:
                self._stack.append(index)
                began = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._leave(index, began)
            self.spans[index].yielded += 1
            yield item

    # -- installing wrappers --

    def _wrap(self, name: str, fn, is_generator: bool):
        if is_generator:
            def traced(*args, **kwargs):
                return self._generator(name, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, targets) -> None:
        """Wrap ``targets``: (module, dotted attribute, is_generator) triples.

        Every ``holant`` module attribute bound to the same function object
        is rebound too.  ``uninstall`` restores the originals.
        """
        for module, attr, is_generator in targets:
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf)
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            traced = self._wrap(name, original, is_generator)
            holders = [owner] + [m for key, m in sorted(sys.modules.items())
                                 if key.split(".")[0] == "holant" and m is not owner]
            for holder in holders:
                if holder.__dict__.get(leaf) is original:
                    self._saved.append((holder, leaf, original))
                    setattr(holder, leaf, traced)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._saved):
            setattr(holder, leaf, original)
        self._saved.clear()


def task_totals(spans) -> dict[str, tuple[float, float]]:
    """Per task: (sum of span self times, active time of its root spans)."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        entry = totals.setdefault(span.task, [0.0, 0.0])
        entry[0] += span.self_time
        if span.parent is None:
            entry[1] += span.active
    return {task: (s, r) for task, (s, r) in totals.items()}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time and items yielded."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "yielded": 0})
        entry["calls"] += 1
        entry["self_s"] += span.self_time
        entry["yielded"] += span.yielded
    return out
