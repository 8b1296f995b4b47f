"""Span recorder for the traced replay of the corred benchmark.

The replay runs the same ``corred`` CLI invocation as the timed runs, with
each layer's public functions replaced, for the length of the replay, by
wrappers that record a span around every call. Nothing in the library is
edited; the originals are put back when the replay ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    invocation: int
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in Tracer.spans, -1 at the top level.
    parent: int = -1
    #: What ``note`` extracted from the call's result, if anything.
    note: Any = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    invocation: int = 0
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(self.invocation, name, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cli, models, reduction, matrixcore):
        """Wrap the layer functions of the given corred modules while active."""
        report = lambda r: (getattr(r, "iterations", 0), getattr(r, "verdict", "?"))  # noqa: E731
        targets = [
            (models, "jcm_vacuum_density", "models.state", None),
            (models, "spin_pair_density", "models.state", None),
            (models, "jcm_evolution", "models.evolution", None),
            (models, "spin_pair_evolution", "models.evolution", None),
            # The composite states built in models; small reduced states
            # validated inside the reductions count toward those spans.
            (models, "DensityMatrix", "states.validate", None),
            (reduction, "neumann_reduce", "reduction.neumann", None),
            (reduction, "correlated_reduce", "reduction.correlated", report),
            (matrixcore, "partial_trace", "matrixcore.partial_trace", None),
            (matrixcore, "matrix_from_json", "matrixcore.from_json", None),
            (matrixcore, "matrix_to_json", "matrixcore.to_json", None),
        ]
        swaps = [
            (module, attr, self.wrap(name, getattr(module, attr), note))
            for module, attr, name, note in targets
            if hasattr(module, attr)
        ]
        if hasattr(cli, "json"):
            swaps.append((cli, "json", _Proxy(
                json,
                load=self.wrap("cli.json_load", json.load),
                loads=self.wrap("cli.json_load", json.loads),
                dump=self.wrap("cli.json_dump", json.dump),
                dumps=self.wrap("cli.json_dump", json.dumps),
            )))
        if hasattr(cli, "DensityMatrix"):
            # Strict validation of the state file that ``reduce`` reads.
            dm = cli.DensityMatrix
            swaps.append((cli, "DensityMatrix", _Proxy(
                dm, from_json=self.wrap("states.validate", dm.from_json)
            )))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
        try:
            for module, attr, replacement in swaps:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per call of each span name, minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(list)
        for s, c in zip(self.spans, child):
            out[s.name].append(s.end - s.start - c)
        return out

    def covered(self) -> dict[int, float]:
        """Seconds covered by top-level spans, per invocation."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent < 0:
                out[s.invocation] += s.end - s.start
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class _Proxy:
    """Stands in for an object, overriding some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def __call__(self, *args, **kwargs):
        return self._target(*args, **kwargs)

