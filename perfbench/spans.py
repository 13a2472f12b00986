"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: each traced public function
is replaced, in every module of the package that binds it, by a wrapper
that notes when the call started and ended, which span was open when it
was made (its parent) and which benchmark op it belongs to.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int
    work: float = 0.0  # layer-specific amount of work, e.g. series length


@dataclass(frozen=True)
class Layer:
    """One traced function: where it is defined and how to size a call.

    ``work`` is called with the traced call's own arguments and returns
    the amount of work that call does (0 when not given).  ``keep`` keeps
    every return value, for counters that inspect results after the run.
    """

    module: str
    attr: str
    work: Callable | None = None
    keep: bool = False


class Tracer:
    """Collects spans while ``op`` is set; calls made outside an op pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = defaultdict(list)
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work: Callable | None = None, keep: bool = False):
        spans, stack, clock, results = self.spans, self._stack, time.perf_counter, self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            amount = work(*args, **kwargs) if work is not None else 0.0
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, op, amount)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                results[name].append(result)
            return result

        return traced


@contextmanager
def instrumented(tracer: Tracer, layers: dict[str, Layer], package: str):
    """Rebind each layer's function to a traced wrapper, then restore it.

    Every module of ``package`` that holds the same function object under
    any name (``from .longrun import estimate_longrun_cov`` in another
    module, or a re-export in ``__init__``) gets the one wrapper, so a call
    through any of those names records exactly one span.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    undo = []
    try:
        for name, layer in layers.items():
            original = getattr(sys.modules[layer.module], layer.attr)
            wrapper = tracer.wrap(name, original, layer.work, layer.keep)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(undo):
            setattr(module, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, busy time, self time and work summed per span name."""
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span, own in zip(spans, self_times(spans)):
        t = out[span.name]
        t.calls += 1
        t.busy_s += span.end - span.start
        t.self_s += own
        t.work += span.work
    return dict(out)


def ancestors_of(spans: list[Span], name: str) -> set[int]:
    """Indices of the spans that enclose, at any depth, a span called ``name``."""
    marked: set[int] = set()
    for span in spans:
        if span.name == name:
            parent = span.parent
            while parent is not None and parent not in marked:
                marked.add(parent)
                parent = spans[parent].parent
    return marked
