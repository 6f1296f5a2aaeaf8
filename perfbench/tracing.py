"""Spans around calls into the library's public functions, from outside.

:meth:`Tracer.install` replaces every function a ``lowerprev`` module
lists in ``__all__`` with a recording wrapper, then re-binds each name
that another ``lowerprev`` module (or the package itself) imported with
``from ... import``, so nested calls such as ``choquet`` calling
``norm`` get parent links.  Spans are kept in memory and only recorded
while a query's root span is open; spans of one query share its id.
Layer metrics are computed from the spans plus a few counts taken at
the same boundaries (program sizes, closure sizes, domain sizes).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable

LAYER_MODULES = ("simplex", "consistency", "monotone", "gambles", "choquet", "document", "cli")
# Document parsing, schema validation included; serialization is not parsing.
PARSE_SPANS = ("document.load_document", "document.parse_document")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may nest or overlap; the union of their intervals, clipped
    to the parent, is what gets subtracted.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def _bits(values: Iterable[Fraction] | None) -> int:
    if not values:
        return 0
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


class Tracer:
    """Records spans and boundary counts while a query root is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {
            "simplex.cells": 0, "simplex.rows_max": 0, "simplex.bits_max": 0,
            "simplex.infeasible": 0, "gambles.closure_elements": 0,
            "monotone.domain_max": 0,
        }
        self._stack: list[int] = []
        self._query = -1
        self._queries = 0
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def query(self, name: str):
        """Root span of one query; library spans inside it share its id."""
        self._query = self._queries
        self._queries += 1
        with self._span(f"query.{name}"):
            yield
        self._query = -1

    @contextlib.contextmanager
    def _span(self, name: str):
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._query)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrap(self, module: str, name: str, func: Callable) -> Callable:
        label = f"{module}.{name}"
        observe = _OBSERVERS.get(label) or (
            _observe_domain if module == "monotone" else None
        )

        def traced(*args, **kwargs):
            if self._query < 0:
                return func(*args, **kwargs)
            with self._span(label):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules and re-bind imports."""
        wrappers: dict[int, Callable] = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"lowerprev.{short}")
            for name in getattr(module, "__all__", ()):
                func = getattr(module, name, None)
                if callable(func) and not isinstance(func, type) and func.__module__ == module.__name__:
                    wrapper = self._wrap(short, name, func)
                    wrappers[id(func)] = wrapper
                    self._originals.append((module, name, func))
                    setattr(module, name, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lowerprev" or mod_name.startswith("lowerprev.")):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._originals.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (ms), call counts and boundary counts."""
        selfs = self_times(self.spans)
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for span, own in zip(self.spans, selfs):
            module = span.name.split(".", 1)[0]
            busy[module] = busy.get(module, 0.0) + own
            calls[module] = calls.get(module, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
            calls[span.name] = calls.get(span.name, 0) + 1
        parse_ms = 0.0
        parses = 0
        for span in self.spans:
            outer = span.parent < 0 or self.spans[span.parent].name not in PARSE_SPANS
            if span.name in PARSE_SPANS and outer:
                parse_ms += span.end - span.start
                parses += 1
        solves = calls.get("simplex.solve", 0)
        c = self.counts
        return {
            "simplex.solve_calls": solves,
            "simplex.cells": c["simplex.cells"],
            "simplex.rows_max": c["simplex.rows_max"],
            "simplex.busy_ms": total.get("simplex.solve", 0.0) * 1000,
            "simplex.infeasible_share": c["simplex.infeasible"] / solves if solves else 0.0,
            "simplex.bits_max": c["simplex.bits_max"],
            "consistency.self_ms": busy.get("consistency", 0.0) * 1000,
            "consistency.calls": calls.get("consistency", 0),
            "monotone.self_ms": busy.get("monotone", 0.0) * 1000,
            "monotone.calls": calls.get("monotone", 0),
            "monotone.domain_max": c["monotone.domain_max"],
            "gambles.closure_ms": total.get("gambles.lattice_closure", 0.0) * 1000,
            "gambles.closure_elements": c["gambles.closure_elements"],
            "choquet.self_ms": busy.get("choquet", 0.0) * 1000,
            "choquet.calls": calls.get("choquet", 0),
            "document.parse_ms": parse_ms * 1000,
            "document.calls": parses,
            "cli.main_ms": total.get("cli.main", 0.0) * 1000,
        }

    def dump(self, path) -> None:
        """Write the spans, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _observe_solve(counts, args, outcome) -> None:
    lp = args[0]
    rows, cols = len(lp.constraints), len(lp.objective)
    counts["simplex.cells"] += rows * cols
    counts["simplex.rows_max"] = max(counts["simplex.rows_max"], rows)
    if outcome.status.value == "infeasible":
        counts["simplex.infeasible"] += 1
    values = [outcome.value] if outcome.value is not None else []
    values += list(outcome.optimizer or ()) + list(outcome.certificate or ())
    counts["simplex.bits_max"] = max(counts["simplex.bits_max"], _bits(values))


def _observe_closure(counts, args, result) -> None:
    counts["gambles.closure_elements"] += len(result)


def _observe_domain(counts, args, result) -> None:
    if args and hasattr(args[0], "entries"):
        counts["monotone.domain_max"] = max(counts["monotone.domain_max"], len(args[0].entries))


_OBSERVERS = {
    "simplex.solve": _observe_solve,
    "gambles.lattice_closure": _observe_closure,
}
