"""Spans around the public functions of the ahj modules, recorded from outside.

The tracer replaces module attributes with timing wrappers; the package's
own code is untouched.  Every module attribute that names a wrapped
function is replaced, including the names other ahj modules import (for
example ``ahj.search.is_rainbow_free`` or ``ahj.cli.max_rf_colors``), so
calls between modules get spans too.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

# Per-point and per-line helpers run up to millions of times per pass
# (automorphism_index_maps calls point_index once per point per group
# element).  A span each would cost more memory and time than the work it
# measures, so their time is charged to the self time of their callers.
UNTRACED = frozenset(
    {
        "hypercube.point_index",
        "hypercube.point_from_index",
        "hypercube.point_of",
        "hypercube.expand",
        "hypercube.collinear",
        "hypercube.template_from_string",
        "coloring.is_rainbow",
    }
)

SOLVED_STATUSES = ("OPTIMAL", "INFEASIBLE")


def _traceable(obj) -> bool:
    """A public ahj function (or lru_cache wrapper) that returns its result."""
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "")
    if not module.startswith("ahj.") or name.startswith("_"):
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_clear")):
        return False
    # A generator function returns before doing its work; its span would be empty.
    return not inspect.isgeneratorfunction(inspect.unwrap(obj))


def span_name(obj) -> str:
    return f"{obj.__module__.removeprefix('ahj.')}.{obj.__name__}"


def _outcome(result):
    """What a span keeps of its result: (status, nodes) for search outcomes,
    otherwise whether anything was returned."""
    nodes = getattr(result, "nodes_explored", None)
    if nodes is not None:
        return (result.status.name, nodes)
    return result is not None


class Tracer:
    """Records one span per call: name, start, end, parent span and outcome.

    The benchmark runs on one thread, so one stack of open spans suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, outcome]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not _traceable(obj) or span_name(obj) in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(span_name(obj), obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[4] = _outcome(result)
            return result

        return traced

    @contextlib.contextmanager
    def job(self, name: str):
        """The root span of one benchmark job."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, outcome) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "outcome": outcome}
                out.write(json.dumps(record) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, nodes, solved and found counts
        (zero for a name never called).

        Self time is a span's duration minus the durations of its children;
        on one thread the children are disjoint and nested inside it.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "nodes": 0, "solved": 0, "found": 0}
        )
        for (name, start, end, _, outcome), inner in zip(self.spans, child_time):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
            if isinstance(outcome, tuple):
                entry["nodes"] += outcome[1]
                entry["solved"] += int(outcome[0] in SOLVED_STATUSES)
            elif outcome:
                entry["found"] += 1
        return stats
