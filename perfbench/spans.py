"""Span recorder for the traced pass, and the per-layer metrics read off it.

The recorder wraps public functions at the name their caller looks them up
under (``zerosum.cli.compute_constant``, ``zerosum.inverse.failing_census``,
...), so no program file changes.  Each call leaves one span: name, start,
end, the span that was open when it began, the command it belongs to, and
an optional count read off the return value.  Spans stay in memory until
the benchmark writes them out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

ORACLE = "sequences.oracle"

# (module, attribute, span name, count read off the return value)
TARGETS = (
    ("zerosum.cli", "compute_constant", "engine.compute_constant", lambda r: r.nodes_visited),
    ("zerosum.cli", "formula_for", "formulas.formula_for", None),
    ("zerosum.cli", "enumerate_extremal", "inverse.enumerate_extremal", None),
    ("zerosum.cli", "verify_characterization", "inverse.verify_characterization", None),
    ("zerosum.inverse", "enumerate_extremal", "inverse.enumerate_extremal", None),
    ("zerosum.inverse", "failing_census", "engine.failing_census", lambda r: r[0].nodes_visited),
    ("zerosum.inverse", "enumerate_squarefree", "inverse.enumerate_squarefree", lambda r: r),
    ("zerosum.inverse", "enumerate_bases_2x2n", "groups.enumerate_bases_2x2n", None),
    ("zerosum.inverse", "has_weighted_zero_of_length", "sequences.has_weighted_zero_of_length", None),
    ("zerosum.inverse", "oracle_has_weighted_zero_of_length", ORACLE, None),
    ("zerosum.engine", "oracle_has_weighted_zero_of_length", ORACLE, None),
    ("zerosum.engine", "oracle_has_weighted_zero_up_to", ORACLE, None),
    ("zerosum.engine", "oracle_nonempty_subsums", ORACLE, None),
)


# every per-layer metric with its unit: the traced pass's, the probes' and the overhead
UNITS = {
    "cli.self_s": "s",
    "formulas.formula_for_s": "s",
    "engine.nodes": "count",
    "engine.search_s": "s",
    "engine.nodes_per_s": "1/s",
    "engine.census_s": "s",
    "sequences.pushes_per_s": "1/s",
    "sequences.oracle_calls": "count",
    "sequences.oracle_s": "s",
    "sequences.table_checks_s": "s",
    "inverse.revalidate_s": "s",
    "inverse.predicate_s": "s",
    "inverse.candidates": "count",
    "inverse.candidates_per_s": "1/s",
    "groups.bases_calls": "count",
    "groups.bases_s": "s",
    "groups.add_per_s": "1/s",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    command: int  # index of the top-level call the span belongs to
    count: int | None


class Recorder:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.command = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            if parent == -1:
                self.command += 1
            self.spans.append(None)
            self._open.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                n = count(result) if count is not None and result is not None else None
                self.spans[idx] = Span(name, start, end, parent, self.command, n)

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the program no longer has."""
        missing = []
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, count))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, f)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    A self time is a span's duration minus its direct children, or minus
    only the children named in ``minus``.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_time(name, minus=None):
        out = 0.0
        for i, s in enumerate(spans):
            if s.name == name:
                covered = sum(c.end - c.start for c in children[i] if minus is None or c.name in minus)
                out += s.end - s.start - covered
        return out

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def counted(*names):
        return sum(s.count for s in spans if s.name in names and s.count is not None)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    nodes = counted("engine.compute_constant", "engine.failing_census")
    search_s = self_time("engine.compute_constant", {ORACLE})
    census_walk_s = self_time("engine.failing_census", {ORACLE})
    predicate_s = total("inverse.enumerate_squarefree")
    candidates = counted("inverse.enumerate_squarefree")
    return {
        "cli.self_s": self_time("cli.main"),
        "formulas.formula_for_s": total("formulas.formula_for"),
        "engine.nodes": nodes,
        "engine.search_s": search_s,
        "engine.nodes_per_s": rate(nodes, search_s + census_walk_s),
        "engine.census_s": total("engine.failing_census"),
        "sequences.oracle_calls": calls(ORACLE),
        "sequences.oracle_s": total(ORACLE),
        "sequences.table_checks_s": total("sequences.has_weighted_zero_of_length"),
        "inverse.revalidate_s": self_time("inverse.enumerate_extremal", {"engine.failing_census"}),
        "inverse.predicate_s": predicate_s,
        "inverse.candidates": candidates,
        "inverse.candidates_per_s": rate(candidates, predicate_s),
        "groups.bases_calls": calls("groups.enumerate_bases_2x2n"),
        "groups.bases_s": total("groups.enumerate_bases_2x2n"),
    }
