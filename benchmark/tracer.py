"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at the import sites the
workloads go through (``amalgam.theorems.amalgamation``,
``amalgam.cli.get_report`` and so on) with a wrapper that records one span per
call: layer name, start, end, parent span and request id.  Spans stay in
memory, in flat arrays, until ``write_spans`` stores them at the end of the
run.  Per-layer metrics are accumulated as spans close:

* ``<layer>.calls`` counts calls;
* ``<layer>.s`` sums the duration of calls not nested in a call of the same
  layer, so recursion is not counted twice;
* ``<layer>.self_s`` sums duration minus the time covered by child spans.

Only the process that installed the tracer records; worker processes forked
from it run the original functions.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# (layer, [(module, attribute), ...]): every site a workload calls through.
TRACED = (
    ("theorems.run_harness", [("amalgam.theorems", "run_harness")]),
    ("theorems.build_scenarios", [("amalgam.theorems", "build_scenarios")]),
    ("theorems.build_corpus", [("amalgam.theorems", "build_corpus")]),
    ("theorems.evaluate_clause", [("amalgam.theorems", "evaluate_clause")]),
    ("constructions.amalgamation", [("amalgam.theorems", "amalgamation"), ("amalgam.specdsl", "amalgamation")]),
    ("constructions.f_plus_j", [("amalgam.theorems", "f_plus_j")]),
    ("morphisms.enumerate_homs", [("amalgam.theorems", "enumerate_homs"), ("amalgam.specdsl", "enumerate_homs")]),
    ("morphisms.enumerate_ideals", [("amalgam.theorems", "enumerate_ideals")]),
    ("morphisms.is_semicommutative_ideal", [("amalgam.theorems", "is_semicommutative_ideal")]),
    ("morphisms.preimage_ideal", [("amalgam.theorems", "preimage_ideal")]),
    ("rings.nilradical", [("amalgam.properties", "nilradical"), ("amalgam.cli", "nilradical")]),
    ("rings.central_idempotents", [("amalgam.properties", "central_idempotents")]),
    (
        "properties.get_report",
        [("amalgam.properties", "get_report"), ("amalgam.theorems", "get_report"), ("amalgam.cli", "get_report")],
    ),
    ("specdsl.parse_spec", [("amalgam.specdsl", "parse_spec")]),
    ("cli.execute_model", [("amalgam.cli", "execute_model")]),
)

REPORT_KINDS = ("armendariz", "nil-armendariz", "weak-armendariz", "reduced")
POLY_REPORT_KINDS = REPORT_KINDS[:3]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "theorems.build_corpus.s": "s",
        "theorems.build_scenarios.s": "s",
        "theorems.build_scenarios.scenarios": "count",
    }
    for layer in ("constructions.amalgamation", "constructions.f_plus_j"):
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.distinct_ratio": "ratio"})
    for layer in (
        "morphisms.enumerate_homs",
        "morphisms.enumerate_ideals",
        "morphisms.is_semicommutative_ideal",
        "morphisms.preimage_ideal",
        "rings.nilradical",
        "rings.central_idempotents",
        "specdsl.parse_spec",
    ):
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s"})
    for layer in ("theorems.evaluate_clause", "cli.execute_model"):
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s"})
    units.update(
        {
            "properties.get_report.calls": "count",
            "properties.get_report.hit_ratio": "ratio",
            "properties.get_report.nested_calls": "count",
            "properties.get_report.escalated_calls": "count",
        }
    )
    for kind in REPORT_KINDS:
        prefix = f"properties.get_report.{kind}"
        units.update(
            {
                f"{prefix}.miss_calls": "count",
                f"{prefix}.miss_s": "s",
                f"{prefix}.nodes": "count",
                f"{prefix}.refuted": "count",
            }
        )
    units.update(
        {
            "properties.nodes_per_s": "1/s",
            "theorems.run_harness.child_cpu_s": "s",
            "theorems.run_harness.parent_wait_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class Tracer:
    """Span recorder for one traced process.

    workload_degree is the harness degree bound; get_report calls above it
    count as escalations.  None (the checks workload) counts none.
    """

    def __init__(self, workload_degree: Optional[int] = None):
        self.pid = os.getpid()
        self.workload_degree = workload_degree
        self.request_id = 0
        self.layers: list[str] = []
        self._next_span = 0
        self.span_id = array.array("i")
        self.span_layer = array.array("i")
        self.span_parent = array.array("i")
        self.span_request = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        # open spans: [span id, layer index, child seconds, child report nodes]
        self._stack: list[list] = []
        self._open = defaultdict(int)
        self.calls = defaultdict(int)
        self.outer_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.digests: dict[str, set] = defaultdict(set)
        self.counts = defaultdict(float)
        self._seen_reports: dict[int, object] = {}
        self._installed: list[tuple[object, str, Callable]] = []

    # installation ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        after = {
            "constructions.amalgamation": self._after_construction,
            "constructions.f_plus_j": self._after_construction,
            "theorems.build_scenarios": self._after_build_scenarios,
            "properties.get_report": self._after_get_report,
        }
        for layer, sites in TRACED:
            index = len(self.layers)
            self.layers.append(layer)
            wrappers: dict[int, Callable] = {}
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = self._wrap(original, index, layer, after.get(layer))
                    wrappers[id(original)] = wrapper
                self._installed.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn: Callable, index: int, layer: str, after: Optional[Callable]) -> Callable:
        tracer = self
        pid = self.pid
        clock = time.perf_counter
        stack = self._stack
        open_count = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            frame = [tracer._next_span, index, 0.0, 0]
            tracer._next_span += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            open_count[layer] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                open_count[layer] -= 1
                duration = end - start
                tracer._close(frame, parent, layer, start, end, duration)
                if after is not None and result is not None:
                    after(frame, parent, args, kwargs, result, duration)

        return traced

    def _close(self, frame: list, parent: Optional[list], layer: str, start: float, end: float, duration: float) -> None:
        self.span_id.append(frame[0])
        self.span_layer.append(frame[1])
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_request.append(self.request_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.calls[layer] += 1
        if self._open[layer] == 0:
            self.outer_s[layer] += duration
        self.self_s[layer] += duration - frame[2]
        if parent is not None:
            parent[2] += duration

    # per-layer hooks ---------------------------------------------------------

    def _after_construction(self, frame, parent, args, kwargs, result, duration) -> None:
        layer = self.layers[frame[1]]
        self.digests[layer].add(result.ring.digest())

    def _after_build_scenarios(self, frame, parent, args, kwargs, result, duration) -> None:
        self.counts["theorems.build_scenarios.scenarios"] += len(result[1])

    def _after_get_report(self, frame, parent, args, kwargs, report, duration) -> None:
        counts = self.counts
        if self._open["properties.get_report"] > 0:
            counts["properties.get_report.nested_calls"] += 1
            if parent is not None and self.layers[parent[1]] == "properties.get_report":
                parent[3] += report.pairs_examined
        kind = report.kind.value
        degree = args[2] if len(args) > 2 else kwargs.get("d")
        if (
            self.workload_degree is not None
            and kind in POLY_REPORT_KINDS
            and degree is not None
            and degree > self.workload_degree
        ):
            counts["properties.get_report.escalated_calls"] += 1
        if id(report) in self._seen_reports:
            counts["properties.get_report.hits"] += 1
            return
        self._seen_reports[id(report)] = report
        if kind not in REPORT_KINDS:
            return
        prefix = f"properties.get_report.{kind}"
        counts[f"{prefix}.miss_calls"] += 1
        counts[f"{prefix}.miss_s"] += duration - frame[2]
        counts[f"{prefix}.nodes"] += report.pairs_examined - frame[3]
        if not report.holds:
            counts[f"{prefix}.refuted"] += 1

    # results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the untraced run."""
        units = layer_metric_units()
        out: dict[str, float] = {name: 0.0 for name in units if name != "trace.overhead_s"}
        for layer in self.layers:
            for suffix, table in ((".calls", self.calls), (".s", self.outer_s), (".self_s", self.self_s)):
                if layer + suffix in out:
                    out[layer + suffix] = float(table.get(layer, 0))
        for layer, digests in self.digests.items():
            calls = self.calls.get(layer, 0)
            out[f"{layer}.distinct_ratio"] = len(digests) / calls if calls else 0.0
        for name, value in self.counts.items():
            if name in out:
                out[name] = float(value)
        calls = self.calls.get("properties.get_report", 0)
        out["properties.get_report.hit_ratio"] = self.counts["properties.get_report.hits"] / calls if calls else 0.0
        nodes = sum(self.counts[f"properties.get_report.{k}.nodes"] for k in POLY_REPORT_KINDS)
        seconds = sum(self.counts[f"properties.get_report.{k}.miss_s"] for k in POLY_REPORT_KINDS)
        out["properties.nodes_per_s"] = nodes / seconds if seconds > 0 else 0.0
        return out

    def add_metric(self, name: str, value: float) -> None:
        self.counts[name] += value

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "layers": self.layers,
            "id": self.span_id.tolist(),
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
