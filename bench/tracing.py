"""Spans and counters recorded around the calls into each txpar layer.

The tracer replaces a function by a timing wrapper at the place where the
program looks the name up (a module global such as ``txpar.cli.build_graph``
or a class attribute such as ``DependencyGraph.dependents``). The program
itself is not changed, and ``uninstall`` restores every original.

Three kinds of wrapper:

- span: records ``(id, name, command, start, end, parent, child_time)``; the
  records stay in memory until the run ends;
- leaf: for hot functions with no traced callees (``SvPolicy.storage_version``),
  adds its call count and time to per-command totals and to its parent's child
  time, without storing a record per call;
- count: counts calls only (``storagevm.write_value``, called once per
  written key), because timing it would cost more than its work.

A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (command, name) -> calls or derived counts
        self.leaf_seconds: defaultdict = defaultdict(float)  # (command, name) -> seconds
        self.command = "setup"
        self._stack: list[list] = []  # open frames: [id, name, start, child_time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_time = frame
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans.append((span_id, name, self.command, start, end, parent[0] if parent else None, child_time))
        self.counts[(self.command, name)] += 1

    def span(self, name: str):
        """Context manager for a span around a call made by the benchmark."""
        return _SpanContext(self, name)

    def count(self, name: str, amount=1) -> None:
        self.counts[(self.command, name)] += amount

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                # The hook's own time is tracing overhead: charge it to no layer.
                start = time.perf_counter()
                on_result(tracer, result, args)
                if tracer._stack:
                    tracer._stack[-1][3] += time.perf_counter() - start
            return result

        return traced

    def _leaf_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = (tracer.command, name)
                tracer.counts[key] += 1
                tracer.leaf_seconds[key] += elapsed
                if tracer._stack:
                    tracer._stack[-1][3] += elapsed

        return timed

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[(tracer.command, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets) -> None:
        """Wrap every ``(owner, attribute, name, kind, on_result)`` target."""
        for owner, attr, name, kind, on_result in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "span":
                wrapped = self._span_wrapper(original, name, on_result)
            elif kind == "leaf":
                wrapped = self._leaf_wrapper(original, name)
            elif kind == "count":
                wrapped = self._count_wrapper(original, name)
            else:
                raise ValueError(f"unknown wrapper kind {kind!r}")
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_table(self) -> dict:
        """``{(command, name): {"count", "total_s", "self_s"}}`` over spans,
        leaf timers and counters."""
        table: dict = {}

        def row(key):
            return table.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})

        for _, name, command, start, end, _, child_time in self.spans:
            entry = row((command, name))
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time
        for key, seconds in self.leaf_seconds.items():
            entry = row(key)
            entry["total_s"] += seconds
            entry["self_s"] += seconds
        for key, count in self.counts.items():
            row(key)["count"] = count
        return table


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        return False


# ---------------------------------------------------------------------------
# What to wrap in txpar, and the counts derived from results.
# ---------------------------------------------------------------------------


def _count_edges(tracer, graph, args):
    tracer.count("graph.edges", len(graph.edges))


def _count_engine_run(tracer, result, args):
    """Simulated outcome counts of one OCC run (virtual time, not host time)."""
    busy = 0
    aborts = 0
    for attempt in result.attempts:
        busy += attempt.end - attempt.start
        if attempt.outcome == "aborted":
            aborts += 1
    tracer.count("occsim.attempts", len(result.attempts))
    tracer.count("occsim.aborts", aborts)
    tracer.count("occsim.executed_gas", result.serial_cost + result.wasted_gas)
    tracer.count("occsim.wasted_gas", result.wasted_gas)
    tracer.count("occsim.busy_time", busy)
    tracer.count("occsim.slot_time", result.threads * result.makespan)


def _count_bytes(tracer, result, args):
    tracer.count("report.bytes_written", len(args[1].encode("utf-8")))


ENGINE_SPANS = ("occsim.run_occ_da", "occsim.run_occ_det_commit", "occsim.run_occ_classic")
REPORT_SPANS = ("report.write_text", "report.write_json", "report.render_csv")


def txpar_targets(txpar) -> list[tuple]:
    """Every name the tracer wraps, at the module or class where the program
    looks it up."""
    cli, graph, bound, occsim, storagevm, report = (
        txpar.cli,
        txpar.graph,
        txpar.bound,
        txpar.occsim,
        txpar.storagevm,
        txpar.report,
    )
    return [
        (cli, "parse_trace", "workload.parse_trace", "span", None),
        (cli, "build_graph", "graph.build_graph", "span", _count_edges),
        (cli, "critical_path", "graph.critical_path", "span", None),
        (cli, "bound_schedule", "bound.bound_schedule", "span", None),
        (cli, "run_occ_da", "occsim.run_occ_da", "span", _count_engine_run),
        (cli, "run_occ_det_commit", "occsim.run_occ_det_commit", "span", _count_engine_run),
        (cli, "run_occ_classic", "occsim.run_occ_classic", "span", _count_engine_run),
        (cli, "determinism_probe", "occsim.determinism_probe", "span", None),
        (graph, "heaviest_from", "graph.heaviest_from", "span", None),
        (bound, "heaviest_from", "graph.heaviest_from", "span", None),
        (graph.DependencyGraph, "dependents", "graph.dependents", "span", None),
        (occsim, "run_occ_da", "occsim.run_occ_da", "span", _count_engine_run),
        (occsim, "run_occ_det_commit", "occsim.run_occ_det_commit", "span", _count_engine_run),
        (occsim, "replay_final_state", "storagevm.replay_final_state", "span", None),
        (occsim.SvPolicy, "storage_version", "occsim.storage_version", "leaf", None),
        (storagevm, "replay_final_state", "storagevm.replay_final_state", "span", None),
        (storagevm, "run_serial", "storagevm.run_serial", "span", None),
        (storagevm, "write_value", "storagevm.write_value", "count", None),
        (report, "write_text", "report.write_text", "span", _count_bytes),
        (report, "write_json", "report.write_json", "span", None),
        (report, "render_csv", "report.render_csv", "span", None),
    ]
