"""Per-layer metrics and integrity checks computed from one run's spans.

A span's self time is its duration minus the time its child spans
cover. The run is single-threaded, so children never overlap and the
covered time is the sum of child durations; the self times of all
spans of a run then add up to the root span's duration.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Sequence, Tuple

from tracer import ROOT_SPAN, Span

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(section: str) -> List[Tuple[str, str]]:
    """(name, unit) of each metric ``BENCHMARK.json`` lists in
    ``section`` (``end_to_end`` or ``per_layer``): the one place the
    metric set is written down."""
    spec = json.loads(BENCHMARK.read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


def in_declared_order(values: Dict[str, float],
                      declared: Sequence[Tuple[str, str]]
                      ) -> Dict[str, float]:
    """``values`` in the declared order. Raises when the computed and
    the declared metric names differ, so the code and ``BENCHMARK.json``
    cannot drift apart unnoticed."""
    names = [name for name, _ in declared]
    if set(values) != set(names):
        raise ValueError("computed and declared metrics differ: "
                         f"{sorted(set(values) ^ set(names))}")
    return {name: values[name] for name in names}


# Timer resolution plus the few calls between the child's own clock
# reads around ``run_scenario`` and the root span's.
SUM_TOLERANCE_S = 2e-3

# (metric name, unit) of every per-layer metric, in the order
# BENCHMARK.json declares them. :func:`layer_metrics` computes each from
# one run's spans, except ``trace.overhead_s`` (:func:`median_metrics`).
PER_LAYER: List[Tuple[str, str]] = declared_metrics("per_layer")

# Rates and ratios, each with the count it is a share of.
BASES: Dict[str, str] = {
    "runtime.rollout.coverage.share": "trace.run_s",
    "core.formulation.warm_ratio": "core.formulation.resolve_traffic.calls",
    "simulation.emulation.pkt_per_s": "simulation.emulation.packets",
    "ingest.pkt_per_s": "ingest.packets",
    "runtime.scenario.share": "trace.run_s",
}


class Table:
    """Per-span-name aggregates of one run."""

    def __init__(self, spans: Sequence[Span]) -> None:
        covered: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, list] = defaultdict(list)
        for span_id, _, _, name, start, end, count in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += end - start - covered[span_id]
            if count is not None:
                self.counts[name].append(count)
        self.root_s = sum(end - start for _, parent, _, _, start, end, _
                          in spans if parent is None)
        self.spans = len(spans)

    def count_sum(self, name: str) -> int:
        return sum(self.counts[name])


def _warm_ratio(spans: Sequence[Span]) -> Tuple[int, int]:
    """(resolves that built no model, resolves)."""
    parents = {span[0]: span[1] for span in spans}
    model_build_ancestors = set()
    for span_id, parent, _, name, _, _, _ in spans:
        if name != "core.formulation.build_model":
            continue
        while parent is not None:
            model_build_ancestors.add(parent)
            parent = parents[parent]
    resolves = [span[0] for span in spans
                if span[3] == "core.formulation.resolve_traffic"]
    warm = sum(1 for span_id in resolves
               if span_id not in model_build_ancestors)
    return warm, len(resolves)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run, except
    ``trace.overhead_s``, which compares runs (:func:`median_metrics`)."""
    t = Table(spans)
    warm, resolves = _warm_ratio(spans)
    sizes = t.counts["lpsolve.solve"]
    emu_packets = t.count_sum("simulation.emulation")
    ingest_packets = t.count_sum("ingest.consume")

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    values = {
        "runtime.rollout.coverage.calls":
            t.calls["runtime.rollout.coverage"],
        "runtime.rollout.coverage.self_s":
            t.self_s["runtime.rollout.coverage"],
        "runtime.rollout.coverage.class_scans":
            t.count_sum("runtime.rollout.coverage"),
        "runtime.rollout.coverage.share":
            rate(t.self_s["runtime.rollout.coverage"], t.root_s),
        "runtime.rollout.start.self_s": t.self_s["runtime.rollout.start"],
        "runtime.rollout.send.self_s": t.self_s["runtime.rollout.send"],
        "runtime.rollout.sends": t.calls["runtime.rollout.send"],
        "runtime.rollout.retransmits":
            t.count_sum("runtime.rollout.send"),
        "runtime.agents.effective_config.calls":
            t.calls["runtime.agents.effective_config"],
        "runtime.agents.effective_config.self_s":
            t.self_s["runtime.agents.effective_config"],
        "runtime.agents.deliver.self_s":
            t.self_s["runtime.agents.deliver"],
        "runtime.agents.deliveries": t.calls["runtime.agents.deliver"],
        "runtime.events.run_until.self_s":
            t.self_s["runtime.events.run_until"],
        "runtime.events.fired": t.count_sum("runtime.events.run_until"),
        "lpsolve.set_coefficient.calls":
            t.calls["lpsolve.set_coefficient"],
        "lpsolve.set_coefficient.self_s":
            t.self_s["lpsolve.set_coefficient"],
        "lpsolve.solve.calls": t.calls["lpsolve.solve"],
        "lpsolve.solve.self_s": t.self_s["lpsolve.solve"],
        "lpsolve.variables": max((v for v, _ in sizes), default=0),
        "lpsolve.constraints": max((c for _, c in sizes), default=0),
        "core.formulation.build_model.calls":
            t.calls["core.formulation.build_model"],
        "core.formulation.build_model.self_s":
            t.self_s["core.formulation.build_model"],
        "core.formulation.resolve_traffic.calls": resolves,
        "core.formulation.resolve_traffic.self_s":
            t.self_s["core.formulation.resolve_traffic"],
        "core.formulation.warm_ratio": warm / resolves if resolves else 0.0,
        "core.controller.refresh.calls": t.calls["core.controller.refresh"],
        "core.controller.refresh.self_s":
            t.self_s["core.controller.refresh"],
        "core.controller.refresh.total_s":
            t.total["core.controller.refresh"],
        "core.validation.self_s": t.self_s["core.validation"],
        "shim.build_configs.self_s": t.self_s["shim.build_configs"],
        "shim.rules_compiled": t.count_sum("shim.build_configs"),
        "runtime.daemon.steps": t.calls["runtime.daemon.step"],
        "runtime.daemon.refreshes": t.count_sum("runtime.daemon.step"),
        "runtime.daemon.step.self_s": t.self_s["runtime.daemon.step"],
        "runtime.faults.materialize.self_s":
            t.self_s["runtime.faults.materialize"],
        "experiments.setup_topology.self_s":
            t.self_s["experiments.setup_topology"],
        "simulation.tracegen.self_s": t.self_s["simulation.tracegen"],
        "simulation.tracegen.sessions":
            t.count_sum("simulation.tracegen"),
        "simulation.emulation.self_s": t.self_s["simulation.emulation"],
        "simulation.emulation.packets": emu_packets,
        "simulation.emulation.pkt_per_s":
            rate(emu_packets, t.total["simulation.emulation"]),
        "simulation.tracestore.pack.self_s":
            t.self_s["simulation.tracestore.pack"],
        "simulation.tracestore.pack.bytes":
            t.count_sum("simulation.tracestore.pack"),
        "ingest.consume.self_s": t.self_s["ingest.consume"],
        "ingest.chunks": t.calls["ingest.consume"],
        "ingest.packets": ingest_packets,
        "ingest.pkt_per_s":
            rate(ingest_packets, t.total["ingest.consume"]),
        "sketch.observe_batch.self_s": t.self_s["sketch.observe_batch"],
        "runtime.scenario.self_s": t.self_s[ROOT_SPAN],
        "runtime.scenario.share": rate(t.self_s[ROOT_SPAN], t.root_s),
        "trace.run_s": t.root_s,
        "trace.spans": t.spans,
    }
    return values


def integrity_problems(spans: Sequence[Span], run_id: int,
                       traced_run_s: float,
                       expected: Iterable[str],
                       absent: Iterable[str]) -> List[str]:
    """Everything wrong with one traced run's span set (empty = sound).

    - every span belongs to ``run_id``;
    - exactly one root span, named :data:`ROOT_SPAN`; every other
      span's parent is a span of the same run;
    - every child lies inside its parent's interval;
    - the self times add up to the traced ``run_s``;
    - each expected span name recorded a call, each absent one none.
    """
    problems: List[str] = []
    by_id = {span[0]: span for span in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    roots = [span for span in spans if span[1] is None]
    if len(roots) != 1 or roots[0][3] != ROOT_SPAN:
        problems.append(f"expected one {ROOT_SPAN} root span, got "
                        f"{[span[3] for span in roots]}")
    for span_id, parent, run, name, start, end, _ in spans:
        if run != run_id:
            problems.append(f"span {span_id} ({name}) has run id {run}")
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before start")
        if parent is None:
            continue
        up = by_id.get(parent)
        if up is None:
            problems.append(f"span {span_id} ({name}) has unknown parent "
                            f"{parent}")
        elif start < up[4] or end > up[5]:
            problems.append(f"span {span_id} ({name}) leaves its parent "
                            f"{parent} ({up[3]})")
    table = Table(spans)
    self_sum = sum(table.self_s.values())
    if abs(self_sum - traced_run_s) > SUM_TOLERANCE_S:
        problems.append(f"self times add to {self_sum:.6f} s but the "
                        f"traced run took {traced_run_s:.6f} s")
    for name in sorted(expected):
        if table.calls.get(name, 0) == 0:
            problems.append(f"wrapped layer {name} recorded no call")
    for name in sorted(absent):
        if table.calls.get(name, 0) != 0:
            problems.append(f"layer {name} recorded {table.calls[name]} "
                            f"calls where none are expected")
    return problems


def median_metrics(traced: Sequence[Dict[str, float]],
                   untraced_run_s: Sequence[float]) -> Dict[str, float]:
    """Per-metric median over several traced runs. ``trace.overhead_s``
    is the median traced ``run_s`` minus the median ``run_s`` of the
    untraced runs made alternately with them."""
    values = {name: median(run[name] for run in traced)
              for name in traced[0]}
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - median(untraced_run_s))
    return in_declared_order(values, PER_LAYER)
