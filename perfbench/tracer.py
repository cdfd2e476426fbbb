"""Wall-clock spans around the public functions at each layer boundary.

The tracer patches the attribute a caller actually looks up: class
methods on their class, and names imported into another module (such
as ``coverage_report`` in ``repro.runtime.scenario``) in that module.
Nothing under ``src/`` changes. Spans stay in memory as tuples

    (span_id, parent_id, run_id, name, start, end, count)

and are written out by the caller when the run ends. ``count`` is the
work done by that call where the layer reports one (packets replayed,
sessions generated, bytes packed, ...), else ``None``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

Span = Tuple[int, Optional[int], int, str, float, float, Any]
Counter = Callable[[tuple, dict, Any], Any]


def _class_count(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _retransmit(args: tuple, kwargs: dict, result: Any) -> int:
    return 1 if kwargs.get("_attempt", 0) > 0 else 0


def _returned(args: tuple, kwargs: dict, result: Any) -> Any:
    return result


def _model_size(args: tuple, kwargs: dict, result: Any) -> List[int]:
    model = args[0]
    return [model.num_variables, model.num_constraints]


def _rules(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(config.num_rules for config in result.values())


def _refreshed(args: tuple, kwargs: dict, result: Any) -> int:
    return 0 if result is None else 1


def _sessions(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _batch_sessions(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.sessions.num_sessions)


def _packets(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.packets_total)


def _packed_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(p.stat().st_size for p in Path(result.path).iterdir())


def _chunk_packets(args: tuple, kwargs: dict, result: Any) -> int:
    return int(args[1].num_packets)


def _builds(args: tuple, kwargs: dict) -> bool:
    # Formulation.build_model returns its cached model on every solve;
    # only a call that constructs one is a span.
    return args[0]._model is None


# (module, owner class or None for a module attribute, attribute,
#  span name, counter, predicate deciding whether a call is traced).
TARGETS = [
    ("repro.runtime.scenario", None, "coverage_report",
     "runtime.rollout.coverage", _class_count, None),
    ("repro.runtime.rollout", "RolloutDriver", "start",
     "runtime.rollout.start", None, None),
    ("repro.runtime.rollout", "ConfigChannel", "send",
     "runtime.rollout.send", _retransmit, None),
    ("repro.runtime.agents", "NodeAgent", "effective_config",
     "runtime.agents.effective_config", None, None),
    ("repro.runtime.agents", "NodeAgent", "deliver",
     "runtime.agents.deliver", None, None),
    ("repro.runtime.events", "EventLoop", "run_until",
     "runtime.events.run_until", _returned, None),
    ("repro.runtime.daemon", "ControllerDaemon", "step",
     "runtime.daemon.step", _refreshed, None),
    ("repro.runtime.faults", "NetworkFaultState", "materialize",
     "runtime.faults.materialize", None, None),
    ("repro.experiments.common", None, "setup_topology",
     "experiments.setup_topology", None, None),
    ("repro.core.controller.base", "NIDSController", "refresh",
     "core.controller.refresh", None, None),
    ("repro.core.controller.base", None, "validate_replication",
     "core.validation", None, None),
    ("repro.core.controller.base", None, "build_replication_configs",
     "shim.build_configs", _rules, None),
    ("repro.core.formulation", "Formulation", "build_model",
     "core.formulation.build_model", None, _builds),
    ("repro.core.formulation", "Formulation", "resolve_traffic",
     "core.formulation.resolve_traffic", None, None),
    ("repro.lpsolve.model", "Model", "set_coefficient",
     "lpsolve.set_coefficient", None, None),
    ("repro.lpsolve.model", "Model", "solve",
     "lpsolve.solve", _model_size, None),
    ("repro.simulation.tracegen", "TraceGenerator", "generate",
     "simulation.tracegen", _sessions, None),
    ("repro.simulation.tracegen", "TraceGenerator", "generate_batch",
     "simulation.tracegen", _batch_sessions, None),
    ("repro.simulation.emulation", "Emulation", "run_signature",
     "simulation.emulation", _packets, None),
    ("repro.simulation.emulation", "Emulation", "run_signature_chunked",
     "simulation.emulation", _packets, None),
    ("repro.simulation.tracestore", "TraceStore", "pack",
     "simulation.tracestore.pack", _packed_bytes, None),
    ("repro.ingest.daemon", "IngestDaemon", "consume",
     "ingest.consume", _chunk_packets, None),
    ("repro.sketch.volume", "ClassVolumeSketch", "observe_batch",
     "sketch.observe_batch", None, None),
]

ROOT_SPAN = "runtime.scenario"


class Tracer:
    """Collects the spans of one run in memory."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable,
             counter: Optional[Counter] = None,
             when: Optional[Callable[[tuple, dict], bool]] = None
             ) -> Callable:
        """``fn`` recording one span per call (per traced call when
        ``when`` is given)."""
        spans, stack, ids = self.spans, self._stack, self._ids
        run_id, clock = self.run_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, run_id, name, start, end,
                              None))
                raise
            end = clock()
            stack.pop()
            count = (counter(args, kwargs, result)
                     if counter is not None else None)
            spans.append((span_id, parent, run_id, name, start, end,
                          count))
            return result

        return traced

    def install(self) -> None:
        """Patch every target; a missing attribute raises."""
        for module_name, owner_name, attr, name, counter, when in TARGETS:
            module = importlib.import_module(module_name)
            owner = (module if owner_name is None
                     else getattr(module, owner_name))
            raw = (owner.__dict__[attr] if owner_name is not None
                   else getattr(owner, attr))
            if isinstance(raw, classmethod):
                # The plain function sees ``cls`` as ``args[0]``, as a
                # method sees ``self``.
                wrapped: Any = classmethod(
                    self.wrap(name, raw.__func__, counter, when))
            else:
                wrapped = self.wrap(name, raw, counter, when)
            setattr(owner, attr, wrapped)

