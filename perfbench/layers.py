"""Span tracing from outside the program, and the per-layer metrics.

The traced run wraps each layer's public entry points at the binding
sites their callers look them up through (a module attribute, or a
class attribute for methods), records one span per call -- name, start,
end, parent -- in memory, and turns the spans into per-layer self
times once the run is over.  Nothing under ``src/`` is touched: the
wrappers are installed with ``setattr`` and removed again afterwards.

A span's self time is its duration minus the part of it its child
spans cover.  Every ``*_s`` layer metric is a sum of self times over
both passes of a traced iteration, except ``runner.execute_s``, which is
the inclusive time of ``execute`` (its self time is
``executors.self_s``).
"""

from __future__ import annotations

import functools
import importlib
import time

#: (module, attribute, span name).  Spans sharing a name prefix belong
#: to one layer; see LAYER_TIMES for how they fold into metrics.
BINDING_SITES = (
    ("repro.scenarios.runner", "Runner.resolve", "runner.resolve"),
    ("repro.scenarios.runner", "execute", "executors.execute"),
    ("repro.scenarios.executors", "build_tree", "trees.build_tree"),
    # the program atlas imports the spec parsers inside the function
    ("repro.scenarios.spec", "build_tree", "trees.build_tree"),
    # executors import random_relabel inside the function body; the
    # exhaustive verifier binds it at import time.
    ("repro.trees.labelings", "random_relabel", "trees.random_relabel"),
    ("repro.analysis.exhaustive", "random_relabel", "trees.random_relabel"),
    ("repro.scenarios.executors", "build_agent", "agents.build_agent"),
    ("repro.scenarios.spec", "build_agent", "agents.build_agent"),
    ("repro.scenarios.backends", "lowered_for", "agents.lowered_for"),
    ("repro.analysis.program_atlas", "lowered_for", "agents.lowered_for"),
    ("repro.sim.kernel", "agent_table", "kernel.agent_table"),
    ("repro.sim.kernel", "solve_delay_grid_kernel", "kernel.frontier"),
    ("repro.sim.kernel", "solve_gathering_kernel", "kernel.frontier"),
    ("repro.scenarios.backends", "run_pairs_kernel", "kernel.frontier"),
    ("repro.sim.kernel", "solve_all_delays", "solver.dict"),
    ("repro.sim.kernel", "solve_gathering", "solver.dict"),
    ("repro.sim.faults", "solve_all_delays_faulted", "solver.faulted"),
    ("repro.sim.faults", "solve_gathering_faulted", "solver.faulted"),
    ("repro.scenarios.backends", "sweep_delays_traced", "traced"),
    ("repro.scenarios.backends", "sweep_gathering_traced", "traced"),
    ("repro.scenarios.backends", "run_pairs_traced", "traced"),
    ("repro.scenarios.backends", "run_rendezvous_fast", "engine.run"),
    ("repro.core.memory", "measure_memory", "memory.measure"),
    ("repro.scenarios.store", "ResultStore.save", "store.save"),
    ("repro.scenarios.store", "validate_payload", "store.validate"),
    ("repro.scenarios.atlas", "validate_payload", "store.validate"),
    ("repro.scenarios.atlas", "AtlasStore.save", "atlas.save"),
    ("repro.scenarios.atlas", "AtlasStore.lookup", "atlas.lookup"),
)

#: Per-layer time metric -> the span names whose self times it sums.
LAYER_TIMES = {
    "runner.resolve_s": ("runner.resolve",),
    "executors.self_s": ("executors.execute",),
    "trees.build_s": ("trees.build_tree", "trees.random_relabel"),
    "agents.build_s": ("agents.build_agent",),
    "agents.lowering_s": ("agents.lowered_for",),
    "kernel.table_s": ("kernel.agent_table",),
    "kernel.frontier_s": ("kernel.frontier",),
    "solver.dict_s": ("solver.dict",),
    "solver.faulted_s": ("solver.faulted",),
    "traced_s": ("traced",),
    "engine.run_s": ("engine.run",),
    "memory.measure_s": ("memory.measure",),
    "store.save_s": ("store.save",),
    "store.validate_s": ("store.validate",),
    "atlas.save_s": ("atlas.save",),
    "atlas.lookup_s": ("atlas.lookup",),
}

#: Per-layer call counts -> the span names they count.
LAYER_CALLS = {
    "trees.build_calls": ("trees.build_tree", "trees.random_relabel"),
    "solver.calls": ("solver.dict",),
    "engine.runs": ("engine.run",),
}


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index]`` per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every binding site; raises if one no longer exists, so a
        renamed entry point fails the traced run instead of vanishing
        from it."""
        for module_name, attr, span in BINDING_SITES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def mark(self) -> int:
        """The index the next span will get (pass boundaries)."""
        return len(self.spans)


def self_times(spans, lo: int = 0, hi: int = None) -> dict:
    """Per span name: ``[calls, inclusive seconds, self seconds]`` over
    spans ``lo:hi``.  Children always close before their parent (one
    thread), so a parent's covered time is the sum of its children's
    durations."""
    hi = len(spans) if hi is None else hi
    covered = [0.0] * (hi - lo)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            covered[parent - lo] += end - start
    out: dict = {}
    for i, (name, start, end, _parent) in enumerate(spans[lo:hi]):
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - covered[i]
    return out


def top_level_seconds(spans, lo: int, hi: int) -> float:
    """Summed duration of spans ``lo:hi`` that have no parent span."""
    return sum(end - start for _n, start, end, parent in spans[lo:hi] if parent < 0)


def layer_metrics(spans, lo: int = 0, hi: int = None) -> dict:
    """The span-derived per-layer metrics over spans ``lo:hi``."""
    agg = self_times(spans, lo, hi)
    out = {
        metric: sum(agg[n][2] for n in names if n in agg)
        for metric, names in LAYER_TIMES.items()
    }
    out["runner.execute_s"] = agg.get("executors.execute", [0, 0.0, 0.0])[1]
    for metric, names in LAYER_CALLS.items():
        out[metric] = sum(agg[n][0] for n in names if n in agg)
    return out
