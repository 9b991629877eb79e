"""Span tracing from outside the program.

While installed, the tracer replaces the module-level names through which
one netmimo layer calls another (``netmimo.evaluation.trial_rng``,
``netmimo.cli.evaluate_curves``, ...) with wrappers that record a span per
call: name, layer, start, end, parent span and run id. Nothing under
``src/`` changes; uninstalling restores the original names.

Spans are kept in memory and written out when the benchmark ends. Calls made
inside forked pool workers are not seen: their spans stay in the worker.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from itertools import count
from pathlib import Path

import netmimo.allocation
import netmimo.cli
import netmimo.evaluation
import netmimo.oracle
import netmimo.topology

_TOPOLOGY = ("place_grid", "place_uniform_random", "pairwise_distance", "interference_levels",
             "cooperation_radius", "data_sharing_sets", "grid_side", "save_layout")
_CHANNEL = ("trial_rng", "complex_gaussian", "pathloss_matrix")

# (module, attribute, layer): every cross-layer call site reached by the
# workloads. run_verification imports place_grid from topology at call time.
TARGETS = [
    (netmimo.cli, "run_experiment", "cli"),
    (netmimo.cli, "resolve_layout", "cli"),
    (netmimo.cli, "compute_size_table", "cli"),
    (netmimo.cli, "evaluate_curves", "evaluation"),
    (netmimo.cli, "dof_slope", "evaluation"),
    (netmimo.cli, "build_allocation", "allocation"),
    (netmimo.cli, "conventional", "allocation"),
    (netmimo.cli, "allocation_size", "allocation"),
    (netmimo.evaluation, "evaluate_point", "evaluation"),
    (netmimo.evaluation, "build_allocation", "allocation"),
    (netmimo.oracle, "distance_exponents", "allocation"),
    (netmimo.topology, "place_grid", "topology"),
]
TARGETS += [
    (netmimo.oracle, name, "oracle")
    for name in ("run_verification", "resolvent_max_error", "term_decay_check",
                 "truncation_tail_check", "inverse_decay_estimate", "proof_exponent_table")
]
TARGETS += [
    (mod, name, layer)
    for mod in (netmimo.cli, netmimo.evaluation, netmimo.allocation, netmimo.oracle)
    for names, layer in ((_TOPOLOGY, "topology"), (_CHANNEL, "channel"))
    for name in names
    if hasattr(mod, name)
]


def _allocation_key(spec, layout, gamma, p):
    return (spec, layout.positions.tobytes(), gamma, p)


class Tracer:
    """Collects spans for the calls made while installed."""

    def __init__(self) -> None:
        # (span id, parent id, run id, layer, name, start, end)
        self.spans: list[tuple] = []
        self.allocation_keys: dict[int, list] = defaultdict(list)
        self.run_id = 0
        self._ids = count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn inside a span."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, layer, name, t0, t1))

    def _wrapper(self, layer: str, name: str, fn):
        span = self.span
        if name == "allocation.build_allocation":
            keys = self.allocation_keys

            def wrapped(*args, **kwargs):
                keys[self.run_id].append(_allocation_key(*args, **kwargs))
                return span(layer, name, fn, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return span(layer, name, fn, *args, **kwargs)
        return wrapped

    def install(self) -> None:
        for mod, attr, layer in TARGETS:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(layer, f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "run", "layer", "name", "start", "end")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    def per_run(self) -> dict[int, dict]:
        """Per run id: self seconds by layer and by span name, and the
        durations of every span by name."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, *_, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        runs: dict[int, dict] = defaultdict(
            lambda: {"layer_self": defaultdict(float), "self": defaultdict(float),
                     "durations": defaultdict(list)}
        )
        for sid, _, run, layer, name, t0, t1 in self.spans:
            r = runs[run]
            r["layer_self"][layer] += t1 - t0 - child_time[sid]
            r["self"][name] += t1 - t0 - child_time[sid]
            r["durations"][name].append(t1 - t0)
        return runs
