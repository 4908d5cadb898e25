"""In-memory span tracing of rastube's module functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever
the package binds it (the defining module, every module that imported it
by name, or the class that owns a method) and ``uninstall`` puts the
originals back.  A span wrapper records (name, start, end, parent); a
count wrapper only counts, for calls too frequent or too cheap to time.
Spans and counts stay in memory until ``write``.

Per-layer metrics are derived from the spans: a layer's time is the sum
of its span durations, its self time subtracts the part its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# A target is "module:function" or "module:Class.method".
# (target, span name)
SPAN_TARGETS = [
    ("rastube.cli:parse_scenario", "cli.parse"),
    ("rastube.avoidance:schedule", "avoidance.schedule"),
    ("rastube.avoidance:intersection_interval", "avoidance.windows"),
    ("rastube.avoidance:select_side", "avoidance.select_side"),
    ("rastube.scenario:validate_assumptions", "scenario.validate"),
    ("rastube.tube_core:integrate_lower", "tube_core.integrate"),
    ("rastube.tube:evolve_tube", "tube.evolve"),
    ("rastube.tube:verify_tube", "tube.verify"),
    ("rastube.tube:smoothness_check", "tube.smoothness"),
    ("rastube.tube:Tube.to_csv", "tube.to_csv"),
    ("rastube.plant:simulate", "plant.simulate"),
    ("rastube.plant:FrameProvider.frame", "plant.frame"),
    ("rastube.plant:SimTrace.to_csv", "plant.trace_csv"),
    ("rastube.controller:control_input", "controller.control"),
    ("rastube.metrics:control_effort", "metrics.effort"),
    ("rastube.sim_core:run_closed_loop", "sim_core.run"),
]
# (target, counter name, scope): a counter with a scope counts only the
# calls made while a span of that name is open
COUNT_TARGETS = [
    ("rastube.reach:ReachMargin.value", "reach.value_calls", "avoidance.select_side"),
    ("rastube.reach:ReachMargin.value_vec", "reach.value_calls", "avoidance.select_side"),
    ("rastube.geometry:Box.from_pairs", "geometry.box_builds", "avoidance.select_side"),
    ("rastube.plant:OmniRobot.derivative", "plant.dynamics_calls", None),
    ("rastube.plant:IntegratorPlant.derivative", "plant.dynamics_calls", None),
]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: List[str] = []      # targets this version of the package lacks
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        spans = self.spans
        return any(spans[i][0] == name for i in self._stack)

    def _on_result(self, name: str, args, result) -> None:
        """Counts read from a call's arguments or result."""
        if name == "tube_core.integrate":
            steps = int(args[1])
            if self.inside("tube.evolve"):
                self.counts["tube_core.corridor_steps"] += steps
            elif self.inside("avoidance.schedule"):
                self.counts["tube_core.candidate_steps"] += steps
                self.counts["avoidance.candidate_integrations"] += 1
        elif name == "avoidance.select_side" and result is not None:
            self.counts["avoidance.accepted"] += 1
        elif name == "avoidance.schedule":
            self.counts["avoidance.plans"] += len(result)
        elif name == "tube.evolve":
            self.counts["tube.rows"] += int(result.ts.shape[0])
        elif name == "plant.simulate":
            self.counts["plant.steps"] += max(int(result.ts.shape[0]) - 1, 0)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            self._on_result(name, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable, scope: Optional[str]) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if scope is None or self.inside(scope):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for target, name in SPAN_TARGETS:
            self._patch(target, lambda fn, name=name: self._span_wrapper(name, fn))
        for target, name, scope in COUNT_TARGETS:
            self._patch(target, lambda fn, name=name, scope=scope:
                        self._count_wrapper(name, fn, scope))

    def _patch(self, target: str, make: Callable) -> None:
        module_name, attr = target.split(":")
        module = sys.modules.get(module_name)
        owner_name, _, key = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or key not in vars(owner):
            self.missing.append(target)
            return
        original = vars(owner)[key]
        if owner_name:
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._restore.append((owner, key, original))
            setattr(owner, key, wrapped)
            return
        wrapped = make(original)
        # rebind every name the package holds for this function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rastube" or mod_name.startswith("rastube.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, binding, original))
                    setattr(mod, binding, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- derived metrics ---------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """Spans as CSV rows ``index,parent,name,start,end``."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")


# unit of every per-layer metric; times and counts are per traced operation
LAYER_UNITS = {
    "cli.parse_s": "s",
    "avoidance.schedule_s": "s",
    "avoidance.windows_s": "s",
    "avoidance.windows_calls": "count",
    "avoidance.select_side_s": "s",
    "avoidance.select_side_calls": "count",
    "avoidance.candidate_integrations": "count",
    "avoidance.rejected_candidates": "count",
    "avoidance.plans_per_candidate": "ratio",
    "scenario.validate_s": "s",
    "tube_core.integrate_s": "s",
    "tube_core.candidate_steps": "count",
    "tube_core.corridor_steps": "count",
    "tube_core.steps_per_s": "1/s",
    "tube.evolve_s": "s",
    "tube.verify_s": "s",
    "tube.smoothness_s": "s",
    "tube.to_csv_s": "s",
    "tube.rows": "count",
    "reach.value_calls": "count",
    "geometry.box_builds": "count",
    "plant.simulate_s": "s",
    "plant.steps": "count",
    "plant.steps_per_s": "1/s",
    "plant.frame_s": "s",
    "plant.frame_calls": "count",
    "plant.dynamics_calls": "count",
    "plant.trace_csv_s": "s",
    "controller.control_s": "s",
    "controller.control_calls": "count",
    "metrics.effort_s": "s",
    "sim_core.run_calls": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """The per-layer metrics, per traced operation (ratios excepted)."""
    tot = tracer.totals()
    c = tracer.counts
    ops = max(ops, 1)

    def secs(name, key="total_s"):
        return tot.get(name, {}).get(key, 0.0) / ops

    def calls(name):
        return tot.get(name, {}).get("calls", 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    steps = c["tube_core.candidate_steps"] + c["tube_core.corridor_steps"]
    tried = tot.get("avoidance.select_side", {}).get("calls", 0)
    return {
        "cli.parse_s": secs("cli.parse"),
        "avoidance.schedule_s": secs("avoidance.schedule"),
        "avoidance.windows_s": secs("avoidance.windows"),
        "avoidance.windows_calls": calls("avoidance.windows"),
        "avoidance.select_side_s": secs("avoidance.select_side"),
        "avoidance.select_side_calls": calls("avoidance.select_side"),
        "avoidance.candidate_integrations": c["avoidance.candidate_integrations"] / ops,
        "avoidance.rejected_candidates": (tried - c["avoidance.accepted"]) / ops,
        "avoidance.plans_per_candidate":
            ratio(c["avoidance.plans"], c["avoidance.candidate_integrations"]),
        "scenario.validate_s": secs("scenario.validate"),
        "tube_core.integrate_s": secs("tube_core.integrate"),
        "tube_core.candidate_steps": c["tube_core.candidate_steps"] / ops,
        "tube_core.corridor_steps": c["tube_core.corridor_steps"] / ops,
        "tube_core.steps_per_s": ratio(steps, tot.get("tube_core.integrate", {})
                                       .get("total_s", 0.0)),
        "tube.evolve_s": secs("tube.evolve", "self_s"),
        "tube.verify_s": secs("tube.verify"),
        "tube.smoothness_s": secs("tube.smoothness"),
        "tube.to_csv_s": secs("tube.to_csv"),
        "tube.rows": c["tube.rows"] / ops,
        "reach.value_calls": c["reach.value_calls"] / ops,
        "geometry.box_builds": c["geometry.box_builds"] / ops,
        "plant.simulate_s": secs("plant.simulate"),
        "plant.steps": c["plant.steps"] / ops,
        "plant.steps_per_s": ratio(c["plant.steps"], tot.get("plant.simulate", {})
                                   .get("total_s", 0.0)),
        "plant.frame_s": secs("plant.frame"),
        "plant.frame_calls": calls("plant.frame"),
        "plant.dynamics_calls": c["plant.dynamics_calls"] / ops,
        "plant.trace_csv_s": secs("plant.trace_csv"),
        "controller.control_s": secs("controller.control"),
        "controller.control_calls": calls("controller.control"),
        "metrics.effort_s": secs("metrics.effort"),
        "sim_core.run_calls": calls("sim_core.run"),
    }
