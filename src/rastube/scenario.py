"""Task specification and assumption validation.

A task bundles the reach-avoid-stay geometry (start/target/unsafe boxes,
deadline, margins) plus the workspace the corridor may use.  Construction
validates the hard invariants, each reported under its scenario key path
(``task.*``, ``tube.*``); the margin boxes are shrunk per dimension when
the configured extents would not fit inside the start/target sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .geometry import Box
from .reach import ReachMargin


def _as_vector(value, n, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigurationError([(name, f"expected {n} entries, got shape {arr.shape}")])
    return arr


@dataclass(frozen=True)
class RasTask:
    """Reach-avoid-stay task over the constrained state dimensions."""

    initial_set: Box
    target_set: Box
    unsafe_sets: tuple
    deadline: float
    start: np.ndarray          # initial state, strictly inside initial_set
    target: np.ndarray         # reference point, strictly inside target_set
    start_margin: np.ndarray   # half-extent of the start corridor box, per dim
    target_margin: np.ndarray  # half-extent of the arrival corridor box, per dim
    obstacle_margin: np.ndarray  # extra clearance per unsafe set
    workspace: Box
    shrunk_start_dims: tuple = field(default=())
    shrunk_target_dims: tuple = field(default=())

    @classmethod
    def create(cls, initial_set, target_set, unsafe_sets, deadline, start, target,
               start_margin, target_margin, obstacle_margin, workspace) -> "RasTask":
        issues = []
        n = initial_set.n
        start = _as_vector(start, n, "task.start_state")
        target = _as_vector(target, n, "task.target_point")
        start_margin = _as_vector(start_margin, n, "task.start_margin")
        target_margin = _as_vector(target_margin, n, "task.target_margin")
        unsafe_sets = tuple(unsafe_sets)
        obstacle_margin = _as_vector(obstacle_margin, max(len(unsafe_sets), 1),
                                     "task.obstacle_margin")[:len(unsafe_sets)] \
            if len(unsafe_sets) else np.zeros(0)

        if target_set.n != n:
            issues.append(("task.target_set", f"expected {n} dimensions"))
        if workspace.n != n:
            issues.append(("task.workspace", f"expected {n} dimensions"))
        if not deadline > 0:
            issues.append(("task.time_limit", "must be positive"))
        for j, u in enumerate(unsafe_sets):
            if u.n != n:
                issues.append((f"task.unsafe_sets[{j}]", f"expected {n} dimensions"))
        if issues:
            raise ConfigurationError(issues)

        if not initial_set.contains_point(start, strict=True):
            issues.append(("task.start_state", "must lie strictly inside the initial set"))
        if not target_set.contains_point(target, strict=True):
            issues.append(("task.target_point", "must lie strictly inside the target set"))
        if np.any(start_margin <= 0):
            issues.append(("task.start_margin", "entries must be positive"))
        if np.any(target_margin <= 0):
            issues.append(("task.target_margin", "entries must be positive"))
        if len(unsafe_sets) and np.any(obstacle_margin <= 0):
            issues.append(("task.obstacle_margin", "entries must be positive"))
        for j, u in enumerate(unsafe_sets):
            if not initial_set.disjoint_from(u):
                issues.append((f"task.unsafe_sets[{j}]", "intersects the initial set"))
            if not target_set.disjoint_from(u):
                issues.append((f"task.unsafe_sets[{j}]", "intersects the target set"))
        if not workspace.contains(initial_set):
            issues.append(("task.workspace", "must contain the initial set"))
        if not workspace.contains(target_set):
            issues.append(("task.workspace", "must contain the target set"))
        if issues:
            raise ConfigurationError(issues)

        # Shrink margins per dimension to the largest symmetric extent that fits.
        eff_start, shrunk_s = cls._fit_margins(start, start_margin, initial_set)
        eff_target, shrunk_t = cls._fit_margins(target, target_margin, target_set)

        return cls(initial_set=initial_set, target_set=target_set,
                   unsafe_sets=unsafe_sets, deadline=float(deadline),
                   start=start, target=target,
                   start_margin=eff_start, target_margin=eff_target,
                   obstacle_margin=obstacle_margin, workspace=workspace,
                   shrunk_start_dims=tuple(shrunk_s), shrunk_target_dims=tuple(shrunk_t))

    @staticmethod
    def _fit_margins(point, margin, box):
        room = np.minimum(point - box.lower, box.upper - point)
        fitted = np.minimum(margin, room)
        shrunk = [int(i) for i in np.nonzero(fitted < margin)[0]]
        return fitted, shrunk

    @property
    def n(self) -> int:
        return self.initial_set.n

    @property
    def n_obstacles(self) -> int:
        return len(self.unsafe_sets)

    @property
    def band_halfwidth(self) -> np.ndarray:
        """Half of the corridor width per dimension: min of the two margins."""
        return np.minimum(self.start_margin, self.target_margin)

    @staticmethod
    def _clamped_box(point, margin, outer: Box) -> Box:
        # the margin already fits by construction; clamping removes the
        # last-ulp rounding of point - (point - bound)
        lower = np.maximum(point - margin, outer.lower)
        upper = np.minimum(point + margin, outer.upper)
        return Box.from_pairs(zip(lower, upper))

    def start_box(self) -> Box:
        """Corridor box at t = 0, centred on the initial state."""
        return self._clamped_box(self.start, self.start_margin, self.initial_set)

    def target_box(self) -> Box:
        """Corridor box at the deadline, centred on the target point."""
        return self._clamped_box(self.target, self.target_margin, self.target_set)

    def lower_margin(self) -> ReachMargin:
        """Reach margin between the lower corners of the corridor boxes.

        The same instance on every call, so the candidate checks and the
        corridor of one task share its nominal increments.
        """
        return self._lower_margin

    @cached_property
    def _lower_margin(self) -> ReachMargin:
        return ReachMargin(self.start_box().lower, self.target_box().lower, self.deadline)


@dataclass(frozen=True)
class TubeParams:
    """Timing and smoothing parameters for corridor synthesis.

    window_margin  lead/lag time added around each crossing window
    edge_buffer    shift that lets each blend finish inside its phase
    blend_scale    tanh time constant of the activation blends
    time_floor     lower bound on the shaper denominators
    step           corridor integration step
    """

    window_margin: float
    edge_buffer: float
    blend_scale: float
    time_floor: float
    step: float

    def __post_init__(self):
        # an infinite value would pass the order checks below
        issues = [(f"tube.{f.name}", "must be finite")
                  for f in fields(self) if math.isinf(getattr(self, f.name))]
        if issues:
            raise ConfigurationError(issues)
        if not self.window_margin > 0:
            issues.append(("tube.window_margin", "must be positive"))
        if not (0 < self.edge_buffer < self.window_margin):
            issues.append(("tube.edge_buffer",
                           "must satisfy 0 < edge_buffer < window_margin"))
        if not self.blend_scale > 0:
            issues.append(("tube.blend_scale", "must be positive"))
        if not self.time_floor > 0:
            issues.append(("tube.time_floor", "must be positive"))
        if not self.step > 0:
            issues.append(("tube.step", "must be positive"))
        if issues:
            raise ConfigurationError(issues)

    @classmethod
    def defaults(cls, deadline: float, window_margin: Optional[float] = None) -> "TubeParams":
        """Defaults sized so blend transients stay far below the hold tolerances.

        The step/time_floor ratio of 2 keeps the floored shaper feedback
        well inside the RK4 stability region.
        """
        wm = window_margin if window_margin is not None else 0.05 * deadline
        edge = wm / 32.0
        return cls(window_margin=wm, edge_buffer=edge, blend_scale=edge / 4.0,
                   time_floor=5e-4 * wm, step=1e-3 * wm)

    def grid(self, deadline: float) -> np.ndarray:
        """The corridor's time grid: uniform over [0, deadline], with steps
        of about ``step`` and at least 8 of them."""
        return np.linspace(0.0, deadline, max(8, int(round(deadline / self.step))) + 1)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]


def validate_assumptions(task: RasTask, plans, params: Optional[TubeParams] = None) -> ValidationReport:
    """Check the separation assumptions the synthesis relies on.

    Per obstacle: the start and arrival corridor boxes must each be clear of
    the obstacle in at least one dimension.  Per pair of obstacles that both
    get a detour: their crossing windows must be more than two window
    margins apart.  Always returns a report; callers decide whether to abort.
    """
    checks = []
    notes = []
    s_box = task.start_box()
    t_box = task.target_box()
    for label, dims in (("start", task.shrunk_start_dims), ("target", task.shrunk_target_dims)):
        if dims:
            notes.append(f"{label} margin shrunk to fit in dimensions {list(dims)}")

    for j, u in enumerate(task.unsafe_sets):
        for name, box in (("initial-separation", s_box), ("target-separation", t_box)):
            witness = None
            for i in range(task.n):
                if not box.dims[i].intersects(u.dims[i]):
                    witness = i
                    break
            checks.append(AssumptionCheck(
                name=name, passed=witness is not None,
                subject=f"obstacle {j}",
                detail=(f"clear in dimension {witness}" if witness is not None
                        else "no separating dimension")))

    margin = params.window_margin if params is not None else None
    active = [p for p in plans if p is not None]
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            pa, pb = active[a], active[b]
            sep = window_separation((pa.enter_time, pa.exit_time),
                                    (pb.enter_time, pb.exit_time))
            wm = margin if margin is not None else 0.0
            checks.append(AssumptionCheck(
                name="temporal-separation",
                passed=sep > 2.0 * wm,
                subject=f"obstacles {pa.index} and {pb.index}",
                detail=f"window separation {sep:.6g} vs required > {2.0 * wm:.6g}"))

    return ValidationReport(checks=tuple(checks), notes=tuple(notes))


def window_separation(a, b) -> float:
    """Temporal gap between two crossing windows; zero when they overlap."""
    if max(a[0], b[0]) <= min(a[1], b[1]):
        return 0.0
    return min(abs(a[0] - b[1]), abs(a[1] - b[0]))
