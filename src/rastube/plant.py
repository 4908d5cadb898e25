"""Plant models, disturbance generation, and the closed-loop simulator.

One Python RK4 loop steps every plant.  It holds the disturbance constant
over each macro step, re-evaluates the feedback at every stage against the
corridor bounds at the stage time (the two midpoint stages share them,
and a step's end bounds are the next row's), and records state, corridor
bounds, input, and the active detour per step.  The stage bounds are
built in bulk, one block of steps at a time; the state and input are
stepped as lists of floats, which Python updates faster than
three-element arrays.  Flags summarise the run:
reached (target hit by the deadline), safe (never inside an unsafe set),
contained (always strictly inside the corridor), stayed (inside the target
through the stay horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from .avoidance import ObstaclePlan
from .controller import ControllerConfig, TubeFrame, _law, control_input
from .errors import ConfigurationError, TubeViolationError
from .geometry import Box
from .scenario import RasTask
from .tube import _pairs, _write_rows


class Dynamics(Protocol):
    """A plant the closed loop can step.

    ``derivative`` receives the state, input and disturbance as lists of
    floats and returns ``n_states`` floats (a list or a 1-d array); the
    closed loop raises ValueError on any other length.
    ``symmetric_input_floor`` is the smallest eigenvalue of the symmetric
    part of the input map at state ``x``, which the run records.
    """

    n_states: int

    def symmetric_input_floor(self, x: Sequence[float]) -> float: ...

    def derivative(self, x: Sequence[float], u: Sequence[float],
                   w: Sequence[float]) -> Sequence[float]: ...


class OmniRobot:
    """Planar omnidirectional robot: position pair plus heading.

    The input map is the heading rotation embedded in 3x3; its symmetric
    part stays positive definite while |heading| < pi/2, which the heading
    corridor enforces.
    """

    n_states = 3

    def derivative(self, x, u, w):
        c = math.cos(x[2])
        s = math.sin(x[2])
        return [u[0] * c - u[1] * s + w[0],
                u[0] * s + u[1] * c + w[1],
                u[2] + w[2]]

    def symmetric_input_floor(self, x):
        # closed form: eigenvalues of the symmetric part are {cos h, cos h, 1}
        return min(math.cos(x[2]), 1.0)


class IntegratorPlant:
    """Velocity-controlled point: xdot = u + w."""

    def __init__(self, n_states: int):
        self.n_states = n_states

    def derivative(self, x, u, w):
        return [a + b for a, b in zip(u, w)]

    def symmetric_input_floor(self, x):
        return 1.0


PLANT_MODELS = {
    "omni_robot": lambda n_task: OmniRobot(),
    "integrator": lambda n_task: IntegratorPlant(n_task),
}


@dataclass
class DisturbanceModel:
    """Bounded disturbance source; every sample satisfies the inf-norm cap."""

    kind: str = "none"            # none | uniform | sinusoidal
    bound: float = 0.0
    seed: int = 0
    frequency: float = 0.1        # Hz, sinusoidal only
    phases: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.kind not in ("none", "uniform", "sinusoidal"):
            raise ConfigurationError([("plant.disturbance.kind",
                                       f"unknown kind {self.kind!r}")])
        if self.bound < 0:
            raise ConfigurationError([("plant.disturbance.bound", "must be >= 0")])
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ConfigurationError([("plant.disturbance.seed",
                                       "must be a non-negative integer")])

    def _phases(self, n: int) -> np.ndarray:
        phases = np.asarray(self.phases, dtype=float) if self.phases is not None \
            else np.linspace(0.0, math.pi, n, endpoint=False)
        if phases.shape != (n,):
            raise ConfigurationError([("plant.disturbance.phase",
                                       f"expected {n} entries")])
        return phases

    def sequence(self, n: int, ts: np.ndarray) -> np.ndarray:
        """One sample row per time in ``ts``; a uniform stream depends only
        on the seed and the shape, a sinusoidal one on the times."""
        if self.kind == "none" or self.bound == 0.0:
            return np.zeros((ts.shape[0], n))
        if self.kind == "uniform":
            rng = np.random.default_rng(self.seed)
            return rng.uniform(-self.bound, self.bound, size=(ts.shape[0], n))
        omega = 2.0 * math.pi * self.frequency
        return self.bound * np.sin(omega * ts[:, None] + self._phases(n)[None, :])


class FrameProvider:
    """Assembles full-state corridor bounds from the task corridor.

    The task dimensions lead the state (``task_dims`` is 0, 1, ..., k-1)
    and read the synthesized corridor: ``source.bounds(t)`` returns its
    lower and upper bounds at one time as float lists, and
    ``source.bounds_at(times)`` at many times as arrays of shape
    (len(times), k).  The remaining state dimensions (for example the
    robot heading) get fixed wide bounds.  ``frame(t)`` builds the
    validated frame at one time, which the closed loop needs only at its
    start; ``block(times)`` builds the bounds of a block of stage times.
    """

    def __init__(self, source, state_dim: int, task_dims: Sequence[int],
                 extra_bounds: Sequence[Tuple[float, float]]):
        self.source = source
        self.state_dim = state_dim
        self.task_dims = list(task_dims)
        if self.task_dims != list(range(len(self.task_dims))):
            raise ConfigurationError(
                [("plant", f"task dimensions {self.task_dims} must lead the state")])
        extras = list(range(len(self.task_dims), state_dim))
        if len(extras) != len(extra_bounds):
            raise ConfigurationError(
                [("plant", f"{len(extras)} unconstrained dimensions but "
                           f"{len(extra_bounds)} extra bounds")])
        self.extra_dims = extras
        self._extra_lo = [float(b[0]) for b in extra_bounds]
        self._extra_hi = [float(b[1]) for b in extra_bounds]

    def frame(self, t: float) -> TubeFrame:
        lo, hi = self.source.bounds(t)
        return TubeFrame(lo + self._extra_lo, hi + self._extra_hi)

    def block(self, times) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full-state (lower, upper, upper + lower, upper - lower) at each of
        ``times``, arrays of shape (len(times), state_dim) with the bits of
        ``frame(t)``'s ``lo``, ``hi``, ``sums`` and ``ws`` row for row.
        Unlike ``frame``, it does not reject a width <= 0."""
        lo, hi = self.source.bounds_at(times)
        m = lo.shape[0]
        lo = np.hstack((lo, np.broadcast_to(self._extra_lo, (m, len(self._extra_lo)))))
        hi = np.hstack((hi, np.broadcast_to(self._extra_hi, (m, len(self._extra_hi)))))
        return lo, hi, hi + lo, hi - lo


@dataclass
class SimOptions:
    step: float = 0.01
    stay_horizon: float = 0.0
    extra_state: Sequence[float] = ()          # initial values of unconstrained dims
    extra_bounds: Sequence[Tuple[float, float]] = ()

    def __post_init__(self):
        issues = []
        if not 0.0 < self.step < math.inf:
            issues.append(("run.sim_step", "must be a finite positive number"))
        if not 0.0 <= self.stay_horizon < math.inf:
            issues.append(("run.stay_horizon", "must be a finite number >= 0"))
        if issues:
            raise ConfigurationError(issues)


@dataclass
class SimFlags:
    reached: bool
    safe: bool
    contained: bool
    stayed: bool

    @property
    def all_ok(self) -> bool:
        return self.reached and self.safe and self.contained and self.stayed

    def as_dict(self) -> dict:
        return {"reached": self.reached, "safe": self.safe,
                "contained": self.contained, "stayed": self.stayed}


@dataclass
class SimTrace:
    ts: np.ndarray
    states: np.ndarray        # (N, n_states)
    lower: np.ndarray         # (N, n_states)
    upper: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    active: np.ndarray        # active plan's obstacle index, -1 when none
    flags: SimFlags
    deadline: float
    failure_time: Optional[float] = None
    failure_reason: Optional[str] = None
    # where the run failed: time, dim, value, lower, upper (the last three
    # None for a non-finite state); None when the run completes
    failure: Optional[dict] = None
    reach_time: Optional[float] = None
    min_input_floor: float = float("inf")   # min eigenvalue of the symmetric input map

    @property
    def completed(self) -> bool:
        return self.failure_time is None

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)]
        for i in range(n):
            header += [f"g{i + 1}L", f"g{i + 1}U"]
        header += [f"u{i + 1}" for i in range(n)] + ["active_obstacle"]
        _write_rows(path, header, self.ts.shape[0], lambda a, b: np.column_stack(
            (self.ts[a:b], self.states[a:b], _pairs(self.lower[a:b], self.upper[a:b]),
             self.inputs[a:b])), ints=self.active)


def _rows_in_box(states: np.ndarray, box: Box, dims: Sequence[int]) -> np.ndarray:
    """Per row of ``states``: whether its ``dims`` lie in the closed box."""
    x = states[:, dims]
    return np.all((x >= box.lower) & (x <= box.upper), axis=1)


# grid steps whose stage bounds are built together
_BLOCK = 512


def _violation(time: float, err: TubeViolationError):
    """(failure time, reason, record) for a state that left the corridor at
    stage time ``err.time`` of the step starting at ``time``."""
    return time, str(err), {"time": err.time, "dim": err.dim, "value": err.value,
                            "lower": err.lower, "upper": err.upper}


def _step_loop(x, frame, grid_ts, frames, cfg, dynamics, dists, states, lowers, uppers,
               inputs):
    """RK4 closed loop over the time grid, filling the preallocated rows.

    ``frame`` is the corridor frame at the first grid time.  The stage
    bounds are built ``_BLOCK`` steps at a time: each step's midpoint
    (shared by the two midpoint stages) and its end, which is also the next
    row's bounds: with t = t_end*k/n and t_next = t_end*(k+1)/n,
    t_next - t is exact (Sterbenz), so the end stage time t + h is t_next
    itself.  The state, input and disturbance are stepped as lists of
    floats, and a block's rows are stored together.
    Returns (rows filled, min input floor, failure); failure is None when
    the run completes, else (failure time, reason, failure record).
    """
    floor_fn = dynamics.symmetric_input_floor
    rate = dynamics.derivative
    scale = -cfg.gain_sign * cfg.gain
    lim = cfg.input_limit
    ts = grid_ts.tolist()
    n_steps = len(ts) - 1
    min_floor = float("inf")
    lowers[0] = frame.lo
    uppers[0] = frame.hi
    # the current row's bounds: sums and widths for the law, lower and
    # upper for control_input, which builds the failure record
    row_s, row_w, row_lo, row_hi = frame.sums, frame.ws, frame.lo, frame.hi
    for first in range(0, n_steps + 1, _BLOCK):
        stop = min(first + _BLOCK, n_steps + 1)     # rows first..stop-1
        last = min(stop, n_steps)                   # steps first..last-1
        if last > first:
            t0, t1 = grid_ts[first:last], grid_ts[first + 1:last + 1]
            # stage 2j is the midpoint of step first+j, stage 2j+1 its end
            stage_ts = np.column_stack((t0 + 0.5 * (t1 - t0), t1)).ravel()
            lo, hi, sums_arr, ws_arr = frames.block(stage_ts)
            lowers[first + 1:last + 1] = lo[1::2]
            uppers[first + 1:last + 1] = hi[1::2]
            sums = sums_arr.tolist()
            ws = ws_arr.tolist()
            # a stage whose width is <= 0 gets empty bounds: the law returns
            # [] for it, so control_input runs and its TubeFrame raises
            # ConfigurationError when the loop reaches that stage
            for j in np.flatnonzero((ws_arr <= 0.0).any(axis=1)).tolist():
                sums[j] = ws[j] = []
            block_w = dists[first:last].tolist()
        xs = []
        us = []
        failure = None
        # _law returns None outside the corridor (or [] on an empty bounds
        # row); control_input then raises with the stage's full record
        for r in range(first, stop):
            t = ts[r]
            try:
                u = _law(x, row_s, row_w, scale, lim) or \
                    control_input(x, TubeFrame(row_lo, row_hi), cfg, t=t)
            except TubeViolationError as err:
                failure = _violation(t, err)
                break
            xs.append(x)
            us.append(u)
            min_floor = min(min_floor, floor_fn(x))
            if r == n_steps:
                break
            j = 2 * (r - first)
            w = block_w[r - first]
            t_next = ts[r + 1]
            h = t_next - t
            mid_s, mid_w = sums[j], ws[j]
            end_s, end_w = sums[j + 1], ws[j + 1]
            try:
                # strict: a derivative of the wrong length must not be cut short
                k1 = rate(x, u, w)
                x2 = [v + 0.5 * h * k for v, k in zip(x, k1, strict=True)]
                k2 = rate(x2, _law(x2, mid_s, mid_w, scale, lim) or control_input(
                    x2, TubeFrame(lo[j], hi[j]), cfg, t=t + 0.5 * h), w)
                x3 = [v + 0.5 * h * k for v, k in zip(x, k2, strict=True)]
                k3 = rate(x3, _law(x3, mid_s, mid_w, scale, lim) or control_input(
                    x3, TubeFrame(lo[j], hi[j]), cfg, t=t + 0.5 * h), w)
                x4 = [v + h * k for v, k in zip(x, k3, strict=True)]
                k4 = rate(x4, _law(x4, end_s, end_w, scale, lim) or control_input(
                    x4, TubeFrame(lo[j + 1], hi[j + 1]), cfg, t=t_next), w)
            except TubeViolationError as err:
                failure = _violation(t, err)
                break
            sixth = h / 6.0
            x = [v + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for v, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True)]
            if not all(map(math.isfinite, x)):
                dim = next(d for d, v in enumerate(x) if not math.isfinite(v))
                failure = (t_next, "non-finite state",
                           {"time": t_next, "dim": dim, "value": None,
                            "lower": None, "upper": None})
                break
            row_s, row_w, row_lo, row_hi = end_s, end_w, lo[j + 1], hi[j + 1]
        if xs:
            states[first:first + len(xs)] = xs
            inputs[first:first + len(us)] = us
        if failure is not None:
            return first + len(xs), min_floor, failure
    return n_steps + 1, min_floor, None


def simulate(task: RasTask, frames: FrameProvider, cfg: ControllerConfig,
             dynamics: Dynamics, disturbance: DisturbanceModel,
             options: SimOptions, plans: Sequence[ObstaclePlan] = ()) -> SimTrace:
    """Run the closed loop from the task's initial state.

    The initial state must lie strictly inside the corridor.  A corridor
    violation or a non-finite state ends the run early with the failure
    recorded; metrics and flags are computed on the recorded prefix.
    """
    n = dynamics.n_states
    x = np.empty(n)
    x[frames.task_dims] = task.start
    extra = list(options.extra_state)
    if len(extra) != len(frames.extra_dims):
        raise ConfigurationError(
            [("run", f"expected {len(frames.extra_dims)} extra initial values")])
    for i, v in zip(frames.extra_dims, extra):
        x[i] = v

    frame0 = frames.frame(0.0)
    e0 = (2.0 * x - frame0.sum_bounds) / frame0.widths
    if np.any(np.abs(e0) >= 1.0):
        raise ConfigurationError(
            [("task.start_state", "initial state not strictly inside the corridor")])

    t_end = task.deadline + options.stay_horizon
    n_steps = max(1, int(round(t_end / options.step)))
    sorted_plans = sorted(plans, key=lambda p: p.enter_time)
    grid_ts = t_end * np.arange(n_steps + 1) / n_steps
    dists = disturbance.sequence(n, grid_ts)

    states = np.empty((n_steps + 1, n))
    lowers = np.empty((n_steps + 1, n))
    uppers = np.empty((n_steps + 1, n))
    inputs = np.empty((n_steps + 1, n))
    rows, min_floor, failure = _step_loop(
        x.tolist(), frame0, grid_ts, frames, cfg, dynamics, dists, states, lowers, uppers,
        inputs)
    failure_time, failure_reason, failure = failure or (None, None, None)

    ts = grid_ts[:rows]
    states = states[:rows]
    lowers = lowers[:rows]
    uppers = uppers[:rows]
    inputs = inputs[:rows]
    dists = dists[:rows]
    if sorted_plans:
        releases = np.array([p.release_time for p in sorted_plans])
        order_idx = np.searchsorted(releases, ts, side="right")
        plan_ids = np.array([p.index for p in sorted_plans] + [-1])
        active = plan_ids[np.minimum(order_idx, len(sorted_plans))]
    else:
        active = np.full(rows, -1, dtype=int)

    task_dims = frames.task_dims
    in_target = _rows_in_box(states, task.target_set, task_dims)
    hits = np.flatnonzero(in_target & (ts <= task.deadline + 1e-12))
    reached = hits.size > 0
    reach_time = float(ts[hits[0]]) if reached else None
    safe = not any(_rows_in_box(states, u_box, task_dims).any() for u_box in task.unsafe_sets)
    contained = failure_time is None and rows > 0 and \
        bool(np.all((states > lowers) & (states < uppers)))
    stayed = failure_time is None and bool(in_target[ts >= task.deadline - 1e-12].all())

    return SimTrace(ts=ts, states=states, lower=lowers, upper=uppers,
                    inputs=inputs, disturbances=dists, active=active,
                    flags=SimFlags(reached=reached, safe=safe,
                                   contained=contained, stayed=stayed),
                    deadline=task.deadline,
                    failure_time=failure_time, failure_reason=failure_reason,
                    failure=failure, reach_time=reach_time, min_input_floor=min_floor)
