"""Plant models, disturbance generation, and the closed-loop simulator.

One Python RK4 loop steps every plant.  It holds the disturbance constant
over each macro step, re-evaluates the feedback at every stage against the
corridor bounds at the stage time (the two midpoint stages share them,
and a step's end bounds are the next row's), and records state, corridor
bounds, input, and the active detour per step.  The stage bounds are
built in bulk, one block of steps at a time, as one float row per step,
and each block is one call of a function compiled once per state count
and plant source.  It holds the state and the stage bounds in scalar
locals and runs the law inline from its one source in ``controller``,
which stops the block at the first stage outside the corridor.  The
bundled plants write their derivative and input floor once, as source
lines (``from_lines``), which it inlines too; a plant without them is
called, four times per step.  Flags summarise the run:
reached (target hit by the deadline), safe (never inside an unsafe set),
contained (always strictly inside the corridor), stayed (inside the target
through the stay horizon)."""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from .avoidance import ObstaclePlan
from .controller import (ControllerConfig, TubeFrame, compiled, compiled_law,
                         control_input, law_lines, local_names, vec)
from .errors import ConfigurationError, TubeViolationError
from .geometry import Box, fold_columns
from .scenario import RasTask
from .tube import _pairs, _write_rows


class Dynamics(Protocol):
    """A plant the closed loop can step.

    ``derivative`` receives the state, input and disturbance as lists of
    floats and returns ``n_states`` floats (a list or a 1-d array); the
    closed loop raises ValueError on any other length.
    ``symmetric_input_floor`` is the smallest eigenvalue of the symmetric
    part of the input map at state ``x``, which the run records.  The
    closed loop calls ``derivative`` four times per step and
    ``symmetric_input_floor`` once per row, unless the method carries
    ``source_lines`` (see ``from_lines``): then it inlines those lines.
    A step that stops at a stage outside the corridor calls ``derivative``
    once per stage before it.
    """

    n_states: int

    def symmetric_input_floor(self, x: Sequence[float]) -> float: ...

    def derivative(self, x: Sequence[float], u: Sequence[float],
                   w: Sequence[float]) -> Sequence[float]: ...


def from_lines(lines):
    """Decorator: a plant method written once, as source text.

    ``lines`` gets one list of ``n_states`` local names per argument of
    the method and returns (statements, result): the result is one
    expression or a list of them, temporaries are named ``_...`` and the
    names of ``math`` are bound.  The method is compiled from that text
    once per state count and keeps ``lines`` as its ``source_lines``,
    which the closed loop inlines instead of calling the method."""
    params = list(inspect.signature(lines).parameters)

    @functools.cache
    def method_for(n):
        names = [local_names(p, n) for p in params]
        body, result = lines(*names)
        ret = result if isinstance(result, str) else vec(result)
        head = [f"{vec(v)} = {p}" for p, v in zip(params, names)]
        return compiled(lines.__name__, ", ".join(params), head + body + [f"return {ret}"])

    def method(self, *args):
        return method_for(self.n_states)(*args)
    method.source_lines = lines
    return method


class OmniRobot:
    """Planar omnidirectional robot: position pair plus heading.

    The input map is the heading rotation embedded in 3x3; its symmetric
    part stays positive definite while |heading| < pi/2, which the heading
    corridor enforces.
    """

    n_states = 3

    @from_lines
    def derivative(x, u, w):
        return ([f"_c = cos({x[2]})", f"_s = sin({x[2]})"],
                [f"{u[0]} * _c - {u[1]} * _s + {w[0]}",
                 f"{u[0]} * _s + {u[1]} * _c + {w[1]}",
                 f"{u[2]} + {w[2]}"])

    @from_lines
    def symmetric_input_floor(x):
        # closed form: eigenvalues of the symmetric part are {cos h, cos h, 1};
        # min(cos h, 1.0) written as its comparison, a NaN kept
        return [f"_c = cos({x[2]})"], "1.0 if 1.0 < _c else _c"


class IntegratorPlant:
    """Velocity-controlled point: xdot = u + w."""

    def __init__(self, n_states: int):
        self.n_states = n_states

    @from_lines
    def derivative(x, u, w):
        return [], [f"{a} + {b}" for a, b in zip(u, w)]

    @from_lines
    def symmetric_input_floor(x):
        return [], "1.0"


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
        if not (math.isfinite(self.bound) and self.bound >= 0):
            raise ConfigurationError([("plant.disturbance.bound", "must be finite and >= 0")])
        if not math.isfinite(self.frequency):
            raise ConfigurationError([("plant.disturbance.frequency", "must be finite")])
        if self.phases is not None and not np.isfinite(np.asarray(self.phases, dtype=float)).all():
            raise ConfigurationError([("plant.disturbance.phase", "entries must be finite")])
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
    start; ``block(times)`` builds the task dimensions' bounds of a block
    of stage times, since the other dimensions' bounds are constant.
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
        """Task-dimension (lower, upper, upper + lower, upper - lower) at
        each of ``times``, arrays of shape (len(times), k) with the bits of
        the first k entries of ``frame(t)``'s ``lo``, ``hi``, ``sums`` and
        ``ws`` row for row.  Unlike ``frame``, it does not reject a width
        <= 0."""
        lo, hi = self.source.bounds_at(times)
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
             self.inputs[a:b], self.active[a:b])))


def _rows_in_box(states: np.ndarray, box: Box, dims: Sequence[int]) -> np.ndarray:
    """Per row of ``states``: whether its ``dims`` lie in the closed box."""
    x = states[:, dims]
    return fold_columns(np.logical_and, (x >= box.lower) & (x <= box.upper))


# grid steps whose stage bounds are built together
_BLOCK = 512


# the source lines of a plant method written without them: a call of it
def _call_rate(x, u, w):
    return [], f"rate({vec(x)}, {vec(u)}, {vec(w)})"


def _call_floor(x):
    return [], f"floor({vec(x)})"


@functools.cache
def _runner(n: int, n_task: int, clamped: bool, rate_lines, floor_lines):
    """The closed loop over one block of steps for ``n`` states, the first
    ``n_task`` of them task dimensions, compiled once per plant source:
    the law inlined from ``controller.law_lines``, the plant's derivative
    and input floor from their source lines.

    ``_runner(...)(rate, floor, scale, lim, extra_sums, extra_ws)``
    returns ``run(x, u, mf, rows, xs, us, final)``.  The bound sums and
    widths of the extra dimensions are the same at every stage and bound
    once.  From the row state ``x`` and its input ``u`` (float lists), it
    takes one RK4 step per row of ``rows``: the disturbance (held over the
    step), the step h, and the task dimensions' midpoint bound sums, end
    sums, midpoint widths and end widths.  The midpoint bounds serve the
    two midpoint stages, the end bounds the end stage and the next row.
    It records each step's start row, and when ``final`` the row it ends
    in: it extends the flat lists ``xs`` and ``us`` by the row's state and
    input, and lowers the running minimum input floor ``mf`` by the
    state's floor.  Every operation is in the order of the written-out RK4
    step.  It returns ``(x, u, mf)`` after the block, or
    ``(None, (stage, state), mf)`` at the first stage it rejects: ``"mid"``
    or ``"end"`` when the state leaves the corridor or the stage has a
    width <= 0, ``"next"`` when the next state leaves it, ``"nonfinite"``
    when the next state is not finite.  A called derivative of the wrong
    length raises ValueError.
    """
    x, u, w, a, ms, mw, es, ew = (local_names(p, n) for p in
                                  ("x", "u", "w", "a", "ms", "mw", "es", "ew"))

    def law(state, sums, widths, name):
        reject = f"return None, ({name!r}, {vec(state)}), mf"
        return [line for i in range(n)
                for line in law_lines(i, state[i], sums[i], widths[i], reject, clamped)]

    def width_test(widths, name):
        return [f"if {' or '.join(f'{v} <= 0.0' for v in widths[:n_task])}: "
                f"return None, ({name!r}, {vec(a)}), mf"]

    def rate(k, state):
        body, result = rate_lines(state, u, w)
        k = local_names(k, n)
        return body + ([f"{vec(k)} = {result}"] if isinstance(result, str) else
                       [f"{ki} = {r}" for ki, r in zip(k, result)])

    def stage(k, coeff):
        return [f"{a[i]} = {x[i]} + {coeff} * {k}{i}" for i in range(n)]

    floor_body, floor_result = floor_lines(x)
    record = [f"xs += {', '.join(x)},", f"us += {', '.join(u)},",
              *floor_body, f"f = {floor_result}", "if f < mf: mf = f"]
    step = [*record, "hh = 0.5 * h", *rate("ka", x), *stage("ka", "hh"),
            *width_test(mw, "mid"), *law(a, ms, mw, "mid"),
            *rate("kb", a), *stage("kb", "hh"), *law(a, ms, mw, "mid"),
            *rate("kc", a), *stage("kc", "h"),
            *width_test(ew, "end"), *law(a, es, ew, "end"),
            *rate("kd", a),
            "sixth = h / 6.0",
            *[f"x{i} = x{i} + sixth * (ka{i} + 2.0 * kb{i} + 2.0 * kc{i} + kd{i})"
              for i in range(n)],
            "if not (" + " and ".join(f"-inf < x{i} < inf" for i in range(n))
            + f"): return None, ('nonfinite', {vec(x)}), mf",
            *law(x, es, ew, "next")]
    extras = [f"{vec(ms[n_task:])} = {vec(es[n_task:])} = extra_sums",
              f"{vec(mw[n_task:])} = {vec(ew[n_task:])} = extra_ws"] if n_task < n else []
    row = ", ".join([*w, "h", *ms[:n_task], *es[:n_task], *mw[:n_task], *ew[:n_task]])
    run = ["def run(x, u, mf, rows, xs, us, final):",
           f"    {vec(x)} = x", f"    {vec(u)} = u", *[f"    {line}" for line in extras],
           f"    for {row} in rows:", *[f"        {line}" for line in step],
           "    if final:", *[f"        {line}" for line in record],
           f"    return {vec(x)}, {vec(u)}, mf"]
    return compiled("make", "rate, floor, scale, lim, extra_sums, extra_ws",
                    run + ["return run"])


def _rejected(x, lo, hi, cfg: ControllerConfig, t_stage: float, t_fail: float):
    """(failure time ``t_fail``, reason, record) for a stage the step
    rejected at ``t_stage``: ``control_input`` on its state raises the
    violation, or ConfigurationError (key ``frame``) for a width <= 0."""
    try:
        control_input(x, TubeFrame(lo, hi), cfg, t=t_stage)
    except TubeViolationError as err:
        return t_fail, str(err), {"time": err.time, "dim": err.dim, "value": err.value,
                                  "lower": err.lower, "upper": err.upper}
    raise RuntimeError(f"the closed-loop step rejected a state inside the corridor "
                       f"at t={t_stage!r}")


def _step_loop(x, frame, grid_ts, frames, cfg, dynamics, dists, states, lowers, uppers,
               inputs):
    """RK4 closed loop over the time grid, filling the preallocated
    C-contiguous rows.

    ``frame`` is the corridor frame at the first grid time, where the state
    ``x`` lies strictly inside; its extra dimensions' bounds hold for the
    whole run, and fill their columns of ``lowers`` and ``uppers`` once.
    The stage bounds of the task dimensions are built ``_BLOCK`` steps at
    a time: each step's midpoint (shared by the two midpoint stages) and
    its end, which is also the next row's bounds: with t = t_end*k/n and
    t_next = t_end*(k+1)/n, t_next - t is exact (Sterbenz), so the end
    stage time t + h is t_next itself.  Each block of steps is one call of
    the compiled ``_runner`` on one float row per step, and its rows are
    stored together.  The runner stops at the first stage it rejects;
    ``control_input`` runs only on that stage, to raise the violation that
    becomes the failure record.
    Returns (rows filled, min input floor, failure); failure is None when
    the run completes, else (failure time, reason, failure record).
    """
    rate_fn = dynamics.derivative
    floor_fn = dynamics.symmetric_input_floor
    scale = -cfg.gain_sign * cfg.gain
    lim = cfg.input_limit
    clamped = lim is not None
    n = len(x)
    n_task = len(frames.task_dims)
    flat_states = states.reshape(-1)
    flat_inputs = inputs.reshape(-1)
    run = _runner(n, n_task, clamped, getattr(rate_fn, "source_lines", _call_rate),
                  getattr(floor_fn, "source_lines", _call_floor))(
        rate_fn, floor_fn, scale, lim, frame.sums[n_task:], frame.ws[n_task:])
    ts = grid_ts.tolist()
    n_steps = len(ts) - 1
    t0, t1 = grid_ts[:-1], grid_ts[1:]
    hs = t1 - t0
    # stage 2j is the midpoint of step j, stage 2j+1 its end
    stage_ts = np.column_stack((t0 + 0.5 * hs, t1)).ravel()
    min_floor = float("inf")
    lowers[0] = frame.lo
    uppers[0] = frame.hi
    extra_lo, extra_hi = frame.lo[n_task:], frame.hi[n_task:]
    lowers[1:, n_task:] = extra_lo
    uppers[1:, n_task:] = extra_hi
    u = compiled_law(n, clamped)(x, frame.sums, frame.ws, scale, lim)
    for first in range(0, n_steps + 1, _BLOCK):
        stop = min(first + _BLOCK, n_steps + 1)     # rows first..stop-1
        last = min(stop, n_steps)                   # steps first..last-1
        rows = []
        if last > first:
            m = last - first
            lo, hi, sums, ws = frames.block(stage_ts[2 * first:2 * last])
            lowers[first + 1:last + 1, :n_task] = lo[1::2]
            uppers[first + 1:last + 1, :n_task] = hi[1::2]
            rows = np.hstack((dists[first:last], hs[first:last, None],
                              sums.reshape(m, 2 * n_task), ws.reshape(m, 2 * n_task))).tolist()
        xs, us = [], []
        x, u, min_floor = run(x, u, min_floor, rows, xs, us, stop > last)
        filled = first + len(xs) // n
        failure = None
        if x is None:
            where, sx = u
            r = filled - 1
            j = 2 * (r - first)
            t, t_next = ts[r], ts[r + 1]
            if where == "nonfinite":
                dim = next(d for d, v in enumerate(sx) if not math.isfinite(v))
                failure = (t_next, "non-finite state",
                           {"time": t_next, "dim": dim, "value": None,
                            "lower": None, "upper": None})
            elif where == "mid":
                failure = _rejected(sx, lo[j].tolist() + extra_lo, hi[j].tolist() + extra_hi,
                                    cfg, t + 0.5 * (t_next - t), t)
            else:
                # the end stage fails its own step; the next row fails at t_next
                failure = _rejected(sx, lo[j + 1].tolist() + extra_lo,
                                    hi[j + 1].tolist() + extra_hi, cfg, t_next,
                                    t if where == "end" else t_next)
        flat_states[first * n:filled * n] = xs
        flat_inputs[first * n:filled * n] = us
        if failure is not None:
            return filled, min_floor, failure
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
    if not np.all(np.abs(e0) < 1.0):
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
