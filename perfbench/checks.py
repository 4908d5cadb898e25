"""Output checks computed by the benchmark itself.

Nothing here imports rastube: every expected value (the reach margin, the
crossing windows, the corridor interpolation, the barrier law, the
omni-robot dynamics) is recomputed from the scenario JSON and the
artifacts the program wrote.  Each check raises ``CheckFailed`` naming
itself and the first offending row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

# relative agreement demanded where the benchmark recomputes the
# program's own arithmetic in a different order
REL_TOL = 1e-9
# slack on the start/target containment of the corridor ends, the same
# boundary tolerance the program's verification applies
BOUNDARY_TOL = 1e-6
# samples of the dense-grid crossing-window oracle over [0, deadline]
WINDOW_SAMPLES = 100001
# corridor rows that integrate the bare margin rate match the closed form
# to RK4 accuracy
MARGIN_TOL = 1e-9


class CheckFailed(AssertionError):
    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"{check}: {detail}")


@dataclass
class Geometry:
    """The parts of a scenario file the checks need, parsed independently."""

    n: int
    initial: np.ndarray        # (n, 2)
    target: np.ndarray         # (n, 2)
    unsafe: np.ndarray         # (m, n, 2)
    deadline: float
    lower_start: np.ndarray    # corridor lower corner at t = 0
    lower_end: np.ndarray      # corridor lower corner at the deadline
    width: np.ndarray          # corridor width per task dimension
    edge_buffer: float
    blend_scale: float
    gain: float
    gain_sign: int
    input_limit: Optional[float]
    extra_bounds: np.ndarray   # (k, 2) fixed bounds of non-task state dims
    disturbance_bound: float


def _fitted(point, margin, box):
    room = np.minimum(point - box[:, 0], box[:, 1] - point)
    return np.minimum(margin, room)


def _vec(value, n):
    arr = np.asarray(value, dtype=float)
    return np.full(n, float(arr)) if arr.ndim == 0 else arr


def load_geometry(path) -> Geometry:
    doc = json.loads(Path(path).read_text())
    task = doc["task"]
    initial = np.asarray(task["initial_set"], dtype=float)
    target = np.asarray(task["target_set"], dtype=float)
    n = initial.shape[0]
    unsafe = np.asarray(task["unsafe_sets"], dtype=float).reshape(-1, n, 2)
    deadline = float(task["time_limit"])
    start = _vec(task["start_state"], n)
    goal = _vec(task["target_point"], n)
    m_start = _fitted(start, _vec(task["start_margin"], n), initial)
    m_goal = _fitted(goal, _vec(task["target_margin"], n), target)

    tube = doc.get("tube", {})
    window_margin = float(tube.get("window_margin", 0.05 * deadline))
    edge = float(tube.get("edge_buffer", window_margin / 32.0))
    blend = float(tube.get("blend_scale", edge / 4.0))

    ctrl = doc.get("controller", {})
    plant = doc["plant"]
    if plant["model"] == "omni_robot":
        h0 = float(plant.get("heading_init", 0.0))
        hw = float(plant.get("heading_halfwidth", math.pi / 2))
        extra = np.array([[h0 - hw, h0 + hw]])
    else:
        extra = np.zeros((0, 2))
    limit = ctrl.get("input_limit")
    return Geometry(
        n=n, initial=initial, target=target, unsafe=unsafe, deadline=deadline,
        lower_start=np.maximum(start - m_start, initial[:, 0]),
        lower_end=np.maximum(goal - m_goal, target[:, 0]),
        width=2.0 * np.minimum(m_start, m_goal),
        edge_buffer=edge, blend_scale=blend,
        gain=float(ctrl.get("gain", 2.0)), gain_sign=int(ctrl.get("gain_sign", 1)),
        input_limit=None if limit is None else float(limit),
        extra_bounds=extra,
        disturbance_bound=float(plant.get("disturbance", {}).get("bound", 0.0)))


def reach_margin(geo: Geometry, ts: np.ndarray) -> np.ndarray:
    """start + (end - start) * tanh(t / (T - t)), constant from the deadline on."""
    ts = np.asarray(ts, dtype=float)
    t_c = geo.deadline
    blend = np.ones_like(ts)
    before = ts < t_c * (1.0 - 1e-9)
    blend[before] = np.tanh(np.maximum(ts[before], 0.0) / (t_c - ts[before]))
    return geo.lower_start + blend[:, None] * (geo.lower_end - geo.lower_start)


@dataclass
class Plan:
    obstacle: int
    dim: int              # 0-based
    level: float
    enter: float
    exit: float
    prep: float
    release: float


def load_plans(path) -> List[Plan]:
    doc = json.loads(Path(path).read_text())
    return [Plan(obstacle=int(p["obstacle"]), dim=int(p["dim"]) - 1, level=float(p["level"]),
                 enter=float(p["enter_time"]), exit=float(p["exit_time"]),
                 prep=float(p["prep_time"]), release=float(p["release_time"]))
            for p in doc["plans"]]


def load_tube(path):
    """(ts, lower, upper) from a corridor CSV ``t,g1L,g1U,...``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2], data[:, 2::2]


@dataclass
class Trace:
    ts: np.ndarray
    x: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    u: np.ndarray
    w: Optional[np.ndarray] = None


def load_trace(path) -> Trace:
    """Columns ``t, x1..xn, g1L, g1U, .., u1..un, active_obstacle``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = (data.shape[1] - 2) // 4
    bounds = data[:, 1 + n:1 + 3 * n]
    return Trace(ts=data[:, 0], x=data[:, 1:1 + n], lower=bounds[:, 0::2],
                 upper=bounds[:, 1::2], u=data[:, 1 + 3 * n:1 + 4 * n])


def _first(mask) -> int:
    return int(np.nonzero(mask)[0][0])


# -- corridor checks ---------------------------------------------------------

def check_tube_ends(geo: Geometry, ts, lower, upper) -> None:
    """Row 0 lies inside the initial set, the last row inside the target set."""
    for name, row, box in (("initial", 0, geo.initial), ("target", -1, geo.target)):
        slack = np.minimum(lower[row] - box[:, 0], box[:, 1] - upper[row]).min()
        if slack < -BOUNDARY_TOL:
            raise CheckFailed("tube_ends", f"row at t={ts[row]:.6g} leaves the {name} set "
                                           f"by {-slack:.3g}")


def check_tube_clear(geo: Geometry, ts, lower, upper) -> None:
    """Every row is strictly clear of every unsafe box."""
    for j, box in enumerate(geo.unsafe):
        gaps = np.maximum(box[:, 0][None, :] - upper, lower - box[:, 1][None, :])
        clearance = gaps.max(axis=1)
        if clearance.min() <= 0.0:
            r = _first(clearance <= 0.0)
            raise CheckFailed("tube_clear", f"row at t={ts[r]:.6g} touches unsafe set {j}")


def _lead(geo: Geometry) -> float:
    # the activation blends reach this far beyond [prep, release]
    return 2.0 * geo.edge_buffer + 8.0 * geo.blend_scale


def _reach(geo: Geometry, plan: Plan) -> float:
    return abs(plan.level - reach_margin(geo, [plan.prep])[0, plan.dim])


def check_tube_margin(geo: Geometry, plans: List[Plan], ts, lower) -> None:
    """Outside every plan's padded [prep, release], the lower bound is the
    closed-form reach margin.

    Two offsets are carried forward unchanged by the margin rate, so the
    allowance covers them until the next detour pulls the bound again:

    - after a detour's return, its residual, within the hold tolerance
      ``1e-3 * (reach + 1)``;
    - before the first detour, in its dimension, the lag of the origin
      blend, which halves the tracking weight at t = 0:
      ``0.5 * ln 2 * blend_scale * |margin rate at 0|`` to first order.
    """
    expected = reach_margin(geo, ts)
    lead = _lead(geo)
    rate0 = np.abs(geo.lower_end - geo.lower_start) / geo.deadline
    ordered = sorted(plans, key=lambda p: p.enter)
    for k in range(geo.n):
        own = [p for p in ordered if p.dim == k]
        outside = np.ones(ts.shape[0], dtype=bool)
        base = MARGIN_TOL * (1.0 + np.abs(expected[:, k]).max())
        tol = np.full(ts.shape[0], base)
        if ordered and ordered[0].dim == k:
            lag = 0.5 * math.log(2.0) * geo.blend_scale * rate0[k]
            tol[ts < ordered[0].prep] += 2.0 * lag
        for p in own:
            outside &= (ts < p.prep - lead) | (ts > p.release + lead)
            tol[ts > p.release] = base + 1e-3 * (_reach(geo, p) + 1.0)
        err = np.abs(lower[:, k] - expected[:, k])
        bad = outside & (err > tol)
        if bad.any():
            r = _first(bad)
            raise CheckFailed("tube_margin", f"dimension {k + 1} at t={ts[r]:.6g} is "
                                             f"{err[r]:.3g} off the reach margin")


def check_detour_hold(geo: Geometry, plans: List[Plan], ts, lower) -> None:
    """Inside [enter, exit] the detour dimension holds its level."""
    for p in plans:
        tol = 1e-3 * (_reach(geo, p) + 1.0)
        sel = (ts >= p.enter) & (ts <= p.exit)
        err = np.abs(lower[sel, p.dim] - p.level)
        if err.size and err.max() > tol:
            r = int(np.argmax(err))
            raise CheckFailed("detour_hold", f"obstacle {p.obstacle} at t={ts[sel][r]:.6g} is "
                                             f"{err[r]:.3g} off its level (tolerance {tol:.3g})")


def window_oracle(geo: Geometry, j: int, samples: int = WINDOW_SAMPLES):
    """First and last time the nominal corridor overlaps unsafe box j on a
    dense grid, or None."""
    ts = np.linspace(0.0, geo.deadline, samples)
    lower = reach_margin(geo, ts)
    upper = lower + geo.width[None, :]
    box = geo.unsafe[j]
    overlap = np.all(np.maximum(lower, box[:, 0]) <= np.minimum(upper, box[:, 1]), axis=1)
    idx = np.nonzero(overlap)[0]
    if idx.size == 0:
        return None
    return float(ts[idx[0]]), float(ts[idx[-1]])


def check_windows(geo: Geometry, plans: List[Plan]) -> None:
    """Plan windows agree with the dense-grid oracle to one grid step, and
    every obstacle the nominal corridor meets has a plan."""
    step = geo.deadline / (WINDOW_SAMPLES - 1)
    planned = {p.obstacle: p for p in plans}
    for j in range(geo.unsafe.shape[0]):
        oracle = window_oracle(geo, j)
        plan = planned.get(j)
        if (oracle is None) != (plan is None):
            raise CheckFailed("windows", f"obstacle {j}: oracle window {oracle} but "
                                         f"{'a' if plan else 'no'} plan")
        if plan is None:
            continue
        off = max(abs(plan.enter - oracle[0]), abs(plan.exit - oracle[1])) / step
        if off > 1.0 + 1e-9:
            raise CheckFailed("windows", f"obstacle {j}: window ({plan.enter:.9g}, "
                                         f"{plan.exit:.9g}) is {off:.2f} grid steps from the "
                                         f"oracle ({oracle[0]:.9g}, {oracle[1]:.9g})")


def check_corridor(geo: Geometry, plans: List[Plan], ts, lower, upper) -> None:
    check_tube_ends(geo, ts, lower, upper)
    check_tube_clear(geo, ts, lower, upper)
    check_tube_margin(geo, plans, ts, lower)
    check_detour_hold(geo, plans, ts, lower)
    check_windows(geo, plans)


# -- closed-loop checks ------------------------------------------------------

def check_trace_inside(tr: Trace) -> None:
    """Every state lies strictly inside its bounds."""
    bad = ~((tr.x > tr.lower) & (tr.x < tr.upper))
    if bad.any():
        r, d = np.argwhere(bad)[0]
        raise CheckFailed("trace_inside", f"x{d + 1}={tr.x[r, d]:.9g} at t={tr.ts[r]:.6g} "
                                          f"outside ({tr.lower[r, d]:.9g}, {tr.upper[r, d]:.9g})")


def corridor_at(geo: Geometry, grid_ts, grid_lower, ts):
    """Full-state (lower, upper) by linear interpolation of the corridor grid;
    non-task dimensions take their fixed bounds."""
    ts = np.asarray(ts, dtype=float)
    lo = np.column_stack([np.interp(ts, grid_ts, grid_lower[:, k]) for k in range(geo.n)])
    hi = lo + geo.width[None, :]
    if geo.extra_bounds.size:
        extra = np.broadcast_to(geo.extra_bounds, (ts.shape[0],) + geo.extra_bounds.shape)
        lo = np.hstack([lo, extra[:, :, 0]])
        hi = np.hstack([hi, extra[:, :, 1]])
    return lo, hi


def _close(a, b) -> np.ndarray:
    return np.abs(a - b) <= REL_TOL * (1.0 + np.abs(b))


def check_trace_bounds(geo: Geometry, tr: Trace, grid_ts, grid_lower) -> None:
    """Recorded bounds equal the linear interpolation of the corridor grid."""
    lo, hi = corridor_at(geo, grid_ts, grid_lower, tr.ts)
    ok = _close(tr.lower, lo) & _close(tr.upper, hi)
    if not ok.all():
        r, d = np.argwhere(~ok)[0]
        raise CheckFailed("trace_bounds", f"dimension {d + 1} at t={tr.ts[r]:.6g}: recorded "
                                          f"({tr.lower[r, d]:.12g}, {tr.upper[r, d]:.12g}), "
                                          f"interpolated ({lo[r, d]:.12g}, {hi[r, d]:.12g})")


def _in_box(x, box) -> np.ndarray:
    return np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=1)


def check_trace_reach_stay(geo: Geometry, tr: Trace) -> None:
    """The target is reached by the deadline and held from the deadline on."""
    pos = tr.x[:, :geo.n]
    inside = _in_box(pos, geo.target)
    if not (inside & (tr.ts <= geo.deadline + 1e-12)).any():
        raise CheckFailed("trace_reach_stay", "target not reached by the deadline")
    after = tr.ts >= geo.deadline - 1e-12
    if not after.any():
        raise CheckFailed("trace_reach_stay", "trace ends before the deadline")
    if not inside[after].all():
        r = _first(after & ~inside)
        raise CheckFailed("trace_reach_stay", f"state leaves the target at t={tr.ts[r]:.6g}")


def check_trace_safe(geo: Geometry, tr: Trace) -> None:
    """No state lies inside an unsafe box."""
    pos = tr.x[:, :geo.n]
    for j, box in enumerate(geo.unsafe):
        hit = _in_box(pos, box)
        if hit.any():
            r = _first(hit)
            raise CheckFailed("trace_safe", f"state inside unsafe set {j} at t={tr.ts[r]:.6g}")


def barrier_law(geo: Geometry, x, lower, upper) -> np.ndarray:
    """-k * 4 / (w (1 - e^2)) * ln((1 + e) / (1 - e)), k = gain * gain_sign."""
    w = upper - lower
    e = (2.0 * x - (upper + lower)) / w
    u = -geo.gain_sign * geo.gain * 4.0 / (w * (1.0 - e * e)) * np.log((1.0 + e) / (1.0 - e))
    if geo.input_limit is not None:
        u = np.clip(u, -geo.input_limit, geo.input_limit)
    return u


def check_trace_inputs(geo: Geometry, tr: Trace) -> None:
    """Every recorded input equals the barrier law recomputed from its row."""
    ref = barrier_law(geo, tr.x, tr.lower, tr.upper)
    ok = _close(tr.u, ref)
    if not ok.all():
        r, d = np.argwhere(~ok)[0]
        raise CheckFailed("trace_inputs", f"u{d + 1} at t={tr.ts[r]:.6g} is {tr.u[r, d]:.12g}, "
                                          f"the barrier law gives {ref[r, d]:.12g}")


def effort_energy(geo: Geometry, tr: Trace) -> float:
    """Trapezoid of ||u||^2 over the rows up to the deadline."""
    sel = tr.ts <= geo.deadline + 1e-12
    ts = tr.ts[sel]
    sq = np.sum(tr.u[sel] ** 2, axis=1)
    return float(np.sum(0.5 * (sq[1:] + sq[:-1]) * np.diff(ts)))


def check_energy(geo: Geometry, tr: Trace, energy: float) -> None:
    """The reported energy equals the benchmark's own trapezoid of ||u||^2."""
    ref = effort_energy(geo, tr)
    if abs(energy - ref) > REL_TOL * (1.0 + abs(ref)):
        raise CheckFailed("energy", f"reported {energy!r}, trapezoid gives {ref!r}")


def check_trace(geo: Geometry, tr: Trace, grid_ts, grid_lower, energy: float) -> None:
    check_trace_inside(tr)
    check_trace_bounds(geo, tr, grid_ts, grid_lower)
    check_trace_reach_stay(geo, tr)
    check_trace_safe(geo, tr)
    check_trace_inputs(geo, tr)
    check_energy(geo, tr, energy)


def check_disturbance(geo: Geometry, tr: Trace) -> None:
    """|w| never exceeds the configured bound."""
    peak = float(np.abs(tr.w).max()) if tr.w.size else 0.0
    if peak > geo.disturbance_bound:
        raise CheckFailed("disturbance", f"|w| reaches {peak!r}, bound {geo.disturbance_bound!r}")


def omni_rhs(x, u, w) -> np.ndarray:
    c, s = math.cos(x[2]), math.sin(x[2])
    return np.array([u[0] * c - u[1] * s + w[0], u[0] * s + u[1] * c + w[1], u[2] + w[2]])


def check_rk4(geo: Geometry, tr: Trace, grid_ts, grid_lower, rows) -> None:
    """Sampled steps re-integrated with the benchmark's own omni-robot RK4
    (disturbance held over the step, feedback re-evaluated per stage) land
    on the next recorded state."""
    def rhs(t, x, w):
        lo, hi = corridor_at(geo, grid_ts, grid_lower, [t])
        return omni_rhs(x, barrier_law(geo, x, lo[0], hi[0]), w)

    for r in rows:
        t, h, x, w = tr.ts[r], tr.ts[r + 1] - tr.ts[r], tr.x[r], tr.w[r]
        k1 = rhs(t, x, w)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1, w)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2, w)
        k4 = rhs(t + h, x + h * k3, w)
        nxt = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok = _close(tr.x[r + 1], nxt)
        if not ok.all():
            raise CheckFailed("rk4", f"step at t={t:.6g} lands on {tr.x[r + 1].tolist()}, "
                                     f"own RK4 gives {nxt.tolist()}")


# -- artifact directories ----------------------------------------------------

def check_synthesis_dir(scenario, out) -> None:
    """Corridor checks on the ``tube.csv`` and ``plans.json`` in ``out``."""
    out = Path(out)
    geo = load_geometry(scenario)
    check_corridor(geo, load_plans(out / "plans.json"), *load_tube(out / "tube.csv"))


def check_simulation_dir(scenario, out) -> None:
    """Corridor checks plus trace checks on a ``simulate`` output directory."""
    out = Path(out)
    geo = load_geometry(scenario)
    ts, lower, upper = load_tube(out / "tube.csv")
    check_corridor(geo, load_plans(out / "plans.json"), ts, lower, upper)
    run = json.loads((out / "run.json").read_text())
    check_trace(geo, load_trace(out / "trace.csv"), ts, lower, run["effort"]["energy"])
