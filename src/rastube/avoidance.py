"""Per-obstacle detour planning.

For each unsafe box this module finds the time window during which the
nominal corridor would overlap it, picks the dimension and side used to
bend the corridor around it, and fixes the detour level.  Crossing times
come from closed-form level crossings of the reach margin and are checked
against a dense-grid overlap oracle in the tests.

Dimension/side choice starts from the spread rule (latest-entering and
earliest-leaving dimensions, smaller crossing spread wins) but every
candidate is vetted with a predicted-path collision check before being
accepted: a detour whose approach or return sweeps through the obstacle
while no other dimension separates it is rejected, and the search falls
back to the remaining (dimension, side) candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import tube_core
from .errors import InfeasibleScenarioError
from .geometry import Interval
from .scenario import RasTask, TubeParams, window_separation

PASS_ABOVE = "above"   # corridor lower bound held above the obstacle top
PASS_BELOW = "below"   # corridor upper bound held below the obstacle bottom


@dataclass(frozen=True)
class ObstaclePlan:
    """Detour schedule for one obstacle.

    prep_time/release_time pad the crossing window [enter_time, exit_time]
    by the window margin on each side; the corridor bends in dimension
    ``dim`` toward ``level`` (the value taken by the lower bound).
    """

    index: int
    enter_time: float
    exit_time: float
    prep_time: float
    release_time: float
    dim: int
    side: str
    level: float


def _fraction(num: float, den: float) -> float:
    """Clamped crossing fraction for one corner ratio.

    Ratios outside (0, 1) mean the level is never crossed strictly inside
    the horizon: at/behind the moving corner's start maps to 0, at/beyond
    its end maps to 1.  A frozen corner maps by the side the level lies on.
    """
    if den == 0.0:
        return 0.0 if num <= 0.0 else 1.0
    ratio = num / den
    if ratio <= 0.0:
        return 0.0
    if ratio >= 1.0:
        return 1.0
    a = math.atanh(ratio)
    return a / (1.0 + a)


def crossing_fractions(task: RasTask, j: int, dim: int) -> Tuple[float, float, float, float]:
    """The four corner crossing fractions of obstacle j in one dimension.

    Order: (lower corner vs obstacle bottom, lower corner vs obstacle top,
    upper corner vs obstacle bottom, upper corner vs obstacle top); each is
    a fraction of the deadline.
    """
    s_box = task.start_box()
    t_box = task.target_box()
    u = task.unsafe_sets[j].dims[dim]
    lo0, lo1 = s_box.lower[dim], t_box.lower[dim]
    hi0, hi1 = s_box.upper[dim], t_box.upper[dim]
    return (
        _fraction(u.lo - lo0, lo1 - lo0),
        _fraction(u.hi - lo0, lo1 - lo0),
        _fraction(u.lo - hi0, hi1 - hi0),
        _fraction(u.hi - hi0, hi1 - hi0),
    )


def _band_const(task: RasTask, dim: int) -> bool:
    s_box = task.start_box()
    t_box = task.target_box()
    return s_box.lower[dim] == t_box.lower[dim]


def _band_hull(task: RasTask, dim: int) -> Interval:
    """Range swept by the corridor cross-section in one dimension."""
    lo = task.lower_margin()
    width = 2.0 * task.band_halfwidth[dim]
    a, b = lo.start[dim], lo.end[dim]
    return Interval(min(a, b), max(a, b) + width)


def intersection_interval(task: RasTask, j: int) -> Optional[Tuple[float, float]]:
    """Time window in which the nominal corridor overlaps obstacle j, or None.

    Per dimension the window is bracketed by the min/max crossing fraction;
    the joint window takes the latest entry and earliest exit.  Obstacles
    that the swept corridor never reaches in some dimension yield None, as
    does an inverted joint window.
    """
    u = task.unsafe_sets[j]
    starts = []
    ends = []
    for i in range(task.n):
        if not _band_hull(task, i).intersects(u.dims[i]):
            return None
        if _band_const(task, i):
            # frozen cross-section: hull overlap already established above
            starts.append(0.0)
            ends.append(1.0)
            continue
        fr = crossing_fractions(task, j, i)
        starts.append(min(fr))
        ends.append(max(fr))
    t_in = max(starts) * task.deadline
    t_out = min(ends) * task.deadline
    if t_in > t_out:
        return None
    return (t_in, t_out)


def select_dimension(task: RasTask, j: int) -> int:
    """Spread-rule dimension for obstacle j.

    Of the latest-entering and earliest-leaving dimensions, pick the one
    whose crossing spread is smaller; ties break to the lowest index.
    """
    mins = []
    maxs = []
    for i in range(task.n):
        fr = crossing_fractions(task, j, i)
        mins.append(min(fr))
        maxs.append(max(fr))
    i1 = int(np.argmax(mins))            # argmax of window starts
    i2 = int(np.argmin(maxs))            # argmin of window ends
    candidates = sorted({i1, i2})
    spreads = [maxs[k] - mins[k] for k in candidates]
    return candidates[int(np.argmin(spreads))]


def detour_level(task: RasTask, j: int, dim: int, side: str) -> float:
    """Lower-bound value that parks the corridor just clear of the obstacle."""
    u = task.unsafe_sets[j].dims[dim]
    pad = float(task.obstacle_margin[j])
    width = 2.0 * task.band_halfwidth[dim]
    if side == PASS_ABOVE:
        return u.hi + pad
    return u.lo - width - pad


def _in_workspace(task: RasTask, dim: int, lower) -> bool:
    """True iff corridor rows whose lower bound in ``dim`` is ``lower`` (a
    value or an array of them) lie inside the workspace in that dimension."""
    ws = task.workspace.dims[dim]
    return bool(np.all(ws.lo <= lower) and np.all(lower + 2.0 * task.band_halfwidth[dim] <= ws.hi))


def _rows_clear(task: RasTask, plan: ObstaclePlan, ts: np.ndarray, lower: np.ndarray,
                pad: float, windows: dict) -> bool:
    """The candidate check on corridor rows: lower bounds ``lower`` at times
    ``ts``, shape (len(ts), n).

    The rows must lie inside the workspace in the detour dimension and
    clear every obstacle by more than ``pad`` (``Box.clearance``), except
    inside the crossing windows that ``windows`` holds for obstacles other
    than the plan's own: those detours are planned separately.
    """
    if not _in_workspace(task, plan.dim, lower[:, plan.dim]):
        return False
    upper = lower + 2.0 * task.band_halfwidth
    for m, u in enumerate(task.unsafe_sets):
        clearance = u.clearance(lower, upper)
        if m != plan.index and m in windows:
            w_lo, w_hi = windows[m]
            clearance = clearance[(ts < w_lo) | (ts > w_hi)]
        if clearance.size and clearance.min() <= pad:
            return False
    return True


def _blend_path_clear(task: RasTask, plan: ObstaclePlan) -> bool:
    """Cheap pre-filter: collision check along the ideal blend path.

    Samples the targets the corridor is steered toward in the detour
    dimension at 400 times over [prep, release], pairs them with the nominal
    cross-section elsewhere, and requires strict disjointness from every
    obstacle plus workspace containment.  Necessary but not sufficient
    (the integrated bound trails these targets), so accepted candidates
    are confirmed with the integrated check below.
    """
    lower = task.lower_margin()
    anchor_in = lower.value(plan.dim, plan.prep_time)
    anchor_out = lower.value(plan.dim, plan.release_time)
    ts = np.linspace(plan.prep_time, plan.release_time, 400)
    approach = tube_core.approach_target(ts, plan.prep_time, plan.enter_time,
                                         plan.level, anchor_in)
    restore = tube_core.return_target(ts, plan.exit_time, plan.release_time,
                                      plan.level, anchor_out)
    rows = lower.value_grid(ts)
    rows[:, plan.dim] = np.where(ts < plan.enter_time, approach,
                                 np.where(ts <= plan.exit_time, plan.level, restore))
    return _rows_clear(task, plan, ts, rows, 0.0, {})


def _integrated_dim_path(task: RasTask, plan: ObstaclePlan, params: TubeParams,
                         until: float):
    """Integrate the candidate's detour dimension alone from 0 to the last
    corridor grid row at or before ``until``; the rows keep the bits of the
    full-horizon grid."""
    ts = params.grid(task.deadline)
    last = int(np.searchsorted(ts, until, side="right")) - 1
    grid, bad = tube_core.integrate_lower(task.lower_margin(), last, [plan], params,
                                         dims=[plan.dim], grid_steps=ts.size - 1)
    if bad >= 0:
        return None, None
    return ts[:last + 1], grid[:, 0]


# clearance demanded of a candidate's integrated path, absorbing the small
# residuals other detours may leave behind in the same dimension
_PLAN_CLEARANCE_PAD = 1e-3


def _integrated_path_clear(task: RasTask, plan: ObstaclePlan, params: TubeParams,
                           windows: dict) -> bool:
    """Confirm a candidate by integrating its corridor bound and box-checking.

    Checks the grid rows of the window neighbourhood of the candidate with
    ``_rows_clear``, requiring a clearance above ``_PLAN_CLEARANCE_PAD``
    outside the other obstacles' crossing windows ``windows``.
    """
    lead = 2.0 * params.edge_buffer + 8.0 * params.blend_scale
    ts, path = _integrated_dim_path(task, plan, params, plan.release_time + lead)
    if ts is None:
        return False
    sel = ts >= plan.prep_time - lead
    ts = ts[sel]
    rows = task.lower_margin().value_grid(ts)
    rows[:, plan.dim] = path[sel]
    return _rows_clear(task, plan, ts, rows, _PLAN_CLEARANCE_PAD, windows)


def _candidate_windows(task: RasTask) -> dict:
    return {j: w for j in range(task.n_obstacles)
            if (w := intersection_interval(task, j)) is not None}


def select_side(task: RasTask, j: int, dim: int, window: Tuple[float, float],
                params: TubeParams,
                windows: Optional[dict] = None) -> Optional[Tuple[str, float]]:
    """Pick the side of obstacle j in ``dim`` with the smaller detour.

    Candidates must fit in the workspace, pass the blend-path pre-filter,
    and pass the integrated collision check; returns (side, level) or None
    when neither side works.
    """
    if windows is None:
        windows = _candidate_windows(task)
    t_in, t_out = window
    lower = task.lower_margin()
    ref = lower.value(dim, t_in)
    options = []
    for side in (PASS_ABOVE, PASS_BELOW):
        level = detour_level(task, j, dim, side)
        options.append((abs(level - ref), side, level))
    options.sort()
    for _, side, level in options:
        if not _in_workspace(task, dim, level):
            continue
        plan = ObstaclePlan(index=j, enter_time=t_in, exit_time=t_out,
                            prep_time=t_in - params.window_margin,
                            release_time=t_out + params.window_margin,
                            dim=dim, side=side, level=level)
        if _blend_path_clear(task, plan) and _integrated_path_clear(task, plan, params, windows):
            return side, level
    return None


def plan_obstacle(task: RasTask, j: int, window: Tuple[float, float],
                  params: TubeParams, windows: Optional[dict] = None) -> ObstaclePlan:
    """Full detour plan for one obstacle; raises when no candidate is safe.

    The spread-rule dimension is tried first; if neither of its sides
    survives the workspace and collision checks the remaining dimensions
    are tried in index order.
    """
    t_in, t_out = window
    prep = t_in - params.window_margin
    if prep < 0.0:
        raise InfeasibleScenarioError(
            f"obstacle {j}: crossing window starts at {t_in:.6g}, inside the "
            f"window margin {params.window_margin:.6g}", obstacle=j)
    preferred = select_dimension(task, j)
    order = [preferred] + [i for i in range(task.n) if i != preferred]
    for dim in order:
        picked = select_side(task, j, dim, window, params, windows)
        if picked is not None:
            side, level = picked
            return ObstaclePlan(index=j, enter_time=t_in, exit_time=t_out,
                                prep_time=prep,
                                release_time=t_out + params.window_margin,
                                dim=dim, side=side, level=level)
    raise InfeasibleScenarioError(
        f"obstacle {j}: no dimension offers a safe detour", obstacle=j)


def schedule(task: RasTask, params: TubeParams) -> List[ObstaclePlan]:
    """Detour plans for all obstacles with nonempty crossing windows.

    Plans come back sorted by entry time.  Raises when two windows are not
    separated by more than twice the window margin, or when any obstacle
    admits no safe detour.  At simulation time t the active plan is the
    first whose release time still lies ahead.
    """
    windows = _candidate_windows(task)
    order = sorted(windows.items(), key=lambda item: item[1][0])

    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            (ja, wa), (jb, wb) = order[a], order[b]
            sep = window_separation(wa, wb)
            if sep <= 2.0 * params.window_margin:
                raise InfeasibleScenarioError(
                    f"obstacles {ja} and {jb}: crossing windows separated by "
                    f"{sep:.6g}, need more than {2.0 * params.window_margin:.6g}")

    return [plan_obstacle(task, j, w, params, windows) for j, w in order]

