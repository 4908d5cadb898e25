"""Fixed-step RK4 integration of the corridor lower bound.

This module is the single home of the detour laws: the phase weights and
the approach and return targets.  ``pack_plans`` turns plans into float
tuples, sorted by entry time:

    (prep, enter, exit, release, column, level, anchor_in, anchor_out)

where ``column`` indexes the integrated state and the anchors are the
margin values at prep and release.  Steps that straddle a plan's release
time are split there, so the derivative switch never lands inside a
Runge-Kutta step.

The columns of the state evolve independently, and each one's derivative
is affine in its own value: y' = a(t) - b(t) * y.  A column follows the
margin rate (b = 0) unless the active plan bends it; then

    a = w_track * rate + w_approach * target_in / d_in + w_restore * target_out / d_out
    b = w_approach / d_in + w_restore / d_out

with each d the time left in its phase, floored at ``time_floor``.  The
floor keeps the pull finite past a phase end; it stays inside RK4's
stability region only for step <= 2 * time_floor, which scenario parsing
enforces.  One RK4 step of an affine ODE is itself affine,
y+ = P * y + Q, so the integrator builds a and b at every node and
midpoint of a block of steps, folds them into P and Q in numpy, and runs
one multiply-add per step.  Q is the step taken from y = 0, summed in the
order the scalar RK4 sums it; a step with b = 0 has P == 1.0 exactly and
Q equal to the scalar step's increment.  So every column no plan bends,
and every row before a column's first evaluation with a nonzero approach
or restore weight, keeps the bits of evaluating the derivative one
instant at a time.  Past that evaluation P * y + Q rounds differently
from the scalar step; the rows agree within 6e-14 on the benchmark's
inputs.  That one-instant reference, and the step-by-step RK4 built on
it, live in ``tests/test_tube.py``.  The targets are computed only where
an approach or restore weight is nonzero, never inside a hold.

``integrate_lower`` takes the number of steps it integrates and,
separately, the step count of the grid those rows belong to: rows
0..n_steps of the grid t_k = deadline * k / grid_steps.  A caller that
reads only a prefix of the corridor integrates only that prefix, with the
same bits as the matching rows of the full grid.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .reach import ReachMargin, _tanh
from .scenario import TubeParams

# Runge-Kutta steps evaluated together; bounds the scratch arrays.
_BLOCK = 1024


def smoothstep(t, scale: float):
    """Odd sigmoid 0.5*tanh(t/scale) with range (-0.5, 0.5)."""
    return 0.5 * _tanh(t / scale)


def phase_weights(t, prep: float, enter: float, exit_: float, release: float,
                  edge: float, blend: float) -> Tuple:
    """Phase weights (track, approach, restore) for one plan at time t.

    Away from the detour the first weight saturates at one and the others
    vanish; during the approach and restore phases the matching weight
    takes over.  The edge buffer shifts each transition so it completes
    inside its own phase.
    """
    s_origin = smoothstep(t, blend)
    s_prep = smoothstep(t - prep + edge, blend)
    s_enter = smoothstep(t - enter - edge, blend)
    s_exit = smoothstep(t - exit_ + edge, blend)
    s_release = smoothstep(t - release - edge, blend)
    return (s_origin - s_prep + s_release + 0.5, s_prep - s_enter, s_exit - s_release)


def _ramp(t, start: float, end: float, origin: float, goal: float):
    """origin + (goal - origin) * tanh((t - start) / (end - t)) before
    ``end``, ``goal`` from ``end`` on."""
    ta = np.asarray(t, dtype=float)
    before = ta < end
    x = np.where(before, ta, start)
    out = np.where(before, origin + (goal - origin) * _tanh((x - start) / (end - x)), goal)
    return out if out.ndim else float(out)


def approach_target(t, prep: float, enter: float, level: float, anchor: float):
    """Value pulled toward during the approach phase, from the margin value
    ``anchor`` at prep time to the plan level, held once the crossing
    window has started."""
    return _ramp(t, prep, enter, anchor, level)


def return_target(t, exit_: float, release: float, level: float, anchor: float):
    """Value pulled toward during the restore phase, from the plan level
    back to the margin value ``anchor`` at release time, held once the plan
    has released."""
    return _ramp(t, exit_, release, level, anchor)


def pack_plans(plans, margin: ReachMargin, dims: Optional[Sequence[int]] = None) -> List[tuple]:
    """Plans as float tuples for the integrator, sorted by entry time.

    ``dims`` lists the margin dimensions the integrated state holds, in
    column order (default: all of them).
    """
    dims = list(range(margin.n)) if dims is None else list(dims)
    return [(p.prep_time, p.enter_time, p.exit_time, p.release_time,
             dims.index(p.dim), p.level,
             margin.value(p.dim, p.prep_time), margin.value(p.dim, p.release_time))
            for p in sorted(plans, key=lambda q: q.enter_time)]


def _plan_targets(t, plan: tuple) -> tuple:
    """Each target of one plan at time(s) t, with the time left in its phase."""
    prep, enter, exit_, release, _, level, anchor_in, anchor_out = plan
    return (approach_target(t, prep, enter, level, anchor_in), enter - t,
            return_target(t, exit_, release, level, anchor_out), release - t)


def integrate_lower(margin: ReachMargin, n_steps: int, plans, params: TubeParams,
                    dims: Optional[Sequence[int]] = None,
                    grid_steps: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """RK4 rows 0..n_steps of the corridor lower bound on the grid
    t_k = deadline * k / grid_steps (default: grid_steps = n_steps, the
    whole of [0, deadline]).

    ``dims`` selects the margin dimensions to integrate (default: all);
    every plan must bend one of them.  Returns the (n_steps + 1, len(dims))
    grid and the first row index holding a non-finite value (-1 when the
    whole grid is finite).
    """
    dims = list(range(margin.n)) if dims is None else list(dims)
    t_c = margin.deadline
    per = n_steps if grid_steps is None else grid_steps
    packed = pack_plans(plans, margin, dims)
    edge, blend, floor = params.edge_buffer, params.blend_scale, params.time_floor
    switches = np.array(sorted({p[3] for p in packed if 0.0 < p[3] < t_c}))
    y = [float(margin.start[d]) for d in dims]
    grid = np.empty((n_steps + 1, len(dims)))
    grid[0] = y
    for g0 in range(0, n_steps, _BLOCK):
        g1 = min(g0 + _BLOCK, n_steps)
        rows_t = t_c * np.arange(g0, g1 + 1) / per
        # release times strictly between two grid rows split that step
        inner = switches[(switches > rows_t[0]) & (switches < rows_t[-1])]
        inner = inner[rows_t[np.searchsorted(rows_t, inner)] != inner]
        tn = np.sort(np.concatenate((rows_t, inner)))
        rows = np.searchsorted(tn, rows_t[1:])     # node index of each grid row
        h = tn[1:] - tn[:-1]
        half = 0.5 * h
        ts = np.concatenate((tn, tn[:-1] + half))    # nodes, then midpoints
        a = margin.rates(ts).T[dims]
        b = np.zeros_like(a)
        active = np.full(ts.shape, -1)
        for p in range(len(packed) - 1, -1, -1):
            active[ts < packed[p][3]] = p
        with np.errstate(over="ignore", invalid="ignore"):
            for p, plan in enumerate(packed):
                idx = np.flatnonzero(active == p)
                if idx.size == 0:
                    continue
                k = plan[4]
                w_track, w_in, w_out = phase_weights(ts[idx], *plan[:4], edge, blend)
                a[k, idx] *= w_track
                # targets only where an approach or restore weight is nonzero
                shaped = (w_in != 0.0) | (w_out != 0.0)
                at = idx[shaped]
                w_in, w_out = w_in[shaped], w_out[shaped]
                target_in, left_in, target_out, left_out = _plan_targets(ts[at], plan)
                d_in, d_out = np.maximum(left_in, floor), np.maximum(left_out, floor)
                a[k, at] += w_in * target_in / d_in + w_out * target_out / d_out
                b[k, at] = w_in / d_in + w_out / d_out
            m = h.shape[0]
            a0, am, a1 = a[:, :m], a[:, m + 1:], a[:, 1:m + 1]
            b0, bm, b1 = b[:, :m], b[:, m + 1:], b[:, 1:m + 1]
            sixth = h / 6.0
            # the RK4 slopes from y = 0 sum to Q; their derivatives in y, to P - 1
            k1 = a0
            k2 = am - bm * (half * k1)
            k3 = am - bm * (half * k2)
            k4 = a1 - b1 * (h * k3)
            Q = sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
            j1 = -b0
            j2 = -bm * (1.0 + half * j1)
            j3 = -bm * (1.0 + half * j2)
            j4 = -b1 * (1.0 + h * j3)
            P = 1.0 + sixth * (((j1 + 2.0 * j2) + 2.0 * j3) + j4)
        for i in range(len(dims)):
            v = y[i]
            values = [v]
            for pj, qj in zip(P[i].tolist(), Q[i].tolist()):
                v = pj * v + qj
                values.append(v)
            y[i] = v
            grid[g0 + 1:g1 + 1, i] = np.array(values)[rows]
        finite = np.isfinite(grid[g0 + 1:g1 + 1]).all(axis=1)
        if not finite.all():
            return grid, int(g0 + 1 + np.flatnonzero(~finite)[0])
    return grid, -1
