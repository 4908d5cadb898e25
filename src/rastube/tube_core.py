"""Fixed-step RK4 integration of the corridor lower bound.

This module is the single home of the detour laws: the phase weights and
the approach and return targets.  ``pack_plans`` turns plans into float
tuples, sorted by entry time:

    (prep, enter, exit, release, column, level, anchor_in, anchor_out)

where ``column`` indexes the integrated state and the anchors are the
margin values at prep and release.  Steps that straddle a plan's release
time are split there, in every column, so the derivative switch never
lands inside a Runge-Kutta step.

The columns of the state evolve independently, and each one's derivative
is affine in its own value: y' = a(t) - b(t) * y.  A column follows the
margin rate (b = 0) unless the active plan bends it; then

    a = w_track * rate + w_approach * target_in / d_in + w_restore * target_out / d_out
    b = w_approach / d_in + w_restore / d_out

with each d the time left in its phase, floored at ``time_floor``.  The
floor keeps the pull finite past a phase end; it stays inside RK4's
stability region only for step <= 2 * time_floor, which scenario parsing
enforces.  One RK4 step of an affine ODE is itself affine,
y+ = P * y + Q, with Q the step taken from y = 0, summed in the order
the scalar RK4 sums it.

Nominal increments.  Where the weights are exactly (1, 0, 0), P == 1.0
and Q is the margin rate's own RK4 increment, which depends on the grid
alone.  ``ReachMargin.increments`` computes those once per grid, as far as
the integrations so far have reached, and keeps them, and
``RasTask.lower_margin`` hands out one margin per task, so every
candidate check and the corridor of a task share one set.

Window blocks.  The margin keeps the window kernel's blocks as well
(``ReachMargin.window_block``), for the last grid only.  A block, the P,
Q and landing rows of steps g0..g1 of one column, is keyed by every input
it reads besides the margin: the margin dimension, the grid (its step
count, g0 and g1), ``edge_buffer``, ``blend_scale`` and ``time_floor``,
the release times strictly inside the block, and the plans that can be
active in it (from the first whose release lies past the block's start
through the first whose release lies past its end), each with its times,
level, anchors and whether it bends the column.  So the corridor finds
the blocks of its accepted candidates already computed, and a stored
block has the bits a fresh one would.

Windows.  A plan's weights differ from (1, 0, 0) only near t = 0, where
the origin blend ramps, and from a pad of ``_SATURATED`` blend scales
before its first transition up to its release; past the pad every
``smoothstep`` is exactly +-0.5.  In those windows of the column the
plan bends, and on the steps next to each release in every column, the
kernel builds a and b at each node and midpoint, ``_BLOCK`` steps at a
time, and folds them into P and Q.  The targets are computed only where
an approach or restore weight is nonzero, never inside a hold.

Accumulate.  Every run of steps with P == 1.0 exactly, whether nominal or
inside a window (the hold, the origin ramp), is one in-order
``np.add.accumulate``, which gives the bits of y = 1.0 * y + Q step by
step; only where P differs from 1.0 does the scan take one multiply-add
per step in Python.  The result has the bits of running that scan over
the whole grid; past the first pulled evaluation P * y + Q rounds
differently from the scalar step, within 6e-14 on the benchmark's inputs.
The whole-grid scan, the one-instant derivative and the step-by-step RK4
built on it live in ``tests/test_tube.py`` as references.

``integrate_lower`` takes the number of steps it integrates and,
separately, the step count of the grid those rows belong to: rows
0..n_steps of the grid t_k = deadline * k / grid_steps.  A caller that
reads only a prefix of the corridor integrates only that prefix, with the
same bits as the matching rows of the full grid.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .reach import _BLOCK, ReachMargin, _tanh, rk4_increment
from .scenario import TubeParams

# smoothstep(x, scale) is exactly +-0.5 from |x| = 20 * scale on; plan
# windows reach this many blend scales past each transition
_SATURATED = 24.0


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


def _time_windows(packed: list, column: int, edge: float, pad: float) -> List[tuple]:
    """Time intervals in which an active plan may bend ``column``.

    Plan p is active from the latest earlier release up to its own.  Its
    phase weights are exactly (1, 0, 0) there except near t = 0, where the
    origin blend ramps, and from ``pad`` before its first transition on;
    ``pad`` lies past where every ``smoothstep`` saturates.
    """
    windows = []
    begin = 0.0
    for prep, enter, exit_, release, k, *_ in packed:
        if k == column and begin < release:
            first = min(prep - edge, enter + edge, exit_ - edge, release + edge) - pad
            if begin < pad:
                windows.append((begin, min(pad, release)))
            windows.append((max(begin, first), release))
        begin = max(begin, release)
    return windows


def _kernel_spans(windows, switches, t_c: float, per: int, n_steps: int) -> List[tuple]:
    """Merged step ranges [j0, j1) covering ``windows`` and every step
    within one of a release time, clamped to the steps 0..n_steps-1."""
    spans = sorted((max(0, math.floor(lo * per / t_c) - 1),
                    min(n_steps, math.ceil(hi * per / t_c) + 1))
                   for lo, hi in windows + [(sw, sw) for sw in switches])
    merged = []
    for j0, j1 in spans:
        if j0 >= j1:
            continue
        if merged and j0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], j1)
        else:
            merged.append([j0, j1])
    return merged


def _affine_steps(margin: ReachMargin, dim: int, column: int, packed: list, params: TubeParams,
                  switches: np.ndarray, per: int, g0: int, g1: int):
    """P and Q of every RK4 step of ``column`` (margin dimension ``dim``)
    from row g0 to row g1, the steps split at release times, with the node
    index each row g0+1..g1 lands on."""
    t_c = margin.deadline
    edge, blend, floor = params.edge_buffer, params.blend_scale, params.time_floor
    rows_t = t_c * np.arange(g0, g1 + 1) / per
    # release times strictly between two grid rows split that step
    inner = switches[(switches > rows_t[0]) & (switches < rows_t[-1])]
    inner = inner[rows_t[np.searchsorted(rows_t, inner)] != inner]
    tn = np.sort(np.concatenate((rows_t, inner)))
    rows = np.searchsorted(tn, rows_t[1:])
    h = tn[1:] - tn[:-1]
    half = 0.5 * h
    ts = np.concatenate((tn, tn[:-1] + half))    # nodes, then midpoints
    a = margin.rates(ts).T[dim]
    b = np.zeros_like(a)
    active = np.full(ts.shape, -1)
    for p in range(len(packed) - 1, -1, -1):
        active[ts < packed[p][3]] = p
    for p, plan in enumerate(packed):
        idx = np.flatnonzero(active == p)
        if plan[4] != column or idx.size == 0:
            continue
        w_track, w_in, w_out = phase_weights(ts[idx], *plan[:4], edge, blend)
        a[idx] *= w_track
        # targets only where an approach or restore weight is nonzero
        shaped = (w_in != 0.0) | (w_out != 0.0)
        at = idx[shaped]
        w_in, w_out = w_in[shaped], w_out[shaped]
        target_in, left_in, target_out, left_out = _plan_targets(ts[at], plan)
        d_in, d_out = np.maximum(left_in, floor), np.maximum(left_out, floor)
        a[at] += w_in * target_in / d_in + w_out * target_out / d_out
        b[at] = w_in / d_in + w_out / d_out
    m = h.shape[0]
    b0, bm, b1 = b[:m], b[m + 1:], b[1:m + 1]
    Q = rk4_increment(a[:m], a[m + 1:], a[1:m + 1], bm, b1, h)
    # the derivatives in y of the RK4 slopes sum to P - 1
    j1 = -b0
    j2 = -bm * (1.0 + half * j1)
    j3 = -bm * (1.0 + half * j2)
    j4 = -b1 * (1.0 + h * j3)
    P = 1.0 + h / 6.0 * (((j1 + 2.0 * j2) + 2.0 * j3) + j4)
    return P, Q, rows


def _window_block(margin: ReachMargin, dim: int, column: int, packed: list,
                  params: TubeParams, switches: np.ndarray, per: int, g0: int, g1: int):
    """``_affine_steps``, kept on the margin under every input it reads
    (see "Window blocks" above).  The floats go into the key as bits, so
    that a signed zero is not taken for the other."""
    t0, t1 = margin.deadline * g0 / per, margin.deadline * g1 / per
    releases = [plan[3] for plan in packed]
    first = next((p for p, r in enumerate(releases) if r > t0), len(packed))
    last = next((p for p, r in enumerate(releases) if r > t1), len(packed) - 1)
    inner = switches[(switches > t0) & (switches < t1)].tolist()
    values = [params.edge_buffer, params.blend_scale, params.time_floor, *inner]
    for plan in packed[first:last + 1]:
        values += [*plan[:4], *plan[5:], float(plan[4] == column)]
    key = (dim, g0, g1, len(inner), np.array(values).tobytes())
    return margin.window_block(per, key, lambda: _affine_steps(
        margin, dim, column, packed, params, switches, per, g0, g1))


def _accumulate(y: float, q: np.ndarray) -> np.ndarray:
    """The values (...((y + q[0]) + q[1]) ... + q[i]): the bits of the
    scan y = 1.0 * y + q."""
    return np.add.accumulate(np.concatenate(([y], q)))[1:]


def _scan(y: float, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The value after each step of y = P * y + Q: runs with P == 1.0
    accumulate, the rest take one multiply-add per step."""
    out = np.empty(Q.size)
    y = float(y)
    pulled = P != 1.0
    cuts = (np.flatnonzero(pulled[1:] != pulled[:-1]) + 1).tolist()
    for s0, s1 in zip([0, *cuts], [*cuts, Q.size]):
        if pulled[s0]:
            values = []
            for pj, qj in zip(P[s0:s1].tolist(), Q[s0:s1].tolist()):
                y = pj * y + qj
                values.append(y)
            out[s0:s1] = values
        else:
            out[s0:s1] = _accumulate(y, Q[s0:s1])
            y = float(out[s1 - 1])
    return out


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
    if not 0 <= n_steps <= per:
        raise ValueError(f"n_steps={n_steps} outside the grid of {per} steps")
    packed = pack_plans(plans, margin, dims)
    nominal = margin.increments(per, n_steps)
    switches = np.array(sorted({p[3] for p in packed if 0.0 < p[3] < t_c}))
    pad = _SATURATED * params.blend_scale
    grid = np.empty((n_steps + 1, len(dims)))
    grid[0] = margin.start[dims]
    with np.errstate(over="ignore", invalid="ignore"):
        for c, d in enumerate(dims):
            column = grid[:, c]
            windows = _time_windows(packed, c, params.edge_buffer, pad)
            spans = _kernel_spans(windows, switches.tolist(), t_c, per, n_steps)
            done = 0
            for j0, j1 in spans + [(n_steps, n_steps)]:
                column[done + 1:j0 + 1] = _accumulate(column[done], nominal[d, done:j0])
                for g0 in range(j0, j1, _BLOCK):
                    g1 = min(g0 + _BLOCK, j1)
                    P, Q, rows = _window_block(margin, d, c, packed, params, switches,
                                               per, g0, g1)
                    column[g0 + 1:g1 + 1] = _scan(column[g0], P, Q)[rows - 1]
                done = j1
    return grid, first_nonfinite_row(grid)


def first_nonfinite_row(grid: np.ndarray) -> int:
    """The first row index after row 0 holding a non-finite value, -1 when
    there is none; the row-wise test runs only when some value is not
    finite."""
    finite = np.isfinite(grid[1:])
    if finite.all():
        return -1
    return int(1 + np.flatnonzero(~finite.all(axis=1))[0])
