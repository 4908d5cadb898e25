"""Fixed-step RK4 integration of the corridor lower bound.

This module is the single home of the detour laws: the phase weights, the
approach and return targets, the shaper feedback, and the blended
derivative built from them.  ``pack_plans`` turns plans into float tuples,
sorted by entry time:

    (prep, enter, exit, release, column, level, anchor_in, anchor_out)

where ``column`` indexes the integrated state and the anchors are the
margin values at prep and release.  Steps that straddle a plan's release
time are split there, so the derivative switch never lands inside a
Runge-Kutta step.

The columns of the state evolve independently, and most of the time a
column's derivative depends on time alone: the margin rate, possibly
scaled by a phase weight.  The integrator evaluates every time-only term
for a block of steps at once and sums those increments in order with
``np.add.accumulate``.  In the hold phase of a detour all three phase
weights are exactly zero, so the slope there is a signed zero: a zero
weight times a finite shaper.  Such still evaluations count as zero in
the time-only sums.  The step's increment then differs from the scalar
one at most in the sign of a zero, which leaves a finite nonzero value
unchanged.  A step entered at zero or at a non-finite value, and every
step where a phase weight pulls the active plan's column toward a target,
runs one at a time; the targets are computed only for the evaluations
those steps read.  The laws accept floats or arrays and use
``math.tanh`` / ``math.cosh`` for both, so the grid is bit-identical to
evaluating the derivative one instant at a time, as long as every shaper
is finite.  (A shaper overflows only when |target - value| / time_floor
exceeds the float range; a zero weight then makes the reference slope
NaN, while the time-only terms drop it.)  That one-instant reference
derivative, and the step-by-step RK4 built on it, live in
``tests/test_tube.py``.

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


def shaper(target: float, value: float, remaining: float, floor: float) -> float:
    """Feedback rate steering ``value`` onto ``target`` in ``remaining`` time.

    The denominator vanishes at the phase end, which is what forces exact
    arrival; past that instant it is floored and the numerator is already
    near zero, leaving a benign proportional pin.
    """
    return (target - value) / (floor if remaining < floor else remaining)


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


def _plan_terms(t, plan: tuple, edge: float, blend: float) -> tuple:
    """Time-only terms of one plan's blend at time(s) t: the three phase
    weights, then each target with the time left in its phase."""
    return phase_weights(t, *plan[:4], edge, blend) + _plan_targets(t, plan)


def _blend(rate: float, value: float, w_track: float, w_approach: float, w_restore: float,
           target_in: float, remaining_in: float, target_out: float, remaining_out: float,
           floor: float) -> float:
    """The active plan column's derivative: the margin rate blended with
    the approach and restore shapers."""
    return (w_track * rate + w_approach * shaper(target_in, value, remaining_in, floor)
            + w_restore * shaper(target_out, value, remaining_out, floor))


def _column_block(y0, rate, still, pulls, held, sixth, half, h, floor):
    """RK4 values of one column over a block of m steps.

    ``rate`` holds the margin-rate term at the m + 1 step nodes and then at
    the m midpoints; ``pulls`` maps each evaluation index where a shaper
    pulls the column to its time-only blend terms.  ``still`` marks the
    evaluations whose slope is a signed zero, and ``held(e)`` gives their
    blend terms when a scalar step reads them.  A still step joins the
    time-only sums only when it is entered at a finite nonzero value, which
    adding a signed zero leaves unchanged.  Returns the m + 1 node values,
    starting with ``y0``.
    """
    m = sixth.shape[0]
    nb = m + 1
    flat = np.where(still, 0.0, rate)
    mid = flat[nb:]
    inc = sixth * (((flat[:m] + 2.0 * mid) + 2.0 * mid) + flat[1:nb])
    pulled = np.zeros(2 * m + 1, dtype=bool)
    pulled[list(pulls)] = True
    coupled = pulled[:m] | pulled[nb:] | pulled[1:nb]
    resting = still[:m] | still[nb:] | still[1:nb]
    values = np.empty(nb)
    values[0] = y0
    edges = (np.flatnonzero(np.diff(coupled)) + 1).tolist()
    rates, sixths, stills = rate.tolist(), sixth.tolist(), still.tolist()

    def slope(e, value):
        terms = pulls.get(e)
        if terms is None:
            if not stills[e]:
                return rates[e]
            terms = pulls[e] = held(e)
        return _blend(rates[e], value, *terms, floor)

    def step(j, y):
        k1 = slope(j, y)
        k2 = slope(nb + j, y + half[j] * k1)
        k3 = slope(nb + j, y + half[j] * k2)
        k4 = slope(j + 1, y + h[j] * k3)
        return y + sixths[j] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for lo, hi in zip([0] + edges, edges + [m]):
        if coupled[lo]:
            y = float(values[lo])
            for j in range(lo, hi):
                y = step(j, y)
                values[j + 1] = y
            continue
        while lo < hi:
            # time-only increments: summed in order, exactly as a loop would
            run = np.add.accumulate(np.concatenate((values[lo:lo + 1], inc[lo:hi])))
            values[lo + 1:hi + 1] = run[1:]
            entry = run[:-1]
            odd = resting[lo:hi] & ~(np.isfinite(entry) & (entry != 0.0))
            if not odd.any():
                break
            # a still step the guard does not admit runs with its real terms
            j = lo + int(odd.argmax())
            values[j + 1] = step(j, float(values[j]))
            lo = j + 1
    return values


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
        rates = list(margin.rates(ts).T[dims])
        stills = [np.zeros(ts.shape, dtype=bool) for _ in dims]
        pulls = [{} for _ in dims]
        active = np.full(ts.shape, -1)
        for p in range(len(packed) - 1, -1, -1):
            active[ts < packed[p][3]] = p
        for p, plan in enumerate(packed):
            idx = np.flatnonzero(active == p)
            if idx.size == 0:
                continue
            k = plan[4]
            weights = phase_weights(ts[idx], *plan[:4], edge, blend)
            # where both shaper weights vanish exactly the slope is the
            # scaled margin rate, or a signed zero when that product is zero
            scaled = weights[0] * rates[k][idx]
            shaped = (weights[1] != 0.0) | (weights[2] != 0.0)
            free = ~shaped & (scaled != 0.0)
            rates[k][idx[free]] = scaled[free]
            stills[k][idx[~shaped & (scaled == 0.0)]] = True
            terms = tuple(w[shaped] for w in weights) + _plan_targets(ts[idx[shaped]], plan)
            pulls[k].update(zip(idx[shaped].tolist(), zip(*(v.tolist() for v in terms))))

        def held(e):
            return _plan_terms(float(ts[e]), packed[active[e]], edge, blend)

        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(dims)):
                values = _column_block(y[i], rates[i], stills[i], pulls[i], held, h / 6.0,
                                       half.tolist(), h.tolist(), floor)
                y[i] = float(values[-1])
                grid[g0 + 1:g1 + 1, i] = values[rows]
        finite = np.isfinite(grid[g0 + 1:g1 + 1]).all(axis=1)
        if not finite.all():
            return grid, int(g0 + 1 + np.flatnonzero(~finite)[0])
    return grid, -1
