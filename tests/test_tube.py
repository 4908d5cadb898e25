import contextlib
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rastube import tube as tube_mod, tube_core
from rastube.avoidance import PASS_ABOVE, ObstaclePlan, _fraction, schedule
from rastube.cli import in_child
from rastube.errors import (ConfigurationError, InfeasibleScenarioError, SynthesisError,
                            TubeViolationError)
from rastube.geometry import Box
from rastube.scenario import RasTask, TubeParams
from rastube.plant import SimFlags, SimTrace
from rastube.tube import (_SLICE, Tube, _formatted, evolve_tube, smoothness_check,
                          verify_tube)

from conftest import assert_no_child_left, reference_csv


def tube_derivative(task, plans, params, values, t):
    """Scalar oracle of the corridor lower-bound derivative, written out
    independently of tube_core.

    Every dimension follows the margin rate, the derivative of
    start + span * tanh(t / (T - t)); the active plan, the first by entry
    time not yet released, blends that rate in its dimension with the
    approach and restore shapers.
    """
    margin = task.lower_margin()
    t_c = margin.deadline
    out = np.zeros(margin.n)
    if t < t_c * (1.0 - 1e-9):
        w = t_c - max(t, 0.0)
        z = max(t, 0.0) / w
        sech_sq = 0.0 if z > 300.0 else 1.0 / math.cosh(z) ** 2
        out = (margin.end - margin.start) * t_c / (w * w) * sech_sq
    plan = next((p for p in sorted(plans, key=lambda p: p.enter_time)
                 if p.release_time > t), None)
    if plan is None:
        return out
    k = plan.dim

    def step(x):
        return 0.5 * math.tanh(x / params.blend_scale)

    edge = params.edge_buffer
    s_prep = step(t - plan.prep_time + edge)
    s_release = step(t - plan.release_time - edge)
    w_track = step(t) - s_prep + s_release + 0.5
    w_approach = s_prep - step(t - plan.enter_time - edge)
    w_restore = step(t - plan.exit_time + edge) - s_release

    anchor_in = margin.value(k, plan.prep_time)
    anchor_out = margin.value(k, plan.release_time)
    if t >= plan.enter_time:
        target_in = plan.level
    else:
        target_in = anchor_in + (plan.level - anchor_in) * math.tanh(
            (t - plan.prep_time) / (plan.enter_time - t))
    if t >= plan.release_time:
        target_out = anchor_out
    else:
        target_out = plan.level + (anchor_out - plan.level) * math.tanh(
            (t - plan.exit_time) / (plan.release_time - t))
    pull_in = (target_in - values[k]) / max(plan.enter_time - t, params.time_floor)
    pull_out = (target_out - values[k]) / max(plan.release_time - t, params.time_floor)
    out[k] = w_track * out[k] + w_approach * pull_in + w_restore * pull_out
    return out


def integrator_derivative(task, plans, params, values, t):
    """The derivative the corridor integrator evaluates."""
    m = task.lower_margin()
    return np.array(corridor_derivative(
        t, [float(v) for v in values], m, list(range(m.n)), tube_core.pack_plans(plans, m),
        params.edge_buffer, params.blend_scale, params.time_floor))


class TestSmoothstep:
    def test_zero_at_origin(self):
        assert tube_core.smoothstep(0.0, 0.5) == 0.0

    def test_saturation(self):
        assert tube_core.smoothstep(10.0, 0.5) == pytest.approx(0.5, abs=1e-9)
        assert tube_core.smoothstep(-10.0, 0.5) == pytest.approx(-0.5, abs=1e-9)

    def test_unit_argument(self):
        assert tube_core.smoothstep(0.5, 0.5) == pytest.approx(0.5 * math.tanh(1.0), abs=1e-15)

    def test_odd(self):
        assert tube_core.smoothstep(0.3, 0.2) == -tube_core.smoothstep(-0.3, 0.2)


def demo_plan(enter=20.0, exit_=30.0, margin=2.0, level=5.0, dim=0, side=PASS_ABOVE):
    return ObstaclePlan(index=0, enter_time=enter, exit_time=exit_,
                        prep_time=enter - margin, release_time=exit_ + margin,
                        dim=dim, side=side, level=level)


def demo_params(margin=2.0):
    return TubeParams(window_margin=margin, edge_buffer=margin / 32,
                      blend_scale=margin / 128, time_floor=5e-4 * margin,
                      step=1e-3 * margin)


def activation_weights(plan, params, t):
    return tube_core.phase_weights(t, plan.prep_time, plan.enter_time, plan.exit_time,
                                   plan.release_time, params.edge_buffer, params.blend_scale)


class TestActivationWeights:
    def test_tracking_plateau(self):
        plan, params = demo_plan(), demo_params()
        w = activation_weights(plan, params, 10.0)
        assert w[0] == pytest.approx(1.0, abs=1e-3)
        assert abs(w[1]) < 1e-3 and abs(w[2]) < 1e-3

    def test_approach_plateau(self):
        plan, params = demo_plan(), demo_params()
        w = activation_weights(plan, params, 19.0)  # midway prep..enter
        assert abs(w[0]) < 1e-3
        assert w[1] == pytest.approx(1.0, abs=1e-3)
        assert abs(w[2]) < 1e-3

    def test_restore_plateau(self):
        plan, params = demo_plan(), demo_params()
        w = activation_weights(plan, params, 31.0)  # midway exit..release
        assert abs(w[0]) < 1e-3 and abs(w[1]) < 1e-3
        assert w[2] == pytest.approx(1.0, abs=1e-3)

    def test_hold_phase_all_weights_vanish(self):
        plan, params = demo_plan(), demo_params()
        for t in np.linspace(plan.enter_time + 2 * params.edge_buffer,
                             plan.exit_time - 2 * params.edge_buffer, 7):
            w = activation_weights(plan, params, float(t))
            assert max(abs(x) for x in w) < 1e-3


def demo_margin(task=None):
    from rastube.reach import ReachMargin
    return ReachMargin(np.array([0.0]), np.array([10.0]), 50.0)


def approach_target(plan, margin, t):
    return tube_core.approach_target(t, plan.prep_time, plan.enter_time, plan.level,
                                     margin.value(plan.dim, plan.prep_time))


def return_target(plan, margin, t):
    return tube_core.return_target(t, plan.exit_time, plan.release_time, plan.level,
                                   margin.value(plan.dim, plan.release_time))


def shaper(target, value, remaining, floor):
    """Feedback rate steering ``value`` onto ``target`` in ``remaining``
    time, with the denominator floored once the phase has ended."""
    return (target - value) / max(remaining, floor)


def approach_shaper(plan, params, t, value_now, margin):
    return shaper(approach_target(plan, margin, t), value_now,
                  plan.enter_time - t, params.time_floor)


def return_shaper(plan, params, t, value_now, margin):
    return shaper(return_target(plan, margin, t), value_now,
                  plan.release_time - t, params.time_floor)


class TestShapers:
    def test_approach_zero_past_entry_at_level(self):
        plan, params = demo_plan(), demo_params()
        m = demo_margin()
        assert approach_shaper(plan, params, plan.enter_time + 0.5, plan.level, m) == 0.0

    def test_approach_at_prep_time(self):
        plan, params = demo_plan(), demo_params()
        m = demo_margin()
        anchor = m.value(0, plan.prep_time)
        value_now = 3.0
        got = approach_shaper(plan, params, plan.prep_time, value_now, m)
        assert got == pytest.approx((anchor - value_now) / (plan.enter_time - plan.prep_time))

    def test_approach_target_monotone(self):
        # fine-grid monotonicity scan of the blend from the anchor (1.0
        # here) up to the level 2.1
        m = demo_margin()
        prep = m.deadline * _fraction(1.0 - m.start[0], m.end[0] - m.start[0])
        plan = demo_plan(enter=prep + 2.0, exit_=prep + 6.0, level=2.1)
        assert m.value(0, plan.prep_time) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(plan.prep_time, plan.enter_time - 1e-9, 4000)
        vals = np.array([approach_target(plan, m, float(t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 1.0 - 1e-12) & (vals <= 2.1 + 1e-12))
        assert vals[-1] == pytest.approx(plan.level, abs=1e-6)

    def test_return_target_at_exit_is_level(self):
        plan, params = demo_plan(), demo_params()
        m = demo_margin()
        assert return_target(plan, m, plan.exit_time) == plan.level

    def test_return_zero_past_release_at_anchor(self):
        plan, params = demo_plan(), demo_params()
        m = demo_margin()
        anchor = m.value(0, plan.release_time)
        assert return_shaper(plan, params, plan.release_time + 0.5, anchor, m) == 0.0

    def test_return_target_monotone(self):
        plan, params = demo_plan(level=2.1), demo_params()
        m = demo_margin()
        anchor = m.value(0, plan.release_time)
        ts = np.linspace(plan.exit_time, plan.release_time - 1e-9, 4000)
        vals = np.array([return_target(plan, m, float(t)) for t in ts])
        sign = 1.0 if anchor >= plan.level else -1.0
        assert np.all(sign * np.diff(vals) >= -1e-12)


class TestTubeDerivative:
    def test_no_plans_equals_margin_rate(self, case_scenario):
        task = case_scenario.task
        m = task.lower_margin()
        for t in (0.0, 11.0, 40.0, 79.0):
            got = integrator_derivative(task, [], case_scenario.tube, m.value_vec(t), t)
            np.testing.assert_allclose(got, m.rates([t])[0], rtol=0, atol=1e-15)

    def test_initial_rate(self, case_scenario):
        task = case_scenario.task
        m = task.lower_margin()
        got = integrator_derivative(task, [], case_scenario.tube, m.value_vec(0.0), 0.0)
        span = m.end - m.start
        np.testing.assert_allclose(got, span / task.deadline, rtol=1e-12)

    def test_hold_phase_rate_vanishes(self, case_scenario, case_plans):
        task = case_scenario.task
        m = task.lower_margin()
        p = case_plans[1]
        t = 0.5 * (p.enter_time + p.exit_time)
        values = m.value_vec(t)
        values[p.dim] = p.level
        got = integrator_derivative(task, case_plans, case_scenario.tube, values, t)
        assert abs(got[p.dim]) < 1e-3 * (abs(p.level) + 1.0)

    def test_integrator_matches_scalar_oracle(self, case_scenario, case_plans):
        # random times plus every phase boundary and midpoint of each plan,
        # with the state pushed off the margin so the shapers pull
        task, params = case_scenario.task, case_scenario.tube
        m = task.lower_margin()
        rng = np.random.default_rng(3)
        times = list(rng.uniform(0.0, task.deadline, 200))
        for p in case_plans:
            marks = [p.prep_time, p.enter_time, p.exit_time, p.release_time]
            times += marks + [0.5 * (a + b) for a, b in zip(marks, marks[1:])]
        for t in times + [task.deadline]:
            values = m.value_vec(t) + rng.uniform(-0.1, 0.1, task.n)
            got = integrator_derivative(task, case_plans, params, values, t)
            ref = tube_derivative(task, case_plans, params, values, t)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_two_simultaneous_plans_error(self, case_scenario, case_plans):
        p = case_plans[0]
        clone = ObstaclePlan(index=9, enter_time=p.enter_time, exit_time=p.exit_time,
                             prep_time=p.prep_time, release_time=p.release_time,
                             dim=0, side=p.side, level=p.level)
        with pytest.raises(InfeasibleScenarioError, match="overlap"):
            evolve_tube(case_scenario.task, [p, clone], case_scenario.tube)


def corridor_derivative(t, y, margin, dims, plans, edge, blend, floor):
    """Corridor lower-bound derivative at one instant, from the tube_core
    laws: the reference of ``integrate_lower``.

    Every column follows the margin rate; the active plan's column blends
    that rate with the approach and restore shapers.  ``plans`` are packed
    by ``tube_core.pack_plans`` with the same ``dims``.
    """
    rate = margin.rates([t])[0]
    out = [float(rate[d]) for d in dims]
    for plan in plans:
        if plan[3] > t:
            k = plan[4]
            w_track, w_in, w_out = tube_core.phase_weights(t, *plan[:4], edge, blend)
            target_in, left_in, target_out, left_out = tube_core._plan_targets(t, plan)
            out[k] = (w_track * out[k] + w_in * shaper(target_in, y[k], left_in, floor)
                      + w_out * shaper(target_out, y[k], left_out, floor))
            break
    return out


def stepwise_rk4(margin, n_steps, plans, params, dims=None):
    """Plain RK4 over corridor_derivative, one step at a time, with steps
    split at release times: what integrate_lower computes block by block."""
    dims = list(range(margin.n)) if dims is None else list(dims)
    t_c = margin.deadline
    packed = tube_core.pack_plans(plans, margin, dims)
    law = (margin, dims, packed, params.edge_buffer, params.blend_scale, params.time_floor)
    switches = sorted(p[3] for p in packed if 0.0 < p[3] < t_c)

    def rk4(ta, tb, y):
        h = tb - ta
        half = 0.5 * h
        k1 = corridor_derivative(ta, y, *law)
        k2 = corridor_derivative(ta + half, [v + half * d for v, d in zip(y, k1)], *law)
        k3 = corridor_derivative(ta + half, [v + half * d for v, d in zip(y, k2)], *law)
        k4 = corridor_derivative(tb, [v + h * d for v, d in zip(y, k3)], *law)
        return [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)]

    y = [float(margin.start[d]) for d in dims]
    grid = np.empty((n_steps + 1, len(dims)))
    grid[0] = y
    for step in range(n_steps):
        ta = t_c * step / n_steps
        t1 = t_c * (step + 1) / n_steps
        for sw in switches:
            if ta < sw < t1:
                y = rk4(ta, sw, y)
                ta = sw
        y = rk4(ta, t1, y)
        grid[step + 1] = y
        if not all(map(math.isfinite, y)):
            return grid[:step + 2], step + 1
    return grid, -1


def reference_integrate_lower(margin, n_steps, plans, params, dims=None, grid_steps=None):
    """The whole-grid affine RK4 scan: P and Q of every step built in
    numpy, 1024 steps at a time, then one multiply-add per step and column.
    ``tube_core.integrate_lower`` must give its bits and its divergence
    row while integrating only where a plan bends a column."""
    dims = list(range(margin.n)) if dims is None else list(dims)
    t_c = margin.deadline
    per = n_steps if grid_steps is None else grid_steps
    packed = tube_core.pack_plans(plans, margin, dims)
    edge, blend, floor = params.edge_buffer, params.blend_scale, params.time_floor
    switches = np.array(sorted({p[3] for p in packed if 0.0 < p[3] < t_c}))
    y = [float(margin.start[d]) for d in dims]
    grid = np.empty((n_steps + 1, len(dims)))
    grid[0] = y
    for g0 in range(0, n_steps, 1024):
        g1 = min(g0 + 1024, n_steps)
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
                w_track, w_in, w_out = tube_core.phase_weights(ts[idx], *plan[:4], edge, blend)
                a[k, idx] *= w_track
                shaped = (w_in != 0.0) | (w_out != 0.0)
                at = idx[shaped]
                w_in, w_out = w_in[shaped], w_out[shaped]
                target_in, left_in, target_out, left_out = tube_core._plan_targets(ts[at], plan)
                d_in, d_out = np.maximum(left_in, floor), np.maximum(left_out, floor)
                a[k, at] += w_in * target_in / d_in + w_out * target_out / d_out
                b[k, at] = w_in / d_in + w_out / d_out
            m = h.shape[0]
            a0, am, a1 = a[:, :m], a[:, m + 1:], a[:, 1:m + 1]
            b0, bm, b1 = b[:, :m], b[:, m + 1:], b[:, 1:m + 1]
            sixth = h / 6.0
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


def coarse_params(params, step, floor):
    return TubeParams(window_margin=params.window_margin, edge_buffer=params.edge_buffer,
                      blend_scale=params.blend_scale, time_floor=floor, step=step)


# Wherever a shaper pulls, the affine step P * y + Q rounds differently
# from the scalar RK4 step; on these coarse grids the rows agree within 4e-15.
ATOL = 1e-12


def assert_close(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)


def assert_same_bits(got, ref):
    """Equal arrays down to the sign of every zero."""
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestIntegrator:
    # a coarse grid keeps the step-by-step reference quick; the release
    # times fall between grid rows, so steps are split there
    N_STEPS = 3001

    def test_matches_stepwise_rk4(self, case_scenario, case_plans):
        task = case_scenario.task
        step = task.deadline / self.N_STEPS
        params = coarse_params(case_scenario.tube, step, 0.5 * step)
        margin = task.lower_margin()
        got, bad = tube_core.integrate_lower(margin, self.N_STEPS, case_plans, params)
        ref, ref_bad = stepwise_rk4(margin, self.N_STEPS, case_plans, params)
        assert bad == ref_bad == -1
        assert_close(got, ref)

    def test_single_column_matches_stepwise_rk4(self, case_scenario, case_plans):
        # the candidate check integrates a plan's own dimension alone
        task = case_scenario.task
        step = task.deadline / self.N_STEPS
        params = coarse_params(case_scenario.tube, step, 0.5 * step)
        margin = task.lower_margin()
        plan = case_plans[1]
        got, _ = tube_core.integrate_lower(margin, self.N_STEPS, [plan], params,
                                           dims=[plan.dim])
        ref, _ = stepwise_rk4(margin, self.N_STEPS, [plan], params, dims=[plan.dim])
        assert_close(got, ref)

    def test_divergence_reported_at_the_same_row(self, case_scenario, case_plans):
        # a shaper floor far below the step leaves RK4's stability region,
        # and the detour column overflows within the first approach
        task = case_scenario.task
        step = task.deadline / self.N_STEPS
        params = coarse_params(case_scenario.tube, step, step * 1e-30)
        margin = task.lower_margin()
        got, bad = tube_core.integrate_lower(margin, self.N_STEPS, case_plans, params)
        ref, ref_bad = stepwise_rk4(margin, self.N_STEPS, case_plans, params)
        assert ref_bad > 0
        assert bad == ref_bad
        # the rows grow to about 1e249 before they overflow: compare relative
        np.testing.assert_allclose(got[:bad], ref[:bad], rtol=ATOL, atol=ATOL)


class TestSkippedWork:
    """integrate_lower keeps the bits of the one-instant reference wherever
    no shaper pulls, computes targets only where a shaper weight is nonzero,
    and lets a caller stop at the last row it reads."""

    N_STEPS = TestIntegrator.N_STEPS

    def coarse(self, case_scenario):
        task = case_scenario.task
        step = task.deadline / self.N_STEPS
        return task.lower_margin(), coarse_params(case_scenario.tube, step, 0.5 * step)

    def test_zero_level_matches_stepwise_rk4(self, case_scenario, case_plans):
        margin, params = self.coarse(case_scenario)
        plans = [dataclasses.replace(p, level=0.0) for p in case_plans]
        got, bad = tube_core.integrate_lower(margin, self.N_STEPS, plans, params)
        ref, ref_bad = stepwise_rk4(margin, self.N_STEPS, plans, params)
        assert bad == ref_bad == -1
        assert_close(got, ref)

    def test_small_blocks_match_stepwise_rk4(self, case_scenario, case_plans, monkeypatch):
        # block edges fall inside hold runs and inside pulled runs; every
        # step's P and Q depend on its times alone, so the bits stay
        margin, params = self.coarse(case_scenario)
        for plans in (case_plans, [dataclasses.replace(p, level=0.0) for p in case_plans]):
            full, _ = tube_core.integrate_lower(margin, self.N_STEPS, plans, params)
            with monkeypatch.context() as patch:
                patch.setattr(tube_core, "_BLOCK", 7)
                got, bad = tube_core.integrate_lower(margin, self.N_STEPS, plans, params)
            assert bad == -1
            assert_same_bits(got, full)
            ref, _ = stepwise_rk4(margin, self.N_STEPS, plans, params)
            assert_close(got, ref)

    def test_unbent_rows_keep_the_bits(self, case_scenario, case_plans):
        # every evaluation before prep - edge - 20 * blend has exactly zero
        # approach and restore weights, so each step up to there has
        # P == 1.0 and the scalar increment as Q
        margin, params = self.coarse(case_scenario)
        ts = margin.deadline * np.arange(self.N_STEPS + 1) / self.N_STEPS
        for k in range(margin.n):
            plans = [p for p in case_plans if p.dim == k]
            got, _ = tube_core.integrate_lower(margin, self.N_STEPS, plans, params)
            ref, _ = stepwise_rk4(margin, self.N_STEPS, plans, params)
            assert_close(got, ref)
            others = [i for i in range(margin.n) if i != k]
            assert_same_bits(got[:, others], ref[:, others])
            first = min((p.prep_time for p in plans), default=np.inf) \
                - params.edge_buffer - 20.0 * params.blend_scale
            before = ts < first
            assert before.sum() > 100
            assert_same_bits(got[before, k], ref[before, k])

    def test_hold_reads_no_targets(self, case_scenario, case_plans, monkeypatch):
        # a fresh margin, whose window blocks are all computed under the patch
        from rastube.reach import ReachMargin
        shared, params = self.coarse(case_scenario)
        margin = ReachMargin(shared.start, shared.end, shared.deadline)
        plan = case_plans[1]
        # two steps clear of the blends at either end of the hold
        pad = params.edge_buffer + 20.0 * params.blend_scale + 2.0 * params.step
        assert plan.exit_time - plan.enter_time > 2.0 * pad + 100.0 * params.step
        reads, inside = [], []
        targets = tube_core._plan_targets

        def counting(t, packed):
            ta = np.atleast_1d(t)
            reads.append(ta.size)
            inside.extend(ta[(ta > plan.enter_time + pad) & (ta < plan.exit_time - pad)])
            return targets(t, packed)

        with monkeypatch.context() as patch:
            patch.setattr(tube_core, "_plan_targets", counting)
            got, _ = tube_core.integrate_lower(margin, self.N_STEPS, case_plans, params)
        assert sum(reads) > 0
        assert inside == []
        ref, _ = stepwise_rk4(margin, self.N_STEPS, case_plans, params)
        assert_close(got, ref)

    def test_hold_entered_at_zero_runs_one_step_at_a_time(self, case_scenario, monkeypatch):
        # a constant column at exactly 0.0 held at level 0.0: every hold
        # step is entered at zero, and the scan must neither read a target
        # inside the hold nor move the column off zero
        from rastube.reach import ReachMargin
        margin = ReachMargin(np.array([0.0, 0.0]), np.array([11.0, 0.0]), 80.0)
        plan = ObstaclePlan(index=0, enter_time=21.0, exit_time=30.0, prep_time=20.0,
                            release_time=31.0, dim=1, side=PASS_ABOVE, level=0.0)
        _, params = self.coarse(case_scenario)
        pad = params.edge_buffer + 20.0 * params.blend_scale + 2.0 * params.step
        assert plan.exit_time - plan.enter_time > 2.0 * pad + 100.0 * params.step
        inside = []
        targets = tube_core._plan_targets

        def counting(t, packed):
            ta = np.atleast_1d(t)
            inside.extend(ta[(ta > plan.enter_time + pad) & (ta < plan.exit_time - pad)])
            return targets(t, packed)

        with monkeypatch.context() as patch:
            patch.setattr(tube_core, "_plan_targets", counting)
            got, bad = tube_core.integrate_lower(margin, self.N_STEPS, [plan], params)
        assert inside == []
        ref, ref_bad = stepwise_rk4(margin, self.N_STEPS, [plan], params)
        assert bad == ref_bad == -1
        assert_close(got, ref)
        assert_same_bits(got[:, 0], ref[:, 0])
        assert np.all(got[:, 1] == 0.0)

    def test_random_cases_match_stepwise_rk4(self):
        from rastube.sampling import random_case
        rng = np.random.default_rng(4242)
        n_steps = 1501
        for i in range(3):
            case = random_case(rng, n_dims=2 + (i % 2))
            task = case.task
            step = task.deadline / n_steps
            params = coarse_params(case.params, step, 0.5 * step)
            margin = task.lower_margin()
            got, bad = tube_core.integrate_lower(margin, n_steps, case.plans, params)
            ref, ref_bad = stepwise_rk4(margin, n_steps, case.plans, params)
            assert bad == ref_bad == -1
            assert_close(got, ref)

    def test_candidate_path_is_prefix_of_full_grid(self, case_scenario, case_plans):
        from rastube.avoidance import _integrated_dim_path
        task, params = case_scenario.task, case_scenario.tube
        n_steps = int(round(task.deadline / params.step))
        full_ts = np.linspace(0.0, task.deadline, n_steps + 1)
        for plan in case_plans:
            until = plan.release_time + 1.0
            ts, path = _integrated_dim_path(task, plan, params, until)
            full, bad = tube_core.integrate_lower(task.lower_margin(), n_steps, [plan],
                                                  params, dims=[plan.dim])
            assert bad == -1
            last = ts.shape[0] - 1
            assert ts[-1] <= until < full_ts[last + 1] and last < n_steps
            assert_same_bits(ts, full_ts[:last + 1])
            assert_same_bits(path, full[:last + 1, 0])


class TestWindowedIntegrator:
    """integrate_lower runs the plan kernel only where a plan may bend a
    column and accumulates the margin's nominal increments elsewhere, with
    the bits of the whole-grid reference scan."""

    def assert_matches_reference(self, margin, n_steps, plans, params, **kw):
        got, bad = tube_core.integrate_lower(margin, n_steps, plans, params, **kw)
        ref, ref_bad = reference_integrate_lower(margin, n_steps, plans, params, **kw)
        assert bad == ref_bad
        rows = slice(None) if bad < 0 else slice(0, bad + 1)
        assert_same_bits(got[rows], ref[rows])
        return got, bad

    def test_bundled_corridor_all_columns(self, case_scenario, case_plans):
        task, params = case_scenario.task, case_scenario.tube
        n_steps = int(round(task.deadline / params.step))
        _, bad = self.assert_matches_reference(task.lower_margin(), n_steps, case_plans, params)
        assert bad == -1

    def test_bundled_candidate_checks(self, case_scenario, monkeypatch):
        # every (dimension, side) the planner integrates: one column, a
        # prefix of the corridor grid
        calls = []
        integrate = tube_core.integrate_lower

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return integrate(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(tube_core, "integrate_lower", recording)
            schedule(case_scenario.task, case_scenario.tube)
        assert len(calls) >= 3
        for (margin, n_steps, plans, params), kw in calls:
            assert len(kw["dims"]) == 1 and kw["grid_steps"] != n_steps
            self.assert_matches_reference(margin, n_steps, plans, params, **kw)

    def test_random_cases(self):
        from rastube.sampling import random_case
        rng = np.random.default_rng(5151)
        for i in range(4):
            case = random_case(rng, n_dims=2 + (i % 2))
            n_steps = int(round(case.task.deadline / case.params.step))
            _, bad = self.assert_matches_reference(case.task.lower_margin(), n_steps,
                                                   case.plans, case.params)
            assert bad == -1

    def test_release_between_rows_splits_unbent_column(self, case_scenario, case_plans):
        # the detour bends dimension 1 only; its release falls strictly
        # between two rows, so dimension 0 takes a split step there too,
        # which on this grid moves some of its later rows by an ulp
        task = case_scenario.task
        n_steps = 2999
        step = task.deadline / n_steps
        params = coarse_params(case_scenario.tube, step, 0.5 * step)
        plan = case_plans[0]
        assert plan.dim == 1
        ts = task.deadline * np.arange(n_steps + 1) / n_steps
        assert plan.release_time not in ts
        got, _ = self.assert_matches_reference(task.lower_margin(), n_steps, [plan], params)
        unsplit, _ = reference_integrate_lower(task.lower_margin(), n_steps, [], params)
        assert not np.array_equal(got[:, 0], unsplit[:, 0])

    def test_zero_level_hold(self, case_scenario):
        from rastube.reach import ReachMargin
        margin = ReachMargin(np.array([0.0, 0.0]), np.array([11.0, 0.0]), 80.0)
        plan = ObstaclePlan(index=0, enter_time=21.0, exit_time=30.0, prep_time=20.0,
                            release_time=31.0, dim=1, side=PASS_ABOVE, level=0.0)
        params = coarse_params(case_scenario.tube, 80.0 / 3001, 0.5 * 80.0 / 3001)
        got, _ = self.assert_matches_reference(margin, 3001, [plan], params)
        assert np.all(got[:, 1] == 0.0)

    def test_divergence_row(self, case_scenario, case_plans):
        task = case_scenario.task
        step = task.deadline / 3001
        params = coarse_params(case_scenario.tube, step, step * 1e-30)
        _, bad = self.assert_matches_reference(task.lower_margin(), 3001, case_plans, params)
        assert bad > 0

    def test_small_blocks(self, case_scenario, case_plans, monkeypatch):
        # windows and nominal increments filled 7 steps at a time, on a
        # fresh margin so that its increments are built under the patch
        from rastube import reach
        from rastube.reach import ReachMargin
        task, params = case_scenario.task, case_scenario.tube
        n_steps = int(round(task.deadline / params.step))
        m = task.lower_margin()
        with monkeypatch.context() as patch:
            patch.setattr(tube_core, "_BLOCK", 7)
            patch.setattr(reach, "_BLOCK", 7)
            margin = ReachMargin(m.start, m.end, m.deadline)
            self.assert_matches_reference(margin, n_steps, case_plans, params)
            for plan in case_plans:
                self.assert_matches_reference(margin, n_steps // 2, [plan], params,
                                              dims=[plan.dim], grid_steps=n_steps)


class TestSharedIncrements:
    def test_schedule_and_evolve_compute_increments_once(self, monkeypatch):
        # one task's candidate checks and corridor share one set of nominal
        # increments; a task parsed again computes its own
        from rastube import bundled_scenario_path
        from rastube.cli import parse_scenario
        from rastube.reach import ReachMargin

        first = parse_scenario(bundled_scenario_path())
        t_c = first.task.deadline
        n_steps = int(round(t_c / first.tube.step))
        # the midpoint of the last step lies past every plan's release, so
        # only the nominal increments evaluate the margin rate there
        last = t_c * (n_steps - 1) / n_steps
        late = last + 0.5 * (t_c * n_steps / n_steps - last)
        reads = []
        rates = ReachMargin.rates

        def counting(margin, ts):
            reads.append(bool(np.any(np.asarray(ts) == late)))
            return rates(margin, ts)

        monkeypatch.setattr(ReachMargin, "rates", counting)

        def late_reads(scn):
            reads.clear()
            evolve_tube(scn.task, schedule(scn.task, scn.tube), scn.tube)
            return sum(reads)

        assert first.task.lower_margin() is first.task.lower_margin()
        assert late_reads(first) == 1
        assert late_reads(first) == 0
        second = parse_scenario(bundled_scenario_path())
        assert second.task.lower_margin() is not first.task.lower_margin()
        assert late_reads(second) == 1

    def test_increments_filled_once_per_grid(self, monkeypatch):
        # the first call on a grid fills all of it, 64 steps at a time;
        # later calls on that grid return a prefix of the same bits
        from rastube import reach
        from rastube.reach import ReachMargin
        monkeypatch.setattr(reach, "_BLOCK", 64)
        start, end = np.array([0.0, 1.0]), np.array([11.0, -2.0])
        full = ReachMargin(start, end, 80.0).increments(1000, 1000)
        half = ReachMargin(start, end, 80.0).increments(500, 500)
        margin = ReachMargin(start, end, 80.0)
        evaluated = []
        rates = ReachMargin.rates

        def counting(self, ts):
            evaluated.append(np.asarray(ts))
            return rates(self, ts)

        monkeypatch.setattr(ReachMargin, "rates", counting)
        for steps, blocks in ((100, 16), (37, 0), (700, 0), (1000, 0)):
            before = len(evaluated)
            got = margin.increments(1000, steps)
            assert got.shape == (2, steps)
            assert_same_bits(got, full[:, :steps])
            assert len(evaluated) - before == blocks
        # every step's start and midpoint once, and one end node per block
        assert sum(ts.size for ts in evaluated) == 2 * 1000 + 16
        # another grid is filled afresh, and replaces the kept one
        assert_same_bits(margin.increments(500, 500), half)
        assert len(evaluated) == 16 + 8
        margin.increments(1000, 10)
        assert len(evaluated) == 16 + 8 + 16


def fresh_task(task):
    """The same task with a margin of its own, none of whose window blocks
    or increments are computed yet."""
    cold = dataclasses.replace(task)
    assert cold.lower_margin() is not task.lower_margin()
    return cold


@contextlib.contextmanager
def fresh_blocks():
    """Record (column, packed plans) of every window block computed afresh
    inside the ``with`` statement."""
    computed = []
    affine = tube_core._affine_steps

    def recording(margin, dim, column, packed, *args):
        computed.append((column, packed))
        return affine(margin, dim, column, packed, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tube_core, "_affine_steps", recording)
        yield computed


@contextlib.contextmanager
def no_reuse():
    """Every window block computed afresh, none kept."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tube_core, "_window_block", tube_core._affine_steps)
        yield


class TestWindowBlocks:
    """The corridor of a scheduled task reuses the window blocks its
    candidate checks computed, with the bits of a fresh computation."""

    def test_bundled_corridor_after_schedule_matches_cold(self, case_scenario):
        task, params = case_scenario.task, case_scenario.tube
        plans = schedule(task, params)
        assert len(plans) == 3
        warm = evolve_tube(task, plans, params)
        cold_task = fresh_task(task)
        with fresh_blocks() as cold_blocks:
            cold = evolve_tube(cold_task, plans, params)
        warm_task = fresh_task(task)
        plans = schedule(warm_task, params)
        with fresh_blocks() as warm_blocks:
            evolve_tube(warm_task, plans, params)
        assert_same_bits(warm.lower, cold.lower)
        assert 0 < len(warm_blocks) < len(cold_blocks)

    def test_random_corridors_after_schedule_match_cold(self):
        from rastube.sampling import random_case
        rng = np.random.default_rng(2222)
        counts = []
        for i in range(20):
            case = random_case(rng, n_dims=2 + (i % 2), n_obstacles=1 + (i % 3))
            task, params = fresh_task(case.task), case.params
            plans = schedule(task, params)
            assert plans == case.plans
            warm = evolve_tube(task, plans, params)
            cold = evolve_tube(fresh_task(task), plans, params)
            assert_same_bits(warm.lower, cold.lower)
            with no_reuse():
                unkept = evolve_tube(fresh_task(task), plans, params)
            assert_same_bits(warm.lower, unkept.lower)
            counts.append(len(plans))
        assert sum(c > 1 for c in counts) >= 3 and counts.count(1) >= 3

    def test_single_plan_corridor_computes_no_window_block(self):
        # only the unbent columns' steps next to the release are new
        from rastube.sampling import random_case
        rng = np.random.default_rng(3333)
        for i in range(4):
            case = random_case(rng, n_dims=2 + (i % 2), n_obstacles=1)
            task, params = fresh_task(case.task), case.params
            plans = schedule(task, params)
            assert len(plans) == 1
            with fresh_blocks() as computed:
                evolve_tube(task, plans, params)
            assert computed
            assert all(column != packed[0][4] for column, packed in computed)

    # Dimensions 0 and 2 of the margin are the same constant, so a plan's
    # anchors there neither follow its times nor tell the two apart.  FIRST
    # bends dimension 0.  SECOND bends dimension 1 and releases inside
    # FIRST's window, where it is never active, so it only splits the steps
    # at its release.  THIRD bends dimension 0 again and starts bending just
    # after FIRST's release, in the same block.  FOURTH is active only for
    # the step after THIRD's release, whose switch span in any other column
    # covers the same steps as FOURTH's window.
    START, END, DEADLINE = np.array([2.0, 1.0, 2.0]), np.array([2.0, 7.0, 2.0]), 80.0
    FIRST = ObstaclePlan(index=0, enter_time=21.0, exit_time=30.0, prep_time=20.0,
                         release_time=31.0, dim=0, side=PASS_ABOVE, level=9.0)
    SECOND = ObstaclePlan(index=1, enter_time=25.0, exit_time=26.0, prep_time=24.5,
                          release_time=27.9, dim=1, side=PASS_ABOVE, level=6.0)
    THIRD = ObstaclePlan(index=2, enter_time=32.0, exit_time=38.0, prep_time=31.2,
                         release_time=39.0, dim=0, side=PASS_ABOVE, level=5.0)
    FOURTH = ObstaclePlan(index=3, enter_time=38.7, exit_time=38.9, prep_time=38.6,
                          release_time=39.1, dim=0, side=PASS_ABOVE, level=4.0)
    PARAMS = TubeParams(window_margin=1.0, edge_buffer=0.1, blend_scale=0.025,
                        time_floor=0.04, step=0.08)
    N_STEPS = 1000

    def margin(self):
        from rastube.reach import ReachMargin
        return ReachMargin(self.START, self.END, self.DEADLINE)

    def integrate(self, margin, plans, params, n_steps, grid_steps):
        grid, bad = tube_core.integrate_lower(margin, n_steps, plans, params,
                                              grid_steps=grid_steps)
        assert bad == -1
        return grid

    @given(key=st.sampled_from(["level", "later level", "release", "edge_buffer",
                                "blend_scale", "time_floor", "grid", "prefix", "switch",
                                "bent dimension"]),
           factor=st.floats(0.97, 1.03), steps=st.integers(1, 24))
    def test_changed_input_matches_cold(self, key, factor, steps):
        # blocks of 16 steps, so that each key input alone tells some
        # blocks apart: the switch and THIRD are the only differences in
        # some, and the prefix ends inside one
        first, second, third, fourth = self.FIRST, self.SECOND, self.THIRD, self.FOURTH
        params, n_steps, grid_steps = self.PARAMS, self.N_STEPS, self.N_STEPS
        if key == "level":
            first = dataclasses.replace(first, level=first.level * factor)
        elif key == "later level":
            third = dataclasses.replace(third, level=third.level * factor)
        elif key == "release":
            first = dataclasses.replace(first, release_time=first.release_time * factor)
        elif key == "switch":
            second = dataclasses.replace(second, release_time=second.release_time * factor)
        elif key == "bent dimension":
            fourth = dataclasses.replace(fourth, dim=2)
        elif key == "grid":
            n_steps = grid_steps = self.N_STEPS + steps
        elif key == "prefix":
            n_steps = 250 + steps
        else:
            params = dataclasses.replace(params, **{key: getattr(params, key) * factor})
        changed = ([first, second, third, fourth], params, n_steps, grid_steps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tube_core, "_BLOCK", 16)
            margin = self.margin()
            self.integrate(margin, [self.FIRST, self.SECOND, self.THIRD, self.FOURTH],
                           self.PARAMS, self.N_STEPS, self.N_STEPS)
            got = self.integrate(margin, *changed)
            with no_reuse():
                cold = self.integrate(self.margin(), *changed)
        assert_same_bits(got, cold)

    def test_stored_blocks_are_read_only(self):
        margin = self.margin()
        self.integrate(margin, [self.FIRST], self.PARAMS, self.N_STEPS, self.N_STEPS)
        grid, blocks = margin._windows
        assert grid == self.N_STEPS and blocks
        for block in blocks.values():
            assert not any(array.flags.writeable for array in block)


def scalar_bounds(tube, t):
    """The corridor interpolation written out for one time, on floats;
    ``Tube.bounds_at`` must give these bits row for row."""
    ts = tube.ts
    rows = ts.shape[0]
    t0 = float(ts[0])
    t1 = float(ts[-1])
    if t <= t0:
        lo = tube.lower[0].tolist()
    elif t >= t1:
        lo = tube.lower[-1].tolist()
    else:
        pos = (t - t0) / ((t1 - t0) / (rows - 1))
        i = min(int(pos), rows - 2)
        frac = pos - i
        a, b = tube.lower[i:i + 2].tolist()
        lo = [(1.0 - frac) * p + frac * q for p, q in zip(a, b)]
    return lo, [v + w for v, w in zip(lo, tube.width.tolist())]


def assert_bounds_bits(tube, times):
    lo, hi = tube.bounds_at(times)
    expected = [scalar_bounds(tube, t) for t in times]
    assert lo.tobytes() == np.array([e[0] for e in expected]).tobytes()
    assert hi.tobytes() == np.array([e[1] for e in expected]).tobytes()
    for t, (e_lo, e_hi) in zip(times, expected):
        assert tube.bounds(t) == (e_lo, e_hi)


class TestBoundsAt:
    def test_grid_midpoints_and_ends(self, case_tube):
        ts = case_tube.ts
        t1 = float(ts[-1])
        mids = ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
        times = ts[::97].tolist() + mids[::89].tolist() + [
            -5.0, -0.0, 0.0, float(ts[1]), float(ts[-2]), math.nextafter(t1, 0.0), t1,
            math.nextafter(t1, math.inf), 2.0 * t1]
        assert_bounds_bits(case_tube, times)

    def test_closed_loop_stage_times(self, case_tube):
        # the grid and midpoints of a 0.01 s closed loop over deadline + stay
        grid = 100.0 * np.arange(10001) / 10000
        mids = grid[:-1] + 0.5 * (grid[1:] - grid[:-1])
        assert_bounds_bits(case_tube, grid[::37].tolist() + mids[::41].tolist())

    @given(st.lists(st.floats(-10.0, 120.0), min_size=1, max_size=12))
    def test_random_times(self, case_tube, times):
        assert_bounds_bits(case_tube, times)


class TestEvolve:
    def test_starts_at_corridor_corners(self, case_scenario, case_tube):
        task = case_scenario.task
        np.testing.assert_array_equal(case_tube.lower[0], task.start_box().lower)
        assert task.initial_set.contains(
            Box.from_pairs(zip(case_tube.lower[0], case_tube.upper[0])))

    def test_reaches_target_box_at_deadline(self, case_scenario, case_tube):
        task = case_scenario.task
        final = Box.from_pairs(zip(case_tube.lower[-1], case_tube.upper[-1]))
        assert task.target_set.contains(final)
        np.testing.assert_allclose(case_tube.lower[-1], task.target_box().lower,
                                   atol=5e-3)

    def test_detour_levels_hit(self, case_scenario, case_plans, case_tube):
        m = case_scenario.task.lower_margin()
        for p in case_plans:
            reach = abs(p.level - m.value(p.dim, p.prep_time))
            tol = 1e-3 * (reach + 1.0)
            lo, _ = case_tube.bounds(p.enter_time)
            assert abs(lo[p.dim] - p.level) <= tol

    def test_grid_consistent_with_derivative(self, case_scenario, case_plans, case_tube):
        # midpoint finite differences of the stored grid against the
        # blended derivative, away from the release switches
        task = case_scenario.task
        params = case_scenario.tube
        rng = np.random.default_rng(5)
        releases = [p.release_time for p in case_plans]
        dt = case_tube.ts[1] - case_tube.ts[0]
        checked = 0
        while checked < 200:
            i = int(rng.integers(0, case_tube.ts.shape[0] - 1))
            t_mid = 0.5 * (case_tube.ts[i] + case_tube.ts[i + 1])
            if any(abs(t_mid - r) < 2 * dt for r in releases):
                continue
            fd = (case_tube.lower[i + 1] - case_tube.lower[i]) / dt
            mid = 0.5 * (case_tube.lower[i + 1] + case_tube.lower[i])
            ref = tube_derivative(task, case_plans, params, mid, t_mid)
            np.testing.assert_allclose(fd, ref, atol=2e-4 + 1e-3 * np.abs(ref).max())
            checked += 1

    def test_offset_identity_exact(self, case_scenario, case_tube):
        width = 2.0 * case_scenario.task.band_halfwidth
        # the upper bound is the lower bound plus the width by construction
        np.testing.assert_array_equal(case_tube.upper,
                                      case_tube.lower + width[None, :])
        diff = case_tube.upper - case_tube.lower
        np.testing.assert_allclose(diff, np.broadcast_to(width, diff.shape),
                                   rtol=0, atol=1e-12)

    def test_safety_direction_through_windows(self, case_scenario, case_plans, case_tube):
        task = case_scenario.task
        for p in case_plans:
            sel = (case_tube.ts >= p.enter_time) & (case_tube.ts <= p.exit_time)
            u = task.unsafe_sets[p.index].dims[p.dim]
            if p.side == PASS_ABOVE:
                assert np.all(case_tube.lower[sel, p.dim] > u.hi)
            else:
                assert np.all(case_tube.upper[sel, p.dim] < u.lo)


class TestVerify:
    def test_case_study_passes_all_conditions(self, case_scenario, case_tube):
        report = verify_tube(case_tube, case_scenario.task)
        assert report.passed
        assert report.by_name("avoids_unsafe").margin > 0

    def test_tangent_obstacle_fails_avoidance(self):
        # corridor holding [-0.5, 0.5] forever, obstacle touching at 0.5;
        # assembled directly since construction would reject the contact
        ts = np.linspace(0.0, 10.0, 101)
        tube = Tube(ts=ts, lower=np.full((101, 1), -0.5), width=np.array([1.0]))
        task = RasTask(
            initial_set=Box.from_pairs([[-0.6, 0.6]]),
            target_set=Box.from_pairs([[-0.6, 0.6]]),
            unsafe_sets=(Box.from_pairs([[0.5, 1.5]]),),
            deadline=10.0, start=np.array([0.0]), target=np.array([0.0]),
            start_margin=np.array([0.5]), target_margin=np.array([0.5]),
            obstacle_margin=np.array([0.1]),
            workspace=Box.from_pairs([[-2, 2]]))
        report = verify_tube(tube, task)
        cond = report.by_name("avoids_unsafe")
        assert not cond.passed
        assert cond.margin == 0.0
        assert len(cond.witness_times) > 0

    def test_corrupted_bounds_fail_ordering(self, tmp_path, case_scenario):
        path = tmp_path / "bad_tube.csv"
        with open(path, "w") as fh:
            fh.write("t,g1L,g1U,g2L,g2U\n")
            for i, t in enumerate(np.linspace(0, 80, 11)):
                if i == 5:
                    fh.write(f"{t},0.4,0.1,0.0,0.3\n")  # inverted in dim 1
                else:
                    fh.write(f"{t},0.1,0.4,0.0,0.3\n")
        tube = Tube.from_csv(path)
        report = verify_tube(tube, case_scenario.task)
        assert not report.by_name("ordered_bounds").passed

    def test_width_positive_by_construction(self, case_tube):
        report_gap = (case_tube.upper - case_tube.lower).min()
        assert report_gap > 0


class TestSmoothness:
    def test_case_study_has_no_flags(self, case_tube):
        report = smoothness_check(case_tube)
        assert report.passed
        assert report.max_rate > 0

    def test_constant_tube_zero_rate(self):
        ts = np.linspace(0.0, 5.0, 51)
        tube = Tube(ts=ts, lower=np.ones((51, 2)), width=np.array([0.5, 0.5]))
        report = smoothness_check(tube)
        assert report.max_rate == 0.0
        assert report.passed

    def test_round_trip_through_csv(self, tmp_path, case_scenario, case_tube):
        path = tmp_path / "tube.csv"
        case_tube.to_csv(path)
        again = Tube.from_csv(path)
        np.testing.assert_array_equal(again.ts, case_tube.ts)
        np.testing.assert_array_equal(again.lower, case_tube.lower)
        np.testing.assert_array_equal(again.upper_grid(), case_tube.upper)
        a = verify_tube(case_tube, case_scenario.task)
        b = verify_tube(again, case_scenario.task)
        assert [c.passed for c in a.conditions] == [c.passed for c in b.conditions]


def awkward_values(rng, shape):
    """Floats whose shortest and 17-digit forms differ, of every sign and
    magnitude, with exact zeros and integers among them."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    values.flat[::7] = 0.0
    values.flat[3::11] = np.round(values.flat[3::11] * 1e-300)
    return values


def demo_tube(rows):
    rng = np.random.default_rng(rows)
    return Tube(ts=np.linspace(0.0, 80.0, rows), lower=awkward_values(rng, (rows, 2)),
                width=np.array([0.1, 0.30000000000000004]))


def demo_trace(rows):
    rng = np.random.default_rng(rows)
    values = [awkward_values(rng, (rows, 3)) for _ in range(5)]
    return SimTrace(ts=np.linspace(0.0, 80.0, rows), states=values[0], lower=values[1],
                    upper=values[2], inputs=values[3], disturbances=values[4],
                    active=rng.integers(-1, 3, rows), flags=SimFlags(True, True, True, True),
                    deadline=80.0)


def percent_rows(values):
    """Rows of ``values`` through ``%.17g``, value by value."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in values.tolist()).encode()


def kernel_rows(values):
    """The same rows as ``_formatted`` writes them, in one process."""
    return b"".join(_formatted(lambda a, b: values[a:b], values.shape[0]))


@contextlib.contextmanager
def counting_fallbacks():
    """Count the values ``_formatted`` leaves to ``%``."""
    counted = []
    patch = tube_mod._patch

    def counting(fields, at, texts):
        counted.extend(texts)
        patch(fields, at, texts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tube_mod, "_patch", counting)
        yield counted


def with_neighbours(values):
    """Each value and the doubles either side of it."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate((values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)))


# values where the kernel's exponent, notation, rounding or range is decided
KERNEL_EDGES = [
    0.0, 5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.inf, math.nan, 1e-280, 1e280,
    9.9999999999999995e-05, 1e-4, 0.0001, 0.00010000000000000001,
    99999999999999999.0, 1e17, 1e16, 9999999999999998.0, 12345678901234567.0,
    float(2 ** 53 - 1), float(2 ** 53), float(2 ** 53 + 2), float(2 ** 63 - 1),
    0.5, 1.5, 2.5, 0.125, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 80.0, 0.01, 123.456,
]
# exact ties at the 17th digit: m / 4 for odd m near 1e15 and m / 8 near
# 1e14 end in 25 and 125; 2**-25, 3 * 2**-24 and 5 * 2**-24 are ties on a
# scale 10**23 or 10**24 that is not a double
EXACT_TIES = [(2 ** 52 + 1) / 4, (2 ** 52 + 3) / 4, (8 * 10 ** 14 + 1) / 8, 1000000000000000.25,
              2.0 ** -25, 3 * 2.0 ** -24, 5 * 2.0 ** -24]


class TestFormatKernel:
    """``_formatted`` writes the bytes of ``%.17g`` applied value by value,
    whichever values the kernel formats itself."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats_match_percent(self, xs):
        values = np.array(xs).reshape(-1, 1)
        assert kernel_rows(values) == percent_rows(values)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=2, max_size=40))
    def test_bit_patterns_match_percent(self, words):
        values = np.array(words, dtype=np.uint64).view(np.float64)[:len(words) // 2 * 2]
        values = values.reshape(-1, 2)
        assert kernel_rows(values) == percent_rows(values)

    def test_edges_match_percent(self):
        powers = [10.0 ** p for p in range(-323, 309)]
        values = with_neighbours(KERNEL_EDGES + powers + EXACT_TIES)
        values = np.concatenate((values, -values)).reshape(-1, 1)
        assert kernel_rows(values) == percent_rows(values)

    def test_signed_zeros(self):
        values = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]])
        assert kernel_rows(values) == b"0,-0,1\n-0,0,-1\n"

    def test_int_column_matches_percent(self):
        # trace.csv's active_obstacle column goes through the float kernel:
        # below 2**53, an integer's %.17g is its %d
        ints = [-1, 0, 1, 2, 9, 10, 99, 100, 200000, 10 ** 15 - 1, 10 ** 15, 2 ** 53 - 1,
                -2 ** 53 + 1]
        values = np.array(ints, dtype=float).reshape(-1, 1)
        with counting_fallbacks() as fallbacks:
            assert kernel_rows(values) == "".join("%d\n" % i for i in ints).encode()
        assert fallbacks == []

    def test_only_ties_non_finite_and_extremes_fall_back(self):
        leave = EXACT_TIES + [math.inf, -math.inf, math.nan, 5e-324, -1e-300, 1e300]
        keep = [0.0, -0.0, 1e-280, -9.9999999999999995e-05, 99999999999999999.0, 2.5, 80.0]
        values = np.array(leave + keep).reshape(-1, 1)
        with counting_fallbacks() as fallbacks:
            assert kernel_rows(values) == percent_rows(values)
        assert fallbacks == ["%.17g" % v for v in leave]

    def test_bundled_csv_values_need_no_fallback(self, tmp_path, case_tube, case_trace):
        # a kernel that left every value to % would pass the byte tests
        # above; the bundled tables have no tie, non-finite value or
        # extreme magnitude, so none of their values falls back
        with counting_fallbacks() as fallbacks:
            for table in (case_tube, case_trace):
                table.to_csv(tmp_path / "out.csv")
                assert (tmp_path / "out.csv").read_bytes() == reference_csv(table, tmp_path / "ref.csv")
        assert fallbacks == []


# tables on either side of one and two slices, and smaller tables from
# one row up
WRITER_ROWS = sorted({1, 255, 256, 257, 511, 512, 513, 1025, _SLICE - 1, _SLICE, _SLICE + 1,
                      2 * _SLICE - 1, 2 * _SLICE, 2 * _SLICE + 1})


class TestRowWriter:
    """``_write_rows`` writes the bytes of the serial reference writer in
    this process, whether or not ``os.fork`` exists."""

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-line"])
    @pytest.mark.parametrize("rows", WRITER_ROWS)
    @pytest.mark.parametrize("make", [demo_tube, demo_trace], ids=["tube", "trace"])
    def test_bytes_match_serial_reference(self, tmp_path, monkeypatch, make, rows, fork):
        table = make(rows)
        expected = reference_csv(table, tmp_path / "ref.csv")
        if fork:
            monkeypatch.setattr(os, "fork", unreachable_fork)
        else:
            monkeypatch.delattr(os, "fork")
        table.to_csv(tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected


def unreachable_fork():
    raise AssertionError("the CSV writer forked")


def raising(error):
    def work():
        raise error
    return work


FORK_PATHS = pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-line"])


class TestInChild:
    """``cli.in_child`` hands back ``work()``'s value, or raises its
    exception with its own type, the same way forked and in-line."""

    @FORK_PATHS
    def test_returns_the_value_of_work(self, monkeypatch, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        parent = os.getpid()
        with in_child(lambda: (os.getpid() != parent, [1.5, -0.0]), "work") as result:
            assert result.value is None
        assert_no_child_left()
        assert result.value == (fork, [1.5, -0.0])
        assert math.copysign(1.0, result.value[1][1]) == -1.0

    @FORK_PATHS
    @pytest.mark.parametrize("error", [
        SynthesisError("corridor integration diverged at t=1.5", time=1.5),
        ConfigurationError([("frame", "upper bound must exceed lower bound"),
                            ("run.sim_step", "too coarse")]),
        InfeasibleScenarioError("no side clears obstacle 2", obstacle=2),
        TubeViolationError(1, 0.75, 0.0, 0.5, time=2.0),
        IsADirectoryError(21, "Is a directory", "out/tube.csv"),
    ], ids=lambda e: type(e).__name__)
    def test_raises_the_exception_of_work_with_its_type(self, monkeypatch, fork, error):
        if not fork:
            monkeypatch.delattr(os, "fork")
        ran = []
        with pytest.raises(type(error)) as caught:
            with in_child(raising(error), "work"):
                ran.append("body")
        assert_no_child_left()
        assert ran == ["body"]
        assert str(caught.value) == str(error)
        assert vars(caught.value) == vars(error)

    @FORK_PATHS
    def test_exception_of_the_body_wins(self, tmp_path, monkeypatch, fork):
        # the work still runs to its end, forked or in-line
        if not fork:
            monkeypatch.delattr(os, "fork")
        done = tmp_path / "done"

        def work():
            done.write_text("work")
            raise SynthesisError("lost to the body's error")

        with pytest.raises(ValueError, match="body"):
            with in_child(work, "work"):
                raise ValueError("body")
        assert_no_child_left()
        assert done.read_text() == "work"

    def test_in_line_work_runs_after_the_body(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        order = []
        with in_child(lambda: order.append("work"), "work"):
            order.append("body")
        assert order == ["body", "work"]

    @pytest.mark.parametrize("work", [lambda: os._exit(3), lambda: (lambda: None)],
                             ids=["exits", "unpicklable"])
    def test_child_that_sends_nothing_raises_oserror(self, work):
        with pytest.raises(OSError, match="work failed in a child process"):
            with in_child(work, "work"):
                pass
        assert_no_child_left()
