from pathlib import Path

import numpy as np
import pytest

from rastube import tube_core
from rastube.avoidance import (_PLAN_CLEARANCE_PAD, PASS_ABOVE, PASS_BELOW, ObstaclePlan,
                               _blend_path_clear, _candidate_windows,
                               _integrated_dim_path, _integrated_path_clear, _rows_clear,
                               crossing_fractions, detour_level, intersection_interval,
                               plan_obstacle, schedule, select_dimension,
                               select_side)
from rastube.cli import parse_scenario
from rastube.errors import InfeasibleScenarioError
from rastube.geometry import Box
from rastube.sampling import _base_task, _base_task_like
from rastube.scenario import TubeParams

from conftest import make_task


def random_interval_pair(rng: np.random.Generator):
    """Random single-obstacle task for crossing-window oracle tests.

    Includes obstacles that never meet the swept corridor, so the empty
    classification gets exercised too.
    """
    while True:
        n = int(rng.integers(2, 4))
        spans = rng.uniform(8.0, 14.0, n)
        margin = rng.uniform(0.1, 0.3, n)
        start = rng.uniform(0.6, 1.4, n)
        target = spans - rng.uniform(0.6, 1.4, n)
        skeleton = _base_task(rng, n, (), [], spans, start, target, margin)
        lower = skeleton.lower_margin()
        width = 2.0 * skeleton.band_halfwidth
        if rng.random() < 0.25:
            # deliberately off the swept corridor in one dimension
            center = lower.value_vec(rng.uniform(0.2, 0.8) * skeleton.deadline) + 0.5 * width
            miss_dim = int(rng.integers(0, n))
            center[miss_dim] = spans[miss_dim] + 3.0
        else:
            center = lower.value_vec(rng.uniform(0.05, 0.95) * skeleton.deadline) + 0.5 * width
            center += rng.uniform(-0.5, 0.5, n)
        half = rng.uniform(0.2, 1.2, n)
        box = Box.from_pairs(zip(center - half, center + half))
        if not (skeleton.initial_set.disjoint_from(box)
                and skeleton.target_set.disjoint_from(box)):
            continue
        task = _base_task_like(skeleton, [box], [0.1])
        return task, 0


def grid_window_oracle(task, j, samples=100000):
    """Dense-grid overlap of the swept corridor band with obstacle j."""
    ts = np.linspace(0.0, task.deadline, samples)
    lower = task.lower_margin().value_grid(ts)
    width = 2.0 * task.band_halfwidth
    u = task.unsafe_sets[j]
    overlap = np.ones(samples, dtype=bool)
    for i in range(task.n):
        lo = lower[:, i]
        hi = lo + width[i]
        overlap &= np.maximum(lo, u.dims[i].lo) <= np.minimum(hi, u.dims[i].hi)
    idx = np.nonzero(overlap)[0]
    if idx.size == 0:
        return None
    return float(ts[idx[0]]), float(ts[idx[-1]])


def arena_task(**overrides):
    """Case-study geometry with quarter-width margins (corner boxes 0 / 11)."""
    kwargs = dict(
        initial=[[0, 0.5], [0, 0.5]], target=[[11, 11.5], [7, 7.5]],
        unsafe=[[[1.5, 2.0], [0.5, 3.0]], [[5.2, 6.8], [3.2, 4.0]],
                [[7.0, 8.0], [0.0, 8.0]]],
        deadline=80.0, start=[0.25, 0.25], target_point=[11.25, 7.25],
        start_margin=[0.25, 0.25], target_margin=[0.25, 0.25],
        obstacle_margin=[0.15, 0.15, 0.15], workspace=[[0, 12.5], [0, 9.5]])
    kwargs.update(overrides)
    if "unsafe" in overrides and "obstacle_margin" not in overrides:
        kwargs["obstacle_margin"] = [0.15] * max(len(kwargs["unsafe"]), 1)
    return make_task(**kwargs)


class TestCrossingFractions:
    def test_lower_corner_crossing_matches_bisection(self):
        task = arena_task()
        fr = crossing_fractions(task, 0, 0)
        # frozen: atanh(1.5/11) = 0.13722, fraction 0.12066, 9.653 s at the
        # 80 s deadline; cross-checked against the exact level crossing
        assert fr[0] == pytest.approx(0.120659, abs=1e-5)
        # the exact level crossing, by bisection of value(0, .) = 1.5
        m = task.lower_margin()
        lo, hi = 0.0, task.deadline
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if m.value(0, mid) < 1.5 else (lo, mid)
        t_cross = 0.5 * (lo + hi)
        assert fr[0] * task.deadline == pytest.approx(t_cross, abs=1e-9)
        assert t_cross == pytest.approx(9.6527, abs=1e-3)

    def test_level_beyond_target_clamps_to_one(self):
        task = arena_task(unsafe=[[[12.0, 14.0], [0.5, 3.0]]],
                          workspace=[[0, 15], [0, 9.5]])
        fr = crossing_fractions(task, 0, 0)
        assert fr[1] == 1.0  # obstacle top beyond the target corner

    def test_level_behind_start_clamps_to_zero(self):
        task = arena_task(unsafe=[[[5.2, 6.8], [-3.0, -1.0]]],
                          workspace=[[0, 12.5], [-4, 9.5]])
        fr = crossing_fractions(task, 0, 1)
        assert fr == (0.0, 0.0, 0.0, 0.0)


class TestIntersectionInterval:
    def test_case_study_first_obstacle_matches_grid_oracle(self):
        task = arena_task()
        got = intersection_interval(task, 0)
        oracle = grid_window_oracle(task, 0)
        step = task.deadline / 100000
        assert got is not None and oracle is not None
        assert abs(got[0] - oracle[0]) <= step + 1e-9
        assert abs(got[1] - oracle[1]) <= step + 1e-9

    def test_obstacle_above_swept_band_is_empty(self):
        task = arena_task(unsafe=[[[5.2, 6.8], [8.5, 9.0]]])
        assert intersection_interval(task, 0) is None

    def test_spanning_obstacle_with_one_clear_dimension(self):
        # covers the whole swept range in dimension 0 but sits beyond the
        # band in dimension 1
        task = arena_task(unsafe=[[[-0.9, 12.4], [8.5, 9.0]]],
                          workspace=[[-1, 12.5], [0, 9.5]])
        assert intersection_interval(task, 0) is None
        assert grid_window_oracle(task, 0) is None

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(999)
        empties = 0
        for _ in range(60):
            task, j = random_interval_pair(rng)
            got = intersection_interval(task, j)
            oracle = grid_window_oracle(task, j)
            step = task.deadline / 100000
            if oracle is None:
                empties += 1
                assert got is None
            else:
                assert got is not None
                assert abs(got[0] - oracle[0]) <= step + 1e-9
                assert abs(got[1] - oracle[1]) <= step + 1e-9
        assert empties >= 3  # the generator includes off-corridor obstacles

    def test_enlarging_an_obstacle_never_shrinks_the_window(self):
        rng = np.random.default_rng(321)
        checked = 0
        while checked < 40:
            task, j = random_interval_pair(rng)
            base = intersection_interval(task, j)
            if base is None:
                continue
            k = int(rng.integers(0, task.n))
            grow = float(rng.uniform(0.1, 1.0))
            u = task.unsafe_sets[j].as_pairs()
            u[k] = [u[k][0] - grow, u[k][1] + grow]
            try:
                bigger = make_task(
                    initial=task.initial_set.as_pairs(), target=task.target_set.as_pairs(),
                    unsafe=[u], deadline=task.deadline, start=task.start,
                    target_point=task.target, start_margin=task.start_margin,
                    target_margin=task.target_margin, obstacle_margin=[0.1],
                    workspace=task.workspace.as_pairs())
            except Exception:
                continue  # grown box may hit the start or target set
            grown = intersection_interval(bigger, j)
            assert grown is not None
            assert grown[0] <= base[0] + 1e-9
            assert grown[1] >= base[1] - 1e-9
            checked += 1


class TestSelectDimension:
    def test_one_dimensional_task(self):
        task = make_task(initial=[[0, 1]], target=[[9, 10]], unsafe=[[[4, 5]]],
                         deadline=20.0, start=[0.5], target_point=[9.5],
                         start_margin=[0.3], target_margin=[0.3],
                         obstacle_margin=[0.1], workspace=[[-1, 11]])
        assert select_dimension(task, 0) == 0

    def test_rule_oracle_on_case_study_middle_obstacle(self):
        # oracle: direct evaluation of the three argmin/argmax steps
        task = arena_task()
        mins, maxs = [], []
        for i in range(task.n):
            fr = crossing_fractions(task, 1, i)
            mins.append(min(fr))
            maxs.append(max(fr))
        i1 = int(np.argmax(mins))
        i2 = int(np.argmin(maxs))
        cands = sorted({i1, i2})
        oracle = cands[int(np.argmin([maxs[c] - mins[c] for c in cands]))]
        got = select_dimension(task, 1)
        assert got == oracle
        assert got == 1  # golden value for this geometry

    def test_tie_breaks_to_lowest_dimension(self):
        # symmetric task: identical fractions in both dimensions
        task = make_task(initial=[[0, 1], [0, 1]], target=[[9, 10], [9, 10]],
                         unsafe=[[[4, 5], [4, 5]]], deadline=20.0,
                         start=[0.5, 0.5], target_point=[9.5, 9.5],
                         start_margin=[0.3, 0.3], target_margin=[0.3, 0.3],
                         obstacle_margin=[0.1], workspace=[[-2, 12], [-2, 12]])
        f0 = crossing_fractions(task, 0, 0)
        f1 = crossing_fractions(task, 0, 1)
        assert f0 == f1
        assert select_dimension(task, 0) == 0


class TestSelectSide:
    def params_for(self, task):
        return TubeParams.defaults(task.deadline)

    def test_obstacle_near_ceiling_goes_below(self):
        # passing above would need the corridor to clear 5.7 + margins,
        # past the workspace ceiling at 6
        task = make_task(initial=[[0, 1], [0, 1]], target=[[9, 10], [4.6, 5.6]],
                         unsafe=[[[4, 5], [1.0, 5.7]]], deadline=30.0,
                         start=[0.5, 0.5], target_point=[9.5, 5.1],
                         start_margin=[0.25, 0.25], target_margin=[0.25, 0.25],
                         obstacle_margin=[0.15], workspace=[[-1, 11], [0, 6]])
        window = intersection_interval(task, 0)
        side, level = select_side(task, 0, 1, window, self.params_for(task))
        assert side == PASS_BELOW
        assert level == pytest.approx(1.0 - 0.5 - 0.15)

    def test_obstacle_near_floor_goes_above(self, case_scenario, case_plans):
        # the wall-like third obstacle reaches the workspace floor
        plan = [p for p in case_plans if p.index == 2][0]
        assert plan.side == PASS_ABOVE
        assert plan.level == pytest.approx(8.0 + 0.15)

    def test_mid_band_picks_smaller_detour(self, case_scenario, case_plans):
        # first obstacle: both sides feasible, the nearer level wins
        task = case_scenario.task
        plan = [p for p in case_plans if p.index == 0][0]
        ref = task.lower_margin().value(plan.dim, plan.enter_time)
        d_near = abs(detour_level(task, 0, plan.dim, plan.side) - ref)
        other = PASS_ABOVE if plan.side == PASS_BELOW else PASS_BELOW
        d_far = abs(detour_level(task, 0, plan.dim, other) - ref)
        assert d_near < d_far
        assert plan.side == PASS_BELOW

    def test_no_feasible_side_raises(self):
        # narrow workspace band: neither side fits
        task = make_task(initial=[[0, 1], [0, 1]], target=[[9, 10], [0, 1]],
                         unsafe=[[[4, 5], [-0.4, 1.6]]], deadline=30.0,
                         start=[0.5, 0.5], target_point=[9.5, 0.5],
                         start_margin=[0.25, 0.25], target_margin=[0.25, 0.25],
                         obstacle_margin=[0.15], workspace=[[-1, 11], [-0.5, 1.7]])
        window = intersection_interval(task, 0)
        assert window is not None
        with pytest.raises(InfeasibleScenarioError):
            plan_obstacle(task, 0, window, self.params_for(task))


class TestSchedule:
    def test_case_study_three_sorted_plans(self, case_scenario, case_plans):
        assert [p.index for p in case_plans] == [0, 1, 2]
        enters = [p.enter_time for p in case_plans]
        assert enters == sorted(enters)
        for p in case_plans:
            assert 0 <= p.prep_time < p.enter_time <= p.exit_time < p.release_time
            assert p.release_time <= case_scenario.task.deadline + 2 * case_scenario.tube.window_margin

    def test_no_obstacles_empty_schedule(self):
        task = arena_task(unsafe=[], obstacle_margin=[1.0])
        assert schedule(task, TubeParams.defaults(task.deadline)) == []

    def test_untouched_obstacle_empty_schedule(self):
        task = arena_task(unsafe=[[[5.2, 6.8], [8.5, 9.0]]], obstacle_margin=[0.15])
        assert schedule(task, TubeParams.defaults(task.deadline)) == []

    def test_unseparated_windows_raise(self):
        # two copies of the same obstacle, shifted a little
        task = arena_task(unsafe=[[[5.2, 6.8], [3.2, 4.0]], [[5.3, 6.9], [3.3, 4.1]]],
                          obstacle_margin=[0.15, 0.15])
        with pytest.raises(InfeasibleScenarioError):
            schedule(task, TubeParams.defaults(task.deadline))

    def test_selected_dimension_never_covers_workspace(self):
        from rastube.sampling import random_case
        rng = np.random.default_rng(2718)
        for i in range(15):
            case = random_case(rng, n_dims=2 + (i % 2), n_obstacles=1 + (i % 3))
            for p in case.plans:
                u = case.task.unsafe_sets[p.index].dims[p.dim]
                ws = case.task.workspace.dims[p.dim]
                assert not u.contains(ws)


def blend_path_clear_by_box(task, plan, samples=400):
    """The blend-path pre-filter one sample at a time: a Box per sample,
    checked against every obstacle with Box.disjoint_from."""
    lower = task.lower_margin()
    width = 2.0 * task.band_halfwidth
    k = plan.dim
    anchor_in = lower.value(k, plan.prep_time)
    anchor_out = lower.value(k, plan.release_time)
    ws = task.workspace
    ts = np.linspace(plan.prep_time, plan.release_time, samples)
    approach = tube_core.approach_target(ts, plan.prep_time, plan.enter_time,
                                         plan.level, anchor_in)
    restore = tube_core.return_target(ts, plan.exit_time, plan.release_time,
                                      plan.level, anchor_out)
    for t, to_level, from_level in zip(ts, approach, restore):
        lo = lower.value_vec(t)
        if t < plan.enter_time:
            lo[k] = to_level
        elif t <= plan.exit_time:
            lo[k] = plan.level
        else:
            lo[k] = from_level
        hi = lo + width
        if not (ws.dims[k].lo <= lo[k] and hi[k] <= ws.dims[k].hi):
            return False
        cross = Box.from_pairs(zip(lo, hi))
        for u in task.unsafe_sets:
            if not cross.disjoint_from(u):
                return False
    return True


def integrated_path_clear_reference(task, plan, params, windows):
    """The confirm step with its own workspace test and clearance formula,
    one obstacle at a time."""
    lead = 2.0 * params.edge_buffer + 8.0 * params.blend_scale
    ts, path = _integrated_dim_path(task, plan, params, plan.release_time + lead)
    if ts is None:
        return False
    k = plan.dim
    sel = ts >= plan.prep_time - lead
    ts = ts[sel]
    lower = task.lower_margin().value_grid(ts)
    lower[:, k] = path[sel]
    width = 2.0 * task.band_halfwidth
    upper = lower + width[None, :]

    ws = task.workspace
    if np.any(lower[:, k] < ws.dims[k].lo) or np.any(upper[:, k] > ws.dims[k].hi):
        return False
    for m, u in enumerate(task.unsafe_sets):
        gaps = np.maximum(u.lower[None, :] - upper, lower - u.upper[None, :])
        clearance = gaps.max(axis=1)
        if m != plan.index and m in windows:
            w_lo, w_hi = windows[m]
            outside = (ts < w_lo) | (ts > w_hi)
            clearance = clearance[outside]
        if clearance.size and clearance.min() <= _PLAN_CLEARANCE_PAD:
            return False
    return True


def every_candidate(task, params, edges=False):
    """Each (obstacle, dimension, side) detour select_side could try; with
    ``edges``, also levels that touch the obstacle or sit on or just past a
    workspace bound.  The blend-path check reads the level, not the side."""
    for j in range(task.n_obstacles):
        window = intersection_interval(task, j)
        if window is None:
            continue
        t_in, t_out = window
        for dim in range(task.n):
            u, ws = task.unsafe_sets[j].dims[dim], task.workspace.dims[dim]
            width = 2.0 * task.band_halfwidth[dim]
            levels = [detour_level(task, j, dim, side) for side in (PASS_ABOVE, PASS_BELOW)]
            if edges:
                levels += [u.hi, u.lo - width, ws.lo, ws.lo - 1e-9, ws.hi - width,
                           ws.hi - width + 1e-9]
            for level in levels:
                yield ObstaclePlan(index=j, enter_time=t_in, exit_time=t_out,
                                   prep_time=t_in - params.window_margin,
                                   release_time=t_out + params.window_margin, dim=dim,
                                   side=PASS_ABOVE, level=level)


BENCH_INPUTS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs")
                      .glob("random_*.json"))


class TestBlendPathClear:
    def test_same_verdicts_as_box_by_box_on_bundled_candidates(self, case_scenario):
        task = case_scenario.task
        verdicts = [(_blend_path_clear(task, plan), blend_path_clear_by_box(task, plan))
                    for plan in every_candidate(task, case_scenario.tube, edges=True)]
        assert all(new == old for new, old in verdicts)
        assert {new for new, _ in verdicts} == {True, False}

    def test_same_verdicts_as_box_by_box_on_benchmark_inputs(self):
        assert len(BENCH_INPUTS) == 36
        verdicts = []
        for path in BENCH_INPUTS:
            scn = parse_scenario(path)
            verdicts += [(path.name, plan, _blend_path_clear(scn.task, plan),
                          blend_path_clear_by_box(scn.task, plan))
                         for plan in every_candidate(scn.task, scn.tube)]
        assert [v for v in verdicts if v[2] != v[3]] == []
        assert {v[2] for v in verdicts} == {True, False}


class TestIntegratedPathClear:
    def verdicts(self, task, params, edges=False):
        windows = _candidate_windows(task)
        return [(plan, _integrated_path_clear(task, plan, params, windows),
                 integrated_path_clear_reference(task, plan, params, windows))
                for plan in every_candidate(task, params, edges)]

    def test_same_verdicts_as_reference_on_bundled_candidates(self, case_scenario):
        verdicts = self.verdicts(case_scenario.task, case_scenario.tube, edges=True)
        assert [v for v in verdicts if v[1] != v[2]] == []
        assert {v[1] for v in verdicts} == {True, False}

    def test_same_verdicts_as_reference_on_benchmark_inputs(self):
        assert len(BENCH_INPUTS) == 36
        verdicts = []
        for path in BENCH_INPUTS:
            scn = parse_scenario(path)
            verdicts += [(path.name, *v) for v in self.verdicts(scn.task, scn.tube)]
        assert [v for v in verdicts if v[2] != v[3]] == []
        assert {v[2] for v in verdicts} == {True, False}


class TestRowsClear:
    # rows at t = 10 and 12 clear every obstacle of arena_task(); the row at
    # t = 11 sits inside obstacle 1
    ts = np.array([10.0, 11.0, 12.0])
    rows = np.array([[3.0, 5.0], [5.5, 3.3], [3.0, 5.0]])

    def plan(self, index):
        return ObstaclePlan(index=index, enter_time=10.0, exit_time=12.0, prep_time=9.0,
                            release_time=13.0, dim=0, side=PASS_ABOVE, level=3.0)

    def test_rows_inside_another_obstacles_window_are_skipped(self):
        task = arena_task()
        assert _rows_clear(task, self.plan(0), self.ts, self.rows, 0.0, {1: (11.0, 11.0)})
        assert not _rows_clear(task, self.plan(0), self.ts, self.rows, 0.0, {1: (11.5, 12.0)})
        assert not _rows_clear(task, self.plan(0), self.ts, self.rows, 0.0, {})

    def test_own_window_is_not_skipped(self):
        assert not _rows_clear(arena_task(), self.plan(1), self.ts, self.rows, 0.0,
                               {1: (10.0, 12.0)})
