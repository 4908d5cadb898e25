import numpy as np
import pytest

from rastube.errors import ConfigurationError
from rastube.geometry import Box
from rastube.scenario import RasTask, TubeParams, validate_assumptions

from conftest import make_task


def simple_task(**overrides):
    kwargs = dict(
        initial=[[0, 0.5], [0, 0.5]], target=[[11, 11.5], [7, 7.5]],
        unsafe=[[[1.5, 2.0], [0.5, 3.0]]], deadline=80.0,
        start=[0.25, 0.25], target_point=[11.25, 7.25],
        start_margin=[0.25, 0.25], target_margin=[0.25, 0.25],
        obstacle_margin=[0.1], workspace=[[-1, 13], [-1, 10]])
    kwargs.update(overrides)
    return make_task(**kwargs)


class TestStartBox:
    def test_centered_choice_fills_initial_set(self):
        box = simple_task().start_box()
        assert box.as_pairs() == [[0.0, 0.5], [0.0, 0.5]]

    def test_symmetric_case_equals_set(self):
        task = simple_task(initial=[[-1, 1], [-1, 1]], start=[0, 0],
                           start_margin=[1, 1], workspace=[[-2, 13], [-2, 10]])
        assert task.start_box().as_pairs() == [[-1, 1], [-1, 1]]

    def test_offcenter_margin_shrinks_to_fit(self):
        # oracle: per dimension min(margin, start - set.lo, set.hi - start)
        task = simple_task(start=[0.4, 0.25])
        expect = [min(0.25, 0.4 - 0.0, 0.5 - 0.4), min(0.25, 0.25, 0.25)]
        np.testing.assert_allclose(task.start_margin, expect)
        np.testing.assert_allclose(task.start_box().as_pairs(),
                                   [[0.3, 0.5], [0.0, 0.5]])
        assert task.shrunk_start_dims == (0,)

    def test_boundary_start_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_task(start=[0.0, 0.25])

    def test_always_inside_initial_set(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo = rng.uniform(-3, 0, 2)
            hi = lo + rng.uniform(0.5, 3, 2)
            x0 = rng.uniform(lo + 0.05, hi - 0.05)
            task = simple_task(initial=np.stack([lo, hi], axis=1).tolist(),
                               start=x0.tolist(),
                               start_margin=rng.uniform(0.05, 2.0, 2).tolist(),
                               workspace=[[-20, 20], [-20, 20]],
                               unsafe=[[[8.0, 9.0], [8.0, 9.0]]])
            box = task.start_box()
            assert task.initial_set.contains(box)
            assert box.contains_point(x0)


class TestTargetBox:
    def test_case_study_target(self):
        box = simple_task().target_box()
        assert box.as_pairs() == [[11.0, 11.5], [7.0, 7.5]]

    def test_center_with_half_extent_fills_set(self):
        assert simple_task().target_box().as_pairs() == \
            simple_task().target_set.as_pairs()

    def test_offcenter_reference_shrinks(self):
        task = simple_task(target_point=[11.4, 7.25])
        assert task.target_box().as_pairs() == [[11.3, 11.5], [7.0, 7.5]]
        assert task.shrunk_target_dims == (0,)


class TestTaskInvariants:
    def test_obstacle_touching_initial_set_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_task(unsafe=[[[0.4, 2.0], [0.2, 3.0]]])

    def test_nonpositive_margins_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_task(start_margin=[0.25, 0.0])

    def test_zero_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_task(deadline=0.0)


class TestTubeParams:
    def test_buffer_must_stay_below_window_margin(self):
        with pytest.raises(ConfigurationError):
            TubeParams(window_margin=1.0, edge_buffer=1.0, blend_scale=0.1,
                       time_floor=0.01, step=0.01)

    def test_defaults_are_consistent(self):
        p = TubeParams.defaults(80.0)
        assert 0 < p.edge_buffer < p.window_margin
        assert p.blend_scale < p.edge_buffer
        assert p.step <= 2.0 * p.time_floor + 1e-15


class TestValidateAssumptions:
    def test_case_study_passes(self, case_scenario, case_plans):
        report = validate_assumptions(case_scenario.task, case_plans, case_scenario.tube)
        assert report.passed

    def test_identical_windows_fail_with_pair_witness(self, case_scenario, case_plans):
        p = case_plans[0]
        clone = type(p)(index=99, enter_time=p.enter_time, exit_time=p.exit_time,
                        prep_time=p.prep_time, release_time=p.release_time,
                        dim=p.dim, side=p.side, level=p.level)
        report = validate_assumptions(case_scenario.task, [p, clone], case_scenario.tube)
        bad = [c for c in report.checks if not c.passed]
        assert bad and bad[0].name == "temporal-separation"
        assert "0" in bad[0].subject and "99" in bad[0].subject

    def test_covering_obstacle_fails_separation(self):
        with pytest.raises(ConfigurationError):
            # a box covering the start region in all dimensions is rejected
            # outright as intersecting the initial set
            simple_task(unsafe=[[[-1, 1], [-1, 1]]])
        # the report-level check still catches a covering obstacle when a
        # task is assembled directly, bypassing construction validation
        base = simple_task()
        raw = RasTask(initial_set=base.initial_set, target_set=base.target_set,
                      unsafe_sets=(Box.from_pairs([[-1, 1], [-1, 1]]),),
                      deadline=base.deadline, start=base.start, target=base.target,
                      start_margin=base.start_margin, target_margin=base.target_margin,
                      obstacle_margin=np.array([0.1]), workspace=base.workspace)
        report = validate_assumptions(raw, [])
        failing = [c for c in report.checks if not c.passed]
        assert any(c.name == "initial-separation" for c in failing)

    def test_deterministic(self, case_scenario, case_plans):
        a = validate_assumptions(case_scenario.task, case_plans, case_scenario.tube)
        b = validate_assumptions(case_scenario.task, case_plans, case_scenario.tube)
        assert a == b
