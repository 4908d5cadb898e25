import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rastube.metrics import _trapezoid, baseline_tube, comparison_report, control_effort
from rastube.plant import SimFlags, SimTrace
from rastube.tube import smoothness_check, verify_tube


def synthetic_trace(ts, inputs, deadline):
    ts = np.asarray(ts, float)
    inputs = np.asarray(inputs, float)
    n = inputs.shape[1]
    zeros = np.zeros_like(inputs)
    return SimTrace(ts=ts, states=zeros, lower=zeros - 1.0, upper=zeros + 1.0,
                    inputs=inputs, disturbances=zeros,
                    active=np.full(ts.shape[0], -1),
                    flags=SimFlags(True, True, True, True), deadline=deadline)


def same_float(a, b) -> bool:
    """Equal bits, the sign of a zero included; any NaN equals any NaN."""
    return (math.isnan(a) and math.isnan(b)) or \
        np.float64(a).tobytes() == np.float64(b).tobytes()


# input components: any float, and more often a NaN, an infinity, a signed
# zero, a subnormal or a magnitude whose square underflows or overflows
COMPONENTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, -1e-300, 1e-160, 1e154, -1e200]),
    st.floats())


class TestControlEffort:
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(COMPONENTS, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_row_norms_have_the_bits_of_linalg_norm(self, rows):
        inputs = np.array(rows)
        ts = np.linspace(0.0, 1.0, inputs.shape[0])
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(inputs, axis=1)
            report = control_effort(synthetic_trace(ts, inputs, 1.0))
            if ts.shape[0] == 1:
                expected = (0.0, norms[0], 0.0)
            else:
                expected = (_trapezoid(norms ** 2, ts), norms.max(), _trapezoid(norms, ts))
            peaks = [control_effort(synthetic_trace([0.0], row, 1.0)).peak
                     for row in inputs[:, None, :]]
        got = (report.energy, report.peak, report.l1)
        assert all(map(same_float, got, expected)), (got, expected)
        assert all(map(same_float, peaks, norms)), (peaks, norms)

    def test_zero_input(self):
        trace = synthetic_trace(np.linspace(0, 1, 11), np.zeros((11, 2)), 1.0)
        report = control_effort(trace)
        assert (report.energy, report.peak, report.l1) == (0.0, 0.0, 0.0)

    def test_unit_norm_over_unit_time(self):
        ts = np.linspace(0, 1, 101)
        inputs = np.zeros((101, 2))
        inputs[:, 0] = 1.0
        report = control_effort(synthetic_trace(ts, inputs, 1.0))
        assert report.energy == pytest.approx(1.0, abs=1e-12)
        assert report.peak == pytest.approx(1.0)
        assert report.l1 == pytest.approx(1.0, abs=1e-12)

    def test_empty_trace_rejected(self):
        trace = synthetic_trace(np.zeros(0), np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            control_effort(trace)

    def test_caps_at_deadline(self):
        ts = np.linspace(0, 2, 201)
        inputs = np.ones((201, 1))
        report = control_effort(synthetic_trace(ts, inputs, 1.0))
        assert report.energy == pytest.approx(1.0, abs=1e-12)

    def test_resampling_invariance(self):
        # piecewise-linear resampling onto a 2x finer grid moves the
        # integrals by less than one percent
        rng = np.random.default_rng(8)
        ts = np.linspace(0, 5, 301)
        inputs = rng.normal(size=(301, 3)).cumsum(axis=0) * 0.05
        coarse = control_effort(synthetic_trace(ts, inputs, 5.0))
        fine_ts = np.linspace(0, 5, 601)
        fine_inputs = np.stack(
            [np.interp(fine_ts, ts, inputs[:, i]) for i in range(3)], axis=1)
        fine = control_effort(synthetic_trace(fine_ts, fine_inputs, 5.0))
        assert fine.energy == pytest.approx(coarse.energy, rel=0.01)
        assert fine.l1 == pytest.approx(coarse.l1, rel=0.01)
        assert fine.peak == pytest.approx(coarse.peak, rel=0.01)


class TestBaselineTube:
    def test_matches_margin_outside_windows(self, case_scenario, case_plans):
        task = case_scenario.task
        tube = baseline_tube(task, case_plans, case_scenario.tube)
        ref = task.lower_margin().value_grid(tube.ts)
        outside = np.ones(tube.ts.shape[0], dtype=bool)
        for p in case_plans:
            outside &= (tube.ts < p.prep_time - 0.3) | (tube.ts > p.release_time + 0.3)
        assert np.abs(tube.lower[outside] - ref[outside]).max() <= 1e-6

    def test_ramps_are_an_order_of_magnitude_steeper(self, case_scenario, case_plans, case_tube):
        abrupt = baseline_tube(case_scenario.task, case_plans, case_scenario.tube)
        smooth_report = smoothness_check(case_tube)
        abrupt_report = smoothness_check(abrupt)
        assert abrupt_report.max_rate >= 10.0 * smooth_report.max_rate

    def test_baseline_still_verifies(self, case_scenario, case_plans):
        abrupt = baseline_tube(case_scenario.task, case_plans, case_scenario.tube)
        assert verify_tube(abrupt, case_scenario.task).passed

    def test_flagged_in_every_window(self, case_scenario, case_plans):
        abrupt = baseline_tube(case_scenario.task, case_plans, case_scenario.tube)
        report = smoothness_check(abrupt)
        assert not report.passed
        for p in case_plans:
            hits = [t for t, _ in report.flagged
                    if p.prep_time - 0.3 <= t <= p.release_time + 0.3]
            assert hits, f"no flagged jump near obstacle {p.index} window"


def test_comparison_report_shape():
    from rastube.metrics import EffortReport
    report = comparison_report("demo", 3, EffortReport(1.0, 2.0, 3.0),
                               EffortReport(10.0, 20.0, 30.0),
                               {"contained": True}, {"contained": True})
    assert report["baseline_kind"] == "reconstructed"
    assert report["energy_ratio"] == pytest.approx(0.1)
    assert report["peak_ratio"] == pytest.approx(0.1)
