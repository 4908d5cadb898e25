import functools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

try:
    from numpy._core import _multiarray_umath as np_umath
except ImportError:     # numpy < 2
    from numpy.core import _multiarray_umath as np_umath

import rastube.plant as plant_mod
from rastube.controller import ControllerConfig, TubeFrame, compiled_law, control_input
from rastube.errors import ConfigurationError, TubeViolationError
from rastube.plant import (DisturbanceModel, FrameProvider, IntegratorPlant,
                           OmniRobot, SimOptions, simulate)
from rastube.tube import Tube, evolve_tube

from conftest import make_task


class LinearPlant:
    """xdot = A x + B u + w, a plant the package does not ship."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.n_states = self.a.shape[0]

    def derivative(self, x, u, w):
        return self.a @ x + self.b @ u + w

    def symmetric_input_floor(self, x):
        sym = 0.5 * (self.b + self.b.T)
        return float(np.linalg.eigvalsh(sym).min())


class MarginFrames:
    """Closed-form corridor for tasks without detours; exact, no grid."""

    def __init__(self, margin, width):
        self.margin = margin
        self.width = np.asarray(width, dtype=float)

    def bounds_at(self, times):
        lo = np.array([self.margin.value_vec(min(t, self.margin.deadline))
                       for t in np.asarray(times).tolist()]).reshape(len(times), -1)
        return lo, lo + self.width

    def bounds(self, t):
        lo, hi = self.bounds_at([t])
        return lo[0].tolist(), hi[0].tolist()


def heading_rotation(heading):
    """The omni robot's input map: the heading rotation embedded in 3x3."""
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestOmniRobot:
    def test_identity_rotation(self):
        got = OmniRobot().derivative(np.array([0.0, 0.0, 0.0]),
                                     np.array([1.0, 0.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        got = OmniRobot().derivative(np.array([0.0, 0.0, math.pi / 2]),
                                     np.array([1.0, 0.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_matrix_vector_oracle(self):
        x = np.array([0.3, -0.2, math.pi / 4])
        u = np.array([1.0, 1.0, 0.2])
        w = np.array([0.01, -0.01, 0.0])
        oracle = heading_rotation(x[2]) @ u + w
        got = OmniRobot().derivative(x, u, w)
        np.testing.assert_allclose(got, oracle, atol=1e-15)

    def test_symmetric_part_floor(self):
        robot = OmniRobot()
        for heading in (0.0, 0.4, -1.2):
            g = heading_rotation(heading)
            oracle = np.linalg.eigvalsh(0.5 * (g + g.T)).min()
            assert robot.symmetric_input_floor(np.array([0, 0, heading])) == \
                pytest.approx(oracle, abs=1e-12)


class TestDisturbance:
    def test_none_is_zero(self):
        model = DisturbanceModel(kind="none", bound=0.05)
        seq = model.sequence(3, np.linspace(0.0, 1.0, 20))
        assert seq.shape == (20, 3)
        assert np.all(seq == 0.0)

    def test_uniform_respects_bound(self):
        model = DisturbanceModel(kind="uniform", bound=0.05, seed=3)
        draws = model.sequence(3, np.arange(200.0))
        assert np.abs(draws).max() <= 0.05

    def test_seeded_runs_are_identical(self):
        a = DisturbanceModel(kind="uniform", bound=0.05, seed=11)
        b = DisturbanceModel(kind="uniform", bound=0.05, seed=11)
        ts = np.arange(50.0)
        np.testing.assert_array_equal(a.sequence(2, ts), b.sequence(2, ts))

    def test_uniform_stream_is_default_rng(self):
        model = DisturbanceModel(kind="uniform", bound=0.05, seed=4)
        ts = np.linspace(0.0, 1.0, 64)
        expected = np.random.default_rng(4).uniform(-0.05, 0.05, (64, 3))
        np.testing.assert_array_equal(model.sequence(3, ts), expected)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError) as err:
            DisturbanceModel(kind="uniform", bound=0.05, seed=seed)
        assert [path for path, _ in err.value.issues] == ["plant.disturbance.seed"]

    def test_sinusoidal_bound_and_shape(self):
        model = DisturbanceModel(kind="sinusoidal", bound=0.03, frequency=0.25)
        ts = np.linspace(0.0, 10.0, 400)
        seq = model.sequence(2, ts)
        assert np.abs(seq).max() <= 0.03 + 1e-12


class TestFrameProvider:
    def test_non_leading_task_dims_rejected(self):
        # the heading first, the two task dimensions after it
        with pytest.raises(ConfigurationError) as err:
            FrameProvider(None, 3, [1, 2], [(-1.0, 1.0)])
        assert [path for path, _ in err.value.issues] == ["plant"]


def integrator_setup(stay=0.0, disturbance=None, start=(0.25, 0.25), step=0.004):
    task = make_task(initial=[[0, 0.5], [0, 0.5]], target=[[4.0, 4.5], [4.0, 4.5]],
                     unsafe=[], deadline=20.0, start=list(start),
                     target_point=[4.25, 4.25], start_margin=[0.2, 0.2],
                     target_margin=[0.2, 0.2], obstacle_margin=[1.0],
                     workspace=[[-1, 6], [-1, 6]])
    from rastube.scenario import TubeParams
    params = TubeParams.defaults(task.deadline)
    tube = evolve_tube(task, [], params)
    frames = FrameProvider(tube, 2, [0, 1], [])
    options = SimOptions(step=step, stay_horizon=stay)
    dist = disturbance or DisturbanceModel()
    return task, frames, options, dist


class CollapsingTube(Tube):
    """A corridor whose width drops to zero from time ``collapse`` on."""

    collapse = math.inf

    def bounds_at(self, times):
        lo, hi = super().bounds_at(times)
        gone = np.asarray(times) >= self.collapse
        hi[gone] = lo[gone]
        return lo, hi


class NanWidthTube(CollapsingTube):
    """A corridor whose width is NaN from time ``collapse`` on, a width the
    closed loop does not reject: the law then gives NaN inputs."""

    def bounds_at(self, times):
        lo, hi = Tube.bounds_at(self, times)
        hi[np.asarray(times) >= self.collapse] = math.nan
        return lo, hi


def leaving_setup():
    """2-D integrator task with a 0.3-wide corridor: steps of 0.008 s and
    more are too coarse for the barrier gain, 0.005 s is fine."""
    task = make_task(initial=[[0, 0.5], [0, 0.5]], target=[[5.0, 5.5], [5.0, 5.5]],
                     unsafe=[], deadline=10.0, start=[0.25, 0.25],
                     target_point=[5.25, 5.25], start_margin=[0.15, 0.15],
                     target_margin=[0.15, 0.15], obstacle_margin=[1.0],
                     workspace=[[-1, 7], [-1, 7]])
    from rastube.scenario import TubeParams
    tube = evolve_tube(task, [], TubeParams.defaults(task.deadline))
    return task, FrameProvider(tube, 2, [0, 1], [])


def leaving(plant=None, step=0.01, tube_type=None, collapse=math.inf):
    """``simulate`` of ``leaving_setup``'s task at ``step``; its corridor
    ``tube_type`` changes from ``collapse`` on."""
    def run():
        task, frames = leaving_setup()
        if tube_type is not None:
            tube = tube_type(ts=frames.source.ts, lower=frames.source.lower,
                             width=frames.source.width)
            tube.collapse = collapse
            frames = FrameProvider(tube, 2, [0, 1], [])
        return simulate(task, frames, ControllerConfig(gain=2.0), plant or IntegratorPlant(2),
                        DisturbanceModel(), SimOptions(step=step))
    return run


def reference_law(x, sums, ws, scale, lim):
    """The feedback on float lists, in one pass: ``u``, or None when some
    |e_i| >= 1.  ``sums`` and ``ws`` are the frame's bound sums and widths,
    ``scale`` is -gain_sign * gain and ``lim`` the input limit or None."""
    u = []
    for xi, si, wi in zip(x, sums, ws):
        v = (2.0 * xi - si) / wi
        if abs(v) >= 1.0:
            return None
        ui = scale * (4.0 / (wi * (1.0 - v * v))) * (math.log1p(v) - math.log1p(-v))
        u.append(ui if lim is None else min(max(ui, -lim), lim))
    return u


def reference_step_loop(x, frame, grid_ts, frames, cfg, dynamics, dists, states, lowers,
                        uppers, inputs):
    """The closed loop written on float lists, stage by stage: the law per
    stage through ``reference_law``, and ``control_input`` on the stage's
    TubeFrame wherever the law rejects, to raise the failure record (or
    ConfigurationError for a width <= 0).  ``plant._step_loop`` must fill
    the same rows with the same bits and return the same floor and failure."""
    floor_fn = dynamics.symmetric_input_floor
    rate = dynamics.derivative
    scale = -cfg.gain_sign * cfg.gain
    lim = cfg.input_limit
    block = plant_mod._BLOCK
    ts = grid_ts.tolist()
    n_steps = len(ts) - 1
    min_floor = float("inf")
    lowers[0] = frame.lo
    uppers[0] = frame.hi

    def violation(time, err):
        return time, str(err), {"time": err.time, "dim": err.dim, "value": err.value,
                                "lower": err.lower, "upper": err.upper}

    row_s, row_w, row_lo, row_hi = frame.sums, frame.ws, frame.lo, frame.hi
    for first in range(0, n_steps + 1, block):
        stop = min(first + block, n_steps + 1)
        last = min(stop, n_steps)
        if last > first:
            t0, t1 = grid_ts[first:last], grid_ts[first + 1:last + 1]
            stage_ts = np.column_stack((t0 + 0.5 * (t1 - t0), t1)).ravel()
            # the task dimensions' bounds, and the start frame's for the rest
            lo, hi, _, _ = frames.block(stage_ts)
            k, m = lo.shape[1], lo.shape[0]
            lo = np.hstack((lo, np.broadcast_to(frame.lo[k:], (m, len(frame.lo) - k))))
            hi = np.hstack((hi, np.broadcast_to(frame.hi[k:], (m, len(frame.hi) - k))))
            sums_arr, ws_arr = hi + lo, hi - lo
            lowers[first + 1:last + 1] = lo[1::2]
            uppers[first + 1:last + 1] = hi[1::2]
            sums = sums_arr.tolist()
            ws = ws_arr.tolist()
            for j in np.flatnonzero((ws_arr <= 0.0).any(axis=1)).tolist():
                sums[j] = ws[j] = []
            block_w = dists[first:last].tolist()
        xs = []
        us = []
        failure = None
        for r in range(first, stop):
            t = ts[r]
            try:
                u = reference_law(x, row_s, row_w, scale, lim) or \
                    control_input(x, TubeFrame(row_lo, row_hi), cfg, t=t)
            except TubeViolationError as err:
                failure = violation(t, err)
                break
            xs.append(x)
            us.append(u)
            min_floor = min(min_floor, floor_fn(x))
            if r == n_steps:
                break
            j = 2 * (r - first)
            w = block_w[r - first]
            t_next = ts[r + 1]
            h = t_next - t
            mid_s, mid_w = sums[j], ws[j]
            end_s, end_w = sums[j + 1], ws[j + 1]
            try:
                k1 = rate(x, u, w)
                x2 = [v + 0.5 * h * k for v, k in zip(x, k1, strict=True)]
                k2 = rate(x2, reference_law(x2, mid_s, mid_w, scale, lim) or control_input(
                    x2, TubeFrame(lo[j], hi[j]), cfg, t=t + 0.5 * h), w)
                x3 = [v + 0.5 * h * k for v, k in zip(x, k2, strict=True)]
                k3 = rate(x3, reference_law(x3, mid_s, mid_w, scale, lim) or control_input(
                    x3, TubeFrame(lo[j], hi[j]), cfg, t=t + 0.5 * h), w)
                x4 = [v + h * k for v, k in zip(x, k3, strict=True)]
                k4 = rate(x4, reference_law(x4, end_s, end_w, scale, lim) or control_input(
                    x4, TubeFrame(lo[j + 1], hi[j + 1]), cfg, t=t_next), w)
            except TubeViolationError as err:
                failure = violation(t, err)
                break
            sixth = h / 6.0
            x = [v + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for v, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True)]
            if not all(map(math.isfinite, x)):
                dim = next(d for d, v in enumerate(x) if not math.isfinite(v))
                failure = (t_next, "non-finite state",
                           {"time": t_next, "dim": dim, "value": None,
                            "lower": None, "upper": None})
                break
            row_s, row_w, row_lo, row_hi = end_s, end_w, lo[j + 1], hi[j + 1]
        if xs:
            states[first:first + len(xs)] = xs
            inputs[first:first + len(us)] = us
        if failure is not None:
            return first + len(xs), min_floor, failure
    return n_steps + 1, min_floor, None


def assert_matches_reference(run):
    """Run ``run()`` with the program's stepper and with
    ``reference_step_loop``; every recorded value must have the same bits.
    Returns the program's trace."""
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plant_mod, "_step_loop", reference_step_loop)
        want = run()
    for key in ("states", "inputs", "lower", "upper"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
    assert float(got.min_input_floor).hex() == float(want.min_input_floor).hex()
    assert (got.failure_time, got.failure_reason, got.failure) == \
        (want.failure_time, want.failure_reason, want.failure)
    return got


def failed_stage(trace):
    """Where the failed step of ``trace`` stopped: at its midpoint, at its
    end, or at the next row (failure_time names that row)."""
    offset = (trace.failure["time"] - trace.failure_time) / (trace.ts[1] - trace.ts[0])
    return {0.0: "next", 0.5: "mid", 1.0: "end"}[round(offset, 6)]


class NegatedIntegrator(IntegratorPlant):
    """xdot = -u + w: the symmetric input map is -I, so the law needs
    ``gain_sign=-1``."""

    def derivative(self, x, u, w):
        return [b - a for a, b in zip(u, w)]

    def symmetric_input_floor(self, x):
        return -1.0


class NanPlant(IntegratorPlant):
    """An integrator whose second rate turns NaN once x[0] passes 0.3."""

    def derivative(self, x, u, w):
        return [u[0] + w[0], math.nan if x[0] > 0.3 else u[1] + w[1]]


class NanRatePlant(IntegratorPlant):
    """An integrator whose second rate is NaN from the first step on."""

    def derivative(self, x, u, w):
        return [u[0] + w[0], math.nan]


class ArrayStylePlant(IntegratorPlant):
    """A plant written for arrays: it joins the input and disturbance lists
    into 2n entries."""

    def derivative(self, x, u, w):
        return u + w


class FloorCountingIntegrator(IntegratorPlant):
    """An integrator whose reported input floor falls by one at each call,
    so that a run's minimum floor is minus the number of rows whose floor
    was taken: one per recorded row."""

    def __init__(self, n_states):
        super().__init__(n_states)
        self.floor_calls = 0

    def symmetric_input_floor(self, x):
        self.floor_calls += 1
        return -float(self.floor_calls)


def cube_task(n):
    """An n-dimensional integrator task without obstacles."""
    return make_task(initial=[[0, 0.5]] * n, target=[[4.0, 4.5]] * n, unsafe=[],
                     deadline=20.0, start=[0.25] * n, target_point=[4.25] * n,
                     start_margin=[0.2] * n, target_margin=[0.2] * n,
                     obstacle_margin=[1.0], workspace=[[-1, 6]] * n)


@pytest.fixture
def runner_calls(monkeypatch):
    """The block runs of the closed loop in order, as the start state of
    each call of a compiled runner."""
    calls = []
    runner = plant_mod._runner

    def spied(*key):
        make = runner(*key)

        def spied_make(*consts):
            run = make(*consts)

            def spied_run(x, *args):
                calls.append(list(x))
                return run(x, *args)
            return spied_run
        return spied_make

    monkeypatch.setattr(plant_mod, "_runner", spied)
    return calls


def block_runs(calls, states):
    """``calls`` (see ``runner_calls``) as the block of ``_BLOCK`` rows of
    ``states`` from whose first row each run started."""
    starts = states[::plant_mod._BLOCK].tolist()
    return [starts.index(x) for x in calls]


def cube_setup(plant, n_steps):
    """A cube task (``cube_task``) stepped ``n_steps`` times by the omni
    robot (``plant`` "omni", on two task dimensions) or by
    ``IntegratorPlant(plant)``: (task, frames, dynamics, options)."""
    from rastube.scenario import TubeParams
    n = 2 if plant == "omni" else plant
    task = cube_task(n)
    tube = evolve_tube(task, [], TubeParams.defaults(task.deadline))
    step = task.deadline / n_steps
    if plant == "omni":
        return (task, FrameProvider(tube, 3, [0, 1], [(-math.pi / 2, math.pi / 2)]),
                OmniRobot(), SimOptions(step=step, extra_state=[0.1]))
    return (task, FrameProvider(tube, n, list(range(n)), []), IntegratorPlant(n),
            SimOptions(step=step))


def raised(run):
    """The type and message of what ``run()`` raises (None if nothing)."""
    try:
        run()
    except Exception as err:    # compared with another run's, not handled
        return type(err).__name__, str(err)
    return None


class TestCompiledStep:
    """The compiled RK4 step against ``reference_step_loop``, bit for bit."""

    @given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
               *[st.lists(st.floats(width=64), min_size=n, max_size=n)] * 3)),
           st.floats(min_value=-20.0, max_value=20.0),
           st.one_of(st.none(), st.floats(min_value=1e-3, max_value=50.0)))
    def test_compiled_law_matches_reference_law(self, rows, scale, lim):
        # NaN and infinities included: a NaN passes the corridor check,
        # as it passes abs(e) >= 1.0
        x, sums, ws = rows

        def outcome(law):
            try:
                u = law(x, sums, ws, scale, lim)
            except ZeroDivisionError:       # a zero width
                return "ZeroDivisionError"
            return u if u is None else np.array(u).tobytes()

        assert outcome(compiled_law(len(x), lim is not None)) == outcome(reference_law)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bundled_seeds(self, case_scenario, case_plans, case_tube, seed):
        from rastube.cli import _run_simulation
        trace = assert_matches_reference(
            lambda: _run_simulation(case_scenario, case_tube, case_plans, seed=seed))
        assert trace.completed and trace.flags.all_ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integrator_dimensions(self, n):
        from rastube.scenario import TubeParams
        task = cube_task(n)
        frames = FrameProvider(evolve_tube(task, [], TubeParams.defaults(task.deadline)),
                               n, list(range(n)), [])
        dist = DisturbanceModel(kind="uniform", bound=0.05, seed=n)
        trace = assert_matches_reference(
            lambda: simulate(task, frames, ControllerConfig(gain=2.0),
                             FloorCountingIntegrator(n), dist,
                             SimOptions(step=0.01, stay_horizon=2.0)))
        assert trace.completed and trace.flags.all_ok
        assert trace.states.shape == (2201, n)
        assert trace.min_input_floor == -2201.0

    @pytest.mark.parametrize("limit, completed", [(0.35, True), (0.3, False)])
    def test_input_limit(self, limit, completed):
        task, frames, options, _ = integrator_setup()
        dist = DisturbanceModel(kind="sinusoidal", bound=0.05, frequency=0.3)
        cfg = ControllerConfig(gain=2.0, input_limit=limit)
        trace = assert_matches_reference(
            lambda: simulate(task, frames, cfg, IntegratorPlant(2), dist, options))
        assert trace.completed is completed
        # the clamp is active on some rows, not on all
        assert 0 < np.count_nonzero(np.abs(trace.inputs) == limit) < trace.inputs.size

    def test_negative_gain_sign(self):
        task, frames, options, _ = integrator_setup()
        dist = DisturbanceModel(kind="uniform", bound=0.05, seed=5)
        trace = assert_matches_reference(
            lambda: simulate(task, frames, ControllerConfig(gain=2.0, gain_sign=-1),
                             NegatedIntegrator(2), dist, options))
        assert trace.completed and trace.flags.all_ok
        assert trace.min_input_floor == -1.0

    def test_random_11_leaves_the_corridor(self):
        from rastube.cli import _run_simulation, parse_scenario
        from rastube.avoidance import schedule
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs",
                            "random_11.json")
        scn = parse_scenario(path)
        plans = schedule(scn.task, scn.tube)
        tube = evolve_tube(scn.task, plans, scn.tube)
        assert scn.run.sim_step == 0.01
        trace = assert_matches_reference(lambda: _run_simulation(scn, tube, plans))
        assert not trace.completed
        assert trace.failure["value"] is not None

    @pytest.mark.parametrize("step, stage", [(0.015, "mid"), (0.008, "end"), (0.01, "next")])
    def test_leaving_runs(self, monkeypatch, runner_calls, step, stage):
        # blocks of 2 steps: every block up to the failed step's is stepped
        # once, the failed one up to the stage it rejects
        monkeypatch.setattr(plant_mod, "_BLOCK", 2)
        trace = assert_matches_reference(leaving(step=step))
        assert failed_stage(trace) == stage
        failed = (trace.ts.shape[0] - 1) // 2
        assert block_runs(runner_calls, trace.states) == list(range(failed + 1))

    @staticmethod
    def check_non_finite(monkeypatch, runner_calls, run):
        # the runner reports a non-finite state itself, in the block's one run
        monkeypatch.setattr(plant_mod, "_BLOCK", 2)
        trace = assert_matches_reference(run)
        assert trace.failure_reason == "non-finite state"
        failed = (trace.ts.shape[0] - 1) // 2
        assert block_runs(runner_calls, trace.states) == list(range(failed + 1))

    def test_non_finite_state(self, monkeypatch, runner_calls):
        task, frames, options, dist = integrator_setup()
        self.check_non_finite(monkeypatch, runner_calls, lambda: simulate(
            task, frames, ControllerConfig(gain=2.0), NanPlant(2), dist, options))

    @pytest.mark.parametrize("run", [
        leaving(plant=NanRatePlant(2)),
        # a NaN width passes the law, whose NaN input makes the state NaN
        leaving(step=0.005, tube_type=NanWidthTube, collapse=0.02)],
        ids=["nan-rate", "nan-width"])
    def test_non_finite_kinds(self, monkeypatch, runner_calls, run):
        self.check_non_finite(monkeypatch, runner_calls, run)

    @pytest.mark.parametrize("collapse, runs", [
        # the corridor closes at the midpoint (0.015) or the end (0.02) of
        # the second step, before the state leaves it, or in the second
        # block (0.03): each block up to the collapse is stepped once
        (0.015, [0]), (0.02, [0]), (0.03, [0, 1])], ids=["0.015", "0.02", "0.03"])
    def test_width_collapse(self, monkeypatch, runner_calls, collapse, runs):
        monkeypatch.setattr(plant_mod, "_BLOCK", 2)
        with pytest.raises(ConfigurationError) as got:
            TestSimulate.leaving_run(collapse=collapse)
        assert block_runs(list(runner_calls), leaving()().states) == runs
        monkeypatch.setattr(plant_mod, "_step_loop", reference_step_loop)
        with pytest.raises(ConfigurationError) as want:
            TestSimulate.leaving_run(collapse=collapse)
        assert got.value.issues == want.value.issues == [
            ("frame", "upper bound must exceed lower bound")]

    @pytest.mark.parametrize("n_steps", [511, 512, 513, 1025])
    @pytest.mark.parametrize("limit", [None, 0.4])
    @pytest.mark.parametrize("plant", ["omni", 1, 2, 3])
    def test_block_edges(self, runner_calls, plant, limit, n_steps):
        task, frames, dynamics, options = cube_setup(plant, n_steps)
        cfg = ControllerConfig(gain=0.5, input_limit=limit)
        dist = DisturbanceModel(kind="uniform", bound=0.05, seed=n_steps)
        trace = assert_matches_reference(
            lambda: simulate(task, frames, cfg, dynamics, dist, options))
        assert trace.completed and trace.flags.all_ok
        assert trace.ts.shape[0] == n_steps + 1
        if limit is not None:
            assert 0 < np.count_nonzero(np.abs(trace.inputs) == limit) < trace.inputs.size
        # one run per block of 512 rows
        assert block_runs(runner_calls, trace.states) == \
            list(range(math.ceil((n_steps + 1) / 512)))


def omni_rate(x, u, w):
    """The omni robot's derivative, written out by hand."""
    c = math.cos(x[2])
    s = math.sin(x[2])
    return [u[0] * c - u[1] * s + w[0], u[0] * s + u[1] * c + w[1], u[2] + w[2]]


def bits(fn, *args):
    """The bits of ``fn(*args)``, or the name of the exception it raises."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except ValueError as err:
        return type(err).__name__


def counted(calls, method):
    """``method`` wrapped as a tracer wraps it: the wrapper counts its calls
    in ``calls`` and keeps the method's attributes."""
    @functools.wraps(method)
    def wrapper(*args):
        calls.append(args)
        return method(*args)
    return wrapper


class HalfSpeedOmni(OmniRobot):
    """An omni robot whose derivative is half the written one: an override
    of a method written as source lines, which the loop must call."""

    def derivative(self, x, u, w):
        return [0.5 * k for k in super().derivative(x, u, w)]


class TestWrittenPlants:
    """The plants written as source lines: their compiled methods against
    the expressions written out by hand, and the closed loop that inlines
    them against ``reference_step_loop``, bit for bit (the bundled omni
    robot in ``TestCompiledStep.test_bundled_seeds``)."""

    @given(st.lists(st.floats(width=64), min_size=9, max_size=9))
    def test_omni_robot_methods(self, v):
        # NaN and infinities included; cos of an infinite heading raises
        # ValueError in both
        x, u, w = v[0:3], v[3:6], v[6:9]
        robot = OmniRobot()
        assert bits(robot.derivative, x, u, w) == bits(omni_rate, x, u, w)
        assert bits(robot.symmetric_input_floor, x) == \
            bits(lambda x: min(math.cos(x[2]), 1.0), x)

    @given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
        *[st.lists(st.floats(width=64), min_size=n, max_size=n)] * 3)))
    def test_integrator_methods(self, rows):
        x, u, w = rows
        plant = IntegratorPlant(len(x))
        assert bits(plant.derivative, x, u, w) == \
            bits(lambda: [a + b for a, b in zip(u, w)])
        assert plant.symmetric_input_floor(x) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integrator_dimensions(self, n):
        from rastube.scenario import TubeParams
        task = cube_task(n)
        frames = FrameProvider(evolve_tube(task, [], TubeParams.defaults(task.deadline)),
                               n, list(range(n)), [])
        dist = DisturbanceModel(kind="sinusoidal", bound=0.05, frequency=0.2)
        trace = assert_matches_reference(
            lambda: simulate(task, frames, ControllerConfig(gain=2.0), IntegratorPlant(n),
                             dist, SimOptions(step=0.01, stay_horizon=2.0)))
        assert trace.completed and trace.flags.all_ok
        assert trace.min_input_floor == 1.0

    def test_methods_inlined_not_called(self, monkeypatch):
        # a wrapper that keeps the method's attributes keeps its source
        # lines, so the loop inlines them and never calls it
        calls = []
        for name in ("derivative", "symmetric_input_floor"):
            monkeypatch.setattr(IntegratorPlant, name,
                                counted(calls, getattr(IntegratorPlant, name)))
        task, frames, options, dist = integrator_setup()
        trace = simulate(task, frames, ControllerConfig(gain=2.0), IntegratorPlant(2), dist,
                         options)
        assert trace.completed and trace.ts.shape[0] > 1
        assert calls == []

    def test_override_gets_its_own_dynamics(self, case_scenario, case_plans, case_tube,
                                            case_trace):
        # the override inherits the written floor but not the written
        # derivative: the loop calls it four times per step, and the floor
        # never
        from rastube.cli import _run_simulation
        calls = []
        floor_calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(HalfSpeedOmni, "derivative",
                       counted(calls, HalfSpeedOmni.derivative))
            mp.setattr(OmniRobot, "symmetric_input_floor",
                       counted(floor_calls, OmniRobot.symmetric_input_floor))
            mp.setattr(case_scenario, "dynamics", HalfSpeedOmni)
            trace = _run_simulation(case_scenario, case_tube, case_plans, seed=3)
        assert len(calls) == 4 * (trace.ts.shape[0] - 1)
        assert floor_calls == []
        assert trace.states.tobytes() != case_trace.states.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(case_scenario, "dynamics", HalfSpeedOmni)
            assert_matches_reference(
                lambda: _run_simulation(case_scenario, case_tube, case_plans, seed=3))


def assert_same_without_avx512(tmp_path, command, names):
    """Run CLI ``command`` on the bundled scenario in this process and in a
    child with numpy's AVX-512 kernels switched off; both must write
    exactly the files ``names``, with the same bytes."""
    features = np_umath.__cpu_features__
    off = [f for f in np_umath.__cpu_dispatch__ if f == "X86_V4" or f.startswith("AVX512")]
    if not (features.get("AVX512F") and off):
        pytest.skip("numpy runs no AVX-512 kernels on this CPU")
    from rastube import bundled_scenario_path
    from rastube.cli import run_cli
    assert run_cli([command, "--scenario", str(bundled_scenario_path()),
                    "--out", str(tmp_path / "default")]) == 0
    child = textwrap.dedent(f"""
        import importlib, sys
        from rastube import bundled_scenario_path
        from rastube.cli import run_cli
        features = importlib.import_module({np_umath.__name__!r}).__cpu_features__
        assert not any(features[f] for f in {off!r})
        sys.exit(run_cli([{command!r}, "--scenario", str(bundled_scenario_path()),
                          "--out", {str(tmp_path / "child")!r}]))
        """)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(f.name for f in (tmp_path / "child").iterdir()) == names
    for name in names:
        assert (tmp_path / "child" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes(), name


class TestSimulate:
    def test_integrator_reaches_and_stays(self):
        task, frames, options, dist = integrator_setup(stay=5.0)
        trace = simulate(task, frames, ControllerConfig(gain=2.0),
                         IntegratorPlant(2), dist, options)
        assert trace.flags.all_ok
        assert trace.reach_time is not None and trace.reach_time <= task.deadline

    def test_equilibrium_at_center_of_static_corridor(self):
        # start equal to target: the corridor never moves and the state
        # stays pinned at its center with zero input
        task = make_task(initial=[[0, 0.5], [0, 0.5]], target=[[0, 0.5], [0, 0.5]],
                         unsafe=[], deadline=10.0, start=[0.25, 0.25],
                         target_point=[0.25, 0.25], start_margin=[0.2, 0.2],
                         target_margin=[0.2, 0.2], obstacle_margin=[1.0],
                         workspace=[[-1, 6], [-1, 6]])
        from rastube.scenario import TubeParams
        params = TubeParams.defaults(task.deadline)
        tube = evolve_tube(task, [], params)
        frames = FrameProvider(tube, 2, [0, 1], [])
        trace = simulate(task, frames, ControllerConfig(gain=2.0),
                         IntegratorPlant(2), DisturbanceModel(),
                         SimOptions(step=0.004, stay_horizon=0.0))
        assert trace.flags.all_ok
        assert np.abs(trace.inputs).max() < 1e-9
        np.testing.assert_allclose(trace.states, 0.25, atol=1e-9)

    def test_start_outside_corridor_rejected(self):
        task, frames, options, dist = integrator_setup()
        bad_task = make_task(initial=[[0, 0.5], [0, 0.5]], target=[[4.0, 4.5], [4.0, 4.5]],
                             unsafe=[], deadline=20.0, start=[0.45, 0.25],
                             target_point=[4.25, 4.25], start_margin=[0.04, 0.2],
                             target_margin=[0.2, 0.2], obstacle_margin=[1.0],
                             workspace=[[-1, 6], [-1, 6]])
        # frames built for the original task corridor: the shifted start
        # state is outside it
        with pytest.raises(ConfigurationError):
            simulate(bad_task, frames, ControllerConfig(), IntegratorPlant(2),
                     dist, options)

    @pytest.mark.parametrize("heading", [math.nan, math.inf, 2.0])
    def test_extra_state_outside_corridor_rejected(self, case_scenario, case_plans,
                                                   case_tube, heading):
        # a NaN heading is not strictly inside its bounds either
        scn = case_scenario
        task_dims, extra_bounds, _ = scn.frame_layout()
        frames = FrameProvider(case_tube, 3, task_dims, extra_bounds)
        options = SimOptions(step=scn.run.sim_step, extra_state=[heading],
                             extra_bounds=extra_bounds)
        with pytest.raises(ConfigurationError) as err:
            simulate(scn.task, frames, scn.controller, OmniRobot(), scn.plant.disturbance,
                     options, case_plans)
        assert [path for path, _ in err.value.issues] == ["task.start_state"]

    def test_rk4_order_on_closed_loop(self):
        # closed-form corridor frames keep the loop smooth, so halving the
        # step must show fourth-order convergence; compared mid-flight,
        # before the contraction to the corridor center erases the signal
        task, _, _, _ = integrator_setup()
        frames = FrameProvider(MarginFrames(task.lower_margin(),
                                            2.0 * task.band_halfwidth), 2, [0, 1], [])
        mids = []
        for step in (0.02, 0.01, 0.005):
            trace = simulate(task, frames, ControllerConfig(gain=1.0),
                             IntegratorPlant(2), DisturbanceModel(),
                             SimOptions(step=step, stay_horizon=0.0))
            mids.append(trace.states[int(round(3.0 / step))])
        err1 = np.linalg.norm(mids[0] - mids[1])
        err2 = np.linalg.norm(mids[1] - mids[2])
        order = math.log2(err1 / err2)
        assert order >= 3.5

    def test_disturbance_recorded_within_bound(self):
        model = DisturbanceModel(kind="uniform", bound=0.05, seed=9)
        task, frames, options, _ = integrator_setup(disturbance=model)
        trace = simulate(task, frames, ControllerConfig(gain=2.0),
                         IntegratorPlant(2), model, options)
        assert np.abs(trace.disturbances).max() <= 0.05

    def test_symmetric_input_floor_monitored(self, case_scenario, case_plans, case_tube):
        from rastube.cli import _run_simulation
        trace = _run_simulation(case_scenario, case_tube, case_plans, seed=1)
        assert trace.flags.all_ok
        assert trace.min_input_floor > 0.0

    def test_linear_plant_python_path(self):
        # a plant the package does not ship steps through the same loop
        task, frames, options, dist = integrator_setup(step=0.004)
        plant = LinearPlant(np.zeros((2, 2)), np.eye(2))
        trace = simulate(task, frames, ControllerConfig(gain=2.0), plant,
                         dist, options)
        assert trace.flags.all_ok
        assert trace.min_input_floor == pytest.approx(1.0)

    def test_case_study_defaults(self, case_scenario, case_plans, case_tube):
        from rastube.cli import _run_simulation
        trace = _run_simulation(case_scenario, case_tube, case_plans)
        assert trace.flags.reached and trace.flags.safe
        assert trace.flags.contained and trace.flags.stayed

    def test_first_steps_match_written_out_loop(self):
        # RK4 with the disturbance held over each step and the barrier law
        # re-evaluated at every stage, written out here from the formulas
        bound, seed = 0.03, 21
        dist = DisturbanceModel(kind="uniform", bound=bound, seed=seed)
        task, frames, options, _ = integrator_setup(disturbance=dist)
        cfg = ControllerConfig(gain=2.0)
        trace = simulate(task, frames, cfg, IntegratorPlant(2), dist, options)

        tube = frames.source
        t_end = task.deadline + options.stay_horizon
        n_steps = int(round(t_end / options.step))
        ws = np.random.default_rng(seed).uniform(-bound, bound, (n_steps + 1, 2))

        def law(x, t):
            lo, hi = map(np.array, tube.bounds(t))
            e = (2.0 * x - (hi + lo)) / (hi - lo)
            assert np.all(np.abs(e) < 1.0)
            return -cfg.gain * 4.0 / ((hi - lo) * (1.0 - e * e)) * np.log((1.0 + e) / (1.0 - e))

        x = np.array(task.start, dtype=float)
        for step in range(50):
            t = t_end * step / n_steps
            u = law(x, t)
            np.testing.assert_allclose(trace.states[step], x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.inputs[step], u, rtol=1e-9, atol=1e-12)
            h = t_end * (step + 1) / n_steps - t
            w = ws[step]
            k1 = u + w
            k2 = law(x + 0.5 * h * k1, t + 0.5 * h) + w
            k3 = law(x + 0.5 * h * k2, t + 0.5 * h) + w
            k4 = law(x + h * k3, t + h) + w
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def test_case_study_matches_array_loop_bit_for_bit(self, case_scenario, case_tube,
                                                        case_trace):
        # the stepper runs the law on float lists and hands each step's end
        # frame on to the next row; written out here on numpy arrays (the
        # omni robot's heading is the unconstrained third state), every
        # recorded value of the whole run must have the same bits
        scn = case_scenario
        trace = case_trace
        h0, hw = scn.plant.heading_init, scn.plant.heading_halfwidth
        cfg = scn.controller
        t_end = scn.task.deadline + scn.run.stay_horizon
        n_steps = int(round(t_end / scn.run.sim_step))
        ws = np.random.default_rng(3).uniform(-scn.plant.disturbance.bound,
                                              scn.plant.disturbance.bound, (n_steps + 1, 3))

        def bounds(t):
            lo, hi = case_tube.bounds(t)
            return np.append(lo, h0 - hw), np.append(hi, h0 + hw)

        def law(x, t):
            lo, hi = bounds(t)
            e = (2.0 * x - (hi + lo)) / (hi - lo)
            # per element through math.log1p, as the law takes it
            eps = np.array([math.log1p(v) - math.log1p(-v) for v in e.tolist()])
            return -cfg.gain_sign * cfg.gain * (4.0 / ((hi - lo) * (1.0 - e * e))) * eps

        def plant(x, u, w):
            c, s = math.cos(x[2]), math.sin(x[2])
            return np.array([u[0] * c - u[1] * s + w[0], u[0] * s + u[1] * c + w[1],
                             u[2] + w[2]])

        x = np.append(scn.task.start, h0)
        rows = {"states": [], "inputs": [], "lower": [], "upper": []}
        for step in range(n_steps + 1):
            t = t_end * step / n_steps
            u = law(x, t)
            for key, row in zip(rows, (x, u) + bounds(t)):
                rows[key].append(row)
            if step == n_steps:
                break
            h = t_end * (step + 1) / n_steps - t
            w = ws[step]
            k1 = plant(x, u, w)
            k2 = plant(x + 0.5 * h * k1, law(x + 0.5 * h * k1, t + 0.5 * h), w)
            k3 = plant(x + 0.5 * h * k2, law(x + 0.5 * h * k2, t + 0.5 * h), w)
            k4 = plant(x + h * k3, law(x + h * k3, t + h), w)
            x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert trace.completed
        for key, expected in rows.items():
            np.testing.assert_array_equal(getattr(trace, key), np.array(expected))

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_keeps_bits(self, monkeypatch, case_scenario, case_plans,
                                   case_tube, case_trace, block):
        from rastube.cli import _run_simulation
        monkeypatch.setattr(plant_mod, "_BLOCK", block)
        trace = _run_simulation(case_scenario, case_tube, case_plans, seed=3)
        for key in ("states", "inputs", "lower", "upper"):
            assert getattr(trace, key).tobytes() == getattr(case_trace, key).tobytes()

    def test_trace_csv_independent_of_avx512(self, tmp_path):
        # numpy picks its elementwise kernels by the CPU's SIMD level at run
        # time; every file of a bundled simulate must have the same bytes
        # with numpy's AVX-512 kernels switched off
        names = ["plans.json", "run.json", "smoothness.json", "trace.csv", "tube.csv",
                 "verify.json"]
        assert_same_without_avx512(tmp_path, "simulate", names)

    def test_comparison_json_independent_of_avx512(self, tmp_path):
        # the two closed loops of a bundled compare, and the report built
        # from them, must not depend on numpy's SIMD kernels either
        assert_same_without_avx512(tmp_path, "compare", ["comparison.json"])

    def test_frames_built_once_per_stage_time(self, monkeypatch):
        self.check_frames_built(monkeypatch, leaves=False)

    def test_failed_block_frames_built_once(self, monkeypatch):
        self.check_frames_built(monkeypatch, leaves=True)

    @staticmethod
    def check_frames_built(monkeypatch, leaves):
        # the corridor is read once per distinct stage time: t = 0 for the
        # start frame, then each step's midpoint and end in blocks, one
        # FrameProvider.block call each, the end bounds serving the next
        # row as well; control_input only runs to report a stage outside
        # the corridor.  The derivative runs four times per step taken; a
        # run that leaves the corridor at the end stage of step r calls it
        # three times more, at the stages before that one
        received = []
        calls = {"frame": 0, "block": 0, "control": 0, "dynamics": 0}

        class CountingTube(Tube):
            def bounds_at(self, times):
                received.extend(np.asarray(times).tolist())
                return super().bounds_at(times)

        class CountingFrames(FrameProvider):
            def frame(self, t):
                calls["frame"] += 1
                return super().frame(t)

            def block(self, times):
                calls["block"] += 1
                return super().block(times)

        class CountingPlant(IntegratorPlant):
            def derivative(self, x, u, w):
                calls["dynamics"] += 1
                return super().derivative(x, u, w)

        def counting_control(*args, **kwargs):
            calls["control"] += 1
            return control_input(*args, **kwargs)

        monkeypatch.setattr(plant_mod, "control_input", counting_control)
        monkeypatch.setattr(plant_mod, "_BLOCK", 7)
        if leaves:
            task, frames = leaving_setup()
            options, dist = SimOptions(step=0.008), DisturbanceModel()
        else:
            task, frames, options, dist = integrator_setup()
        tube = frames.source
        frames = CountingFrames(CountingTube(ts=tube.ts, lower=tube.lower, width=tube.width),
                                2, [0, 1], [])
        trace = simulate(task, frames, ControllerConfig(gain=2.0), CountingPlant(2),
                         dist, options)
        # ts: the grid up to the last row whose bounds were built
        ts = trace.ts
        if leaves:
            assert failed_stage(trace) == "end"
            r = ts.shape[0] - 1         # the failed step, in the block from row `first`
            first = r // 7 * 7
            n_steps = round(task.deadline / options.step)
            ts = (task.deadline * np.arange(n_steps + 1) / n_steps)[:first + 8]
            assert calls == {"frame": 1, "block": r // 7 + 1, "control": 1,
                             "dynamics": 4 * r + 3}
        else:
            assert trace.completed
            assert calls == {"frame": 1, "block": math.ceil((ts.shape[0] - 1) / 7),
                             "control": 0, "dynamics": 4 * (ts.shape[0] - 1)}
        n = ts.shape[0] - 1
        mids = ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
        assert len(received) == 2 * n + 1
        assert sorted(received) == sorted(ts.tolist() + mids.tolist())

    @pytest.mark.parametrize("step", [0.01, 0.008])
    def test_failure_record_names_stage_and_bounds(self, monkeypatch, step):
        task, frames = leaving_setup()

        def run():
            return simulate(task, frames, ControllerConfig(gain=2.0), IntegratorPlant(2),
                            DisturbanceModel(), SimOptions(step=step))

        trace = run()
        assert not trace.completed
        rec = trace.failure
        assert set(rec) == {"time", "dim", "value", "lower", "upper"}
        # the record holds the stage time inside the failed step, which
        # failure_time names by its start
        assert trace.failure_time <= rec["time"] <= trace.failure_time + step * (1 + 1e-9)
        assert f"state component {rec['dim']} = " in trace.failure_reason
        assert not rec["lower"] < rec["value"] < rec["upper"]
        lo, hi = frames.source.bounds(rec["time"])
        assert (rec["lower"], rec["upper"]) == (lo[rec["dim"]], hi[rec["dim"]])
        # the same failure when the failed step is the first, then the
        # last, of a block of stage bounds
        k = int(round(trace.failure_time / step))
        assert k >= 1
        for block in (k, k + 1):
            monkeypatch.setattr(plant_mod, "_BLOCK", block)
            again = run()
            assert (again.failure_time, again.failure_reason, again.failure) == \
                (trace.failure_time, trace.failure_reason, trace.failure)
            assert again.states.tobytes() == trace.states.tobytes()

    @staticmethod
    def leaving_run(collapse=math.inf):
        """The 0.01 s leaving run, its corridor closed from ``collapse`` on."""
        return leaving(tube_type=CollapsingTube, collapse=collapse)()

    def test_width_collapse_after_leaving_keeps_failure(self, runner_calls):
        # the state leaves at t = 0.03; the corridor closes at t = 0.1,
        # within the same block of stage bounds, which is stepped once
        plain = self.leaving_run()
        del runner_calls[:]
        collapsed = assert_matches_reference(
            lambda: self.leaving_run(collapse=0.1))
        assert block_runs(runner_calls, collapsed.states) == [0]
        assert plain.failure is not None
        assert collapsed.failure == plain.failure
        assert collapsed.states.tobytes() == plain.states.tobytes()

    def test_width_collapse_before_leaving_rejected(self):
        # the midpoint stage of the second step, t = 0.015, has width 0
        with pytest.raises(ConfigurationError) as err:
            self.leaving_run(collapse=0.015)
        assert [path for path, _ in err.value.issues] == ["frame"]

    def test_failure_record_none_when_completed(self):
        task, frames = leaving_setup()
        trace = simulate(task, frames, ControllerConfig(gain=2.0), IntegratorPlant(2),
                         DisturbanceModel(), SimOptions(step=0.005))
        assert trace.completed and trace.failure is None

    def test_non_finite_state_recorded_without_bounds(self):
        task, frames, options, dist = integrator_setup()
        trace = simulate(task, frames, ControllerConfig(gain=2.0), NanRatePlant(2),
                         dist, options)
        assert trace.failure_reason == "non-finite state"
        assert trace.failure == {"time": trace.failure_time, "dim": 1, "value": None,
                                 "lower": None, "upper": None}

    def test_wrong_length_derivative_rejected(self, runner_calls):
        # the stepper must not cut the 2n entries back to n; the runner
        # raises the unpacking's error, as the reference does
        run = leaving(plant=ArrayStylePlant(2))
        assert raised(run) == ("ValueError", "too many values to unpack (expected 2)")
        assert block_runs(list(runner_calls), leaving()().states) == [0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plant_mod, "_step_loop", reference_step_loop)
            assert raised(run)[0] == "ValueError"

    @pytest.mark.parametrize("step, stay, key", [
        (0.0, 0.0, "run.sim_step"), (-0.01, 0.0, "run.sim_step"),
        (math.inf, 0.0, "run.sim_step"), (0.01, -1.0, "run.stay_horizon")])
    def test_invalid_options_rejected(self, step, stay, key):
        with pytest.raises(ConfigurationError) as err:
            SimOptions(step=step, stay_horizon=stay)
        assert [path for path, _ in err.value.issues] == [key]
