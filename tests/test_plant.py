import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as np_umath
except ImportError:     # numpy < 2
    from numpy.core import _multiarray_umath as np_umath

import rastube.plant as plant_mod
from rastube.controller import ControllerConfig, control_input
from rastube.errors import ConfigurationError
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
        features = np_umath.__cpu_features__
        off = [f for f in np_umath.__cpu_dispatch__ if f == "X86_V4" or f.startswith("AVX512")]
        if not (features.get("AVX512F") and off):
            pytest.skip("numpy runs no AVX-512 kernels on this CPU")
        from rastube import bundled_scenario_path
        from rastube.cli import run_cli
        assert run_cli(["simulate", "--scenario", str(bundled_scenario_path()),
                        "--out", str(tmp_path / "default")]) == 0
        child = textwrap.dedent(f"""
            import importlib, sys
            from rastube import bundled_scenario_path
            from rastube.cli import run_cli
            features = importlib.import_module({np_umath.__name__!r}).__cpu_features__
            assert not any(features[f] for f in {off!r})
            sys.exit(run_cli(["simulate", "--scenario", str(bundled_scenario_path()),
                              "--out", {str(tmp_path / "child")!r}]))
            """)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        names = ["plans.json", "run.json", "smoothness.json", "trace.csv", "tube.csv",
                 "verify.json"]
        assert sorted(f.name for f in (tmp_path / "child").iterdir()) == names
        for name in names:
            assert (tmp_path / "child" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes(), name

    def test_frames_built_once_per_stage_time(self, monkeypatch):
        # the corridor is read once per distinct stage time: t = 0 for the
        # start frame, then each step's midpoint and end in blocks, the end
        # bounds serving the next row as well; control_input only runs to
        # report a stage outside the corridor
        received = []
        calls = {"frame": 0, "control": 0, "dynamics": 0}

        class CountingTube(Tube):
            def bounds_at(self, times):
                received.extend(np.asarray(times).tolist())
                return super().bounds_at(times)

        class CountingFrames(FrameProvider):
            def frame(self, t):
                calls["frame"] += 1
                return super().frame(t)

        class CountingPlant(IntegratorPlant):
            def derivative(self, x, u, w):
                calls["dynamics"] += 1
                return super().derivative(x, u, w)

        def counting_control(*args, **kwargs):
            calls["control"] += 1
            return control_input(*args, **kwargs)

        monkeypatch.setattr(plant_mod, "control_input", counting_control)
        monkeypatch.setattr(plant_mod, "_BLOCK", 7)
        task, frames, options, dist = integrator_setup()
        tube = frames.source
        frames = CountingFrames(CountingTube(ts=tube.ts, lower=tube.lower, width=tube.width),
                                2, [0, 1], [])
        trace = simulate(task, frames, ControllerConfig(gain=2.0), CountingPlant(2),
                         dist, options)
        assert trace.completed
        ts = trace.ts
        n = ts.shape[0] - 1
        mids = ts[:-1] + 0.5 * (ts[1:] - ts[:-1])
        assert len(received) == 2 * n + 1
        assert sorted(received) == sorted(ts.tolist() + mids.tolist())
        assert calls == {"frame": 1, "control": 0, "dynamics": 4 * n}

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
        task, frames = leaving_setup()
        tube = CollapsingTube(ts=frames.source.ts, lower=frames.source.lower,
                              width=frames.source.width)
        tube.collapse = collapse
        return simulate(task, FrameProvider(tube, 2, [0, 1], []), ControllerConfig(gain=2.0),
                        IntegratorPlant(2), DisturbanceModel(), SimOptions(step=0.01))

    def test_width_collapse_after_leaving_keeps_failure(self):
        # the state leaves at t = 0.03; the corridor closes at t = 0.1,
        # within the same block of stage bounds
        plain = self.leaving_run()
        collapsed = self.leaving_run(collapse=0.1)
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
        class NanPlant(IntegratorPlant):
            def derivative(self, x, u, w):
                return [u[0] + w[0], math.nan]

        task, frames, options, dist = integrator_setup()
        trace = simulate(task, frames, ControllerConfig(gain=2.0), NanPlant(2),
                         dist, options)
        assert trace.failure_reason == "non-finite state"
        assert trace.failure == {"time": trace.failure_time, "dim": 1, "value": None,
                                 "lower": None, "upper": None}

    def test_wrong_length_derivative_rejected(self):
        # a plant written for arrays joins the input and disturbance lists
        # into 2n entries; the stepper must not cut that back to n
        class ArrayStylePlant(IntegratorPlant):
            def derivative(self, x, u, w):
                return u + w

        task, frames, options, dist = integrator_setup()
        with pytest.raises(ValueError):
            simulate(task, frames, ControllerConfig(gain=2.0), ArrayStylePlant(2),
                     dist, options)

    @pytest.mark.parametrize("step, stay, key", [
        (0.0, 0.0, "run.sim_step"), (-0.01, 0.0, "run.sim_step"),
        (math.inf, 0.0, "run.sim_step"), (0.01, -1.0, "run.stay_horizon")])
    def test_invalid_options_rejected(self, step, stay, key):
        with pytest.raises(ConfigurationError) as err:
            SimOptions(step=step, stay_horizon=stay)
        assert [path for path, _ in err.value.issues] == [key]
