"""Each benchmark check must reject a deliberately corrupted artifact.

Run with ``python3 -m pytest perfbench/tests``.  The artifacts come from a
small omni-robot scenario (one obstacle, 10001 corridor rows, 5001
closed-loop steps), produced once per module by the CLI and by
``rastube.simulate``.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from source import import_rastube  # noqa: E402

rastube = import_rastube()

SCENARIO = {
    "task": {
        "initial_set": [[0.0, 0.5], [0.0, 0.5]],
        "target_set": [[5.0, 5.5], [4.0, 4.5]],
        "unsafe_sets": [[[2.2, 2.8], [1.0, 2.6]]],
        "time_limit": 20.0,
        "start_state": [0.25, 0.25],
        "target_point": [5.25, 4.25],
        "start_margin": [0.2, 0.2],
        "target_margin": [0.2, 0.2],
        "obstacle_margin": [0.1],
        "constrained_dims": [1, 2],
        "workspace": [[-1.0, 7.0], [-1.0, 6.0]],
    },
    "tube": {"window_margin": 1.0, "time_floor": 0.001, "step": 0.002},
    "controller": {"gain": 2.0, "gain_sign": 1},
    "plant": {"model": "omni_robot",
              "disturbance": {"kind": "uniform", "bound": 0.05, "seed": 3}},
    "run": {"stay_horizon": 5.0, "sim_step": 0.005},
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_checks")
    scenario = root / "small.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = root / "sim"
    assert rastube.cli.run_cli(["simulate", "--scenario", str(scenario),
                                "--out", str(out)]) == 0
    return scenario, out


@pytest.fixture(scope="module")
def sweep(artifacts):
    """An in-memory closed loop, with its disturbance, as seed_sweep makes it."""
    scenario, _ = artifacts
    scn = rastube.cli.parse_scenario(scenario)
    plans = rastube.schedule(scn.task, scn.tube)
    tube = rastube.evolve_tube(scn.task, plans, scn.tube)
    dims, extra_bounds, extra_init = scn.frame_layout()
    dyn = scn.dynamics()
    trace = rastube.simulate(
        scn.task, rastube.FrameProvider(tube, dyn.n_states, dims, extra_bounds),
        scn.controller, dyn, scn.plant.disturbance,
        rastube.SimOptions(step=scn.run.sim_step, stay_horizon=scn.run.stay_horizon,
                           extra_state=extra_init, extra_bounds=extra_bounds), plans)
    tr = checks.Trace(ts=trace.ts, x=trace.states.copy(), lower=trace.lower,
                      upper=trace.upper, u=trace.inputs, w=trace.disturbances.copy())
    return checks.load_geometry(scenario), tube, tr


@pytest.fixture
def corrupt(artifacts, tmp_path):
    """A copy of the simulate output directory the test may damage."""
    scenario, out = artifacts
    copy = tmp_path / "sim"
    shutil.copytree(out, copy)
    return scenario, copy


def _rejected_by(name, fn, *args):
    with pytest.raises(CheckFailed) as info:
        fn(*args)
    assert info.value.check == name, str(info.value)


def _write_csv(path, data):
    header = Path(path).read_text().splitlines()[0]
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header=header, comments="")


def _loaded(scenario, out):
    geo = checks.load_geometry(scenario)
    ts, lower, upper = checks.load_tube(out / "tube.csv")
    return geo, checks.load_plans(out / "plans.json"), ts, lower, upper


def test_clean_artifacts_pass(artifacts, sweep):
    checks.check_simulation_dir(*artifacts)
    geo, tube, tr = sweep
    checks.check_disturbance(geo, tr)
    checks.check_rk4(geo, tr, tube.ts, tube.lower, range(0, tr.ts.shape[0] - 1, 97))


# -- the four corruptions of files on disk -----------------------------------

def test_corridor_row_moved_into_obstacle(corrupt):
    scenario, out = corrupt
    geo = checks.load_geometry(scenario)
    data = np.loadtxt(out / "tube.csv", delimiter=",", skiprows=1)
    r = data.shape[0] // 2
    lo = geo.unsafe[0].mean(axis=1) - 0.5 * geo.width
    data[r, 1::2] = lo
    data[r, 2::2] = lo + geo.width
    _write_csv(out / "tube.csv", data)
    _rejected_by("tube_clear", checks.check_simulation_dir, scenario, out)


def test_input_scaled_by_one_percent(corrupt):
    scenario, out = corrupt
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    n = (data.shape[1] - 2) // 4
    u = data[:, 1 + 3 * n:1 + 4 * n]
    r, d = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    data[r, 1 + 3 * n + d] *= 1.01
    _write_csv(out / "trace.csv", data)
    _rejected_by("trace_inputs", checks.check_simulation_dir, scenario, out)


def test_state_outside_bounds(corrupt):
    scenario, out = corrupt
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    n = (data.shape[1] - 2) // 4
    r = data.shape[0] // 3
    data[r, 1] = data[r, 1 + n + 1] + 1e-3      # x1 just above g1U
    _write_csv(out / "trace.csv", data)
    _rejected_by("trace_inside", checks.check_simulation_dir, scenario, out)


def test_window_shifted_by_ten_grid_steps(corrupt):
    scenario, out = corrupt
    doc = json.loads((out / "plans.json").read_text())
    step = SCENARIO["task"]["time_limit"] / (checks.WINDOW_SAMPLES - 1)
    doc["plans"][0]["enter_time"] += 10 * step
    (out / "plans.json").write_text(json.dumps(doc))
    _rejected_by("windows", checks.check_simulation_dir, scenario, out)


# -- the remaining checks, on corrupted arrays -------------------------------

def test_tube_start_outside_initial_set(artifacts):
    geo, plans, ts, lower, upper = _loaded(*artifacts)
    lower, upper = lower.copy(), upper.copy()
    lower[0, 0] -= 0.5
    upper[0, 0] -= 0.5
    _rejected_by("tube_ends", checks.check_tube_ends, geo, ts, lower, upper)


def test_tube_off_reach_margin(artifacts):
    geo, plans, ts, lower, upper = _loaded(*artifacts)
    lower = lower.copy()
    r = int(np.searchsorted(ts, 0.5 * plans[0].prep))
    lower[r, plans[0].dim] += 1e-2
    _rejected_by("tube_margin", checks.check_tube_margin, geo, plans, ts, lower)


def test_detour_level_not_held(artifacts):
    geo, plans, ts, lower, upper = _loaded(*artifacts)
    lower = lower.copy()
    p = plans[0]
    r = int(np.searchsorted(ts, 0.5 * (p.enter + p.exit)))
    lower[r, p.dim] += 0.05
    _rejected_by("detour_hold", checks.check_detour_hold, geo, plans, ts, lower)


def test_trace_bounds_off_interpolation(sweep):
    geo, tube, tr = sweep
    bad = checks.Trace(ts=tr.ts, x=tr.x, lower=tr.lower.copy(), upper=tr.upper, u=tr.u)
    bad.lower[tr.ts.shape[0] // 2, 1] += 1e-6
    _rejected_by("trace_bounds", checks.check_trace_bounds, geo, bad, tube.ts, tube.lower)


def test_target_left_after_deadline(sweep):
    geo, tube, tr = sweep
    bad = checks.Trace(ts=tr.ts, x=tr.x.copy(), lower=tr.lower, upper=tr.upper, u=tr.u)
    bad.x[-1, 0] = geo.target[0, 1] + 0.1
    _rejected_by("trace_reach_stay", checks.check_trace_reach_stay, geo, bad)


def test_state_inside_unsafe_set(sweep):
    geo, tube, tr = sweep
    bad = checks.Trace(ts=tr.ts, x=tr.x.copy(), lower=tr.lower, upper=tr.upper, u=tr.u)
    bad.x[tr.ts.shape[0] // 2, :geo.n] = geo.unsafe[0].mean(axis=1)
    _rejected_by("trace_safe", checks.check_trace_safe, geo, bad)


def test_energy_misreported(sweep):
    geo, tube, tr = sweep
    energy = checks.effort_energy(geo, tr)
    checks.check_energy(geo, tr, energy)
    _rejected_by("energy", checks.check_energy, geo, tr, energy * (1.0 + 1e-6))


def test_disturbance_beyond_bound(sweep):
    geo, tube, tr = sweep
    bad = checks.Trace(ts=tr.ts, x=tr.x, lower=tr.lower, upper=tr.upper, u=tr.u,
                       w=tr.w.copy())
    bad.w[5, 0] = 1.01 * geo.disturbance_bound
    _rejected_by("disturbance", checks.check_disturbance, geo, bad)


def test_step_not_on_rk4(sweep):
    geo, tube, tr = sweep
    bad = checks.Trace(ts=tr.ts, x=tr.x.copy(), lower=tr.lower, upper=tr.upper, u=tr.u,
                       w=tr.w)
    r = tr.ts.shape[0] // 2
    bad.x[r + 1, 1] += 1e-6
    _rejected_by("rk4", checks.check_rk4, geo, bad, tube.ts, tube.lower, [r - 1, r])
