"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
the randomized portions are seeded and reproducible.
"""

import math
import time
import numpy as np
import pytest

import rastube
from rastube.cli import _run_simulation, run_cli
from rastube.controller import ControllerConfig, TubeFrame, control_input, \
    gain_diagonal, normalized_error, transformed_error
from rastube.errors import TubeViolationError
from rastube.metrics import baseline_tube, control_effort
from rastube.reach import ReachMargin
from rastube.sampling import random_case
from rastube.tube import evolve_tube, smoothness_check, verify_tube

from test_avoidance import grid_window_oracle, random_interval_pair
from test_reach import integrate_rate_equation, random_margin

N_RANDOM_TUBES = 200
N_INTERVAL_PAIRS = 200
N_SEEDS = 50


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(20240817)
    cases = []
    t0 = time.time()
    for i in range(N_RANDOM_TUBES):
        case = random_case(rng, n_dims=2 + (i % 2), n_obstacles=1 + (i % 3))
        tube = evolve_tube(case.task, case.plans, case.params)
        cases.append((case, tube))
    print(f"\n[random suite] {N_RANDOM_TUBES} scenarios synthesized "
          f"in {time.time() - t0:.1f}s")
    return cases


def test_criterion_1_tube_guarantees(case_scenario, case_tube, random_suite):
    t0 = time.time()
    suites = [("case study", case_scenario.task, case_tube)]
    suites += [(f"random {i}", case.task, tube)
               for i, (case, tube) in enumerate(random_suite)]
    worst_slack = math.inf
    worst_clear = math.inf
    for name, task, tube in suites:
        assert tube.ts.shape[0] >= 8000, f"{name}: grid below 8000 samples"
        verdict = verify_tube(tube, task)
        for cond in verdict.conditions:
            assert cond.passed, f"{name}: {cond.name} failed ({cond.margin:.3g})"
        worst_slack = min(worst_slack,
                          verdict.by_name("starts_inside").margin,
                          verdict.by_name("arrives_inside").margin)
        clear = verdict.by_name("avoids_unsafe").margin
        if math.isfinite(clear):
            worst_clear = min(worst_clear, clear)
        assert verdict.by_name("avoids_unsafe").margin > 0 or not task.unsafe_sets
    report("criterion 1 (corridor guarantees)", True,
           f"{len(suites)} scenarios, worst boundary slack {worst_slack:.3g}, "
           f"worst clearance {worst_clear:.3g}, {time.time() - t0:.1f}s")


def test_criterion_2_reach_margin_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        start, end, t_c = random_margin(rng)
        m = ReachMargin(start, end, t_c)
        horizon = 0.999 * t_c
        ts, oracle = integrate_rate_equation(start[0], end[0], t_c,
                                             n_steps=20000, horizon=horizon)
        probe = np.linspace(0.0, horizon, 997)
        closed = np.array([m.value(0, t) for t in probe])
        ref = np.interp(probe, ts, oracle)
        err = np.abs(closed - ref).max() / abs(end[0] - start[0])
        worst = max(worst, err)
    report("criterion 2 (closed form vs rate-equation oracle)", worst <= 1e-6,
           f"max relative error {worst:.2e} over 50 margins")


def test_criterion_3_crossing_window_oracle():
    rng = np.random.default_rng(99)
    from rastube.avoidance import intersection_interval
    worst = 0.0
    empties = 0
    for _ in range(N_INTERVAL_PAIRS):
        task, j = random_interval_pair(rng)
        step = task.deadline / 100000
        got = intersection_interval(task, j)
        oracle = grid_window_oracle(task, j)
        assert (got is None) == (oracle is None), "empty classification mismatch"
        if got is None:
            empties += 1
            continue
        worst = max(worst, abs(got[0] - oracle[0]) / step,
                    abs(got[1] - oracle[1]) / step)
    report("criterion 3 (crossing windows vs dense-grid oracle)", worst <= 1.0 + 1e-9,
           f"{N_INTERVAL_PAIRS} pairs ({empties} empty), worst error "
           f"{worst:.3f} grid steps")


def _detour_metrics(task, params, plans, tube):
    margin = task.lower_margin()
    rows = []
    for p in plans:
        k = p.dim
        reach = abs(p.level - margin.value(k, p.prep_time))
        tol = 1e-3 * (reach + 1.0)
        lo_e, _ = tube.bounds(p.enter_time)
        enter_err = abs(lo_e[k] - p.level)
        sel = (tube.ts >= p.enter_time) & (tube.ts <= p.exit_time)
        hold_err = np.abs(tube.lower[sel, k] - p.level).max()
        t_ret = p.release_time + params.edge_buffer
        lo_r, _ = tube.bounds(t_ret)
        return_err = abs(lo_r[k] - margin.value(k, min(t_ret, task.deadline)))
        rows.append((enter_err, hold_err, return_err, tol))
    return rows


def test_criterion_4_detour_exactness(case_scenario, case_plans, case_tube, random_suite):
    checked = 0
    worst_ratio = 0.0
    jobs = [(case_scenario.task, case_scenario.tube, case_plans, case_tube)]
    jobs += [(case.task, case.params, case.plans, tube) for case, tube in random_suite]
    for task, params, plans, tube in jobs:
        for enter_err, hold_err, return_err, tol in _detour_metrics(task, params, plans, tube):
            checked += 1
            worst_ratio = max(worst_ratio, enter_err / tol, hold_err / tol,
                              return_err / tol)
    report("criterion 4 (detour exactness)", worst_ratio <= 1.0,
           f"{checked} detours, worst error at {worst_ratio:.2f} of tolerance")


def test_criterion_5_closed_loop(case_scenario, case_plans, case_tube):
    t0 = time.time()
    bad = []
    for seed in range(N_SEEDS):
        trace = _run_simulation(case_scenario, case_tube, case_plans, seed=seed)
        ok = (trace.flags.contained and trace.flags.safe and trace.flags.stayed
              and trace.flags.reached
              and trace.reach_time is not None
              and trace.reach_time <= case_scenario.task.deadline
              and np.abs(trace.disturbances).max() <= 0.05 + 1e-12
              and trace.min_input_floor > 0.0)
        if not ok:
            bad.append(seed)
    report("criterion 5 (closed-loop reach-avoid-stay, 50 seeds)", not bad,
           f"failures: {bad or 'none'}, {time.time() - t0:.1f}s")


def test_criterion_6_controller_units():
    f = TubeFrame(lower=np.array([0.0]), upper=np.array([2.0]))
    center = control_input(np.array([1.0]), f, ControllerConfig(gain=2.0))
    ok = bool(center[0] == 0.0)

    eps = transformed_error(np.array([0.5]))[0]
    ok &= abs(eps - math.log(3.0)) <= 1e-12

    xi = gain_diagonal(np.array([0.5]), f)[0]
    ok &= abs(xi - 8.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(13)
    for _ in range(200):
        e = rng.uniform(-0.95, 0.95, 3)
        w = rng.uniform(0.1, 4.0, 3)
        frame = TubeFrame(lower=-0.5 * w, upper=0.5 * w)
        x = 0.5 * e * w
        u1 = control_input(x, frame, ControllerConfig(gain=1.7))
        u2 = control_input(x, frame, ControllerConfig(gain=3.4))
        ok &= bool(np.all(u1 * normalized_error(x, frame) <= 0.0))
        ok &= bool(np.all(u2 == 2.0 * u1))

    try:
        control_input(np.array([2.5]), f, ControllerConfig())
        raised = False
    except TubeViolationError:
        raised = True
    ok &= raised
    report("criterion 6 (controller unit suite)", ok)


def test_criterion_7_effort_comparison(case_scenario, case_plans, case_tube):
    abrupt = baseline_tube(case_scenario.task, case_plans, case_scenario.tube)
    seed = case_scenario.plant.disturbance.seed
    step = 5e-4  # matched between the two corridors
    smooth_trace = _run_simulation(case_scenario, case_tube, case_plans,
                                   seed=seed, sim_step=step, stay=0.0)
    abrupt_trace = _run_simulation(case_scenario, abrupt, case_plans,
                                   seed=seed, sim_step=step, stay=0.0)
    assert smooth_trace.flags.contained and abrupt_trace.flags.contained
    es = control_effort(smooth_trace)
    eb = control_effort(abrupt_trace)
    ok = es.energy < eb.energy and es.peak < eb.peak
    report("criterion 7 (effort reduction vs reconstructed baseline)", ok,
           f"energy ratio {es.energy / eb.energy:.3f}, "
           f"peak ratio {es.peak / eb.peak:.3f}")


def test_criterion_8_smoothness(case_scenario, case_plans, case_tube):
    smooth = smoothness_check(case_tube)
    abrupt = smoothness_check(baseline_tube(case_scenario.task, case_plans,
                                            case_scenario.tube))
    per_window = []
    for p in case_plans:
        hits = [t for t, _ in abrupt.flagged
                if p.prep_time - 0.3 <= t <= p.release_time + 0.3]
        per_window.append(len(hits))
    ok = smooth.passed and all(count >= 1 for count in per_window)
    report("criterion 8 (smooth corridor clean, baseline flagged)", ok,
           f"smooth flags {len(smooth.flagged)}, baseline per window {per_window}")


def test_criterion_9_determinism(tmp_path):
    scenario = rastube.bundled_scenario_path()
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = run_cli(["simulate", "--scenario", scenario, "--out", str(out),
                        "--seed", "7"])
        assert code == 0
        blob = {}
        for fname in ("trace.csv", "tube.csv", "run.json", "verify.json",
                      "plans.json", "smoothness.json"):
            blob[fname] = (out / fname).read_bytes()
        digests.append(blob)
    same = {k: digests[0][k] == digests[1][k] for k in digests[0]}
    report("criterion 9 (byte-identical reruns)", all(same.values()),
           f"{sum(same.values())}/{len(same)} artifacts identical")
