import os

import pytest
from hypothesis import settings

import rastube
import rastube.plant
import rastube.tube
from rastube.avoidance import schedule
from rastube.cli import parse_scenario
from rastube.geometry import Box
from rastube.scenario import RasTask
from rastube.tube import evolve_tube

settings.register_profile("suite", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def case_scenario():
    return parse_scenario(rastube.bundled_scenario_path())


@pytest.fixture(scope="session")
def case_plans(case_scenario):
    return schedule(case_scenario.task, case_scenario.tube)


@pytest.fixture(scope="session")
def case_tube(case_scenario, case_plans):
    return evolve_tube(case_scenario.task, case_plans, case_scenario.tube)


@pytest.fixture(scope="session")
def case_trace(case_scenario, case_plans, case_tube):
    """The bundled closed loop with disturbance seed 3."""
    from rastube.cli import _run_simulation
    return _run_simulation(case_scenario, case_tube, case_plans, seed=3)


@pytest.fixture(scope="session")
def wide_margin_task(case_scenario):
    """Case-study geometry with quarter-width margins, so the corridor boxes
    coincide with the raw initial/target sets."""
    t = case_scenario.task
    return RasTask.create(
        initial_set=t.initial_set, target_set=t.target_set,
        unsafe_sets=t.unsafe_sets, deadline=t.deadline,
        start=t.start, target=t.target,
        start_margin=[0.25, 0.25], target_margin=[0.25, 0.25],
        obstacle_margin=t.obstacle_margin, workspace=t.workspace)


def make_task(initial, target, unsafe, deadline, start, target_point,
              start_margin, target_margin, obstacle_margin, workspace):
    return RasTask.create(
        initial_set=Box.from_pairs(initial), target_set=Box.from_pairs(target),
        unsafe_sets=[Box.from_pairs(u) for u in unsafe], deadline=deadline,
        start=start, target=target_point, start_margin=start_margin,
        target_margin=target_margin, obstacle_margin=obstacle_margin,
        workspace=Box.from_pairs(workspace))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_write_rows(path, header, n_rows, block):
    """Reference CSV writer: one ``%`` per row, in one process.  The
    program's ``tube._write_rows`` must write the same bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n_rows, 256):
            rows = block(a, a + 256).tolist()
            fmt = ",".join(["%.17g"] * len(rows[0])) + "\n"
            fh.write("".join(fmt % tuple(r) for r in rows))


def reference_csv(table, path):
    """The bytes of ``table.to_csv(path)`` (a Tube or a SimTrace) written
    by ``serial_write_rows``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rastube.tube, "_write_rows", serial_write_rows)
        mp.setattr(rastube.plant, "_write_rows", serial_write_rows)
        table.to_csv(path)
    return path.read_bytes()
