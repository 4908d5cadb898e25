"""Random task generation for stress tests.

Draws reach-avoid-stay tasks whose obstacles genuinely cross the swept
corridor, with enough spatial and temporal slack that the separation
assumptions hold and every obstacle admits a safe detour.  Everything is
driven by a caller-supplied generator, so suites are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .avoidance import ObstaclePlan, intersection_interval, schedule
from .errors import InfeasibleScenarioError
from .geometry import Box
from .scenario import RasTask, TubeParams


@dataclass
class SampledCase:
    task: RasTask
    params: TubeParams
    plans: List[ObstaclePlan]


def _base_task(rng: np.random.Generator, n: int, obstacles, d_u, spans,
               start, target, margin) -> RasTask:
    pad_s = rng.uniform(0.05, 0.3, n)
    pad_t = rng.uniform(0.05, 0.3, n)
    initial = Box.from_pairs(zip(start - margin - pad_s, start + margin + pad_s))
    target_box = Box.from_pairs(zip(target - margin - pad_t, target + margin + pad_t))
    workspace = Box.from_pairs(
        [(-2.0 - 2 * margin[i], spans[i] + 2.0 + 2 * margin[i]) for i in range(n)])
    deadline = float(rng.uniform(25.0, 60.0))
    return RasTask.create(
        initial_set=initial, target_set=target_box, unsafe_sets=obstacles,
        deadline=deadline, start=start, target=target,
        start_margin=margin, target_margin=margin,
        obstacle_margin=d_u if len(obstacles) else [1.0],
        workspace=workspace)


def random_case(rng: np.random.Generator, n_dims: Optional[int] = None,
                n_obstacles: Optional[int] = None) -> SampledCase:
    """A task plus parameters whose schedule is feasible by construction.

    Obstacles are placed on the swept corridor at staggered fractions of
    the deadline and re-drawn until crossing windows are well separated,
    start comfortably after zero, end well before the deadline, and admit
    safe detours with moderate approach/return amplitudes.  Gives up after
    60 draws.
    """
    for _ in range(60):
        case = _try_case(rng, n_dims, n_obstacles)
        if case is not None:
            return case
    raise InfeasibleScenarioError("random task generation exhausted its retries")


def _try_case(rng, n_dims, n_obstacles) -> Optional[SampledCase]:
    n = int(n_dims) if n_dims else int(rng.integers(2, 4))
    wanted = int(n_obstacles) if n_obstacles else int(rng.integers(1, 4))
    spans = rng.uniform(9.0, 14.0, n)
    margin = rng.uniform(0.12, 0.28, n)
    start = rng.uniform(0.6, 1.4, n)
    target = spans - rng.uniform(0.6, 1.4, n)

    # provisional task with no obstacles fixes the margin trajectory
    skeleton = _base_task(rng, n, (), [], spans, start, target, margin)
    params = TubeParams.defaults(skeleton.deadline)
    lower = skeleton.lower_margin()
    width = 2.0 * skeleton.band_halfwidth

    fracs = np.sort(rng.uniform(0.15, 0.72, wanted))
    obstacles: List[Box] = []
    d_u: List[float] = []
    windows: List[Tuple[float, float]] = []
    for f in fracs:
        placed = _place_obstacle(rng, skeleton, params, lower, width, f,
                                 obstacles, windows, spans)
        if placed is None:
            continue
        box, pad, window = placed
        obstacles.append(box)
        d_u.append(pad)
        windows.append(window)
    if not obstacles:
        return None

    task = _base_task_like(skeleton, obstacles, d_u)
    try:
        plans = schedule(task, params)
    except InfeasibleScenarioError:
        return None
    if len(plans) != len(obstacles):
        return None
    if not _amplitudes_ok(task, plans):
        return None
    return SampledCase(task=task, params=params, plans=plans)


def _base_task_like(skeleton: RasTask, obstacles, d_u) -> RasTask:
    return RasTask.create(
        initial_set=skeleton.initial_set, target_set=skeleton.target_set,
        unsafe_sets=obstacles, deadline=skeleton.deadline,
        start=skeleton.start, target=skeleton.target,
        start_margin=skeleton.start_margin, target_margin=skeleton.target_margin,
        obstacle_margin=d_u, workspace=skeleton.workspace)


def _place_obstacle(rng, skeleton, params, lower, width, frac,
                    existing, windows, spans) -> Optional[Tuple[Box, float, Tuple[float, float]]]:
    t_c = skeleton.deadline
    wm = params.window_margin
    for _ in range(40):
        t_hit = frac * t_c
        center = lower.value_vec(t_hit) + 0.5 * width
        jitter = rng.uniform(-0.3, 0.3, skeleton.n)
        half = rng.uniform(0.3, 0.9, skeleton.n)
        box = Box.from_pairs(zip(center + jitter - half, center + jitter + half))
        pad = float(rng.uniform(0.08, 0.16))

        if not (skeleton.initial_set.disjoint_from(box)
                and skeleton.target_set.disjoint_from(box)):
            continue
        candidate = _base_task_like(skeleton, list(existing) + [box],
                                    [0.1] * len(existing) + [pad])
        window = intersection_interval(candidate, len(existing))
        if window is None:
            continue
        t_in, t_out = window
        if t_in < 2.0 * wm or t_out > t_c - 3.0 * wm:
            continue
        if (t_out - t_in) < 8.0 * params.edge_buffer or (t_out - t_in) > 0.3 * t_c:
            continue
        ok_sep = all(min(abs(t_in - w1), abs(t_out - w0)) > 2.4 * wm
                     for (w0, w1) in windows)
        if not ok_sep:
            continue
        return box, pad, (t_in, t_out)
    return None


def _amplitudes_ok(task: RasTask, plans) -> bool:
    # keep return amplitudes commensurate with approach amplitudes so the
    # restore-phase residuals stay inside the hold tolerances
    lower = task.lower_margin()
    for p in plans:
        a_in = abs(p.level - lower.value(p.dim, p.prep_time))
        a_out = abs(lower.value(p.dim, p.release_time) - p.level)
        if a_out > 1.3 * (a_in + 1.0):
            return False
    return True

