"""Seeded scenario files for the ``random_synthesize`` workload.

Each file is one ``sampling.random_case`` draw written as a scenario:
the drawn task, the integrator plant, and no ``tube`` section, so the
parser's defaults (the same ``TubeParams.defaults`` the draw was planned
with) apply.  File i asks for ``2 + i % 2`` dimensions and ``1 + i % 3``
obstacles, so ``i % 6`` is its shape class; a draw may place fewer
obstacles than it asked for.

Drawing is slow (``random_case`` plans every draw), so the pool of files
is drawn once, from ``POOL_SEED``, and kept in ``perfbench/inputs``.

    python3 perfbench/make_inputs.py

makes the pool anew and prints its make-up.  A run takes from the pool,
by its own seed, ``PER_CLASS`` files of every shape class (``select``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from source import BENCH_DIR, import_rastube

POOL_DIR = BENCH_DIR / "inputs"
POOL_SEED = 11583
POOL_SIZE = 36
N_CLASSES = 6
PER_CLASS = 4


def _pairs(box) -> list:
    return [[float(d.lo), float(d.hi)] for d in box.dims]


def scenario_doc(task) -> dict:
    return {
        "task": {
            "initial_set": _pairs(task.initial_set),
            "target_set": _pairs(task.target_set),
            "unsafe_sets": [_pairs(u) for u in task.unsafe_sets],
            "time_limit": task.deadline,
            "start_state": task.start.tolist(),
            "target_point": task.target.tolist(),
            "start_margin": task.start_margin.tolist(),
            "target_margin": task.target_margin.tolist(),
            "obstacle_margin": task.obstacle_margin.tolist(),
            "constrained_dims": list(range(1, task.n + 1)),
            "workspace": _pairs(task.workspace),
        },
        "plant": {"model": "integrator"},
    }


def write_pool() -> List[Path]:
    """Draw the pool anew from ``POOL_SEED``."""
    import_rastube()
    import numpy as np
    from rastube.sampling import random_case

    POOL_DIR.mkdir(exist_ok=True)
    for old in POOL_DIR.glob("random_*.json"):
        old.unlink()
    rng = np.random.default_rng(POOL_SEED)
    paths = []
    for i in range(POOL_SIZE):
        case = random_case(rng, n_dims=2 + (i % 2), n_obstacles=1 + (i % 3))
        path = POOL_DIR / f"random_{i:02d}.json"
        path.write_text(json.dumps(scenario_doc(case.task), indent=1) + "\n")
        paths.append(path)
    return paths


def select(seed: int) -> List[Path]:
    """``PER_CLASS`` files of every shape class, drawn from the pool by ``seed``."""
    import numpy as np

    pool = sorted(POOL_DIR.glob("random_*.json"))
    if len(pool) != POOL_SIZE:
        raise FileNotFoundError(f"scenario pool {POOL_DIR} holds {len(pool)} files, "
                                f"not {POOL_SIZE}")
    rng = np.random.default_rng(seed)
    picked = []
    for c in range(N_CLASSES):
        members = pool[c::N_CLASSES]
        picked += [members[k] for k in sorted(rng.choice(len(members), PER_CLASS,
                                                         replace=False))]
    return picked


def describe(paths: List[Path]) -> List[dict]:
    """Make-up of each file: dimensions, obstacles, deadline, corridor grid
    rows, plans and the detour candidates (``select_side`` calls) tried."""
    rastube = import_rastube()
    from tracer import Tracer

    rows = []
    for path in paths:
        scn = rastube.cli.parse_scenario(path)
        tracer = Tracer()
        tracer.install()
        try:
            plans = rastube.schedule(scn.task, scn.tube)
        finally:
            tracer.uninstall()
        rows.append({
            "file": path.name, "dims": scn.task.n, "obstacles": scn.task.n_obstacles,
            "deadline": round(scn.task.deadline, 2),
            "grid_rows": max(8, int(round(scn.task.deadline / scn.tube.step))) + 1,
            "plans": len(plans),
            "candidates": tracer.totals().get("avoidance.select_side", {}).get("calls", 0)})
    return rows


def main() -> int:
    paths = write_pool()
    print("| file | dims | obstacles | deadline | grid rows | plans | candidates tried |")
    print("|---|---|---|---|---|---|---|")
    for r in describe(paths):
        print(f"| {r['file']} | {r['dims']} | {r['obstacles']} | {r['deadline']} "
              f"| {r['grid_rows']} | {r['plans']} | {r['candidates']} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
