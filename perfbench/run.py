"""rastube benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload case_simulate --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md):

- ``case_simulate``: CLI ``simulate`` on the bundled scenario;
- ``random_synthesize``: CLI ``synthesize`` on seeded ``random_case`` files;
- ``seed_sweep``: ``rastube.simulate`` closed loops on the bundled corridor,
  one disturbance seed per operation.

Operations run one after another in this process, in whole rounds, until
``--seconds`` have passed.  Their outputs are then checked against the
benchmark's own computations (checks.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends the first half of the run
untraced and the second half traced, and reports the per-layer metrics
plus the tracing overhead between the two halves.
"""

import os
import sys
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


_AGE0 = _process_age()
# one worker thread: no BLAS or OpenMP pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from source import BUNDLED_SCENARIO, OUT, MissingSource, import_rastube  # noqa: E402

# disturbance seeds a run cycles through, drawn from --seed
N_DISTURBANCE_SEEDS = 64
# sampled steps per trace that the RK4 check re-integrates
RK4_SAMPLES = 40


def _run_cli(argv) -> int:
    import rastube

    with contextlib.redirect_stdout(io.StringIO()):
        return rastube.cli.run_cli(argv)


class CaseSimulate:
    """CLI ``simulate`` on the bundled scenario; the disturbance seed comes
    from --seed."""

    round_size = 1

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> None:
        import numpy as np

        doc = json.loads(BUNDLED_SCENARIO.read_text())
        doc["plant"]["disturbance"]["seed"] = int(
            np.random.default_rng(self.seed).integers(0, 2**31 - 1))
        self.scenario = self.out / "inputs" / BUNDLED_SCENARIO.name
        self.scenario.parent.mkdir(parents=True)
        self.scenario.write_text(json.dumps(doc, indent=2) + "\n")

    def op(self, i: int) -> bool:
        return _run_cli(["simulate", "--scenario", str(self.scenario),
                         "--out", str(self.out / "sim")]) == 0

    def check(self, ok_ops) -> None:
        import checks

        checks.check_simulation_dir(self.scenario, self.out / "sim")


class RandomSynthesize:
    """CLI ``synthesize`` on scenario files picked from the pool by --seed."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> None:
        import make_inputs

        self.files = make_inputs.select(self.seed)
        self.round_size = len(self.files)

    def _dir(self, i: int) -> Path:
        return self.out / "syn" / self.files[i % self.round_size].stem

    def op(self, i: int) -> bool:
        return _run_cli(["synthesize", "--scenario", str(self.files[i % self.round_size]),
                         "--out", str(self._dir(i))]) == 0

    def check(self, ok_ops) -> None:
        import checks

        for i in sorted({i % self.round_size for i in ok_ops}):
            checks.check_synthesis_dir(self.files[i], self._dir(i))


class SeedSweep:
    """Closed loops through ``rastube.simulate`` on the bundled corridor,
    synthesised once in set-up; each operation takes the next disturbance
    seed drawn from --seed."""

    round_size = 1

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.first = None

    def setup(self) -> None:
        import numpy as np
        import rastube

        self.rng = np.random.default_rng(self.seed)
        self.seeds = self.rng.integers(0, 2**31 - 1, N_DISTURBANCE_SEEDS).tolist()
        self.scn = rastube.cli.parse_scenario(BUNDLED_SCENARIO)
        self.plans = rastube.schedule(self.scn.task, self.scn.tube)
        self.tube = rastube.evolve_tube(self.scn.task, self.plans, self.scn.tube)

    def op(self, i: int) -> bool:
        import rastube

        scn = self.scn
        base = scn.plant.disturbance
        disturbance = rastube.DisturbanceModel(
            kind=base.kind, bound=base.bound, seed=self.seeds[i % len(self.seeds)],
            frequency=base.frequency, phases=base.phases)
        task_dims, extra_bounds, extra_init = scn.frame_layout()
        dynamics = scn.dynamics()
        frames = rastube.FrameProvider(self.tube, dynamics.n_states, task_dims, extra_bounds)
        options = rastube.SimOptions(step=scn.run.sim_step, stay_horizon=scn.run.stay_horizon,
                                     extra_state=extra_init, extra_bounds=extra_bounds)
        trace = rastube.simulate(scn.task, frames, scn.controller, dynamics, disturbance,
                                 options, self.plans)
        effort = rastube.control_effort(trace)
        if self.first is None:
            self.first = (trace, effort)
        return trace.completed and trace.flags.all_ok

    def check(self, ok_ops) -> None:
        import checks

        geo = checks.load_geometry(BUNDLED_SCENARIO)
        plans = [checks.Plan(obstacle=p.index, dim=p.dim, level=p.level, enter=p.enter_time,
                             exit=p.exit_time, prep=p.prep_time, release=p.release_time)
                 for p in self.plans]
        ts, lower = self.tube.ts, self.tube.lower
        checks.check_corridor(geo, plans, ts, lower, self.tube.upper)
        trace, effort = self.first
        tr = checks.Trace(ts=trace.ts, x=trace.states, lower=trace.lower, upper=trace.upper,
                          u=trace.inputs, w=trace.disturbances)
        checks.check_trace(geo, tr, ts, lower, effort.energy)
        checks.check_disturbance(geo, tr)
        rows = self.rng.choice(tr.ts.shape[0] - 1, RK4_SAMPLES, replace=False)
        checks.check_rk4(geo, tr, ts, lower, sorted(rows.tolist()))


WORKLOADS = {"case_simulate": CaseSimulate, "random_synthesize": RandomSynthesize,
             "seed_sweep": SeedSweep}


class Phases:
    """Operations of one kind (untraced or traced), timed per operation and
    per round."""

    def __init__(self):
        self.latencies = []
        self.ok_ops = []
        self.failed = 0
        self.wall = 0.0

    def round(self, workload, i: int, tracer=None) -> int:
        """One round of operations from op index ``i``; returns the next index."""
        start = time.perf_counter()
        for i in range(i, i + workload.round_size):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok = workload.op(i)
                else:
                    with tracer.region("op"):
                        ok = workload.op(i)
            except Exception:
                traceback.print_exc()
                ok = False
            self.latencies.append(time.perf_counter() - t0)
            if ok:
                self.ok_ops.append(i)
            else:
                self.failed += 1
        self.wall += time.perf_counter() - start
        return i + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rastube benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_rastube()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, out)
    workload.setup()
    setup_s = _AGE0 + time.perf_counter() - _T0

    # a traced run alternates untraced and traced rounds, so that a drift in
    # machine speed weighs on both sides of the overhead alike
    untraced, traced = Phases(), Phases()
    tracer = None
    if args.trace:
        from tracer import LAYER_UNITS, Tracer, layer_metrics

        tracer = Tracer()
    start = time.perf_counter()
    i = 0
    while True:
        i = untraced.round(workload, i)
        if tracer is not None:
            tracer.install()
            try:
                i = traced.round(workload, i, tracer)
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phases = (untraced, traced)
    ok_ops = [i for p in phases for i in p.ok_ops]
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    correct = True
    try:
        workload.check(ok_ops)
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        values = layer_metrics(tracer, len(traced.latencies))
        values["trace.overhead_pct"] = 100.0 * (traced.wall / untraced.wall - 1.0)
        units = LAYER_UNITS
        tracer.write(out / "spans.csv")
    else:
        values = {"setup_s": setup_s,
                  "op_p50_s": statistics.median(untraced.latencies),
                  "ops_per_s": len(untraced.latencies) / untraced.wall,
                  "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": values, "latencies": [p.latencies for p in phases],
        "counts": dict(tracer.counts) if tracer else {},
        "untraced_targets": tracer.missing if tracer else [],
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "numba": importlib.util.find_spec("numba") is not None,
                        "cpus": os.cpu_count()},
    }
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
