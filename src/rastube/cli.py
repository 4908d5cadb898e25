"""Scenario files and the command line front end.

A scenario is a single JSON document with five sections (task, tube,
controller, plant, run).  Parsing validates every invariant up front and
reports all problems at once, each tagged with its key path.  Units are
meters, seconds, and radians throughout.

Subcommands: ``synthesize`` (plans, corridor CSV, verification reports),
``simulate`` (closed-loop trace CSV plus run summary), ``verify``
(re-check a corridor CSV), ``compare`` (smooth vs reconstructed abrupt
baseline effort).  Exit codes: 0 success, 2 invalid scenario, 3 a
guarantee or feasibility check failed, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .avoidance import schedule
from .controller import ControllerConfig
from .errors import (ConfigurationError, InfeasibleScenarioError, RastubeError,
                     SynthesisError)
from .geometry import Box
from .metrics import baseline_tube, comparison_report, control_effort
from .plant import (PLANT_MODELS, DisturbanceModel, FrameProvider, SimOptions,
                    simulate)
from .scenario import RasTask, TubeParams, validate_assumptions
from .tube import (Tube, VerificationReport, evolve_tube, in_child, smoothness_check,
                   verify_tube)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARANTEE = 3
EXIT_RUNTIME = 4


@dataclass
class RunConfig:
    stay_horizon: float
    sim_step: float
    output_dir: str


@dataclass
class PlantConfig:
    model: str
    heading_init: float
    heading_halfwidth: float
    disturbance: DisturbanceModel


@dataclass
class Scenario:
    name: str
    task: RasTask
    tube: TubeParams
    controller: ControllerConfig
    plant: PlantConfig
    run: RunConfig

    def dynamics(self):
        return PLANT_MODELS[self.plant.model](self.task.n)

    def frame_layout(self) -> Tuple[List[int], List[Tuple[float, float]], List[float]]:
        """(task dims, extra bounds, extra initial values) for the plant state."""
        if self.plant.model == "omni_robot":
            h0 = self.plant.heading_init
            hw = self.plant.heading_halfwidth
            return [0, 1], [(h0 - hw, h0 + hw)], [h0]
        return list(range(self.task.n)), [], []


def _err(issues, path, msg):
    issues.append((path, msg))


# rows a corridor or closed-loop grid may hold; each grid is a few
# (rows, dimensions) float arrays, so this bounds what a run allocates
MAX_GRID_ROWS = 1_000_000


def _check_rows(issues, path, span: float, step: float) -> None:
    """Report ``path`` when a grid of step ``step`` over ``span`` seconds
    would hold more than MAX_GRID_ROWS rows (round(span / step) + 1)."""
    if not span / step < MAX_GRID_ROWS - 0.5:
        _err(issues, path, f"a step of {step:.6g} over {span:.6g} s asks for more "
                           f"than {MAX_GRID_ROWS} grid rows")


def _get_section(doc, name, required_keys, optional_keys, issues):
    section = doc.get(name)
    if section is None:
        _err(issues, name, "section missing")
        return {}
    if not isinstance(section, dict):
        _err(issues, name, "must be an object")
        return {}
    for key in section:
        if key not in required_keys and key not in optional_keys:
            _err(issues, f"{name}.{key}", "unknown key")
    for key in required_keys:
        if key not in section:
            _err(issues, f"{name}.{key}", "missing")
    return section


def _finite(value) -> bool:
    """Whether a JSON number is finite as a float; an integer too large
    for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _float(value) -> float:
    """``float(value)``, with an integer too large for a float taken as the
    infinity of its sign, which the range checks then report."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(section, name, path, issues, default=None, required=False, positive=False):
    if name not in section or section[name] is None:
        if required:
            _err(issues, f"{path}.{name}", "missing")
        return default
    value = section[name]
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not _finite(value):
        _err(issues, f"{path}.{name}", "must be a finite number")
        return default
    if positive and value <= 0:
        _err(issues, f"{path}.{name}", "must be positive")
        return default
    return float(value)


def _vector(section, name, path, issues, length=None):
    value = section.get(name)
    if value is None:
        _err(issues, f"{path}.{name}", "missing")
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if length is None:
            _err(issues, f"{path}.{name}", "must be a list")
            return None
        value = [value] * length
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        _err(issues, f"{path}.{name}", "must be a number or list of numbers")
        return None
    if not all(_finite(v) for v in value):
        _err(issues, f"{path}.{name}", "entries must be finite")
        return None
    if length is not None and len(value) != length:
        _err(issues, f"{path}.{name}", f"expected {length} entries")
        return None
    return [float(v) for v in value]


def _box(section, name, path, issues, n=None) -> Optional[Box]:
    value = section.get(name)
    if value is None:
        _err(issues, f"{path}.{name}", "missing")
        return None
    try:
        box = Box.from_pairs(value)
    except (TypeError, ValueError, OverflowError) as exc:
        _err(issues, f"{path}.{name}", f"not a valid box: {exc}")
        return None
    if n is not None and box.n != n:
        _err(issues, f"{path}.{name}", f"expected {n} dimensions")
        return None
    return box


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; raises ConfigurationError listing
    every problem with its key path."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError([(str(path), "scenario file not found")])
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError([(str(path), f"invalid JSON: {exc}")])
    if not isinstance(doc, dict):
        raise ConfigurationError([(str(path), "top level must be an object")])

    issues: List[Tuple[str, str]] = []
    for key in doc:
        if key not in ("task", "tube", "controller", "plant", "run"):
            _err(issues, key, "unknown section")

    task_sec = _get_section(doc, "task", (
        "initial_set", "target_set", "unsafe_sets", "time_limit", "start_state",
        "target_point", "start_margin", "target_margin", "obstacle_margin",
        "constrained_dims", "workspace"), (), issues)
    tube_sec = _get_section(doc, "tube", (), (
        "window_margin", "edge_buffer", "blend_scale", "time_floor", "step"), issues) \
        if "tube" in doc else {}
    ctrl_sec = _get_section(doc, "controller", (), ("gain", "gain_sign", "input_limit"), issues) \
        if "controller" in doc else {}
    plant_sec = _get_section(doc, "plant", ("model",), (
        "heading_init", "heading_halfwidth", "disturbance"), issues)
    run_sec = _get_section(doc, "run", (), ("stay_horizon", "sim_step", "output_dir"), issues) \
        if "run" in doc else {}

    initial = _box(task_sec, "initial_set", "task", issues)
    n = initial.n if initial is not None else None
    target = _box(task_sec, "target_set", "task", issues, n)
    workspace = _box(task_sec, "workspace", "task", issues, n)
    unsafe_raw = task_sec.get("unsafe_sets")
    unsafe: List[Box] = []
    if not isinstance(unsafe_raw, list):
        _err(issues, "task.unsafe_sets", "must be a list of boxes")
    else:
        for j, entry in enumerate(unsafe_raw):
            try:
                u = Box.from_pairs(entry)
                if n is not None and u.n != n:
                    _err(issues, f"task.unsafe_sets[{j}]", f"expected {n} dimensions")
                else:
                    unsafe.append(u)
            except (TypeError, ValueError, OverflowError) as exc:
                _err(issues, f"task.unsafe_sets[{j}]", f"not a valid box: {exc}")

    time_limit = _number(task_sec, "time_limit", "task", issues, required=True, positive=True)
    start_state = _vector(task_sec, "start_state", "task", issues, n)
    target_point = _vector(task_sec, "target_point", "task", issues, n)
    start_margin = _vector(task_sec, "start_margin", "task", issues, n)
    target_margin = _vector(task_sec, "target_margin", "task", issues, n)
    obstacle_margin = _vector(task_sec, "obstacle_margin", "task", issues,
                              len(unsafe) if unsafe_raw else 0) \
        if unsafe else [1.0]

    cdims = task_sec.get("constrained_dims")
    if not isinstance(cdims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in cdims):
        _err(issues, "task.constrained_dims", "must be a list of 1-based dimension indices")
        cdims = None
    elif n is not None and (len(cdims) != n or sorted(cdims) != list(range(1, n + 1))):
        _err(issues, "task.constrained_dims",
             f"must list dimensions 1..{n} (constrained dimensions come first in the state)")

    model = plant_sec.get("model")
    if model is not None and not (isinstance(model, str) and model in PLANT_MODELS):
        _err(issues, "plant.model", f"unknown model {model!r}; known: {sorted(PLANT_MODELS)}")
    heading_init = _number(plant_sec, "heading_init", "plant", issues, default=0.0)
    heading_halfwidth = _number(plant_sec, "heading_halfwidth", "plant", issues,
                                default=math.pi / 2, positive=True)

    dist_sec = plant_sec.get("disturbance", {})
    disturbance = DisturbanceModel()
    if dist_sec:
        if not isinstance(dist_sec, dict):
            _err(issues, "plant.disturbance", "must be an object")
        else:
            for key in dist_sec:
                if key not in ("kind", "bound", "seed", "frequency", "phase"):
                    _err(issues, f"plant.disturbance.{key}", "unknown key")
            try:
                disturbance = DisturbanceModel(
                    kind=dist_sec.get("kind", "none"),
                    bound=_float(dist_sec.get("bound", 0.0)),
                    seed=dist_sec.get("seed", 0),
                    frequency=_float(dist_sec.get("frequency", 0.1)),
                    phases=dist_sec.get("phase"))
            except ConfigurationError as exc:
                issues.extend(exc.issues)
            except (TypeError, ValueError, OverflowError) as exc:
                _err(issues, "plant.disturbance", str(exc))

    if issues:
        raise ConfigurationError(issues)

    try:
        task = RasTask.create(
            initial_set=initial, target_set=target, unsafe_sets=unsafe,
            deadline=time_limit, start=start_state, target=target_point,
            start_margin=start_margin, target_margin=target_margin,
            obstacle_margin=obstacle_margin, workspace=workspace)
    except ConfigurationError as exc:
        remap = {"start": "task.start_state", "target": "task.target_point",
                 "start_margin": "task.start_margin", "target_margin": "task.target_margin",
                 "obstacle_margin": "task.obstacle_margin", "workspace": "task.workspace",
                 "deadline": "task.time_limit"}
        raise ConfigurationError([
            (remap.get(p, f"task.{p}" if p and not p.startswith("task.") else p), m)
            for p, m in exc.issues])

    defaults = TubeParams.defaults(task.deadline)
    window_margin = _number(tube_sec, "window_margin", "tube", issues,
                            default=defaults.window_margin, positive=True)
    tube_defaults = TubeParams.defaults(task.deadline, window_margin)
    try:
        tube = TubeParams(
            window_margin=window_margin,
            edge_buffer=_number(tube_sec, "edge_buffer", "tube", issues,
                                default=tube_defaults.edge_buffer, positive=True),
            blend_scale=_number(tube_sec, "blend_scale", "tube", issues,
                                default=tube_defaults.blend_scale, positive=True),
            time_floor=_number(tube_sec, "time_floor", "tube", issues,
                               default=tube_defaults.time_floor, positive=True),
            step=_number(tube_sec, "step", "tube", issues,
                         default=tube_defaults.step, positive=True))
    except ConfigurationError as exc:
        issues.extend(exc.issues)
        tube = tube_defaults
    if tube.step > 2.0 * tube.time_floor:
        # a coarser step leaves the floored shaper feedback outside the RK4
        # stability region and the corridor diverges
        _err(issues, "tube.step",
             f"must be <= 2 * tube.time_floor ({2.0 * tube.time_floor:.6g})")
    _check_rows(issues, "tube.step", task.deadline, tube.step)

    gain_sign = ctrl_sec.get("gain_sign", 1)
    if not isinstance(gain_sign, int) or isinstance(gain_sign, bool) or gain_sign not in (1, -1):
        _err(issues, "controller.gain_sign", "must be +1 or -1")
        gain_sign = 1
    try:
        controller = ControllerConfig(
            gain=_number(ctrl_sec, "gain", "controller", issues, default=2.0, positive=True),
            gain_sign=gain_sign,
            input_limit=_number(ctrl_sec, "input_limit", "controller", issues))
    except ConfigurationError as exc:
        issues.extend(exc.issues)
        controller = ControllerConfig()

    run = RunConfig(
        stay_horizon=_number(run_sec, "stay_horizon", "run", issues,
                             default=0.25 * task.deadline),
        sim_step=_number(run_sec, "sim_step", "run", issues, default=0.01, positive=True),
        output_dir=str(run_sec.get("output_dir", "out")))
    if run.stay_horizon is None or run.stay_horizon < 0:
        _err(issues, "run.stay_horizon", "must be >= 0")
    else:
        _check_rows(issues, "run.sim_step", task.deadline + run.stay_horizon, run.sim_step)

    if issues:
        raise ConfigurationError(issues)

    return Scenario(name=path.stem, task=task, tube=tube, controller=controller,
                    plant=PlantConfig(model=model, heading_init=heading_init,
                                      heading_halfwidth=heading_halfwidth,
                                      disturbance=disturbance),
                    run=run)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _plans_payload(scn: Scenario, plans, report) -> dict:
    return {
        "scenario": scn.name,
        "plans": [
            {"obstacle": p.index, "enter_time": p.enter_time, "exit_time": p.exit_time,
             "prep_time": p.prep_time, "release_time": p.release_time,
             "dim": p.dim + 1, "side": p.side, "level": p.level}
            for p in plans
        ],
        "assumptions": {
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "subject": c.subject, "detail": c.detail}
                for c in report.checks
            ],
            "notes": list(report.notes),
        },
    }


def _synthesize(scn: Scenario, out: Path):
    """Plans, validated, and the corridor they shape; writes plans.json."""
    plans = schedule(scn.task, scn.tube)
    report = validate_assumptions(scn.task, plans, scn.tube)
    if not report.passed:
        raise InfeasibleScenarioError(
            "assumption validation failed: "
            + "; ".join(f"{c.subject}: {c.detail}" for c in report.failures()))
    tube = evolve_tube(scn.task, plans, scn.tube)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "plans.json", _plans_payload(scn, plans, report))
    return plans, tube


def _check(scn: Scenario, tube: Tube, out: Path) -> VerificationReport:
    """Verify the corridor and check its smoothness; writes verify.json
    and smoothness.json."""
    verdict = verify_tube(tube, scn.task)
    _write_json(out / "verify.json", verdict.as_dict())
    _write_json(out / "smoothness.json", smoothness_check(tube).as_dict())
    return verdict


def _certify(scn: Scenario, tube: Tube, out: Path) -> bool:
    """``_check``, then tube.csv; whether the corridor is verified."""
    passed = _check(scn, tube, out).passed
    tube.to_csv(out / "tube.csv")
    return passed


def cmd_synthesize(scn: Scenario, out: Path) -> int:
    plans, tube = _synthesize(scn, out)
    passed = _certify(scn, tube, out)
    print(f"synthesized corridor with {len(plans)} detour(s); "
          f"verification {'passed' if passed else 'FAILED'}")
    return EXIT_OK if passed else EXIT_GUARANTEE


def _run_simulation(scn: Scenario, tube, plans, seed: Optional[int] = None,
                    sim_step: Optional[float] = None, stay: Optional[float] = None):
    task_dims, extra_bounds, _ = scn.frame_layout()
    dyn = scn.dynamics()
    frames = FrameProvider(tube, dyn.n_states, task_dims, extra_bounds)
    options = _sim_options(scn, sim_step, stay)
    return simulate(scn.task, frames, scn.controller, dyn, _disturbance(scn, seed), options,
                    plans)


def _disturbance(scn: Scenario, seed: Optional[int] = None) -> DisturbanceModel:
    """The scenario's disturbance with any seed override applied; raises
    ConfigurationError for an invalid seed."""
    base = scn.plant.disturbance
    if seed is None:
        return base
    return DisturbanceModel(kind=base.kind, bound=base.bound, seed=seed,
                            frequency=base.frequency, phases=base.phases)


def _sim_options(scn: Scenario, sim_step: Optional[float] = None,
                 stay: Optional[float] = None) -> SimOptions:
    """The scenario's simulation options with any overrides applied; raises
    ConfigurationError for an invalid step or stay horizon, or for too
    many grid rows."""
    _, extra_bounds, extra_init = scn.frame_layout()
    options = SimOptions(step=sim_step if sim_step is not None else scn.run.sim_step,
                         stay_horizon=stay if stay is not None else scn.run.stay_horizon,
                         extra_state=extra_init, extra_bounds=extra_bounds)
    issues = []
    _check_rows(issues, "run.sim_step", scn.task.deadline + options.stay_horizon, options.step)
    if issues:
        raise ConfigurationError(issues)
    return options


def cmd_simulate(scn: Scenario, out: Path, seed: Optional[int],
                 sim_step: Optional[float], stay: Optional[float]) -> int:
    plans, tube = _synthesize(scn, out)
    # the corridor is verified and written on another core while the closed
    # loop runs; that child writes tube.csv in one piece, leaving this core
    # to the loop
    with in_child(lambda: _certify(scn, tube, out),
                  f"certifying the corridor in {out}") as verified:
        trace = _run_simulation(scn, tube, plans, seed=seed, sim_step=sim_step, stay=stay)
        trace.to_csv(out / "trace.csv")
        effort = control_effort(trace)
    ok = verified.value and trace.flags.all_ok
    _write_json(out / "run.json", {
        "scenario": scn.name,
        "seed": seed if seed is not None else scn.plant.disturbance.seed,
        "sim_step": sim_step if sim_step is not None else scn.run.sim_step,
        "stay_horizon": stay if stay is not None else scn.run.stay_horizon,
        "flags": trace.flags.as_dict(),
        "reach_time": trace.reach_time,
        "failure_time": trace.failure_time,
        "failure_reason": trace.failure_reason,
        "failure": trace.failure,
        "effort": effort.as_dict(),
        "min_input_floor": trace.min_input_floor,
        "corridor_verified": verified.value,
    })
    print(f"simulate: reached={trace.flags.reached} safe={trace.flags.safe} "
          f"contained={trace.flags.contained} stayed={trace.flags.stayed} "
          f"[{'ok' if ok else 'FAILED'}]")
    return EXIT_OK if ok else EXIT_GUARANTEE


def cmd_verify(scn: Scenario, tube_path: Path, out: Path) -> int:
    try:
        tube = Tube.from_csv(tube_path)
    except (OSError, ValueError) as exc:
        raise ConfigurationError([("--tube", f"cannot read {tube_path}: {exc}")])
    if tube.n != scn.task.n:
        raise ConfigurationError([(str(tube_path),
                                   f"tube has {tube.n} dimensions, task has {scn.task.n}")])
    out.mkdir(parents=True, exist_ok=True)
    verdict = _check(scn, tube, out)
    failed = [c.name for c in verdict.conditions if not c.passed]
    print("verify: " + ("all conditions passed" if not failed
                        else "failed " + ", ".join(failed)))
    return EXIT_OK if verdict.passed else EXIT_GUARANTEE


def _compare_step(scn: Scenario, sim_step: Optional[float]) -> float:
    """The closed-loop step of ``compare``: the abrupt baseline needs a
    finer step than routine runs, kept matched between the two corridors."""
    return sim_step if sim_step is not None else scn.run.sim_step / 10.0


def cmd_compare(scn: Scenario, out: Path, seed: Optional[int],
                sim_step: Optional[float]) -> int:
    plans = schedule(scn.task, scn.tube)
    sim_step = _compare_step(scn, sim_step)
    used_seed = seed if seed is not None else scn.plant.disturbance.seed

    def effort(tube):
        trace = _run_simulation(scn, tube, plans, seed=used_seed, sim_step=sim_step,
                                stay=0.0)
        return control_effort(trace), trace.flags.as_dict()

    # the baseline's closed loop runs on another core
    with in_child(lambda: effort(baseline_tube(scn.task, plans, scn.tube)),
                  "the baseline closed loop") as baseline:
        smooth_effort, smooth_flags = effort(evolve_tube(scn.task, plans, scn.tube))
    baseline_effort, baseline_flags = baseline.value
    report = comparison_report(scn.name, used_seed, smooth_effort, baseline_effort,
                               smooth_flags, baseline_flags)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "comparison.json", report)
    ok = smooth_flags["contained"] and baseline_flags["contained"]
    print(f"compare: energy ratio {report['energy_ratio']:.4g}, "
          f"peak ratio {report['peak_ratio']:.4g} "
          f"({'ok' if ok else 'FAILED'})")
    return EXIT_OK if ok else EXIT_GUARANTEE


def _simulate_one(args_tuple):
    scenario_path, out_root = args_tuple
    return run_cli(["simulate", "--scenario", str(scenario_path),
                    "--out", str(Path(out_root) / Path(scenario_path).stem)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rastube",
        description="Smooth corridor synthesis and corridor-keeping control "
                    "for reach-avoid-stay tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    overrides = {
        "--seed": dict(type=int, help="override disturbance seed"),
        "--dt": dict(type=float, help="override corridor step [s]"),
        "--sim-step": dict(type=float, help="override simulation step [s]"),
        "--stay-horizon": dict(type=float, help="override stay horizon [s]"),
    }

    def add(name, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=False, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, default=None, **overrides[flag])
        return p

    add("synthesize", "plan detours, integrate and verify the corridor", "--dt")
    sim = add("simulate", "closed-loop run with trace and flags",
              "--seed", "--dt", "--sim-step", "--stay-horizon")
    sim.add_argument("--batch", default=None, help="directory of scenario files to run")
    ver = add("verify", "re-verify a corridor CSV against a scenario")
    ver.add_argument("--tube", required=True, help="corridor CSV produced by synthesize")
    add("compare", "smooth vs reconstructed abrupt baseline effort",
        "--seed", "--dt", "--sim-step")
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate" and args.batch:
            ignored = [flag for flag, value in (
                ("--scenario", args.scenario), ("--seed", args.seed), ("--dt", args.dt),
                ("--sim-step", args.sim_step), ("--stay-horizon", args.stay_horizon))
                if value is not None]
            if ignored:
                # each batch file runs with its own settings
                raise ConfigurationError(
                    [("--batch", f"cannot be combined with {', '.join(ignored)}")])
            files = sorted(Path(args.batch).glob("*.json"))
            if not files:
                raise ConfigurationError([(args.batch, "no scenario files found")])
            out_root = Path(args.out or "out")
            with ProcessPoolExecutor() as pool:
                codes = list(pool.map(_simulate_one, [(f, out_root) for f in files]))
            return max(codes)

        if not args.scenario:
            raise ConfigurationError([("--scenario", "required")])
        scn = parse_scenario(args.scenario)
        if getattr(args, "dt", None) is not None:
            # raising the floor with the step keeps the shaper feedback
            # inside the integrator's stability region
            scn.tube = TubeParams(window_margin=scn.tube.window_margin,
                                  edge_buffer=scn.tube.edge_buffer,
                                  blend_scale=scn.tube.blend_scale,
                                  time_floor=max(scn.tube.time_floor, args.dt / 2.0),
                                  step=args.dt)
            issues = []
            _check_rows(issues, "tube.step", scn.task.deadline, args.dt)
            if issues:
                raise ConfigurationError(issues)
        # reject invalid simulation overrides before any synthesis work
        if args.command == "simulate":
            _sim_options(scn, args.sim_step, args.stay_horizon)
        if args.command == "compare":
            _sim_options(scn, _compare_step(scn, args.sim_step), 0.0)
        if args.command in ("simulate", "compare"):
            _disturbance(scn, args.seed)
        out = Path(args.out or scn.run.output_dir)

        if args.command == "synthesize":
            return cmd_synthesize(scn, out)
        if args.command == "simulate":
            return cmd_simulate(scn, out, args.seed, args.sim_step, args.stay_horizon)
        if args.command == "verify":
            return cmd_verify(scn, Path(args.tube), out)
        if args.command == "compare":
            return cmd_compare(scn, out, args.seed, args.sim_step)
        raise ConfigurationError([(args.command, "unknown command")])
    except ConfigurationError as exc:
        for path, msg in exc.issues:
            print(f"error: {path}: {msg}" if path else f"error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RastubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
