"""Scenario files and the command line front end.

A scenario is a single JSON document with five sections (task, tube,
controller, plant, run).  Parsing validates every invariant up front and
reports the problems it finds, each tagged with its key path.  The parser
checks the document's shape and fills in defaults; each range is checked
once, by the type that holds the value (RasTask, TubeParams,
ControllerConfig, DisturbanceModel, SimOptions), and a command-line
override goes through ``dataclasses.replace`` into the same check.  Units
are meters, seconds, and radians throughout.

Subcommands: ``synthesize`` (plans, corridor CSV, verification reports),
``simulate`` (closed-loop trace CSV plus run summary), ``verify``
(re-check a corridor CSV), ``compare`` (smooth vs reconstructed abrupt
baseline effort).  Exit codes: 0 success, 2 invalid scenario, 3 a
guarantee or feasibility check failed, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
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
from .tube import Tube, VerificationReport, evolve_tube, smoothness_check, verify_tube

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
    # a missing key is found by its section and by its reader
    if (path, msg) not in issues:
        issues.append((path, msg))


def _checked(issues, build):
    """``build()``, or None with the issues of the ConfigurationError it
    raised added to ``issues``."""
    try:
        return build()
    except ConfigurationError as exc:
        issues.extend(exc.issues)
        return None


# rows a corridor or closed-loop grid may hold; each grid is a few
# (rows, dimensions) float arrays, so this bounds what a run allocates
MAX_GRID_ROWS = 1_000_000


def _check_rows(issues, path, span: float, step: float) -> None:
    """Report ``path`` when a grid of step ``step`` over ``span`` seconds
    would hold more than MAX_GRID_ROWS rows (round(span / step) + 1)."""
    if not span / step < MAX_GRID_ROWS - 0.5:
        _err(issues, path, f"a step of {step:.6g} over {span:.6g} s asks for more "
                           f"than {MAX_GRID_ROWS} grid rows")


def _corridor(params: TubeParams, deadline: float) -> TubeParams:
    """``params``, once its step is checked against its floor and the
    deadline; raises ConfigurationError under tube.step otherwise.  The
    scenario's step and ``--dt`` both pass through here."""
    issues = []
    if params.step > 2.0 * params.time_floor:
        # a coarser step leaves the floored shaper feedback outside the RK4
        # stability region and the corridor diverges
        _err(issues, "tube.step",
             f"must be <= 2 * tube.time_floor ({2.0 * params.time_floor:.6g})")
    if deadline / params.step < 7.5:
        # TubeParams.grid would take 8 steps, not this one
        _err(issues, "tube.step", f"a step of {params.step:.6g} gives fewer than 8 steps "
                                  f"over {deadline:.6g} s")
    _check_rows(issues, "tube.step", deadline, params.step)
    if issues:
        raise ConfigurationError(issues)
    return params


def _get_section(section, path, required_keys, optional_keys, issues):
    if section is None:
        _err(issues, path, "section missing")
        return {}
    if not isinstance(section, dict):
        _err(issues, path, "must be an object")
        return {}
    for key in section:
        if key not in required_keys and key not in optional_keys:
            _err(issues, f"{path}.{key}", "unknown key")
    for key in required_keys:
        if key not in section:
            _err(issues, f"{path}.{key}", "missing")
    return section


def _finite(value) -> bool:
    """Whether a JSON number is finite as a float; an integer too large
    for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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


def _numbers(section, names, path, issues) -> dict:
    """The numbers ``section`` sets among ``names``, by name; a name it
    leaves unset or null is left out, so that its default applies."""
    return {name: value for name in names
            if (value := _number(section, name, path, issues)) is not None}


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


def _box(value, key, issues, n=None) -> Optional[Box]:
    if value is None:
        _err(issues, key, "missing")
        return None
    if not (isinstance(value, list) and value
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        _err(issues, key, "must be a non-empty list of [lo, hi] pairs")
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)
               for pair in value for v in pair):
        _err(issues, key, "must be a finite number")
        return None
    try:
        box = Box.from_pairs(value)
    except ValueError as exc:
        _err(issues, key, f"not a valid box: {exc}")
        return None
    if n is not None and box.n != n:
        _err(issues, key, f"expected {n} dimensions")
        return None
    return box


# the TubeParams fields whose defaults derive from window_margin
_TUBE_FIELDS = ("edge_buffer", "blend_scale", "time_floor", "step")


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; raises ConfigurationError listing
    every problem with its key path.  This checks the document's shape
    (objects, finite numbers, list lengths); the types built from it check
    their ranges."""
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

    task_sec = _get_section(doc.get("task"), "task", (
        "initial_set", "target_set", "unsafe_sets", "time_limit", "start_state",
        "target_point", "start_margin", "target_margin", "obstacle_margin",
        "constrained_dims", "workspace"), (), issues)
    tube_sec = _get_section(doc.get("tube", {}), "tube", (), ("window_margin",) + _TUBE_FIELDS,
                            issues)
    ctrl_sec = _get_section(doc.get("controller", {}), "controller", (),
                            ("gain", "gain_sign", "input_limit"), issues)
    plant_sec = _get_section(doc.get("plant"), "plant", ("model",), (
        "heading_init", "heading_halfwidth", "disturbance"), issues)
    run_sec = _get_section(doc.get("run", {}), "run", (),
                           ("stay_horizon", "sim_step", "output_dir"), issues)
    # null, like a missing key, means no disturbance
    dist_sec = plant_sec.get("disturbance")
    dist_sec = _get_section({} if dist_sec is None else dist_sec, "plant.disturbance", (),
                            ("kind", "bound", "seed", "frequency", "phase"), issues)

    initial = _box(task_sec.get("initial_set"), "task.initial_set", issues)
    n = initial.n if initial is not None else None
    target = _box(task_sec.get("target_set"), "task.target_set", issues, n)
    workspace = _box(task_sec.get("workspace"), "task.workspace", issues, n)
    unsafe_raw = task_sec.get("unsafe_sets")
    if not isinstance(unsafe_raw, list):
        _err(issues, "task.unsafe_sets", "must be a list of boxes")
        unsafe_raw = []
    unsafe = [_box(entry, f"task.unsafe_sets[{j}]", issues, n)
              for j, entry in enumerate(unsafe_raw)]

    time_limit = _number(task_sec, "time_limit", "task", issues, required=True)
    start_state = _vector(task_sec, "start_state", "task", issues, n)
    target_point = _vector(task_sec, "target_point", "task", issues, n)
    start_margin = _vector(task_sec, "start_margin", "task", issues, n)
    target_margin = _vector(task_sec, "target_margin", "task", issues, n)
    obstacle_margin = _vector(task_sec, "obstacle_margin", "task", issues, len(unsafe)) \
        if unsafe else [1.0]

    cdims = task_sec.get("constrained_dims")
    if not isinstance(cdims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in cdims):
        _err(issues, "task.constrained_dims", "must be a list of 1-based dimension indices")
    elif n is not None and (len(cdims) != n or sorted(cdims) != list(range(1, n + 1))):
        _err(issues, "task.constrained_dims",
             f"must list dimensions 1..{n} (constrained dimensions come first in the state)")

    model = plant_sec.get("model")
    if "model" in plant_sec and not (isinstance(model, str) and model in PLANT_MODELS):
        _err(issues, "plant.model", f"unknown model {model!r}; known: {sorted(PLANT_MODELS)}")
    heading_init = _number(plant_sec, "heading_init", "plant", issues, default=0.0)
    heading_halfwidth = _number(plant_sec, "heading_halfwidth", "plant", issues,
                                default=math.pi / 2, positive=True)

    phases = _vector(dist_sec, "phase", "plant.disturbance", issues) \
        if dist_sec.get("phase") is not None else None
    disturbance = _checked(issues, lambda: DisturbanceModel(
        kind=dist_sec.get("kind", "none"), seed=dist_sec.get("seed", 0), phases=phases,
        **_numbers(dist_sec, ("bound", "frequency"), "plant.disturbance", issues)))

    if issues:
        raise ConfigurationError(issues)

    task = RasTask.create(
        initial_set=initial, target_set=target, unsafe_sets=unsafe,
        deadline=time_limit, start=start_state, target=target_point,
        start_margin=start_margin, target_margin=target_margin,
        obstacle_margin=obstacle_margin, workspace=workspace)

    window_margin = _number(tube_sec, "window_margin", "tube", issues, positive=True)
    tube = _checked(issues, lambda: _corridor(replace(
        TubeParams.defaults(task.deadline, window_margin),
        **_numbers(tube_sec, _TUBE_FIELDS, "tube", issues)), task.deadline))
    controller = _checked(issues, lambda: ControllerConfig(
        gain_sign=ctrl_sec.get("gain_sign", 1),
        **_numbers(ctrl_sec, ("gain", "input_limit"), "controller", issues)))

    output_dir = run_sec.get("output_dir")
    if output_dir is None:
        output_dir = "out"
    elif not isinstance(output_dir, str):
        _err(issues, "run.output_dir", "must be a string")
    scn = Scenario(
        name=path.stem, task=task, tube=tube, controller=controller,
        plant=PlantConfig(model=model, heading_init=heading_init,
                          heading_halfwidth=heading_halfwidth, disturbance=disturbance),
        run=RunConfig(stay_horizon=_number(run_sec, "stay_horizon", "run", issues,
                                           default=0.25 * task.deadline),
                      sim_step=_number(run_sec, "sim_step", "run", issues, default=0.01),
                      output_dir=output_dir))
    _checked(issues, lambda: _sim_options(scn))

    if issues:
        raise ConfigurationError(issues)
    return scn


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


@contextlib.contextmanager
def in_child(work, what: str):
    """Run ``work()`` in a forked child while the body runs, and hand back
    its return value as the ``value`` of the object the body gets, set
    once the body is done.

    The child pickles ``work()``'s value, or the exception it raised, into
    a pipe and leaves through ``os._exit``, so it flushes no inherited
    buffers and runs no exit handlers.  It is waited for on the way out,
    also when the body raises.  After the body, the child's exception is
    raised again here with its own type, and a child that sends nothing
    back (its outcome does not pickle, or it was killed) raises OSError
    naming ``what``; an exception of the body wins over either.  Where
    ``os.fork`` is missing, ``work()`` runs in-line after the body, also
    when the body raises, so that the same files are written and the same
    exception leaves either way.
    """
    result = SimpleNamespace(value=None)
    if not hasattr(os, "fork"):
        try:
            yield result
        except Exception:
            with contextlib.suppress(Exception):
                work()
            raise
        result.value = work()
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                outcome = True, work()
            except Exception as exc:
                outcome = False, exc
            with open(write_end, "wb") as sink:
                pickle.dump(outcome, sink)
            code = 0
        except Exception as exc:
            os.write(2, f"error: {exc}\n".encode())
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        yield result
    finally:
        with open(read_end, "rb") as source:
            sent = source.read()
        _, status = os.waitpid(pid, 0)
    if status or not sent:
        raise OSError(f"{what} failed in a child process "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")
    done, value = pickle.loads(sent)
    if not done:
        raise value
    result.value = value


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
    return base if seed is None else replace(base, seed=seed)


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
    # the corridor is verified and tube.csv written on another core while
    # the closed loop runs
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
            scn.tube = _corridor(replace(
                scn.tube, step=args.dt, time_floor=max(scn.tube.time_floor, args.dt / 2.0)),
                scn.task.deadline)
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
