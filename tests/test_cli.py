import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rastube
import rastube.cli as cli
from rastube.avoidance import schedule
from rastube.cli import parse_scenario, run_cli
from rastube.errors import ConfigurationError, SynthesisError
from rastube.geometry import Box
from rastube.plant import DisturbanceModel
from rastube.tube import evolve_tube, verify_tube

from conftest import assert_no_child_left, reference_csv


def load_bundled():
    return json.loads(Path(rastube.bundled_scenario_path()).read_text())


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParse:
    def test_bundled_case_study_values(self):
        scn = parse_scenario(rastube.bundled_scenario_path())
        task = scn.task
        assert task.initial_set.as_pairs() == [[0.0, 0.5], [0.0, 0.5]]
        assert task.target_set.as_pairs() == [[11.0, 11.5], [7.0, 7.5]]
        assert [u.as_pairs() for u in task.unsafe_sets] == [
            [[1.5, 2.0], [0.5, 3.0]],
            [[5.2, 6.8], [3.2, 4.0]],
            [[7.0, 8.0], [0.0, 8.0]],
        ]
        assert task.deadline == 80.0
        assert scn.plant.model == "omni_robot"
        assert scn.controller.gain == 2.0

    def test_buffer_above_window_margin_names_key(self, tmp_path):
        doc = load_bundled()
        doc["tube"]["edge_buffer"] = 2.0  # window_margin is 0.8
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert any(path == "tube.edge_buffer" for path, _ in err.value.issues)

    def test_start_outside_initial_set_names_key(self, tmp_path):
        doc = load_bundled()
        doc["task"]["start_state"] = [5.0, 0.25]
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert any(path == "task.start_state" for path, _ in err.value.issues)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = load_bundled()
        doc["task"]["typo_key"] = 1
        doc["extra_section"] = {}
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        paths = [p for p, _ in err.value.issues]
        assert "task.typo_key" in paths
        assert "extra_section" in paths

    @pytest.mark.parametrize("seed", [1.5, "7", True, -1])
    def test_non_integer_disturbance_seed_names_key(self, tmp_path, seed):
        doc = load_bundled()
        doc["plant"]["disturbance"]["seed"] = seed
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert [path for path, _ in err.value.issues] == ["plant.disturbance.seed"]

    @pytest.mark.parametrize("key, value, disturbance", [
        ("task.start_margin", math.nan, None),
        ("task.obstacle_margin", [0.15, math.inf, 0.15], None),
        ("task.obstacle_margin", math.nan, None),
        ("plant.disturbance.bound", math.nan, None),
        ("plant.disturbance.bound", math.inf, None),
        ("plant.disturbance.frequency", math.nan, "sinusoidal"),
        ("plant.disturbance.phase", [math.nan, 0.0], "sinusoidal")])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, key, value, disturbance):
        # JSON's NaN and Infinity parse as floats; they must not reach a run
        doc = load_bundled()
        if disturbance is not None:
            doc["plant"]["disturbance"]["kind"] = disturbance
        *parents, name = key.split(".")
        section = doc
        for part in parents:
            section = section[part]
        section[name] = value
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, where, value", [
        ("task.time_limit", ("task", "time_limit"), 10 ** 400),
        ("task.start_state", ("task", "start_state", 0), 10 ** 400),
        ("task.initial_set", ("task", "initial_set", 0, 1), 10 ** 400),
        ("task.unsafe_sets[0]", ("task", "unsafe_sets", 0, 0, 1), 10 ** 400),
        ("plant.heading_init", ("plant", "heading_init"), 10 ** 400),
        ("plant.disturbance.bound", ("plant", "disturbance", "bound"), 10 ** 400),
        ("plant.disturbance.bound", ("plant", "disturbance", "bound"), -10 ** 400)],
        ids=["time_limit", "start_state", "initial_set", "unsafe_sets", "heading_init",
             "bound", "negative-bound"])
    def test_integer_too_large_for_float_exits_two(self, tmp_path, capsys, key, where, value):
        # a 401-digit JSON integer parses as a Python int that no float holds
        doc = load_bundled()
        *parents, last = where
        section = doc
        for part in parents:
            section = section[part]
        section[last] = value
        out = tmp_path / "syn"
        code = run_cli(["synthesize", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_step_above_twice_time_floor_names_key(self, tmp_path, capsys):
        doc = load_bundled()
        doc["tube"].update({"step": 0.01, "time_floor": 0.004})
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert [path for path, _ in err.value.issues] == ["tube.step"]
        out = tmp_path / "syn"
        code = run_cli(["synthesize", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 2
        assert "error: tube.step:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step, accepted", [(10.0, True), (20.0, False), (1e308, False)])
    def test_step_coarser_than_an_eighth_of_time_limit_names_key(self, tmp_path, step,
                                                                  accepted):
        # the bundled deadline is 80 s; the corridor grid takes at least 8 steps
        doc = load_bundled()
        doc["tube"].update({"step": step, "time_floor": step / 2.0})
        scenario = write_scenario(tmp_path, doc)
        if accepted:
            assert parse_scenario(scenario).tube.step == step
            return
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(scenario)
        assert [path for path, _ in err.value.issues] == ["tube.step"]

    @pytest.mark.parametrize("gain_sign", [1.0, True, 2, "1", None])
    def test_gain_sign_must_be_an_integer_sign(self, tmp_path, gain_sign):
        doc = load_bundled()
        doc["controller"]["gain_sign"] = gain_sign
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert [path for path, _ in err.value.issues] == ["controller.gain_sign"]

    def test_step_at_twice_time_floor_accepted(self, tmp_path):
        doc = load_bundled()
        doc["tube"].update({"step": 0.01, "time_floor": 0.005})
        scn = parse_scenario(write_scenario(tmp_path, doc))
        assert scn.tube.step == 2.0 * scn.tube.time_floor

    @pytest.mark.parametrize("section, key, span", [("tube", "step", 80.0),
                                                    ("run", "sim_step", 100.0)])
    def test_grid_rows_capped(self, tmp_path, section, key, span):
        # bundled: 80 s to the deadline plus a 20 s stay horizon
        doc = load_bundled()
        doc[section][key] = span / (cli.MAX_GRID_ROWS - 1)
        parse_scenario(write_scenario(tmp_path, doc))
        for step in (span / cli.MAX_GRID_ROWS, 1e-300, 5e-324):
            doc[section][key] = step
            with pytest.raises(ConfigurationError) as err:
                parse_scenario(write_scenario(tmp_path, doc))
            assert [path for path, _ in err.value.issues] == [f"{section}.{key}"]

    def test_missing_keys_reported_once(self, tmp_path):
        doc = load_bundled()
        del doc["task"]["initial_set"], doc["task"]["time_limit"]
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(write_scenario(tmp_path, doc))
        assert err.value.issues == [("task.initial_set", "missing"),
                                    ("task.time_limit", "missing")]

    @pytest.mark.parametrize("key, where, value", [
        ("task.unsafe_sets[0]", ("task", "unsafe_sets", 0), "x"),
        ("task.initial_set", ("task", "initial_set"), [[0.0, 0.5, 1.0], [0.0, 0.5]]),
        ("task.target_set", ("task", "target_set"), []),
        ("task.workspace", ("task", "workspace"), [0.0, 12.0])],
        ids=["string", "triple", "empty", "flat"])
    def test_box_shape_names_key(self, tmp_path, capsys, key, where, value):
        # a box is a list of [lo, hi] pairs; the message says so instead of
        # passing on the unpacking's "not enough values to unpack"
        doc = load_bundled()
        *parents, last = where
        section = doc
        for part in parents:
            section = section[part]
        section[last] = value
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(path)
        assert (key, "must be a non-empty list of [lo, hi] pairs") in err.value.issues
        assert run_cli(["synthesize", "--scenario", str(path), "--out",
                        str(tmp_path / "syn")]) == 2
        assert f"error: {key}: must be a non-empty list of [lo, hi] pairs" in \
            capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            parse_scenario(path)


def fast_scenario(tmp_path, **tweaks):
    """Bundled geometry at a coarse corridor step, for quick CLI runs.

    The denominator floor scales with the step to keep the shaper
    feedback inside the integrator's stability region.
    """
    doc = load_bundled()
    doc["tube"].update({"step": 0.004, "time_floor": 0.002})
    doc["run"].update({"stay_horizon": 4.0})
    for section, values in tweaks.items():
        doc[section].update(values)
    return write_scenario(tmp_path, doc, "fast.json")


def unreachable_schedule(*args):
    raise AssertionError("planned a corridor for a rejected grid")


def in_process_tube_csv(scenario, path):
    """The corridor CSV of ``scenario`` written in this process by the
    reference writer."""
    scn = parse_scenario(scenario)
    return reference_csv(evolve_tube(scn.task, schedule(scn.task, scn.tube), scn.tube), path)


class TestPipeline:
    def test_synthesize_writes_artifacts_and_passes(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "syn"
        assert run_cli(["synthesize", "--scenario", str(scenario), "--out", str(out)]) == 0
        for name in ("plans.json", "tube.csv", "verify.json", "smoothness.json"):
            assert (out / name).exists()
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["passed"] is True
        plans = json.loads((out / "plans.json").read_text())
        assert len(plans["plans"]) == 3
        assert plans["assumptions"]["passed"] is True

    def test_no_unsafe_sets_writes_standard_json(self, tmp_path):
        # without unsafe sets the clearance margin is vacuous (infinite);
        # every written file must parse as standard JSON, which has no
        # NaN or Infinity literal
        doc = load_bundled()
        doc["task"]["unsafe_sets"] = []
        out = tmp_path / "syn"
        assert run_cli(["synthesize", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)]) == 0

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")

        names = sorted(p.name for p in out.glob("*.json"))
        assert names == ["plans.json", "smoothness.json", "verify.json"]
        for name in names:
            json.loads((out / name).read_text(), parse_constant=reject)
        verdict = json.loads((out / "verify.json").read_text())
        clear = [c for c in verdict["conditions"] if c["name"] == "avoids_unsafe"]
        assert clear == [{"name": "avoids_unsafe", "passed": True, "margin": None,
                          "detail": clear[0]["detail"], "witness_times": []}]

    def test_simulate_exit_zero_and_flags(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert run["flags"] == {"reached": True, "safe": True,
                                "contained": True, "stayed": True}
        assert run["failure"] is None
        assert (out / "trace.csv").exists()

    def test_verify_detects_corrupted_tube(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "syn2"
        assert run_cli(["synthesize", "--scenario", str(scenario), "--out", str(out)]) == 0
        tube_path = out / "tube.csv"
        lines = tube_path.read_text().splitlines()
        cells = lines[50].split(",")
        cells[1], cells[2] = cells[2], cells[1]  # invert g1L/g1U on one row
        lines[50] = ",".join(cells)
        bad = tmp_path / "bad_tube.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(["verify", "--scenario", str(scenario),
                        "--tube", str(bad), "--out", str(tmp_path / "ver")])
        assert code == 3
        verdict = json.loads((tmp_path / "ver" / "verify.json").read_text())
        by_name = {c["name"]: c["passed"] for c in verdict["conditions"]}
        assert by_name["ordered_bounds"] is False

    def test_verify_roundtrip_matches_synthesize(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "syn3"
        assert run_cli(["synthesize", "--scenario", str(scenario), "--out", str(out)]) == 0
        code = run_cli(["verify", "--scenario", str(scenario),
                        "--tube", str(out / "tube.csv"), "--out", str(tmp_path / "ver3")])
        assert code == 0
        a = json.loads((out / "verify.json").read_text())
        b = json.loads((tmp_path / "ver3" / "verify.json").read_text())
        assert [c["passed"] for c in a["conditions"]] == \
            [c["passed"] for c in b["conditions"]]

    def test_compare_reports_energy_reduction(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(scenario), "--out", str(out),
                        "--sim-step", "0.0005"])
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["baseline_kind"] == "reconstructed"
        assert report["energy_ratio"] < 1.0

    def test_invalid_scenario_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, {"task": {}})
        assert run_cli(["simulate", "--scenario", str(path)]) == 2

    def test_infeasible_schedule_exits_three(self, tmp_path):
        doc = load_bundled()
        doc["task"]["unsafe_sets"] = [[[5.2, 6.8], [3.2, 4.0]],
                                      [[5.3, 6.9], [3.3, 4.1]]]
        doc["task"]["obstacle_margin"] = [0.15, 0.15]
        path = write_scenario(tmp_path, doc)
        assert run_cli(["synthesize", "--scenario", str(path),
                        "--out", str(tmp_path / "o")]) == 3

    def test_batch_runs_all(self, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        for name in ("a", "b"):
            shutil.copy(fast_scenario(tmp_path), batch / f"{name}.json")
        out = tmp_path / "batch_out"
        code = run_cli(["simulate", "--batch", str(batch), "--out", str(out)])
        assert code == 0
        assert (out / "a" / "run.json").exists()
        assert (out / "b" / "run.json").exists()


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(out), "--seed", "5"]) == 0
            outs.append(out)
        for fname in ("trace.csv", "tube.csv", "run.json", "verify.json",
                      "plans.json", "smoothness.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between identical runs"

    def test_seed_changes_trace(self, tmp_path):
        scenario = fast_scenario(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(["simulate", "--scenario", str(scenario),
                        "--out", str(out1), "--seed", "5"]) == 0
        assert run_cli(["simulate", "--scenario", str(scenario),
                        "--out", str(out2), "--seed", "6"]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


class TestOverrides:
    @pytest.mark.parametrize("flag, value, key", [
        ("--sim-step", "0", "run.sim_step"),
        ("--sim-step", "-0.01", "run.sim_step"),
        ("--stay-horizon", "-1", "run.stay_horizon"),
        ("--seed", "-1", "plant.disturbance.seed"),
        ("--dt", "inf", "tube.step"),
        ("--dt", "nan", "tube.step"),
        ("--dt", "-1", "tube.step"),
        ("--dt", "20", "tube.step"),
        ("--dt", "1e308", "tube.step")])
    def test_invalid_simulation_override_exits_two(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(fast_scenario(tmp_path)),
                        "--out", str(out), flag, value])
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()  # rejected before any synthesis work

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_non_integer_scenario_seed_exits_two(self, tmp_path, capsys, seed):
        doc = load_bundled()
        doc["plant"]["disturbance"]["seed"] = seed
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 2
        assert "error: plant.disturbance.seed:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", [[], {}, ["omni_robot"], None])
    def test_unhashable_plant_model_exits_two(self, tmp_path, capsys, model):
        doc = load_bundled()
        doc["plant"]["model"] = model
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(write_scenario(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: plant.model:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("disturbance", [None, {}, [], 0, False, "", [1]],
                             ids=["null", "empty-object", "empty-list", "zero", "false",
                                  "empty-string", "list"])
    def test_disturbance_must_be_an_object_or_null(self, tmp_path, capsys, disturbance):
        # null and {} mean no disturbance; any other non-object exits 2
        doc = load_bundled()
        doc["plant"]["disturbance"] = disturbance
        scenario = write_scenario(tmp_path, doc)
        if disturbance in (None, {}):
            assert parse_scenario(scenario).plant.disturbance == DisturbanceModel()
            return
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: plant.disturbance: must be an object\n"
        assert not out.exists()

    @pytest.mark.parametrize("output_dir", [None, ["a"], 5, {"x": 1}],
                             ids=["null", "list", "number", "object"])
    def test_output_dir_must_be_a_string(self, tmp_path, capsys, monkeypatch, output_dir):
        # null takes the default directory; any other non-string exits 2
        # and writes nothing
        scenario = fast_scenario(tmp_path, run={"output_dir": output_dir})
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code = run_cli(["synthesize", "--scenario", str(scenario)])
        if output_dir is None:
            assert code == 0
            assert [p.name for p in work.iterdir()] == ["out"]
        else:
            assert code == 2
            assert "error: run.output_dir:" in capsys.readouterr().err
            assert not list(work.iterdir())

    def test_zero_dt_exits_two(self, tmp_path, capsys):
        out = tmp_path / "syn"
        code = run_cli(["synthesize", "--scenario", str(fast_scenario(tmp_path)),
                        "--out", str(out), "--dt", "0"])
        assert code == 2
        assert "error: tube.step:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, key", [
        ("synthesize", "--dt", "tube.step"), ("simulate", "--dt", "tube.step"),
        ("simulate", "--sim-step", "run.sim_step"), ("compare", "--sim-step", "run.sim_step")])
    def test_grid_rows_over_cap_exit_two(self, tmp_path, capsys, monkeypatch, command, flag,
                                         key):
        monkeypatch.setattr(cli, "schedule", unreachable_schedule)
        out = tmp_path / "out"
        code = run_cli([command, "--scenario", str(fast_scenario(tmp_path)),
                        "--out", str(out), flag, "1e-300"])
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_checks_the_step_it_runs(self, tmp_path, capsys, monkeypatch):
        # 5e-4 s gives simulate 168001 rows over 84 s; compare steps at a
        # tenth of it over the 80 s deadline, 1600001 rows
        scenario = fast_scenario(tmp_path, run={"sim_step": 5e-4})
        parse_scenario(scenario)
        monkeypatch.setattr(cli, "schedule", unreachable_schedule)
        out = tmp_path / "out"
        assert run_cli(["compare", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "error: run.sim_step:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "t,g1L,g1U,g2L,g2U\n",
                                         "t,g1L,g1U,g2L,g2U\n0,0,0.3,x,0.3\n",
                                         "t,g1L,g1U,g2L,g2U\n0,0,0.3,nan,0.3\n",
                                         "t,g1L,g1U,g2L,g2U\n0,0,0.3,0,inf\n"],
                             ids=["missing", "header-only", "non-numeric", "nan", "inf"])
    def test_unreadable_tube_exits_two(self, tmp_path, capsys, content):
        tube = tmp_path / "tube.csv"
        if content is not None:
            tube.write_text(content)
        out = tmp_path / "ver"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["verify", "--scenario", str(fast_scenario(tmp_path)),
                            "--tube", str(tube), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: --tube:" in err
        assert "UserWarning" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]
        assert not out.exists()

    def test_flag_unused_by_subcommand_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--scenario", str(fast_scenario(tmp_path)),
                     "--tube", "tube.csv", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--sim-step", "0"), ("--seed", "1")])
    def test_batch_rejects_overrides(self, tmp_path, capsys, flag, value):
        batch = tmp_path / "batch"
        batch.mkdir()
        shutil.copy(fast_scenario(tmp_path), batch / "a.json")
        out = tmp_path / "batch_out"
        code = run_cli(["simulate", "--batch", str(batch), "--out", str(out), flag, value])
        assert code == 2
        assert f"error: --batch: cannot be combined with {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestTubeWriter:
    """``simulate`` verifies the corridor and writes tube.csv from a forked
    child during the closed loop; each CSV is written by one process."""

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-line"])
    def test_tube_csv_matches_in_process_write(self, tmp_path, monkeypatch, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert_no_child_left()
        assert (out / "tube.csv").read_bytes() == \
            in_process_tube_csv(scenario, tmp_path / "ref.csv")

    @pytest.mark.parametrize("command, forks", [
        ("synthesize", 0), ("verify", 0), ("simulate", 1), ("compare", 1)])
    def test_forks_per_command(self, tmp_path, monkeypatch, command, forks):
        # simulate forks for its certify step and compare for its baseline
        # loop; no command forks to write a CSV
        scenario = fast_scenario(tmp_path)
        argv = [command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        if command == "verify":
            assert run_cli(["synthesize", "--scenario", str(scenario),
                            "--out", str(tmp_path / "syn")]) == 0
            argv += ["--tube", str(tmp_path / "syn" / "tube.csv")]
        if command == "compare":
            argv += ["--sim-step", "0.005"]
        log = tmp_path / "forks"
        log.touch()
        fork = os.fork

        def logged_fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        run_cli(argv)
        assert_no_child_left()
        assert log.read_text().split() == [str(os.getpid())] * forks

    def test_failed_write_raises_after_the_loop(self, tmp_path):
        out = tmp_path / "sim"
        (out / "tube.csv").mkdir(parents=True)
        with pytest.raises(OSError):
            run_cli(["simulate", "--scenario", str(fast_scenario(tmp_path)),
                     "--out", str(out)])
        assert (out / "trace.csv").exists()
        assert_no_child_left()

    def test_closed_loop_configuration_error_exits_two(self, tmp_path, monkeypatch, capsys):
        def collapsed(*args, **kwargs):
            raise ConfigurationError([("frame", "upper bound must exceed lower bound")])

        monkeypatch.setattr(cli, "_run_simulation", collapsed)
        scenario = fast_scenario(tmp_path)
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "error: frame:" in capsys.readouterr().err
        assert_no_child_left()
        assert (out / "tube.csv").read_bytes() == \
            in_process_tube_csv(scenario, tmp_path / "ref.csv")
        assert not (out / "trace.csv").exists()


def run_both_ways(tmp_path, *argv):
    """Exit code, stderr and output files of ``run_cli(argv + --out)`` run
    with ``os.fork`` and with it deleted; both runs must agree byte for
    byte."""
    runs = []
    for fork in (True, False):
        out = tmp_path / ("forked" if fork else "in-line")
        with pytest.MonkeyPatch.context() as mp:
            if not fork:
                mp.delattr(os, "fork")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = run_cli([*argv, "--out", str(out)])
        assert_no_child_left()
        runs.append((code, err.getvalue(),
                     {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    return runs[0]


class TestForkedAndInLine:
    """A command gives the same exit code, message and files whether its
    second process is forked or its work runs in-line."""

    def test_verification_error_exits_four(self, tmp_path, monkeypatch):
        def diverged(tube, task):
            raise SynthesisError("verification diverged", time=1.0)

        monkeypatch.setattr(cli, "verify_tube", diverged)
        code, err, files = run_both_ways(tmp_path, "simulate", "--scenario",
                                         str(fast_scenario(tmp_path)))
        assert code == 4
        assert err == "error: verification diverged\n"
        assert sorted(files) == ["plans.json", "trace.csv"]

    def test_failed_verification_exits_three(self, tmp_path, monkeypatch):
        # verified against one more unsafe set, which the corridor crosses
        # and the closed loop is not told of
        def stricter(tube, task):
            crossed = Box.from_pairs([[-1.0, 1.0], [-1.0, 1.0]])
            return verify_tube(tube, dataclasses.replace(
                task, unsafe_sets=task.unsafe_sets + (crossed,)))

        monkeypatch.setattr(cli, "verify_tube", stricter)
        code, err, files = run_both_ways(tmp_path, "simulate", "--scenario",
                                         str(fast_scenario(tmp_path)))
        assert code == 3
        run = json.loads(files["run.json"])
        assert run["corridor_verified"] is False
        assert run["flags"] == {"reached": True, "safe": True, "contained": True,
                                "stayed": True}
        assert json.loads(files["verify.json"])["passed"] is False

    def test_closed_loop_configuration_error_exits_two(self, tmp_path, monkeypatch):
        def collapsed(*args, **kwargs):
            raise ConfigurationError([("frame", "upper bound must exceed lower bound")])

        monkeypatch.setattr(cli, "_run_simulation", collapsed)
        scenario = fast_scenario(tmp_path)
        code, err, files = run_both_ways(tmp_path, "simulate", "--scenario", str(scenario))
        assert code == 2
        assert err == "error: frame: upper bound must exceed lower bound\n"
        assert sorted(files) == ["plans.json", "smoothness.json", "tube.csv", "verify.json"]
        assert files["tube.csv"] == in_process_tube_csv(scenario, tmp_path / "ref.csv")

    def test_compare_report_matches(self, tmp_path):
        # at this coarse step the baseline, run by the child, leaves its
        # corridor: its flags come back and decide the exit code
        code, err, files = run_both_ways(tmp_path, "compare", "--scenario",
                                         str(fast_scenario(tmp_path)), "--sim-step", "0.005")
        assert code == 3
        assert list(files) == ["comparison.json"]
        report = json.loads(files["comparison.json"])
        assert report["smooth_flags"]["contained"] is True
        assert report["baseline_flags"]["contained"] is False


def fuzz_base():
    """The bundled scenario at a coarse corridor and closed-loop step:
    synthesize passes in about 10 ms, and simulate fails its closed loop
    (exit 3) in about 30 ms."""
    doc = load_bundled()
    doc["tube"].update({"step": 0.04, "time_floor": 0.02})
    doc["run"].update({"stay_horizon": 1.0, "sim_step": 0.008})
    return doc


def node_paths(node, path=()):
    """The path of every object member and list entry under ``node``."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


FUZZ_PATHS = list(node_paths(fuzz_base()))
DELETE = object()


def set_node(doc, path, value):
    """Set ``doc`` at ``path`` to ``value``, or remove it for DELETE,
    unless an earlier mutation removed or replaced what leads there."""
    node = doc
    with contextlib.suppress(KeyError, IndexError, TypeError):
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value


MUTANTS = st.one_of(
    st.sampled_from([None, [], {}, True, False, 0, -1, 0.0, -0.0, 5e-324, 1e-300, 1e308, -1e308,
                     2 ** 53 + 1, 2 ** 63, 10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf,
                     DELETE]),
    st.floats(), st.floats(-20.0, 20.0), st.integers(), st.text(max_size=4))
# an exit-2 line names the key path of the problem
KEY_LINE = re.compile(r"error: \w+(\.\w+|\[\d+\])*: ")


class TestScenarioFuzz:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), MUTANTS), min_size=1, max_size=2),
           st.sampled_from(["synthesize", "simulate"]))
    def test_mutated_scenario_exits_cleanly(self, mutations, command):
        doc = fuzz_base()
        for path, value in mutations:
            set_node(doc, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "fuzz.json"
            scenario.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = run_cli([command, "--scenario", str(scenario),
                                "--out", str(Path(tmp) / "out")])
        err = err.getvalue()
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 2:
            lines = err.splitlines()
            assert lines and all(KEY_LINE.match(line) for line in lines), err
