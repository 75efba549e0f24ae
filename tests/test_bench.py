"""Stage orchestration: manifests, provenance, canonical outputs.

A module-scoped smoke run backs the read-only assertions; stages that
mutate the run directory get their own copies."""

import json
import shutil
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from servopb import bench
from servopb.bench import (Preset, StageError, dataset_digest, file_digest,
                           outcome_rates, read_outcomes, resolve_state,
                           wrong_state)
from servopb.world import load_default, load_scenario

SEED = 7


@pytest.fixture(scope="module")
def sc():
    return load_default()


@pytest.fixture(scope="module")
def smoke_run(sc, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    preset = Preset.from_scenario(sc, "smoke")
    bench.stage_collect(run, sc, SEED, preset)
    bench.stage_codec(run, sc, SEED, preset)
    bench.stage_train(run, sc, SEED, preset)
    for state in preset.states:
        bench.stage_adapt(run, sc, SEED, state, n_episodes=2)
    bench.stage_eval(run, sc, SEED, states=list(preset.states),
                     objects=list(preset.objects), trials=2,
                     modes=("correct", "wrong", "online", "baseline"))
    return run


class TestPreset:
    def test_smoke_preset(self, sc):
        p = Preset.from_scenario(sc, "smoke")
        assert p.states == ("c1-j0", "c1-j1")
        assert p.objects == ("L-25",)
        assert p.trials_per_cell == 2

    def test_paper_preset_expands_all(self, sc):
        p = Preset.from_scenario(sc, "paper")
        assert len(p.states) == 6
        assert len(p.objects) == 4
        assert p.model_epochs == 300

    def test_unknown_preset(self, sc):
        with pytest.raises(StageError):
            Preset.from_scenario(sc, "warp")


class TestStateNames:
    def test_wrong_state_flips_joint_only(self):
        assert wrong_state("c1-j0") == "c1-j1"
        assert wrong_state("c3-j1") == "c3-j0"
        with pytest.raises(ValueError):
            wrong_state("c1.5")

    def test_resolve_grid_and_midpoint(self, sc):
        grid = resolve_state(sc, "c2-j1")
        assert grid is sc.body_states["c2-j1"]
        mid = resolve_state(sc, "c1-j0~c2-j1")
        np.testing.assert_allclose(mid.camera_offset, [0.0, 0.010, 0.0])
        assert np.max(np.abs(mid.joint_offset)) == pytest.approx(np.deg2rad(1.0))
        with pytest.raises(StageError):
            resolve_state(sc, "c9-j9")


class TestManifest:
    def test_stages_recorded_with_input_checksums(self, smoke_run):
        m = bench.load_manifest(smoke_run)
        stages = m["stages"]
        assert stages["codec"]["inputs"]["dataset"] == stages["dataset"]["checksum"]
        assert stages["model"]["inputs"]["codec"] == stages["codec"]["checksum"]
        ev = stages["eval"]["outcomes.csv"]
        assert ev["inputs"]["model"] == stages["model"]["checksum"]
        for st in ("c1-j0", "c1-j1"):
            assert stages["adapt"][st]["inputs"]["model"] == stages["model"]["checksum"]

    def test_artifact_checksums_match_disk(self, smoke_run):
        m = bench.load_manifest(smoke_run)
        assert file_digest(smoke_run / "model.ckpt") == m["stages"]["model"]["checksum"]
        assert file_digest(smoke_run / "codec.ckpt") == m["stages"]["codec"]["checksum"]
        assert dataset_digest(smoke_run / "episodes", "*.bin") == \
            m["stages"]["dataset"]["checksum"]

    def test_seed_guard(self, smoke_run, sc):
        preset = Preset.from_scenario(sc, "smoke")
        with pytest.raises(StageError):
            bench.stage_collect(smoke_run, sc, SEED + 1, preset)

    def test_later_stages_check_the_seed(self, smoke_run, sc):
        preset = Preset.from_scenario(sc, "smoke")
        with pytest.raises(StageError) as err:
            bench.stage_codec(smoke_run, sc, SEED + 92, preset)
        assert (err.value.report["expected"], err.value.report["found"]) == \
            (SEED, SEED + 92)
        with pytest.raises(StageError) as err:
            bench.stage_eval(smoke_run, sc, SEED + 1, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("correct",))
        assert (err.value.report["expected"], err.value.report["found"]) == \
            (SEED, SEED + 1)

    def test_every_entry_has_one_shape(self, smoke_run):
        stages = bench.load_manifest(smoke_run)["stages"]
        entries = [stages[k] for k in ("dataset", "codec", "latents", "model")]
        entries += [*stages["adapt"].values(), *stages["eval"].values()]
        for entry in entries:
            assert {"artifact", "checksum", "completed", "inputs"} <= set(entry)
        assert stages["latents"]["artifact"] == "latents/*.bin"
        assert stages["latents"]["inputs"] == {
            "dataset": stages["dataset"]["checksum"],
            "codec": stages["codec"]["checksum"]}
        assert stages["model"]["inputs"]["latents"] == stages["latents"]["checksum"]
        assert "latents_checksum" not in stages["codec"]

    def test_manifest_records_the_scenario_the_stage_ran(self, sc, tmp_path):
        custom = tmp_path / "custom.yaml"
        blob = files("servopb").joinpath("scenarios/default.yaml").read_bytes()
        custom.write_bytes(blob + b"# a copy with one more line\n")
        preset = replace(Preset.from_scenario(sc, "smoke"), states=("c1-j0",),
                         trials_per_cell=1)
        run = tmp_path / "run"
        bench.stage_collect(run, load_scenario(custom), SEED, preset)
        recorded = bench.load_manifest(run)["scenario_checksum"]
        assert recorded == file_digest(custom) != sc.checksum
        with pytest.raises(StageError) as err:
            bench.stage_codec(run, sc, SEED, preset)
        assert (err.value.report["expected"], err.value.report["found"]) == \
            (recorded, sc.checksum)

    def test_missing_stage_reported(self, sc, tmp_path):
        preset = Preset.from_scenario(sc, "smoke")
        with pytest.raises(StageError) as err:
            bench.stage_codec(tmp_path, sc, SEED, preset)
        assert "missing" in err.value.report or "hint" in err.value.report


class TestProvenance:
    def test_corrupt_model_aborts_eval(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        path = run / "model.ckpt"
        blob = path.read_bytes()
        path.write_bytes(blob + b"x")
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("correct",))
        rep = err.value.report
        assert rep["stage"] == "model"
        assert rep["expected"] != rep["found"]

    def test_eval_rerun_leaves_upstream_untouched(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        before = {p.relative_to(run): file_digest(p)
                  for p in run.rglob("*") if p.is_file()
                  and "eval" not in p.parts and p.name != "manifest.json"}
        shutil.rmtree(run / "eval")
        bench.stage_eval(run, sc, SEED, states=["c1-j0"], objects=["L-25"],
                         trials=1, modes=("correct", "baseline"))
        after = {p.relative_to(run): file_digest(p)
                 for p in run.rglob("*") if p.is_file()
                 and "eval" not in p.parts and p.name != "manifest.json"}
        assert before == after

    def test_recollect_leaves_no_stale_episodes(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        preset = replace(Preset.from_scenario(sc, "smoke"), trials_per_cell=1)
        entry = bench.stage_collect(run, sc, SEED, preset)
        assert len(list((run / "episodes").glob("*.bin"))) == entry["episodes"] == 2
        (run / "latents" / "c9-j9__L-25__000.jsonl").write_text("{}\n")
        bench.stage_codec(run, sc, SEED, preset)
        assert sorted(p.name for p in (run / "latents").iterdir()) == \
            sorted(p.with_suffix(".bin").name
                   for p in (run / "episodes").glob("*.bin"))

    def test_collect_rerun_is_byte_identical(self, smoke_run, sc, tmp_path):
        preset = Preset.from_scenario(sc, "smoke")
        entry = bench.stage_collect(tmp_path / "again", sc, SEED, preset)
        m = bench.load_manifest(smoke_run)
        assert entry["checksum"] == m["stages"]["dataset"]["checksum"]


@pytest.fixture(scope="module")
def restaged(smoke_run, sc, tmp_path_factory):
    """The smoke run re-collected with one trial per cell, then copied
    after each later stage re-runs: {"collect", "codec", "train"} -> run."""
    preset = replace(Preset.from_scenario(sc, "smoke"), trials_per_cell=1)
    run = tmp_path_factory.mktemp("restaged") / "collect"
    shutil.copytree(smoke_run, run)
    bench.stage_collect(run, sc, SEED, preset)
    runs = {"collect": run}
    for name, stage in (("codec", bench.stage_codec),
                        ("train", bench.stage_train)):
        shutil.copytree(run, run.parent / name)
        run = runs[name] = run.parent / name
        stage(run, sc, SEED, preset)
    return runs


def _checksum(run, key):
    group, _, name = key.partition("/")
    entry = bench.load_manifest(run)["stages"][group]
    return (entry[name] if name else entry)["checksum"]


def _assert_stale(err, stage, inputs, old_run, new_run):
    """`stage` was refused for one of `inputs`, reported with the checksum
    it was made from (old run) and the one the input has now."""
    rep = err.value.report
    assert rep["stage"] == stage
    assert rep["input"] in inputs
    assert rep["expected"] == _checksum(old_run, rep["input"])
    assert rep["found"] == _checksum(new_run, rep["input"]) != rep["expected"]


class TestStaleInputs:
    """A stage refuses an input made from an older upstream artifact."""

    def test_train_refuses_latents_of_an_older_dataset(self, smoke_run, sc,
                                                       restaged):
        run = restaged["collect"]
        with pytest.raises(StageError) as err:
            bench.stage_train(run, sc, SEED, Preset.from_scenario(sc, "smoke"))
        _assert_stale(err, "latents", {"dataset"}, smoke_run, run)

    def test_eval_refuses_a_model_of_an_older_codec(self, smoke_run, sc,
                                                    restaged):
        run = restaged["codec"]
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("correct",),
                             out_name="stale.csv")
        _assert_stale(err, "model", {"latents", "codec"}, smoke_run, run)
        assert not (run / "eval" / "stale.csv").exists()

    def test_online_eval_refuses_a_log_of_an_older_model(self, smoke_run, sc,
                                                         restaged):
        run = restaged["train"]
        assert _checksum(run, "model") != _checksum(smoke_run, "model")
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("online",))
        _assert_stale(err, "adapt/c1-j0", {"model", "codec"}, smoke_run, run)

    def test_online_eval_refuses_an_edited_log(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        path = run / "adapt" / "c1-j0.json"
        payload = json.loads(path.read_text())
        payload["p_final"] = [0.5, -0.5]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("online",))
        rep = err.value.report
        assert rep["stage"] == "adapt/c1-j0"
        assert rep["expected"] == _checksum(smoke_run, "adapt/c1-j0")
        assert rep["found"] == file_digest(path) != rep["expected"]

    def test_json_lines_latents_are_refused(self, smoke_run, sc, tmp_path):
        # a run encoded before latents moved to the array container
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        for path in (run / "latents").glob("*.bin"):
            path.with_suffix(".jsonl").write_text("{}\n")
            path.unlink()
        m = bench.load_manifest(run)
        m["stages"]["latents"]["artifact"] = "latents/*.jsonl"
        m["stages"]["latents"]["checksum"] = dataset_digest(run / "latents",
                                                            "*.jsonl")
        (run / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(StageError) as err:
            bench.stage_train(run, sc, SEED, Preset.from_scenario(sc, "smoke"))
        rep = err.value.report
        assert rep["stage"] == "latents"
        assert (rep["expected"], rep["found"]) == ("latents/*.bin",
                                                   "latents/*.jsonl")
        assert "train-codec" in rep["hint"]

    def test_old_layout_entry_is_a_stage_error(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        m = bench.load_manifest(run)
        del m["stages"]["model"]["artifact"]
        (run / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("correct",))
        assert err.value.report["stage"] == "model"


class TestEvalTable:
    def test_csv_shape_and_order(self, smoke_run):
        rows = read_outcomes(smoke_run / "eval" / "outcomes.csv")
        assert len(rows) == 2 * 1 * 2 * 4     # states x objects x trials x modes
        keys = [(r["state"], r["object"], r["trial"], r["mode"]) for r in rows]
        assert keys == sorted(keys)
        assert {r["mode"] for r in rows} == {"correct", "wrong", "online",
                                             "baseline"}
        for r in rows:                        # no grasp times out here
            assert not r["timeout"] and type(r["closed_tick"]) is int
            assert 0 <= r["closed_tick"] < r["ticks"]

    def test_closed_tick_none_on_timeout(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        short = replace(sc, servo={**sc.servo, "max_ticks": 2})
        bench.stage_eval(run, short, SEED, states=["c1-j0"], objects=["L-25"],
                         trials=1, modes=("correct", "baseline"),
                         out_name="short.csv")
        rows = {r["mode"]: r for r in read_outcomes(run / "eval" / "short.csv")}
        assert rows["correct"]["timeout"] and rows["correct"]["closed_tick"] is None
        assert type(rows["baseline"]["closed_tick"]) is int

    def test_modes_share_placements(self, smoke_run):
        rows = read_outcomes(smoke_run / "eval" / "outcomes.csv")
        by_trial = {}
        for r in rows:
            by_trial.setdefault((r["state"], r["object"], r["trial"]),
                                set()).add((r["x"], r["y"], r["yaw"]))
        assert all(len(poses) == 1 for poses in by_trial.values())

    def test_wrong_mode_uses_flipped_state_pb(self, smoke_run):
        rows = read_outcomes(smoke_run / "eval" / "outcomes.csv")
        for r in rows:
            if r["mode"] == "wrong":
                assert r["pb"] == wrong_state(r["state"])
            if r["mode"] == "correct":
                assert r["pb"] == r["state"]

    def test_online_requires_adapt_log(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        shutil.rmtree(run / "adapt")
        with pytest.raises(StageError) as err:
            bench.stage_eval(run, sc, SEED, states=["c1-j0"],
                             objects=["L-25"], trials=1, modes=("online",))
        assert "adapt" in err.value.report.get("hint", "")

    def test_clipped_recorded_per_grasp(self, smoke_run):
        rows = read_outcomes(smoke_run / "eval" / "outcomes.csv")
        assert all(isinstance(r["clipped"], bool) for r in rows)
        assert not any(r["clipped"] for r in rows if r["mode"] == "baseline")

    def test_unknown_object_is_stage_error(self, smoke_run, sc):
        with pytest.raises(StageError) as err:
            bench.stage_eval(smoke_run, sc, SEED, states=["c1-j0"],
                             objects=["X-99"], trials=1, modes=("correct",))
        assert "L-25" in err.value.report["known"]
        with pytest.raises(StageError) as err:
            bench.stage_adapt(smoke_run, sc, SEED, "c1-j0", n_episodes=1,
                              object_name="X-99")
        assert "L-25" in err.value.report["known"]

    def test_outcome_rates_partition(self):
        rows = [{"state": "s", "object": "o", "mode": "m",
                 "outcome": v} for v in
                ("Succeeded", "Rotated", "Failed", "Succeeded")]
        c = outcome_rates(rows, mode="m")
        assert (c["n"], c["Succeeded"], c["Rotated"], c["Failed"]) == (4, 2, 1, 1)
        assert c["success_rate"] == 0.75


class TestAdaptStage:
    def test_log_structure(self, smoke_run):
        payload = json.loads((smoke_run / "adapt" / "c1-j0.json").read_text())
        assert payload["state"] == "c1-j0"
        assert len(payload["p_final"]) == 2
        assert payload["nearest"] in ("c1-j0", "c1-j1")
        ticks = [r["tick"] for r in payload["records"]]
        assert ticks == sorted(ticks)
        assert all(np.isfinite(r["loss"]) for r in payload["records"])

    def test_interpolated_state_accepted(self, smoke_run, sc, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        payload = bench.stage_adapt(run, sc, SEED, "c1-j0~c1-j1",
                                    n_episodes=1)
        assert (run / "adapt" / "c1-j0~c1-j1.json").exists()
        assert len(payload["records"]) > 0


class TestPlotdata:
    def test_full_export(self, smoke_run, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        report = bench.stage_plotdata(run)
        assert set(report["written"]) == {"pb_points.csv", "adapt_loss.csv",
                                          "bars_outcomes.csv"}
        assert report["warnings"] == []
        lines = (run / "plots" / "pb_points.csv").read_text().splitlines()
        trained = [l for l in lines[1:] if l.startswith("trained,")]
        traj = [l for l in lines[1:] if l.startswith("trajectory,")]
        assert len(trained) == 2              # one row per trained state
        assert len(traj) > 0

    def test_fractions_sum_to_one(self, smoke_run, tmp_path):
        run = tmp_path / "copy"
        shutil.copytree(smoke_run, run)
        bench.stage_plotdata(run)
        lines = (run / "plots" / "bars_outcomes.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            fracs = [float(v) for v in cells[-3:]]
            assert sum(fracs) == pytest.approx(1.0, abs=1e-12)

    def test_warnings_on_empty_run(self, tmp_path):
        report = bench.stage_plotdata(tmp_path / "nothing")
        assert "pb_points.csv" in report["written"]
        assert any("model" in w for w in report["warnings"])
        assert any("eval" in w for w in report["warnings"])
        assert any("adaptation" in w for w in report["warnings"])
