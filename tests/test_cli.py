"""Command-line surface: exit codes and machine-readable errors."""

import json
import shutil

import pytest

from servopb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("cli_run")
    for cmd in (["collect"], ["train-codec"], ["train"]):
        code = main(cmd + ["--out", str(run), "--seed", "3", "--quiet"])
        assert code == 0
    return run


class TestHappyPath:
    def test_collect_emits_summary_json(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "collect", "--out", str(tmp_path),
                               "--seed", "5", "--quiet")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["stage"] == "collect"
        assert summary["episodes"] == 4

    def test_adapt_then_eval(self, capsys, pipeline_dir):
        code, out, _ = run_cli(capsys, "adapt", "--out", str(pipeline_dir),
                               "--seed", "3", "--state", "c1-j0",
                               "--episodes", "1", "--quiet")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["state"] == "c1-j0"
        code, out, _ = run_cli(capsys, "eval", "--out", str(pipeline_dir),
                               "--seed", "3", "--states", "c1-j0",
                               "--objects", "L-25", "--trials", "1",
                               "--modes", "correct,baseline", "--quiet")
        assert code == 0
        assert (pipeline_dir / "eval" / "outcomes.csv").exists()

    def test_train_prints_one_line_per_epoch(self, capsys, pipeline_dir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        code, out, _ = run_cli(capsys, "train", "--out", str(run), "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        epochs = [l for l in lines if l.startswith("model epoch ")]
        assert epochs[-1].startswith("model epoch 12/12 loss ")
        assert len(epochs) == 12
        assert json.loads(lines[-1])["stage"] == "train"

    def test_plotdata_tolerates_empty_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "plotdata", "--out", str(tmp_path),
                               "--quiet")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["warnings"]


class TestFailurePaths:
    def test_eval_before_train_is_stage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--out", str(tmp_path),
                               "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["error"] == "StageError"
        assert "hint" in payload or "missing" in payload

    def test_unknown_preset(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "collect", "--out", str(tmp_path),
                               "--preset", "galactic", "--quiet")
        assert code == 2
        assert json.loads(err.strip())["error"] == "StageError"

    def test_bad_mode_rejected(self, capsys, pipeline_dir):
        code, _, err = run_cli(capsys, "eval", "--out", str(pipeline_dir),
                               "--seed", "3", "--modes", "psychic", "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert "psychic" in payload["message"]

    def test_seed_mismatch_with_existing_run(self, capsys, pipeline_dir):
        code, _, err = run_cli(capsys, "collect", "--out", str(pipeline_dir),
                               "--seed", "4", "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["expected"] == 3
        assert payload["found"] == 4

    @pytest.mark.parametrize("argv", [("adapt", "--state", "c1-j0", "--episodes", "0"),
                                      ("adapt", "--state", "c1-j0", "--episodes", "-2"),
                                      ("eval", "--trials", "0"),
                                      ("eval", "--trials", "-1")])
    def test_non_positive_counts_rejected(self, capsys, pipeline_dir, argv):
        code, _, err = run_cli(capsys, *argv, "--out", str(pipeline_dir),
                               "--seed", "3", "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["error"] == "BadArgument"
        assert argv[-2] in payload["message"]

    @pytest.mark.parametrize("argv", [("adapt", "--state", "c1-j0", "--object", "X-99"),
                                      ("eval", "--objects", "X-99")])
    def test_unknown_object_is_stage_error(self, capsys, pipeline_dir, argv):
        code, _, err = run_cli(capsys, *argv, "--out", str(pipeline_dir),
                               "--seed", "3", "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["error"] == "StageError"
        assert "L-25" in payload["known"]

    def test_stale_online_eval_reports_the_input(self, capsys, pipeline_dir,
                                                 tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        code, _, _ = run_cli(capsys, "adapt", "--out", str(run), "--seed", "3",
                             "--state", "c1-j0", "--episodes", "1", "--quiet")
        assert code == 0
        # as if the log had been adapted against an earlier model
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["stages"]["adapt"]["c1-j0"]["inputs"]["model"] = "0" * 64
        (run / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run_cli(capsys, "eval", "--out", str(run), "--seed", "3",
                               "--states", "c1-j0", "--modes", "online",
                               "--trials", "1", "--name", "stale.csv", "--quiet")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["error"] == "StageError"
        assert (payload["stage"], payload["input"]) == ("adapt/c1-j0", "model")
        assert payload["expected"] == "0" * 64
        assert payload["found"] == manifest["stages"]["model"]["checksum"]
        assert not (run / "eval" / "stale.csv").exists()
