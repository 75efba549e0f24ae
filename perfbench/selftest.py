"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Tiny-size runs only (--size tiny), about a minute in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import servopb.bench  # noqa: E402
from servopb.world import Renderer  # noqa: E402
from tracing import Tracer, traced  # noqa: E402
from workloads import check_episode, check_training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_cli(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def printed_digest(stdout: str) -> str:
    line = next(s for s in stdout.splitlines() if s.startswith("# digest "))
    return line.split()[-1]


def tiny(workload, seed, trace):
    proc = bench_cli("--workload", workload, "--seed", seed, "--seconds", 0,
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def in_process(capsys, workload, seed=1):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--size", "tiny"]) == 0
    return result_of(capsys.readouterr().out)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_unit(workload, trace, group):
    # a second seed on the traced runs: the checks must pass there too
    res = result_of(tiny(workload, 1 + trace, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        for prefix, wall in (("self.", "trace.wall_s"), ("setup.self.", "setup.wall_s")):
            parts = sum(v for k, v in values.items() if k.startswith(prefix))
            assert parts == pytest.approx(values[wall], rel=1e-9)
    else:
        assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])


def test_same_seed_same_digest_other_seed_other_digest():
    first, again, other = (tiny("collect", s, 0) for s in (5, 5, 6))
    assert printed_digest(first) == printed_digest(again)
    assert printed_digest(first) != printed_digest(other)


def test_traced_counts_repeat_exactly():
    counts = [{k: v["value"] for k, v in result_of(tiny("serve", 3, 1))["metrics"].items()
               if v["unit"] in ("count", "ratio", "B")} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["servo.ticks"] > 0 and counts[0]["servo.baseline.calls"] > 0
    # set-up warms every adapter, so each measured observe runs an update
    assert counts[0]["adapt.update_ratio"] == 1.0
    assert counts[0]["autodiff.tape_ops"] > 0 and counts[0]["render.used_ratio"] > 0


def test_corrupted_frames_count_as_failures(monkeypatch, capsys):
    original = Renderer.render

    def float_frames(self, *args, **kwargs):
        return original(self, *args, **kwargs).astype(np.float32)

    monkeypatch.setattr(Renderer, "render", float_frames)
    res = in_process(capsys, "collect")
    assert res["correct"] is False and res["failed"] == res["attempted"] >= 1


def test_nan_loss_counts_as_failure(monkeypatch, capsys):
    original = servopb.bench.train_vsnpb

    def nan_losses(*args, **kwargs):
        result = original(*args, **kwargs)
        result.losses[-1] = np.nan
        return result

    monkeypatch.setattr(servopb.bench, "train_vsnpb", nan_losses)
    res = in_process(capsys, "train")
    assert res["correct"] is False and res["failed"] >= 1


def test_checks_reject_bad_outputs():
    from servopb.collect import collect_dataset
    from servopb.world import load_default

    sc = load_default()
    [ep], _ = collect_dataset(sc, 1, states=["c1-j0"], objects=["L-25"], trials=1)
    assert check_episode(ep, "c1-j0", "L-25", sc) == []
    ep.frames = ep.frames.astype(np.float64)
    ep.commands[3, 2] = np.inf
    assert len(check_episode(ep, "c1-j0", "L-25", sc)) == 2
    losses = np.array([1.0, 0.5])
    ok = (np.array([0.2, 0.1]), {"final_loss": 0.1}, {"final_loss": 0.5}, losses,
          np.zeros((2, 2)))
    assert check_training(*ok) == []
    assert check_training(np.array([0.1, 0.2]), *ok[1:])
    assert check_training(np.array([0.2, math.nan]), *ok[1:])
    assert check_training(ok[0], {"final_loss": math.nan}, *ok[2:])
    assert check_training(*ok[:3], np.array([1.0, math.nan]), ok[4])


def test_serve_mix_matches_the_evaluation_protocol():
    import inspect

    from servopb.bench import Preset, stage_adapt, stage_eval
    from servopb.world import load_default
    from workloads import GRASP_MODES, GRASPS_PER_ADAPT

    paper = Preset.from_scenario(load_default(), "paper")
    modes = inspect.signature(stage_eval).parameters["modes"].default
    episodes = inspect.signature(stage_adapt).parameters["n_episodes"].default
    assert GRASP_MODES == modes
    assert GRASPS_PER_ADAPT * episodes == len(paper.objects) * paper.eval_trials * len(modes)


def test_tracing_restores_the_program():
    before = Renderer.render
    with traced(Tracer()):
        assert Renderer.render is not before
    assert Renderer.render is before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_cli("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
