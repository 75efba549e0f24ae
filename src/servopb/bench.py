"""Staged experiment runner over a persistent run directory.

Every stage writes its artifact plus a manifest entry carrying a
content checksum and the checksums of the inputs it consumed, so a
stale or swapped upstream file is caught before it silently poisons a
result.  All randomness descends from one root seed split per stage;
two runs with the same scenario and seed produce byte-identical
datasets and outcome tables.

Run directory layout:

    manifest.json     provenance: seeds, checksums, timestamps
    episodes/         raw collected episodes (frames + commands)
    latents/          the same episodes through the codec, JSON lines
    codec.ckpt        autoencoder
    model.ckpt        predictor + PB table
    train_stats.bin   training losses and the PB trajectory per epoch
    adapt/            online-adaptation logs, one JSON per state
    eval/             outcome CSVs
    plots/            plot-ready CSV bundles
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapt import AdapterConfig, PbAdapter, stream_episode
from .codec import CodecConfig, ConvAutoencoder, train_codec
from .collect import collect_dataset, collect_episode, sample_placement
from .data import TrainingSet, encode_raw, load_raw, save_episode, save_raw
from .model import VsnpbConfig, VsnpbModel, train_vsnpb
from .rng import substream
from .servo import baseline_grasp_trial, run_grasp_trial
from .world import ArmWorld, BodyState, load_default, load_scenario
from .checkpoint import save_arrays, load_arrays

__all__ = ["EVAL_MODES", "Preset", "StageError", "dataset_digest",
           "file_digest", "load_manifest", "outcome_rates", "read_outcomes",
           "resolve_state", "stage_adapt", "stage_codec", "stage_collect",
           "stage_eval", "stage_plotdata", "stage_train", "wrong_state"]

EVAL_MODES = ("correct", "wrong", "online", "baseline")
OUTCOME_FIELDS = ("state", "object", "trial", "mode", "pb", "outcome",
                  "ticks", "timeout", "closed_tick", "x", "y", "yaw")


class StageError(RuntimeError):
    """Pipeline precondition failure with a machine-readable report."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = dict(report or {})
        self.report.setdefault("message", message)


@dataclass(frozen=True)
class Preset:
    name: str
    states: tuple[str, ...]
    objects: tuple[str, ...]
    trials_per_cell: int
    codec_epochs: int
    model_epochs: int
    eval_trials: int

    @classmethod
    def from_scenario(cls, sc, name: str) -> "Preset":
        if name not in sc.presets:
            raise StageError(f"unknown preset {name!r}",
                             {"known": sorted(sc.presets)})
        raw = sc.presets[name]
        states = raw["states"]
        objects = raw["objects"]
        if states == "all":
            states = list(sc.body_states)
        if objects == "all":
            objects = list(sc.objects)
        return cls(name=name, states=tuple(states), objects=tuple(objects),
                   trials_per_cell=int(raw["trials_per_cell"]),
                   codec_epochs=int(raw["codec_epochs"]),
                   model_epochs=int(raw["model_epochs"]),
                   eval_trials=int(raw["eval_trials"]))


def wrong_state(name: str) -> str:
    """The deliberately mismatched premise: same camera, flipped joint
    offsets.  Far enough to degrade servoing, near enough that the arm
    still reaches the table."""
    cam, _, joint = name.partition("-j")
    if not joint or not joint.isdigit():
        raise ValueError(f"not a grid state name: {name!r}")
    return f"{cam}-j{1 - int(joint)}"


def resolve_state(sc, name: str) -> BodyState:
    """Grid state by name, or 'a~b' for the midpoint of two grid states."""
    if name in sc.body_states:
        return sc.body_states[name]
    if "~" in name:
        a, _, b = name.partition("~")
        if a in sc.body_states and b in sc.body_states:
            return sc.interpolated_state(name, a, b)
    raise StageError(f"unknown body state {name!r}",
                     {"known": sorted(sc.body_states)})


# -- manifest plumbing -------------------------------------------------

def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_digest(directory: Path, pattern: str) -> str:
    h = hashlib.sha256()
    files = sorted(Path(directory).glob(pattern))
    for f in files:
        h.update(f.name.encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def _manifest_path(run: Path) -> Path:
    return Path(run) / "manifest.json"


def load_manifest(run: Path) -> dict:
    path = _manifest_path(run)
    if not path.exists():
        raise StageError(f"no manifest in {run}",
                         {"missing": str(path), "hint": "run collect first"})
    return json.loads(path.read_text())


def _save_manifest(run: Path, manifest: dict) -> None:
    _manifest_path(run).write_text(json.dumps(manifest, indent=2,
                                              sort_keys=True) + "\n")


def _scenario_digest(scenario_path) -> str:
    if scenario_path is None:
        from importlib.resources import files
        blob = (files("servopb") / "scenarios" / "default.yaml").read_bytes()
        return hashlib.sha256(blob).hexdigest()
    return file_digest(Path(scenario_path))


def _open_manifest(run: Path, scenario_path, seed: int, *,
                   create: bool = False) -> dict:
    """The run's manifest, checked against this call's scenario and seed.

    With `create`, a run without a manifest starts a fresh one."""
    sc_digest = _scenario_digest(scenario_path)
    if create and not _manifest_path(run).exists():
        return {"scenario_checksum": sc_digest, "seed": seed, "stages": {}}
    manifest = load_manifest(run)
    if manifest["scenario_checksum"] != sc_digest:
        raise StageError("scenario does not match the one this run was "
                         "collected with",
                         {"expected": manifest["scenario_checksum"],
                          "found": sc_digest})
    if manifest["seed"] != seed:
        raise StageError("seed differs from the run's recorded seed",
                         {"expected": manifest["seed"], "found": seed})
    return manifest


def _require(manifest: dict, stage: str) -> dict:
    entry = manifest.get("stages", {}).get(stage)
    if entry is None:
        raise StageError(f"stage {stage!r} has not run",
                         {"stage": stage, "have": sorted(manifest.get("stages", {}))})
    return entry


def _verify_artifact(run: Path, manifest: dict, stage: str, rel: str) -> str:
    """Recompute a stage artifact's digest and compare to the manifest."""
    entry = _require(manifest, stage)
    path = Path(run) / rel
    if not path.exists():
        raise StageError(f"artifact for stage {stage!r} is missing",
                         {"stage": stage, "path": str(path)})
    found = file_digest(path)
    if found != entry["checksum"]:
        raise StageError(
            f"checksum mismatch for stage {stage!r}",
            {"stage": stage, "artifact": str(path),
             "expected": entry["checksum"], "found": found,
             "hint": f"re-run the {stage} stage"})
    return found


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# -- stages ------------------------------------------------------------

def stage_collect(run, sc, seed: int, preset: Preset, *,
                  scenario_path=None, progress=None) -> dict:
    """Collect the episode corpus and open the run's manifest."""
    run = Path(run)
    run.mkdir(parents=True, exist_ok=True)
    manifest = _open_manifest(run, scenario_path, seed, create=True)
    episodes_dir = run / "episodes"
    episodes_dir.mkdir(exist_ok=True)
    episodes, log = collect_dataset(sc, seed, states=preset.states,
                                    objects=preset.objects,
                                    trials=preset.trials_per_cell)
    for stale in episodes_dir.glob("*.bin"):   # from an earlier collect
        stale.unlink()
    for ep in episodes:
        save_raw(episodes_dir / f"{ep.tag}.bin", ep)
        if progress is not None:
            progress(f"collected {ep.tag}")
    (episodes_dir / "collect.log").write_text("\n".join(log) + "\n" if log else "")
    checksum = dataset_digest(episodes_dir, "*.bin")
    manifest["stages"]["dataset"] = {
        "checksum": checksum, "completed": _now(), "episodes": len(episodes),
        "preset": preset.name,
        "params": {"states": list(preset.states),
                   "objects": list(preset.objects),
                   "trials_per_cell": preset.trials_per_cell}}
    _save_manifest(run, manifest)
    return manifest["stages"]["dataset"]


def _load_raw_episodes(run: Path):
    files = sorted((Path(run) / "episodes").glob("*.bin"))
    if not files:
        raise StageError("no collected episodes found",
                         {"path": str(Path(run) / "episodes")})
    return [load_raw(f) for f in files]


def stage_codec(run, sc, seed: int, preset: Preset, *, scenario_path=None,
                progress=None) -> dict:
    """Train the autoencoder, then encode every episode to latents."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    dataset = _require(manifest, "dataset")
    if dataset_digest(run / "episodes", "*.bin") != dataset["checksum"]:
        raise StageError("dataset changed since collection",
                         {"stage": "dataset", "hint": "re-run collect"})
    raws = _load_raw_episodes(run)
    frames = np.concatenate([r.frames for r in raws])
    cfg = CodecConfig(height=frames.shape[1], width=frames.shape[2],
                      latent_dim=int(sc.codec["latent_dim"]))
    result = train_codec(frames, cfg, seed=seed,
                         epochs=preset.codec_epochs,
                         batch_size=int(sc.codec["batch"]),
                         lr=float(sc.codec["lr"]))
    if progress is not None:
        progress(f"codec loss {result.losses[0]:.5f} -> {result.losses[-1]:.5f}")
    result.model.save(run / "codec.ckpt")
    latents_dir = run / "latents"
    latents_dir.mkdir(exist_ok=True)
    for stale in latents_dir.glob("*.jsonl"):
        stale.unlink()
    for raw in raws:
        save_episode(latents_dir / f"{raw.tag}.jsonl",
                     encode_raw(raw, result.model))
    manifest["stages"]["codec"] = {
        "checksum": file_digest(run / "codec.ckpt"),
        "latents_checksum": dataset_digest(latents_dir, "*.jsonl"),
        "completed": _now(), "epochs": preset.codec_epochs,
        "final_loss": result.losses[-1],
        "inputs": {"dataset": dataset["checksum"]}}
    _save_manifest(run, manifest)
    return manifest["stages"]["codec"]


def stage_train(run, sc, seed: int, preset: Preset, *, scenario_path=None,
                progress=None) -> dict:
    """Train the predictor and PB table on the encoded corpus."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    codec_entry = _require(manifest, "codec")
    _verify_artifact(run, manifest, "codec", "codec.ckpt")
    if dataset_digest(run / "latents", "*.jsonl") != codec_entry["latents_checksum"]:
        raise StageError("latent episodes changed since encoding",
                         {"stage": "codec", "hint": "re-run train-codec"})
    ts = TrainingSet.from_dir(run / "latents")
    s, u, k = ts.arrays()
    cfg = VsnpbConfig(n_s=s.shape[2], n_u=u.shape[2],
                      n_p=int(sc.model["pb_dim"]))
    result = train_vsnpb(s, u, k, ts.state_names, config=cfg, seed=seed,
                         epochs=preset.model_epochs,
                         batch_size=int(sc.model["batch"]),
                         lr=float(sc.model["lr"]), progress=progress)
    result.model.save(run / "model.ckpt")
    save_arrays(run / "train_stats.bin",
                {"losses": result.losses, "pb_history": result.pb_history},
                meta={"states": ts.state_names})
    manifest["stages"]["model"] = {
        "checksum": file_digest(run / "model.ckpt"),
        "completed": _now(), "epochs": preset.model_epochs,
        "final_loss": float(result.losses[-1]),
        "inputs": {"codec": codec_entry["checksum"],
                   "dataset": manifest["stages"]["dataset"]["checksum"]}}
    _save_manifest(run, manifest)
    return manifest["stages"]["model"]


def _load_model_and_codec(run: Path, manifest: dict):
    _verify_artifact(run, manifest, "model", "model.ckpt")
    _verify_artifact(run, manifest, "codec", "codec.ckpt")
    return (VsnpbModel.load(Path(run) / "model.ckpt"),
            ConvAutoencoder.load(Path(run) / "codec.ckpt"))


def stage_adapt(run, sc, seed: int, state_name: str, *, n_episodes: int = 3,
                object_name: str = "L-25", scenario_path=None,
                progress=None) -> dict:
    """Stream fresh scripted episodes in one body state, adapting p online.

    The state may be a grid name or an interpolated 'a~b' midpoint; the
    estimate starts at zero and persists across the episodes."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    model, codec = _load_model_and_codec(run, manifest)
    state = resolve_state(sc, state_name)
    spec = sc.objects[object_name]
    world = ArmWorld(sc, state)
    adapter = PbAdapter(model, AdapterConfig(**sc.adapter))
    rng = substream(seed, "adapt", state_name)
    used: set = set()
    for i in range(n_episodes):
        world.spawn_in_gripper(spec)
        x, y, yaw = sample_placement(sc, spec, rng, used)
        raw = collect_episode(world, sc, spec, x, y, yaw, seed=seed, trial=i)
        ep = encode_raw(raw, codec)
        stream_episode(adapter, ep.latents, raw.commands)
        world.remove_object(spec.name)
        world.gripper_cmd = 0.0
        if progress is not None:
            progress(f"adapt {state_name} episode {i}: p={adapter.p}")
    payload = {
        "state": state_name, "object": object_name, "episodes": n_episodes,
        "p_final": [float(v) for v in adapter.p],
        "nearest": adapter.nearest_state(),
        "records": [{"tick": r.tick, "p": [float(v) for v in r.p],
                     "loss": r.loss, "grad_norm": r.grad_norm}
                    for r in adapter.log]}
    adapt_dir = run / "adapt"
    adapt_dir.mkdir(exist_ok=True)
    out = adapt_dir / f"{state_name}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    manifest["stages"].setdefault("adapt", {})[state_name] = {
        "checksum": file_digest(out), "completed": _now(),
        "inputs": {"model": manifest["stages"]["model"]["checksum"]}}
    _save_manifest(run, manifest)
    return payload


def _pb_for_mode(run: Path, model: VsnpbModel, mode: str, state_name: str):
    if mode == "correct":
        if state_name not in model.state_names:
            raise StageError(f"no trained PB for state {state_name!r}",
                             {"mode": mode, "trained": model.state_names})
        return model.pb_for(state_name), state_name
    if mode == "wrong":
        other = wrong_state(state_name)
        if other not in model.state_names:
            raise StageError(f"no trained PB for state {other!r}",
                             {"mode": mode, "trained": model.state_names})
        return model.pb_for(other), other
    if mode == "online":
        path = Path(run) / "adapt" / f"{state_name}.json"
        if not path.exists():
            raise StageError(
                f"online mode needs an adaptation log for {state_name!r}",
                {"missing": str(path), "hint": "run the adapt stage first"})
        payload = json.loads(path.read_text())
        return np.array(payload["p_final"], dtype=np.float64), "online"
    raise StageError(f"unknown eval mode {mode!r}", {"known": list(EVAL_MODES)})


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def stage_eval(run, sc, seed: int, *, states, objects, trials: int,
               modes=("correct", "wrong", "baseline"),
               out_name: str = "outcomes.csv", scenario_path=None,
               progress=None) -> dict:
    """Run the grasp-trial grid and write one canonical outcome CSV.

    Trial placements are shared across modes so the comparison is
    paired; every mode sees the identical object pose in a fresh world."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    model, codec = _load_model_and_codec(run, manifest)
    max_ticks = int(sc.servo["max_ticks"])
    lift = float(sc.servo["lift_mm"]) / 1000.0
    rows = []
    for state_name in states:
        state = resolve_state(sc, state_name)
        for object_name in objects:
            spec = sc.objects[object_name]
            rng = substream(seed, "eval", state_name, object_name)
            used: set = set()
            for trial in range(trials):
                x, y, yaw = sample_placement(sc, spec, rng, used)
                for mode in modes:
                    world = ArmWorld(sc, state)
                    world.place_object(spec, x, y, yaw)
                    if mode == "baseline":
                        res = baseline_grasp_trial(world, spec)
                        pb_label = "-"
                    else:
                        p, pb_label = _pb_for_mode(run, model, mode, state_name)
                        res = run_grasp_trial(world, model, codec, p,
                                              max_ticks=max_ticks, lift=lift)
                    rows.append({
                        "state": state_name, "object": object_name,
                        "trial": trial, "mode": mode, "pb": pb_label,
                        "outcome": res.outcome.value, "ticks": res.ticks,
                        "timeout": int(res.timeout),
                        "closed_tick": res.closed_tick,
                        "x": x, "y": y, "yaw": yaw})
                    if progress is not None:
                        progress(f"{state_name} {object_name} #{trial} "
                                 f"{mode}: {res.outcome.value}")
    rows.sort(key=lambda r: (r["state"], r["object"], r["trial"], r["mode"]))
    lines = [",".join(OUTCOME_FIELDS)]
    lines += [",".join(_format_cell(r[f]) for f in OUTCOME_FIELDS) for r in rows]
    eval_dir = run / "eval"
    eval_dir.mkdir(exist_ok=True)
    out = eval_dir / out_name
    out.write_text("\n".join(lines) + "\n")
    manifest["stages"].setdefault("eval", {})[out_name] = {
        "checksum": file_digest(out), "completed": _now(),
        "trials": trials, "states": list(states), "objects": list(objects),
        "modes": list(modes),
        "inputs": {"model": manifest["stages"]["model"]["checksum"]}}
    _save_manifest(run, manifest)
    return manifest["stages"]["eval"][out_name]


# -- outcome table helpers --------------------------------------------

def read_outcomes(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(header, cells))
        row["trial"] = int(row["trial"])
        row["ticks"] = int(row["ticks"])
        row["timeout"] = bool(int(row["timeout"]))
        for f in ("x", "y", "yaw"):
            row[f] = float(row[f])
        out.append(row)
    return out


def outcome_rates(rows, **filters) -> dict:
    """Success statistics over the rows matching `filters`."""
    sel = [r for r in rows
           if all(r[k] == v for k, v in filters.items())]
    n = len(sel)
    counts = {"Succeeded": 0, "Rotated": 0, "Failed": 0}
    for r in sel:
        counts[r["outcome"]] += 1
    success = counts["Succeeded"] + counts["Rotated"]
    return {"n": n, **counts,
            "success_rate": success / n if n else float("nan")}


def stage_plotdata(run) -> dict:
    """Export plot-ready CSVs from whatever stages have completed."""
    run = Path(run)
    plots = run / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written, warnings = [], []

    # (a) PB scatter: trained points plus adaptation trajectories
    pb_lines = ["kind,state,step,tick,p0,p1"]
    model_path = run / "model.ckpt"
    if model_path.exists():
        model = VsnpbModel.load(model_path)
        for name, p in zip(model.state_names, model.pb_table):
            pb_lines.append(f"trained,{name},,,{p[0]!r},{p[1]!r}")
    else:
        warnings.append("model stage missing: no trained PB points")
    adapt_files = sorted((run / "adapt").glob("*.json")) if (run / "adapt").exists() else []
    if not adapt_files:
        warnings.append("no adaptation logs: scatter has trained points only")
    traj_rows = 0
    loss_lines = ["state,step,tick,loss,grad_norm"]
    for f in adapt_files:
        payload = json.loads(f.read_text())
        for step, rec in enumerate(payload["records"]):
            pb_lines.append(f"trajectory,{payload['state']},{step},{rec['tick']},"
                            f"{rec['p'][0]!r},{rec['p'][1]!r}")
            loss_lines.append(f"{payload['state']},{step},{rec['tick']},"
                              f"{rec['loss']!r},{rec['grad_norm']!r}")
            traj_rows += 1
    (plots / "pb_points.csv").write_text("\n".join(pb_lines) + "\n")
    written.append("pb_points.csv")
    if traj_rows:
        (plots / "adapt_loss.csv").write_text("\n".join(loss_lines) + "\n")
        written.append("adapt_loss.csv")

    # (b) outcome bars per (state, object, mode)
    eval_files = sorted((run / "eval").glob("*.csv")) if (run / "eval").exists() else []
    if not eval_files:
        warnings.append("eval stage missing: no outcome bars")
    for f in eval_files:
        rows = read_outcomes(f)
        keys = sorted({(r["state"], r["object"], r["mode"]) for r in rows})
        bar_lines = ["state,object,mode,n,succeeded,rotated,failed,"
                     "frac_succeeded,frac_rotated,frac_failed"]
        for state, obj, mode in keys:
            c = outcome_rates(rows, state=state, object=obj, mode=mode)
            n = c["n"]
            bar_lines.append(
                f"{state},{obj},{mode},{n},{c['Succeeded']},{c['Rotated']},"
                f"{c['Failed']},{c['Succeeded'] / n!r},{c['Rotated'] / n!r},"
                f"{c['Failed'] / n!r}")
        name = f"bars_{f.stem}.csv"
        (plots / name).write_text("\n".join(bar_lines) + "\n")
        written.append(name)
    return {"written": written, "warnings": warnings}


def load_scenario_arg(path) -> tuple:
    """(scenario, path-or-None) from an optional CLI argument."""
    if path is None:
        return load_default(), None
    return load_scenario(path), path
