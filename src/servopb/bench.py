"""Staged experiment runner over a persistent run directory.

A stage writes its artifact with one manifest entry {artifact,
checksum, completed, inputs, ...}, `inputs` holding each input's
checksum at the time, and reads an input only through its entry: the
input's artifact is re-hashed, and its recorded inputs, transitively,
must equal their entries' checksums, so an artifact edited by hand or
made from an older upstream raises StageError naming the stage, the
input and both checksums.  The entries are dataset, codec, latents
(the episodes encoded), model, adapt/<state> and eval/<csv>.  All
randomness descends from one root seed split per stage; two runs with
the same scenario and seed produce byte-identical datasets and
outcome tables.

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
from .checkpoint import save_arrays, load_arrays  # perfbench traces both

__all__ = ["EVAL_MODES", "Preset", "StageError", "dataset_digest",
           "file_digest", "load_manifest", "outcome_rates", "read_outcomes",
           "resolve_state", "stage_adapt", "stage_codec", "stage_collect",
           "stage_eval", "stage_plotdata", "stage_train", "wrong_state"]

EVAL_MODES = ("correct", "wrong", "online", "baseline")
OUTCOME_FIELDS = ("state", "object", "trial", "mode", "pb", "outcome",
                  "ticks", "timeout", "closed_tick", "clipped", "x", "y", "yaw")


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


def _known(table: dict, name: str, what: str):
    if name not in table:
        raise StageError(f"unknown {what} {name!r}", {"known": sorted(table)})
    return table[name]


def resolve_state(sc, name: str) -> BodyState:
    """Grid state by name, or 'a~b' for the midpoint of two grid states."""
    a, _, b = name.partition("~")
    if b and a in sc.body_states and b in sc.body_states:
        return sc.interpolated_state(name, a, b)
    return _known(sc.body_states, name, "body state")


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


def _stage_error(key: str, message: str, **report) -> StageError:
    return StageError(message, {"stage": key, **report,
                                "hint": f"re-run the stage that writes {key}"})


def _entry(manifest: dict, key: str) -> dict:
    """The manifest entry for `key`; 'group/name' keys are nested."""
    group, _, name = key.partition("/")
    stages = manifest["stages"]
    entry = stages.get(group, {}).get(name) if name else stages.get(key)
    if entry is None:
        raise _stage_error(key, f"stage {key!r} has not run", have=sorted(stages))
    return entry


def _artifact_digest(run: Path, artifact: str) -> str | None:
    """Checksum of a run-relative file (None if absent) or glob."""
    path = Path(run) / artifact
    if "*" in artifact:
        return dataset_digest(path.parent, path.name)
    return file_digest(path) if path.exists() else None


def _record(run: Path, manifest: dict, key: str, artifact: str, inputs,
            **info) -> dict:
    """Write and save `key`'s entry: its artifact's checksum and the
    current checksum of each input it was made from."""
    entry = {"artifact": artifact, "checksum": _artifact_digest(run, artifact),
             "completed": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
             "inputs": {k: _entry(manifest, k)["checksum"] for k in inputs},
             **info}
    group, _, name = key.partition("/")
    table = manifest["stages"].setdefault(group, {}) if name else manifest["stages"]
    table[name or key] = entry
    _save_manifest(run, manifest)
    return entry


def _verified(run: Path, manifest: dict, key: str) -> dict:
    """`key`'s entry, once its artifact re-hashes to its checksum and its
    inputs, transitively, equal their entries (upstream is not re-hashed)."""
    entry = _entry(manifest, key)
    artifact = entry.get("artifact")    # absent in an older manifest layout
    found = artifact and _artifact_digest(run, artifact)
    if found is None or found != entry.get("checksum"):
        raise _stage_error(key, f"artifact of stage {key!r} is missing, "
                           "changed or unrecorded", artifact=artifact,
                           expected=entry.get("checksum"), found=found)
    pending = [key]     # entries only name earlier entries: no cycles
    while pending:
        stage = pending.pop()
        for name, expected in _entry(manifest, stage).get("inputs", {}).items():
            found = _entry(manifest, name).get("checksum")
            if found != expected:
                raise _stage_error(stage, f"stage {stage!r} was made from an "
                                   f"older {name!r}", input=name,
                                   expected=expected, found=found)
            pending.append(name)
    return entry


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
    return _record(run, manifest, "dataset", "episodes/*.bin", (),
                   episodes=len(episodes), preset=preset.name,
                   params={"states": list(preset.states),
                           "objects": list(preset.objects),
                           "trials_per_cell": preset.trials_per_cell})


def stage_codec(run, sc, seed: int, preset: Preset, *, scenario_path=None,
                progress=None) -> dict:
    """Train the autoencoder, then encode every episode to latents."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    _verified(run, manifest, "dataset")
    raws = [load_raw(f) for f in sorted((run / "episodes").glob("*.bin"))]
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
    entry = _record(run, manifest, "codec", "codec.ckpt", ("dataset",),
                    epochs=preset.codec_epochs, final_loss=result.losses[-1])
    latents_dir = run / "latents"
    latents_dir.mkdir(exist_ok=True)
    for stale in latents_dir.glob("*.jsonl"):
        stale.unlink()
    for raw in raws:
        save_episode(latents_dir / f"{raw.tag}.jsonl",
                     encode_raw(raw, result.model))
    _record(run, manifest, "latents", "latents/*.jsonl", ("dataset", "codec"))
    return entry


def stage_train(run, sc, seed: int, preset: Preset, *, scenario_path=None,
                progress=None) -> dict:
    """Train the predictor and PB table on the encoded corpus."""
    run = Path(run)
    manifest = _open_manifest(run, scenario_path, seed)
    _verified(run, manifest, "latents")
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
    # the model runs in the codec's latent space: adapt and eval pair the two
    return _record(run, manifest, "model", "model.ckpt", ("latents", "codec"),
                   epochs=preset.model_epochs,
                   final_loss=float(result.losses[-1]))


def _load_model_and_codec(run: Path, manifest: dict):
    _verified(run, manifest, "model")
    _verified(run, manifest, "codec")
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
    state = resolve_state(sc, state_name)
    spec = _known(sc.objects, object_name, "object")
    model, codec = _load_model_and_codec(run, manifest)
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
    (run / "adapt").mkdir(exist_ok=True)
    (run / "adapt" / f"{state_name}.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    _record(run, manifest, f"adapt/{state_name}", f"adapt/{state_name}.json",
            ("model", "codec"))
    return payload


def _pb_for_mode(run: Path, manifest: dict, model: VsnpbModel, mode: str,
                 state_name: str):
    if mode in ("correct", "wrong"):
        name = state_name if mode == "correct" else wrong_state(state_name)
        if name not in model.state_names:
            raise StageError(f"no trained PB for state {name!r}",
                             {"mode": mode, "trained": model.state_names})
        return model.pb_for(name), name
    if mode == "online":
        entry = _verified(run, manifest, f"adapt/{state_name}")
        payload = json.loads((Path(run) / entry["artifact"]).read_text())
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
    body = {name: resolve_state(sc, name) for name in states}
    specs = {name: _known(sc.objects, name, "object") for name in objects}
    model, codec = _load_model_and_codec(run, manifest)
    pbs = {(s, m): _pb_for_mode(run, manifest, model, m, s)
           for s in states for m in modes if m != "baseline"}
    max_ticks = int(sc.servo["max_ticks"])
    lift = float(sc.servo["lift_mm"]) / 1000.0
    rows = []
    for state_name in states:
        state = body[state_name]
        for object_name in objects:
            spec = specs[object_name]
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
                        p, pb_label = pbs[state_name, mode]
                        res = run_grasp_trial(world, model, codec, p,
                                              max_ticks=max_ticks, lift=lift)
                    rows.append({
                        "state": state_name, "object": object_name,
                        "trial": trial, "mode": mode, "pb": pb_label,
                        "outcome": res.outcome.value, "ticks": res.ticks,
                        "timeout": int(res.timeout),
                        "closed_tick": res.closed_tick,
                        "clipped": int(res.clipped),
                        "x": x, "y": y, "yaw": yaw})
                    if progress is not None:
                        progress(f"{state_name} {object_name} #{trial} "
                                 f"{mode}: {res.outcome.value}")
    rows.sort(key=lambda r: (r["state"], r["object"], r["trial"], r["mode"]))
    lines = [",".join(OUTCOME_FIELDS)]
    lines += [",".join(_format_cell(r[f]) for f in OUTCOME_FIELDS) for r in rows]
    (run / "eval").mkdir(exist_ok=True)
    (run / "eval" / out_name).write_text("\n".join(lines) + "\n")
    online = [f"adapt/{s}" for s in states] if "online" in modes else []
    return _record(run, manifest, f"eval/{out_name}", f"eval/{out_name}",
                   ("model", "codec", *online), trials=trials,
                   states=list(states), objects=list(objects),
                   modes=list(modes))


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
        for f in {"timeout", "clipped"} & row.keys():   # older: no clipped
            row[f] = bool(int(row[f]))
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
