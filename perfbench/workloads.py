"""The benchmark's workloads, their inputs and their correctness checks.

Each workload is a closed loop with one client: it prepares request i
from the workload seed (untimed), sends it, waits for the reply and
checks it before preparing request i+1.  All three only call the
package's public functions.

- serve: grasp requests (`run_grasp_trial` with the correct or the
  wrong state's PB, and `baseline_grasp_trial`) interleaved with
  adaptation requests (`stream_episode` into a per-state `PbAdapter`),
  in the proportions of the repository's evaluation protocol (see
  GRASP_MODES).  The controller is built in set-up from a fixed fixture
  seed, so it is the same deployed model under every workload seed; the
  seed picks placements and order.
- collect: place-then-pick episodes through `collect_dataset`, one cell
  (body state, object) per request.  No neural network runs.
- train: one request re-runs `bench.stage_codec` and `bench.stage_train`
  on a corpus collected in set-up.  Render and sim do no work.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from servopb import adapt, bench, collect, servo
from servopb.adapt import AdapterConfig, PbAdapter
from servopb.checkpoint import load_arrays
from servopb.codec import ConvAutoencoder
from servopb.collect import CollectionError
from servopb.data import load_raw
from servopb.model import VsnpbModel
from servopb.rng import substream
from servopb.world import ArmWorld, Outcome, load_default

FIXTURE_SEED = 2405   # serve's deployed controller, independent of --seed
# The serve mix follows the evaluation protocol of the `paper` preset.
# Per body state, `stage_eval` grasps at 4 objects x 5 eval_trials
# placements, each in its default modes (correct PB, wrong state's PB,
# baseline): 60 grasps.  `stage_adapt` streams n_episodes=3 episodes per
# state.  That is 20 grasps per adaptation episode, a third of them
# baseline.
GRASP_MODES = ("correct", "wrong", "baseline")
GRASPS_PER_ADAPT = 20


@dataclass
class Reply:
    """What one request produced: work items, failed checks, digest bytes."""
    items: int
    problems: list[str] = field(default_factory=list)
    record: bytes = b""
    kind: str = ""
    detail: dict = field(default_factory=dict)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64))))


def _preset(name, states, objects, codec_epochs, model_epochs):
    return bench.Preset(name=name, states=tuple(states), objects=tuple(objects),
                        trials_per_cell=1, codec_epochs=codec_epochs,
                        model_epochs=model_epochs, eval_trials=1)


def _grid(tiny: bool) -> tuple[list[str], list[str]]:
    """Body states and objects a workload cycles through."""
    sc = load_default()
    states = list(sc.body_states)
    return (states[:2], ["L-25"]) if tiny else (states, list(sc.objects))


def _round_perm(seed, tag, r, n) -> np.ndarray:
    return substream(seed, tag, "order", r).permutation(n)


def _ms(seconds) -> list[float]:
    return [t * 1e3 for t in seconds]


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(items, seconds) -> float:
    return items / seconds if seconds else 0.0


# -- serve --------------------------------------------------------------

@dataclass
class ServeFixture:
    sc: object
    model: VsnpbModel
    codec: ConvAutoencoder
    streams: dict          # state -> (latents, commands) encoded in set-up
    adapters: dict         # state -> PbAdapter with a warm replay buffer


class Serve:
    """One block is `grasps` grasp requests, then one adaptation request.
    Grasp g serves placement g // 3 in mode g % 3, so each placement is
    grasped in every mode, as `stage_eval` pairs them."""
    name = "serve"
    errors = (FloatingPointError, CollectionError)

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.states, self.objects = _grid(tiny)
        self.grasps = len(GRASP_MODES) if tiny else GRASPS_PER_ADAPT
        self.block = self.grasps + 1
        self.fixture_preset = _preset("serve-fixture", self.states, ["L-25"],
                                      codec_epochs=1 if tiny else 2,
                                      model_epochs=2 if tiny else 10)
        self.setup_repeats = 1 if tiny else 4
        # three blocks hold each grasp mode equally often (20 grasps each)
        self.min_ops = self.block if tiny else 3 * self.block
        self.trace_ops = self.block

    def setup(self, work: Path) -> ServeFixture:
        sc = load_default()
        p = self.fixture_preset
        bench.stage_collect(work, sc, FIXTURE_SEED, p)
        bench.stage_codec(work, sc, FIXTURE_SEED, p)
        bench.stage_train(work, sc, FIXTURE_SEED, p)
        model = VsnpbModel.load(work / "model.ckpt")
        codec = ConvAutoencoder.load(work / "codec.ckpt")
        cfg = AdapterConfig(**sc.adapter)
        # below n_thre + n_batch - 1 buffered steps an update replays fewer
        # windows; fill the buffer that far so every measured update does
        # the steady-state work, however many requests a run sends
        warm = cfg.n_thre + cfg.n_batch - 1
        streams, adapters = {}, {}
        for path in sorted((work / "episodes").glob("*.bin")):
            raw = load_raw(path)
            latents = codec.encode(raw.frames)
            adapter = PbAdapter(model, cfg)
            adapt.stream_episode(adapter, latents[:warm], raw.commands[:warm])
            streams[raw.state_name] = (latents, raw.commands)
            adapters[raw.state_name] = adapter
        return ServeFixture(sc, model, codec, streams, adapters)

    def session(self, fx: ServeFixture) -> "ServeSession":
        return ServeSession(self, fx)

    @staticmethod
    def summarize(done) -> dict:
        """Grasp and adaptation figures behind the gated metrics."""
        grasps = [(r, t) for r, t in done if r.kind != "adapt"]
        g_ms = _ms(t for _, t in grasps)
        a_ms = _ms(t for r, t in done if r.kind == "adapt")
        return {"grasps": len(g_ms), "adapt_requests": len(a_ms),
                "grasp_ms_p50": _p50(g_ms),
                "grasp_ms_p90": statistics.quantiles(g_ms, n=10)[-1] if len(g_ms) > 1 else 0.0,
                "ticks_per_s": _rate(sum(r.items for r, _ in grasps), sum(g_ms) / 1e3),
                "adapt_request_ms_p50": _p50(a_ms)}


class ServeSession:
    def __init__(self, wl: Serve, fx: ServeFixture):
        self.wl, self.fx = wl, fx
        self.cells = [(s, o) for s in wl.states for o in wl.objects]

    def prepare(self, i: int):
        wl, sc = self.wl, self.fx.sc
        k, j = divmod(i, wl.block)
        if j == wl.grasps:
            r, n = divmod(k, len(wl.states))
            state = wl.states[_round_perm(wl.seed, "serve-adapt", r, len(wl.states))[n]]
            return ("adapt", state, None, None)
        q, m = divmod(k * wl.grasps + j, len(GRASP_MODES))
        r, c = divmod(q, len(self.cells))
        state, obj = self.cells[_round_perm(wl.seed, "serve-grasp", r, len(self.cells))[c]]
        spec = sc.objects[obj]
        x, y, yaw = collect.sample_placement(
            sc, spec, substream(wl.seed, "serve", "place", q), set())
        world = ArmWorld(sc, sc.body_states[state])
        world.place_object(spec, x, y, yaw)
        return (GRASP_MODES[m], state, obj, world)

    def run(self, req) -> Reply:
        kind, state, obj, world = req
        if kind == "adapt":
            return self._adapt(state)
        sc, fx = self.fx.sc, self.fx
        if kind == "baseline":
            res = servo.baseline_grasp_trial(world, sc.objects[obj])
        else:
            pb_state = state if kind == "correct" else bench.wrong_state(state)
            res = servo.run_grasp_trial(
                world, fx.model, fx.codec, fx.model.pb_for(pb_state),
                max_ticks=int(sc.servo["max_ticks"]),
                lift=float(sc.servo["lift_mm"]) / 1000.0)
        return Reply(res.ticks, check_grasp(res, kind, sc), kind=kind,
                     record=f"{kind},{state},{obj},{res.outcome.value},{res.ticks},"
                            f"{res.timeout},{res.closed_tick};".encode()
                            + res.commands.tobytes())

    def _adapt(self, state) -> Reply:
        latents, commands = self.fx.streams[state]
        adapter = self.fx.adapters[state]
        updates = adapt.stream_episode(adapter, latents, commands)
        problems = [] if _finite(adapter.p) else [f"adapted p not finite: {adapter.p}"]
        if not 0 <= updates <= len(latents):
            problems.append(f"impossible update count {updates}")
        return Reply(len(latents), problems, kind="adapt",
                     record=f"adapt,{state},{updates};".encode() + adapter.p.tobytes())


def check_grasp(res, kind: str, sc) -> list[str]:
    problems = []
    if not isinstance(res.outcome, Outcome):
        problems.append(f"{kind}: outcome {res.outcome!r} is not an Outcome")
    limit = (sc.timing.total_ticks if kind == "baseline"
             else int(sc.servo["max_ticks"]) + 3)
    if not 0 <= res.ticks <= limit:
        problems.append(f"{kind}: {res.ticks} ticks outside [0, {limit}]")
    if res.commands.shape != (res.ticks, 7) or not _finite(res.commands):
        problems.append(f"{kind}: bad command log {res.commands.shape}")
    if res.timeout and res.outcome is not Outcome.FAILED:
        problems.append(f"{kind}: timeout reported as {res.outcome}")
    return problems


# -- collect ------------------------------------------------------------

class Collect:
    name = "collect"
    errors = (CollectionError,)
    block = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.states, self.objects = _grid(tiny)
        self.setup_repeats = 1 if tiny else 7
        self.min_ops = 2 if tiny else 20
        self.trace_ops = 1 if tiny else 8

    def setup(self, work: Path):
        """Scenario plus one warm render per body state."""
        sc = load_default()
        for s in self.states:
            ArmWorld(sc, sc.body_states[s]).observe()
        return sc

    def session(self, sc) -> "CollectSession":
        return CollectSession(self, sc)

    @staticmethod
    def summarize(done) -> dict:
        return {"episodes": sum(r.items for r, _ in done),
                "episodes_per_s": _rate(sum(r.items for r, _ in done),
                                        sum(t for _, t in done))}


class CollectSession:
    def __init__(self, wl: Collect, sc):
        self.wl, self.sc = wl, sc
        self.cells = [(s, o) for s in wl.states for o in wl.objects]

    def prepare(self, i: int):
        r, j = divmod(i, len(self.cells))
        state, obj = self.cells[_round_perm(self.wl.seed, "collect", r, len(self.cells))[j]]
        root = int(substream(self.wl.seed, "collect", "root", r).integers(2**31))
        return state, obj, root

    def run(self, req) -> Reply:
        state, obj, root = req
        episodes, _ = collect.collect_dataset(self.sc, root, states=[state],
                                              objects=[obj], trials=1)
        problems = []
        for ep in episodes:
            problems += check_episode(ep, state, obj, self.sc)
        if len(episodes) != 1:
            problems.append(f"{len(episodes)} episodes for one trial")
        record = b"".join(ep.frames.tobytes() + ep.commands.tobytes() for ep in episodes)
        return Reply(len(episodes), problems, record=record, kind="episode")


def check_episode(ep, state: str, obj: str, sc) -> list[str]:
    ticks = sc.timing.total_ticks
    cam = sc.base_camera
    problems = []
    if ep.outcome != Outcome.SUCCEEDED.value:
        problems.append(f"{ep.tag}: regrasp {ep.outcome}")
    if ep.frames.dtype != np.uint8:
        problems.append(f"{ep.tag}: frames are {ep.frames.dtype}, not uint8")
    if ep.frames.shape != (ticks, cam.height, cam.width, 3):
        problems.append(f"{ep.tag}: frames shape {ep.frames.shape}")
    if ep.commands.shape != (ticks, 7) or not _finite(ep.commands):
        problems.append(f"{ep.tag}: bad commands {ep.commands.shape}")
    if (ep.state_name, ep.object_name) != (state, obj):
        problems.append(f"{ep.tag}: asked for {state}/{obj}")
    return problems


# -- train --------------------------------------------------------------

class Train:
    name = "train"
    errors = (FloatingPointError, bench.StageError)
    block = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        states = _grid(tiny)[0][:4]   # both joint offsets under two cameras
        self.preset = _preset("train", states, ["L-25"], codec_epochs=2,
                              model_epochs=2 if tiny else 8)
        self.setup_repeats = 1 if tiny else 5
        self.min_ops = 2 if tiny else 20
        self.trace_ops = 1 if tiny else 4

    def setup(self, work: Path):
        """Collect the training corpus from the workload seed."""
        sc = load_default()
        bench.stage_collect(work, sc, self.seed, self.preset)
        return sc, work

    def session(self, fx) -> "TrainSession":
        return TrainSession(self, *fx)

    @staticmethod
    def summarize(done) -> dict:
        d = [r.detail for r, _ in done]
        codec_s = sum(x["codec_s"] for x in d)
        model_s = sum(x["model_s"] for x in d)
        return {"requests": len(d),
                "codec_frames_per_s": _rate(sum(x["frames"] for x in d), codec_s),
                "model_seqs_per_s": _rate(sum(x["seqs"] for x in d), model_s),
                "codec_loss": d[0]["codec_loss"] if d else None,
                "model_loss": d[0]["model_loss"] if d else None}


class TrainSession:
    def __init__(self, wl: Train, sc, run: Path):
        self.wl, self.sc, self.run_dir = wl, sc, run
        self.first_record = None
        n_eps = len(list((run / "episodes").glob("*.bin")))
        p = wl.preset
        self.frames = n_eps * sc.timing.total_ticks * p.codec_epochs
        self.seqs = n_eps * p.model_epochs

    def prepare(self, i: int):
        return None

    def run(self, req) -> Reply:
        wl, sc, run = self.wl, self.sc, self.run_dir
        codec_runs: list = []
        t0 = time.perf_counter()
        with _results_of(bench, "train_codec", codec_runs):
            codec_entry = bench.stage_codec(run, sc, wl.seed, wl.preset)
        t1 = time.perf_counter()
        model_entry = bench.stage_train(run, sc, wl.seed, wl.preset)
        t2 = time.perf_counter()
        stats, _ = load_arrays(run / "train_stats.bin")
        pb = load_arrays(run / "model.ckpt")[0]["pb"]
        codec_losses = np.asarray(codec_runs[-1].losses if codec_runs else [np.nan])
        problems = check_training(codec_losses, codec_entry, model_entry,
                                  stats["losses"], pb)
        record = codec_losses.tobytes() + stats["losses"].tobytes() + pb.tobytes()
        if self.first_record is None:
            self.first_record = record
        elif record != self.first_record:
            problems.append("training is not reproducible: outputs differ "
                            "from the first request")
        return Reply(self.frames + self.seqs, problems, record=record, kind="train",
                     detail={"codec_s": t1 - t0, "model_s": t2 - t1,
                             "frames": self.frames, "seqs": self.seqs,
                             "codec_loss": codec_entry["final_loss"],
                             "model_loss": model_entry["final_loss"]})


@contextmanager
def _results_of(owner, attr: str, sink: list):
    """Append the result of every call to `owner.attr` to `sink`."""
    original = getattr(owner, attr)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, recorded)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def check_training(codec_losses, codec_entry, model_entry, losses, pb) -> list[str]:
    problems = []
    if not _finite(codec_losses) or not codec_losses[-1] < codec_losses[0]:
        problems.append(f"codec loss not finite and decreasing: {codec_losses}")
    if not _finite(codec_entry["final_loss"]):
        problems.append(f"codec final loss {codec_entry['final_loss']}")
    if not _finite(losses) or not losses[-1] < losses[0]:
        problems.append(f"model loss not finite and decreasing: {losses}")
    if not _finite(model_entry["final_loss"]):
        problems.append(f"model final loss {model_entry['final_loss']}")
    if not _finite(pb):
        problems.append("PB table not finite")
    return problems


WORKLOADS = {w.name: w for w in (Serve, Collect, Train)}
