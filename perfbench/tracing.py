"""Span tracing around the program's public calls, from outside.

`traced()` swaps selected module and class attributes of `servopb` for
thin wrappers that record one span per call: name, layer, start, end,
parent span and request id.  Spans stay in memory until the caller
writes them out.  Nothing inside the program changes; every original
attribute is put back when the block exits.

`layer_metrics()` turns the spans and counters of one traced pass into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import servopb.autodiff
import servopb.bench
import servopb.checkpoint
import servopb.codec
import servopb.collect
import servopb.data
import servopb.model
import servopb.servo
from servopb import adapt
from servopb.codec import ConvAutoencoder
from servopb.model import VsnpbModel
from servopb.world import ArmWorld, Renderer
from servopb.world.scenario import PlacementSector

LAYERS = ("world.render", "world.sim", "world.kinematics", "collect", "codec",
          "model", "adapt", "servo", "autodiff", "optim", "data", "checkpoint",
          "bench")

# span fields, stored as lists to keep the per-call cost low
NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._open: list[int] = []

    def call(self, name, layer, fn, args, kwargs, note):
        parent = self._open[-1] if self._open else -1
        span = [name, layer, time.perf_counter_ns(), 0, parent, self.request]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._open.pop()
        if note is not None:
            renamed = note(self.counters, result, args, kwargs)
            if renamed:
                span[NAME] = renamed
        return result

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "layer": s[LAYER],
                                    "start_ns": s[START], "end_ns": s[END],
                                    "parent": s[PARENT], "request": s[REQUEST]}))
                f.write("\n")


# -- what to wrap ------------------------------------------------------
# A `note` hook sees (counters, result, args, kwargs) after the call; it
# may return a new span name to tag the outcome.

def _frames_logged(c, ep, args, kwargs):
    c["frames.logged"] += ep.frames.shape[0]


def _collect_log(c, result, args, kwargs):
    _, log = result
    c["collect.rejects"] += sum(line.startswith("reject") for line in log)


def _encoded(c, codes, args, kwargs):
    c["codec.encode.frames"] += codes.shape[0]


def _update(c, applied, args, kwargs):
    return "adapt.update.applied" if applied else None


def _trial(c, res, args, kwargs):
    c["servo.ticks"] += res.ticks
    c["servo.timeouts"] += int(res.timeout)


def _tape(c, grads, args, kwargs):
    tape = args[0] if args else kwargs["tape"]
    c["autodiff.tape_ops"] += len(tape)


def _saved(c, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    c["checkpoint.bytes_written"] += os.path.getsize(path)


def _targets():
    """(owner, attribute, span name, layer, note) for every wrapped call.

    A function imported by name into several modules is wrapped in each
    namespace that calls it, so every call passes exactly one wrapper."""
    b, m, cx = servopb.bench, servopb.model, servopb.codec
    ckpt_users = (servopb.checkpoint, m, cx, servopb.data, b)
    return [
        (Renderer, "render", "render", "world.render", None),
        (ArmWorld, "step", "sim.step", "world.sim", None),
        (ArmWorld, "observe", "sim.observe", "world.sim", None),
        (servopb.collect, "ik_nominal", "kinematics.ik", "world.kinematics", None),
        (servopb.servo, "ik_nominal", "kinematics.ik", "world.kinematics", None),
        (servopb.servo, "fk_nominal", "kinematics.fk", "world.kinematics", None),
        (servopb.collect, "collect_dataset", "collect.dataset", "collect", _collect_log),
        (b, "collect_dataset", "collect.dataset", "collect", _collect_log),
        (servopb.collect, "collect_episode", "collect.episode", "collect", _frames_logged),
        (servopb.collect, "sample_placement", "collect.placement", "collect", None),
        (PlacementSector, "sample", "collect.placement_draw", "collect", None),
        (ConvAutoencoder, "encode", "codec.encode", "codec", _encoded),
        (b, "train_codec", "codec.train", "codec", None),
        (VsnpbModel, "predict", "model.predict", "model", None),
        (b, "train_vsnpb", "model.train", "model", None),
        (adapt.PbAdapter, "observe", "adapt.observe", "adapt", None),
        (adapt.PbAdapter, "update_pb", "adapt.update", "adapt", _update),
        (adapt, "stream_episode", "adapt.stream", "adapt", None),
        (servopb.servo, "run_grasp_trial", "servo.trial", "servo", _trial),
        (servopb.servo, "baseline_grasp_trial", "servo.baseline", "servo", None),
        (servopb.servo, "servo_step", "servo.step", "servo", None),
        (servopb.autodiff, "backward", "autodiff.backward", "autodiff", _tape),
        (adapt, "backward", "autodiff.backward", "autodiff", _tape),
        (m, "backward", "autodiff.backward", "autodiff", _tape),
        (cx, "adam_step", "optim.adam", "optim", None),
        (m, "adam_step", "optim.adam", "optim", None),
        (adapt, "momentum_sgd_step", "optim.momentum", "optim", None),
        (b, "encode_raw", "data.encode_raw", "data", None),
        (b, "save_raw", "data.io", "data", None),
        (b, "load_raw", "data.io", "data", None),
        (b, "save_episode", "data.io", "data", None),
        (servopb.data, "load_episode", "data.io", "data", None),
        *[(mod, "save_arrays", "checkpoint.save", "checkpoint", _saved)
          for mod in ckpt_users],
        *[(mod, "load_arrays", "checkpoint.load", "checkpoint", None)
          for mod in ckpt_users],
        (b, "file_digest", "bench.digest", "bench", None),
        (b, "dataset_digest", "bench.digest", "bench", None),
        (b, "stage_collect", "bench.stage.collect", "bench", None),
        (b, "stage_codec", "bench.stage.codec", "bench", None),
        (b, "stage_train", "bench.stage.train", "bench", None),
    ]


def _wrapper(tracer, fn, name, layer, note):
    def traced_call(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs, note)
    traced_call.__wrapped__ = fn
    return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Route the program's layer entry points through `tracer`."""
    saved = []
    try:
        for owner, attr, name, layer, note in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, original, name, layer, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------

def _ms_p50(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                  setup_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Spans of request -1 belong to the traced set-up and feed only the
    `setup.` metrics; everything else describes the requests.  A ratio or
    percentile with nothing to measure reads 0.  Layer self times plus
    the unattributed remainder add up to `trace.wall_s` (requests) and to
    `setup.wall_s` (set-up)."""
    spans, c = tracer.spans, tracer.counters
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)
        if s[REQUEST] >= 0:
            by_name[s[NAME]].append(s[END] - s[START])

    def busy(*names) -> float:
        return sum(sum(by_name[n]) for n in names) / 1e9

    def calls(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    def dur(i) -> int:
        return spans[i][END] - spans[i][START]

    def render_below(i) -> int:
        return sum(dur(k) if spans[k][NAME] == "render" else render_below(k)
                   for k in children[i])

    def self_times(in_setup: bool, wall: float, prefix: str) -> dict:
        per_layer = dict.fromkeys(LAYERS, 0)
        top = 0
        for i, s in enumerate(spans):
            if (s[REQUEST] < 0) != in_setup:
                continue
            per_layer[s[LAYER]] += dur(i) - sum(dur(k) for k in children[i])
            if s[PARENT] < 0:
                top += dur(i)
        out = {f"{prefix}self.{layer}_s": (ns / 1e9, "s")
               for layer, ns in per_layer.items()}
        out[f"{prefix}self.unattributed_s"] = (wall - top / 1e9, "s")
        return out

    step_self = sum(dur(i) - render_below(i) for i, s in enumerate(spans)
                    if s[NAME] == "sim.step" and s[REQUEST] >= 0)
    renders = calls("render")
    observes = calls("adapt.observe")
    applied = calls("adapt.update.applied")
    out = {
        "render.calls": (renders, "count"),
        "render.busy_s": (busy("render"), "s"),
        "render.ms_p50": (_ms_p50(by_name["render"]), "ms"),
        "render.used_ratio": (_ratio(c["frames.logged"] + c["codec.encode.frames"],
                                     renders), "ratio"),
        "sim.step.calls": (calls("sim.step"), "count"),
        "sim.step.self_s": (step_self / 1e9, "s"),
        "kinematics.ik.calls": (calls("kinematics.ik"), "count"),
        "kinematics.ik.busy_s": (busy("kinematics.ik"), "s"),
        "collect.rejects": (c["collect.rejects"], "count"),
        "collect.placement_draws": (calls("collect.placement_draw"), "count"),
        "codec.encode.calls": (calls("codec.encode"), "count"),
        "codec.encode.frames": (c["codec.encode.frames"], "count"),
        "codec.encode.ms_p50": (_ms_p50(by_name["codec.encode"]), "ms"),
        "codec.train.busy_s": (busy("codec.train"), "s"),
        "model.predict.calls": (calls("model.predict"), "count"),
        "model.predict.ms_p50": (_ms_p50(by_name["model.predict"]), "ms"),
        "model.train.busy_s": (busy("model.train"), "s"),
        "adapt.observe.calls": (observes, "count"),
        "adapt.update.calls": (applied, "count"),
        "adapt.update_ratio": (_ratio(applied, observes), "ratio"),
        "adapt.update.ms_p50": (_ms_p50(by_name["adapt.update.applied"]), "ms"),
        "servo.trials": (calls("servo.trial"), "count"),
        "servo.ticks": (c["servo.ticks"], "count"),
        "servo.timeouts": (c["servo.timeouts"], "count"),
        "servo.baseline.calls": (calls("servo.baseline"), "count"),
        "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward.busy_s": (busy("autodiff.backward"), "s"),
        "autodiff.tape_ops": (c["autodiff.tape_ops"], "count"),
        "optim.adam.busy_s": (busy("optim.adam"), "s"),
        "optim.momentum.busy_s": (busy("optim.momentum"), "s"),
        "data.encode_raw.busy_s": (busy("data.encode_raw"), "s"),
        "checkpoint.bytes_written": (c["checkpoint.bytes_written"], "B"),
        "checkpoint.busy_s": (busy("checkpoint.save", "checkpoint.load"), "s"),
        "bench.digest.busy_s": (busy("bench.digest"), "s"),
        "bench.stage.codec.busy_s": (busy("bench.stage.codec"), "s"),
        "bench.stage.train.busy_s": (busy("bench.stage.train"), "s"),
    }
    out.update(self_times(False, wall_s, ""))
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
    out["trace.spans"] = (len(spans), "count")
    out.update(self_times(True, setup_wall_s, "setup."))
    out["setup.wall_s"] = (setup_wall_s, "s")
    return out
