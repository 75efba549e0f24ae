"""Episode records and their on-disk form.

An episode is the logged pick phase of one place-then-pick cycle.  A
`RawEpisode` is the episode as collected: 17 ticks of (frame, command)
pairs plus the premise labels and both executed hand paths.  An
`Episode` is the same episode through a trained codec: its ids, the
per-tick latents and the commands, which is all that training and
adaptation read.  Both are stored in the byte-deterministic array
container, so float64 arrays round-trip as their raw bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_arrays, save_arrays

__all__ = ["Episode", "PHASES", "RawEpisode", "encode_raw", "episode_tag",
           "load_episode", "load_raw", "load_training_set", "save_episode",
           "save_raw"]

PHASES = ("approach", "pregrasp", "lower", "grasp", "retreat")


def episode_tag(state: str, obj: str, trial: int) -> str:
    return f"{state}__{obj}__{trial:03d}"


@dataclass
class RawEpisode:
    """Pick-phase log before visual compression: frames instead of latents."""
    object_name: str
    state_name: str
    trial: int
    seed: int
    placement: tuple[float, float, float]           # commanded x, y, yaw
    executed_placement: tuple[float, float, float]  # where the object ended up
    frames: np.ndarray      # (T, H, W, 3) uint8
    commands: np.ndarray    # (T, 7) float64
    phases: list[str]
    place_path: np.ndarray  # (T, 3) executed closure positions, place phase
    pick_path: np.ndarray   # (T, 3)
    outcome: str

    @property
    def tag(self) -> str:
        return episode_tag(self.state_name, self.object_name, self.trial)


@dataclass
class Episode:
    """A raw episode's ids, latents and commands."""
    object_name: str
    state_name: str
    trial: int
    latents: np.ndarray     # (T, N_s) float64
    commands: np.ndarray    # (T, 7) float64

    @property
    def tag(self) -> str:
        return episode_tag(self.state_name, self.object_name, self.trial)


def save_episode(path: str | Path, ep: Episode) -> None:
    if ep.commands.shape[0] != ep.latents.shape[0]:
        raise ValueError("latents and commands must share tick count")
    save_arrays(path, {"latents": ep.latents, "commands": ep.commands},
                meta={"object": ep.object_name, "state": ep.state_name,
                      "trial": ep.trial})


def load_episode(path: str | Path) -> Episode:
    arrays, meta = load_arrays(path)
    return Episode(object_name=meta["object"], state_name=meta["state"],
                   trial=meta["trial"], latents=arrays["latents"],
                   commands=arrays["commands"])


def save_raw(path: str | Path, raw: RawEpisode) -> None:
    meta = {
        "object": raw.object_name, "state": raw.state_name,
        "trial": raw.trial, "seed": raw.seed,
        "placement": list(raw.placement),
        "executed_placement": list(raw.executed_placement),
        "phases": list(raw.phases), "outcome": raw.outcome,
    }
    save_arrays(path, {
        "frames": raw.frames.astype(np.uint8),
        "commands": raw.commands.astype(np.float64),
        "place_path": raw.place_path.astype(np.float64),
        "pick_path": raw.pick_path.astype(np.float64),
    }, meta=meta)


def load_raw(path: str | Path) -> RawEpisode:
    arrays, meta = load_arrays(path)
    return RawEpisode(
        object_name=meta["object"], state_name=meta["state"],
        trial=meta["trial"], seed=meta["seed"],
        placement=tuple(meta["placement"]),
        executed_placement=tuple(meta["executed_placement"]),
        frames=arrays["frames"], commands=arrays["commands"],
        phases=list(meta["phases"]),
        place_path=arrays["place_path"], pick_path=arrays["pick_path"],
        outcome=meta["outcome"])


def encode_raw(raw: RawEpisode, codec) -> Episode:
    """Compress a raw episode's frames through a trained codec."""
    return Episode(object_name=raw.object_name, state_name=raw.state_name,
                   trial=raw.trial, latents=codec.encode(raw.frames),
                   commands=raw.commands)


def load_training_set(directory: str | Path) -> tuple[np.ndarray, np.ndarray,
                                                       np.ndarray, list[str]]:
    """Every episode file under `directory`, in tag order, as (latents
    (B,T,N_s), commands (B,T,7), state indices (B,), the sorted state
    names the indices refer to)."""
    paths = sorted(Path(directory).glob("*.bin"))
    if not paths:
        raise FileNotFoundError(f"no episode files under {directory}")
    eps = sorted((load_episode(p) for p in paths), key=lambda e: e.tag)
    ticks = {e.latents.shape[0] for e in eps}
    if len(ticks) != 1:
        raise ValueError(f"mixed episode lengths: {sorted(ticks)}")
    names = sorted({e.state_name for e in eps})
    s = np.stack([e.latents for e in eps])
    u = np.stack([e.commands for e in eps])
    k = np.array([names.index(e.state_name) for e in eps], dtype=np.int64)
    return s, u, k, names
