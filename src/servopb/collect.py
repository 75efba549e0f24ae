"""Autonomous place-then-pick data collection.

The arm starts each cycle holding the object, carries it to a sampled
sector pose, releases, retreats home, then retraces the identical
commanded joint path to pick it back up.  Because release happens at
the executed (offset + sagged) hand position and the pick retraces the
same commands, the regrasp closes exactly where the object sits: every
premise in the grid collects successfully without an external teacher,
and the logged pairs implicitly carry the body-state compensation.

Only the pick phase is logged: 17 ticks of (frame, command), phase
tags approach/pregrasp/lower/grasp/retreat.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import RawEpisode
from .rng import substream
from .world import ArmWorld, Command, IkError, Outcome, ik_nominal

__all__ = ["CollectionError", "collect_dataset", "collect_episode",
           "sample_placement", "scripted_commands"]

_MAX_PLACEMENT_DRAWS = 50
_MAX_REJECTS = 10         # failed episodes tolerated per (state, object) cell


class CollectionError(RuntimeError):
    pass


def scripted_commands(sc, spec, x: float, y: float, yaw: float, mode: str):
    """Joint-space command schedule for one phase (17 ticks).

    `mode` 'place' starts closed and releases at the grasp tick;
    'pick' starts open and closes there.  Joint targets are identical
    between the two, so executed paths coincide under any body state.
    Raises IkError for unreachable placements.
    """
    if mode not in ("place", "pick"):
        raise ValueError(f"mode must be place or pick, got {mode!r}")
    tm = sc.timing
    pos, rot = sc.grasp_command_pose(spec, x, y, yaw)
    q_grasp = ik_nominal(pos, rot, geom=sc.geometry)
    q_hover = ik_nominal(pos + [0.0, 0.0, tm.hover_height], rot, geom=sc.geometry)
    g_pre = 1.0 if mode == "place" else 0.0
    g_post = 1.0 - g_pre
    home = sc.home_q

    cmds: list[tuple[np.ndarray, float, str]] = [(home.copy(), g_pre, "approach")]
    n = tm.approach_ticks
    for i in range(1, n + 1):
        cmds.append((home + i / n * (q_hover - home), g_pre, "approach"))
    for _ in range(tm.pregrasp_ticks):
        cmds.append((q_hover.copy(), g_pre, "pregrasp"))
    n = tm.lower_ticks
    for i in range(1, n + 1):
        cmds.append((q_hover + i / n * (q_grasp - q_hover), g_pre, "lower"))
    for _ in range(tm.grasp_ticks):
        cmds.append((q_grasp.copy(), g_post, "grasp"))
    n = tm.retreat_ticks
    for i in range(1, n + 1):
        cmds.append((q_grasp + i / n * (q_hover - q_grasp), g_post, "retreat"))
    n = tm.home_ticks
    for i in range(1, n + 1):
        cmds.append((q_hover + i / n * (home - q_hover), g_post, "retreat"))
    return [(Command(q, g), phase) for q, g, phase in cmds]


@dataclass
class _PhaseRun:
    frames: np.ndarray
    commands: np.ndarray
    phases: list[str]
    path: np.ndarray


def _run_phase(world: ArmWorld, cmds, log_frames: bool) -> _PhaseRun:
    frames = []
    commands = []
    phases = []
    path = []
    obs = world.observe()
    for cmd, phase in cmds:
        if log_frames:
            frames.append(obs.image)
        commands.append(cmd.as_array())
        phases.append(phase)
        obs = world.step(cmd)
        mid, _ = world.closure_point()
        path.append(mid)
    return _PhaseRun(
        frames=np.stack(frames) if log_frames else np.empty((0,)),
        commands=np.stack(commands),
        phases=phases,
        path=np.stack(path))


def collect_episode(world: ArmWorld, sc, spec, x: float, y: float, yaw: float,
                    *, seed: int = 0, trial: int = 0) -> RawEpisode:
    """One place-then-pick cycle; the world must be holding `spec`.

    Returns the logged pick phase.  Raises CollectionError when the
    regrasp does not succeed (the episode is then discarded).
    """
    held = world.held_object()
    if held is None or held.spec.name != spec.name:
        raise CollectionError(f"world must hold {spec.name!r} before an episode")

    place = _run_phase(world, scripted_commands(sc, spec, x, y, yaw, "place"),
                       log_frames=False)
    obj = next(o for o in world.objects if o.spec.name == spec.name)
    if obj.attached:
        raise CollectionError("release failed: object still attached after place phase")
    executed = (obj.x, obj.y, obj.yaw)

    world.clear_outcomes()
    pick = _run_phase(world, scripted_commands(sc, spec, x, y, yaw, "pick"),
                      log_frames=True)
    if world.last_outcome is not Outcome.SUCCEEDED or world.held_object() is None:
        got = world.last_outcome.value if world.last_outcome else "no closure"
        raise CollectionError(
            f"regrasp {got} for {spec.name} at ({x:.3f},{y:.3f},{yaw:.2f}) "
            f"state {world.body_state.name}")

    return RawEpisode(
        object_name=spec.name, state_name=world.body_state.name,
        trial=trial, seed=seed,
        placement=(x, y, yaw), executed_placement=executed,
        frames=pick.frames, commands=pick.commands, phases=pick.phases,
        place_path=place.path, pick_path=pick.path,
        outcome=world.last_outcome.value)


def sample_placement(sc, spec, rng, used: set | None = None,
                     log: list | None = None) -> tuple[float, float, float]:
    """Draw an IK-feasible placement from the sector, skipping used spots."""
    used = set() if used is None else used
    log = [] if log is None else log
    for _ in range(_MAX_PLACEMENT_DRAWS):
        x, y, yaw = sc.sector.sample(rng)
        key = (round(x * 1000), round(y * 1000))
        if key in used:
            continue
        try:
            scripted_commands(sc, spec, x, y, yaw, "pick")
        except IkError as err:
            log.append(f"resample: ik failed at ({x:.3f},{y:.3f}): {err}")
            continue
        used.add(key)
        return x, y, yaw
    raise CollectionError("placement sampling exhausted its draw budget")


def collect_dataset(sc, root_seed: int, *, states: Sequence[str] | None = None,
                    objects: Sequence[str] | None = None,
                    trials: int = 5) -> tuple[list[RawEpisode], list[str]]:
    """Collect `trials` episodes per (state, object) cell.

    Deterministic given `root_seed`: placements come from per-cell
    substreams, iteration order is the scenario's declared order.
    Returns (episodes, diagnostics log).
    """
    state_names = list(states) if states else list(sc.body_states)
    object_names = list(objects) if objects else list(sc.objects)
    episodes: list[RawEpisode] = []
    log: list[str] = []
    for sname in state_names:
        world = ArmWorld(sc, sc.body_states[sname])
        used: set = set()
        for oname in object_names:
            spec = sc.objects[oname]
            world.spawn_in_gripper(spec)
            rng = substream(root_seed, "collect", sname, oname)
            done = 0
            rejects = 0
            while done < trials:
                x, y, yaw = sample_placement(sc, spec, rng, used, log)
                try:
                    ep = collect_episode(world, sc, spec, x, y, yaw,
                                         seed=root_seed, trial=done)
                except CollectionError as err:
                    rejects += 1
                    log.append(f"reject [{sname}/{oname}]: {err}")
                    if rejects > _MAX_REJECTS:
                        raise CollectionError(
                            f"cell {sname}/{oname}: too many rejects") from err
                    if world.held_object() is None:
                        # failed regrasp left the object on the table
                        world.remove_object(oname)
                        world.spawn_in_gripper(spec)
                    continue
                episodes.append(ep)
                done += 1
            world.remove_object(oname)
            world.gripper_cmd = 0.0
            world.aperture = world.max_aperture
    return episodes, log
