"""Closed-loop grasping by forward prediction, plus the geometric baseline.

The controller is the trained predictor run forward: feed the current
frame code and the previous command, read off the next command.  The
gripper channel is binarized for actuation (strictly above 0.5 means
close) while the continuous value is what the next step sees, so the
network's own belief stays smooth.

The baseline plans once from geometry alone.  It sees the true object
through the real (offset) camera but back-projects with the nominal
mounting, so its position estimate inherits exactly the camera error a
rigid-body model cannot know about.  It never touches the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collect import scripted_commands
from .model import VsnpbModel
from .world import Command, IkError, Outcome, fk_nominal, ik_nominal
from .world.render import CameraModel

__all__ = ["TrialResult", "baseline_grasp_trial", "pixel_to_plane",
           "run_grasp_trial", "servo_step"]

_RETREAT_TICKS = 3


def servo_step(model: VsnpbModel, s_t: np.ndarray, u_t: np.ndarray,
               p: np.ndarray, hidden):
    """One control tick: (s_t, u_t, p, hidden) -> next command.

    Returns (u_next, cmd, hidden, clipped): u_next is the continuous
    prediction clamped into the normalizer's training range (feed it
    back on the next call), cmd is the actuated command with the
    gripper thresholded, clipped reports any range clamping.
    """
    _, u_pred, hidden, in_clip = model.predict(s_t, u_t, p, hidden, clip=True)
    u_norm, out_clip = model.norm_u.normalize_clipped(u_pred)
    u_next = model.norm_u.denormalize(u_norm)
    closed = bool(u_next[6] > 0.5)   # strict: exactly 0.5 stays open
    cmd = Command(joint_targets=u_next[:6], gripper=1.0 if closed else 0.0)
    return u_next, cmd, hidden, bool(in_clip or out_clip)


@dataclass
class TrialResult:
    outcome: Outcome
    ticks: int                  # world steps consumed, retreat included
    timeout: bool
    closed_tick: int | None
    clipped: bool
    commands: np.ndarray        # (T, 7) actuated commands
    executed: np.ndarray        # (T, 6) executed joints


def _result(outcome, timeout, closed_tick, clipped, cmds, execs):
    cmds = np.array(cmds).reshape(-1, 7)
    execs = np.array(execs).reshape(-1, 6)
    return TrialResult(outcome=outcome, ticks=cmds.shape[0], timeout=timeout,
                       closed_tick=closed_tick, clipped=clipped,
                       commands=cmds, executed=execs)


def run_grasp_trial(world, model: VsnpbModel, codec, p: np.ndarray, *,
                    max_ticks: int = 40, lift: float = 0.05) -> TrialResult:
    """Drive the arm by forward prediction until the gripper closes.

    The world should hold the initial posture with the object already
    placed.  A close event triggers a fixed open-loop retreat (lift by
    `lift` meters) before the closure outcome is read back; never
    closing within max_ticks is a timeout Failure.  Only frames the
    controller encodes are rendered: the closing tick and the retreat
    step the world with render=False.
    """
    sc = world.scenario
    p = np.asarray(p, dtype=np.float64)
    world.clear_outcomes()
    s = codec.encode(world.observe().image[None])[0]
    u = np.concatenate([sc.home_q, [0.0]])
    hidden = model.zero_hidden(1)
    cmds, execs = [], []
    clipped_any = False
    closed_tick = None
    for tick in range(max_ticks):
        u, cmd, hidden, clipped = servo_step(model, s, u, p, hidden)
        clipped_any = clipped_any or clipped
        closing = cmd.gripper == 1.0
        # the loop ends on the closing tick, so its frame is never read
        obs = world.step(cmd, render=not closing)
        cmds.append(cmd.as_array())
        execs.append(obs.executed_joints)
        if closing:
            closed_tick = tick
            break
        s = codec.encode(obs.image[None])[0]
    if closed_tick is None:
        return _result(Outcome.FAILED, True, None, clipped_any, cmds, execs)

    q_close = cmds[-1][:6]
    pos, rot = fk_nominal(q_close, sc.geometry)
    try:
        q_lift = ik_nominal(pos + np.array([0.0, 0.0, lift]), rot,
                            q0=q_close, geom=sc.geometry)
    except IkError:
        q_lift = q_close      # hold in place; classification already ran
    for i in range(1, _RETREAT_TICKS + 1):
        a = i / _RETREAT_TICKS
        cmd = Command((1 - a) * q_close + a * q_lift, 1.0)
        obs = world.step(cmd, render=False)
        cmds.append(cmd.as_array())
        execs.append(obs.executed_joints)
    outcome = world.last_outcome if world.last_outcome is not None else Outcome.FAILED
    return _result(outcome, False, closed_tick, clipped_any, cmds, execs)


def pixel_to_plane(camera: CameraModel, px: float, py: float,
                   z_plane: float) -> np.ndarray:
    """Back-project a pixel onto a horizontal plane, world coords."""
    cx = (camera.width - 1) / 2.0
    cy = (camera.height - 1) / 2.0
    d_cam = np.array([(px - cx) / camera.focal_px,
                      (py - cy) / camera.focal_px, 1.0])
    d_world = camera.basis.T @ d_cam
    if abs(d_world[2]) < 1e-12:
        raise ValueError("viewing ray parallel to the plane")
    pos = np.asarray(camera.position)
    t = (z_plane - pos[2]) / d_world[2]
    if t <= 0:
        raise ValueError("plane lies behind the camera")
    return pos + t * d_world


def baseline_grasp_trial(world, spec) -> TrialResult:
    """Open-loop grasp from a rigid-body model and the nominal camera.

    The object's image position comes from the world's actual camera;
    the back-projection assumes the nominal mounting, so any camera
    offset lands directly in the position estimate.  Orientation is
    taken as known.  Plans with nominal IK and runs the scripted pick
    template blind, rendering no frame; IK failure is a Failed outcome.
    """
    sc = world.scenario
    obj = next((o for o in world.objects if o.spec.name == spec.name), None)
    if obj is None:
        raise KeyError(f"no object named {spec.name!r} on the table")
    center = np.array([obj.x, obj.y, spec.height / 2.0])
    pix, depth = world.camera.project(center[None, :])
    if depth[0] <= 0:
        raise ValueError("object behind the camera")
    est = pixel_to_plane(sc.base_camera, pix[0, 0], pix[0, 1], spec.height / 2.0)
    world.clear_outcomes()
    try:
        script = scripted_commands(sc, spec, est[0], est[1], obj.yaw, "pick")
    except IkError:
        return _result(Outcome.FAILED, False, None, False, [], [])
    cmds, execs = [], []
    closed_tick = None
    for tick, (cmd, phase) in enumerate(script):
        obs = world.step(cmd, render=False)
        cmds.append(cmd.as_array())
        execs.append(obs.executed_joints)
        if closed_tick is None and cmd.gripper == 1.0:
            closed_tick = tick
    outcome = world.last_outcome if world.last_outcome is not None else Outcome.FAILED
    return _result(outcome, False, closed_tick, False, cmds, execs)
