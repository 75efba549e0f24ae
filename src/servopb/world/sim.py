"""Quasi-static arm world with gripper, tabletop objects, and body states.

The executed pose each tick is commanded joints + body-state joint
offset + load-dependent sag, where sag is a pure function of the
commanded pose (per-joint gravity torque of a planar mass model times
`sag_gain`).  Identical command sequences under an identical body state
therefore reproduce identical trajectories bit for bit, which is the
property the data-collection protocol leans on.

Grasping is geometric: when the closing fingers reach an object's
width, the closure midpoint is classified against the object footprint
(Succeeded / Rotated / Failed); on the first two the object attaches
rigidly to the hand until the gripper reopens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..rng import substream
from .kinematics import JOINT_LIMITS, chain_points, fk_nominal
from .render import Box, CameraModel, Capsule, Renderer

__all__ = ["ArmWorld", "BodyState", "Command", "Observation", "ObjectSpec",
           "Outcome", "PlacementError", "GRAVITY"]

GRAVITY = 9.81

# planar mass model for sag torques: per-segment masses, kg
_SEG_MASSES = (0.50, 0.35, 0.20, 0.12)


class Outcome(enum.Enum):
    SUCCEEDED = "Succeeded"
    ROTATED = "Rotated"
    FAILED = "Failed"


class PlacementError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    width: float    # grasped dimension, m
    length: float   # long axis, m
    height: float
    color: tuple[float, float, float]


@dataclass(frozen=True)
class BodyState:
    name: str
    joint_offset: np.ndarray    # (6,) radians
    camera_offset: np.ndarray   # (3,) meters
    sag_gain: float             # radians per N*m

    def __post_init__(self):
        jo = np.asarray(self.joint_offset, dtype=np.float64)
        co = np.asarray(self.camera_offset, dtype=np.float64)
        if jo.shape != (6,) or co.shape != (3,):
            raise ValueError("joint_offset must be (6,), camera_offset (3,)")
        if np.abs(jo).max() > np.deg2rad(5.0) + 1e-12:
            raise ValueError("joint offsets above 5 deg are outside the modeled regime")
        if np.abs(co).max() > 0.05 + 1e-12:
            raise ValueError("camera offsets above 50 mm are outside the modeled regime")
        object.__setattr__(self, "joint_offset", jo)
        object.__setattr__(self, "camera_offset", co)


@dataclass(frozen=True)
class Command:
    joint_targets: np.ndarray   # (6,) radians
    gripper: float              # 0 open .. 1 closed

    def __post_init__(self):
        jt = np.asarray(self.joint_targets, dtype=np.float64)
        if jt.shape != (6,):
            raise ValueError("joint_targets must be (6,)")
        object.__setattr__(self, "joint_targets", jt)
        object.__setattr__(self, "gripper", float(self.gripper))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.joint_targets, [self.gripper]])

    @classmethod
    def from_array(cls, u: np.ndarray) -> "Command":
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (7,):
            raise ValueError(f"command vector must be (7,), got {u.shape}")
        return cls(u[:6], u[6])


@dataclass(frozen=True)
class Observation:
    image: np.ndarray | None
    executed_joints: np.ndarray
    tick: int
    clamped: bool = False


@dataclass
class _TableObject:
    spec: ObjectSpec
    x: float
    y: float
    yaw: float
    z_center: float
    attached: bool = False
    rel_xy: np.ndarray = field(default_factory=lambda: np.zeros(2))
    rel_yaw: float = 0.0
    last_outcome: Outcome | None = None


def sag_deflection(q_cmd: np.ndarray, sag_gain: float, geom) -> np.ndarray:
    """Per-joint sag, radians, from gravity torque at the commanded pose.

    Planar model in the arm's vertical plane: four rigid segments
    (upper arm, forearm, wrist+hub, tool+fingers) with fixed masses;
    each pitch joint deflects by sag_gain times the torque of the mass
    it carries.  Depends only on the commanded joints, so place and
    pick phases sharing commands share their sag exactly.
    """
    if sag_gain == 0.0:
        return np.zeros(6)
    u1 = q_cmd[1]
    u2 = u1 + q_cmd[2]
    u3 = u2 + q_cmd[3]
    u4 = u3 + q_cmd[5]
    lengths = (geom.a1, geom.a2, geom.a3 + geom.d5, geom.d6 + 0.04)
    pitches = (u1, u2, u3, u4)
    # horizontal joint positions along the plane
    xs = [0.0]
    for length, pitch in zip(lengths, pitches):
        xs.append(xs[-1] + length * np.cos(pitch))
    mids = [xs[i] + 0.5 * lengths[i] * np.cos(pitches[i]) for i in range(4)]
    pivots = {1: xs[0], 2: xs[1], 3: xs[2], 5: xs[3]}
    segs_beyond = {1: (0, 1, 2, 3), 2: (1, 2, 3), 3: (2, 3), 5: (3,)}
    out = np.zeros(6)
    for joint, segs in segs_beyond.items():
        torque = sum(_SEG_MASSES[k] * GRAVITY * (mids[k] - pivots[joint]) for k in segs)
        out[joint] = sag_gain * torque
    return out


class ArmWorld:
    """One deterministic world instance (single-threaded)."""

    FINGER_LENGTH = 0.04
    FINGER_THICKNESS = 0.008

    def __init__(self, scenario, body_state: BodyState):
        self.scenario = scenario
        self.geom = scenario.geometry
        self.body_state = body_state
        self.camera: CameraModel = scenario.base_camera.shifted(body_state.camera_offset)
        self.renderer: Renderer = scenario.renderer
        self.max_aperture = scenario.gripper_max_aperture
        self.aperture_rate = scenario.gripper_rate
        self.grasp_margin = scenario.grasp_margin
        self.center_frac = scenario.grasp_center_frac
        self.height_window = scenario.grasp_height_window
        self.substeps = scenario.grasp_substeps
        self.q_cmd = scenario.home_q.copy()
        self.gripper_cmd = 0.0
        self.aperture = self.max_aperture
        self.objects: list[_TableObject] = []
        self.tick = 0
        self.last_outcome: Outcome | None = None
        self._noise_std = np.deg2rad(scenario.joint_noise_deg)
        self._noise_rng = (substream(scenario.noise_seed, "world", "flex", body_state.name)
                          if self._noise_std > 0 else None)
        self._noise = np.zeros(6)

    # -- kinematic helpers -------------------------------------------

    def executed_joints(self, q_cmd: np.ndarray | None = None) -> np.ndarray:
        q = self.q_cmd if q_cmd is None else q_cmd
        q_exec = q + self.body_state.joint_offset + sag_deflection(q, self.body_state.sag_gain, self.geom)
        if self._noise_rng is not None:
            q_exec = q_exec + self._noise
        return q_exec

    def tool_pose(self, q_exec: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        qe = self.executed_joints() if q_exec is None else q_exec
        return fk_nominal(qe, self.geom)

    def closure_point(self, q_exec: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """Midpoint between fingertip pads and the closure-axis yaw."""
        p, r = self.tool_pose(q_exec)
        mid = p + self.FINGER_LENGTH * r[:, 0]
        psi = float(np.arctan2(r[1, 1], r[0, 1]))
        return mid, psi

    # -- object management -------------------------------------------

    def grasp_feasible(self, spec: ObjectSpec) -> bool:
        return spec.width + 2 * self.grasp_margin < self.max_aperture

    def place_object(self, spec: ObjectSpec, x: float, y: float, yaw: float) -> None:
        for other in self.objects:
            min_gap = 0.5 * np.hypot(spec.length, spec.width) \
                + 0.5 * np.hypot(other.spec.length, other.spec.width)
            if np.hypot(x - other.x, y - other.y) < min_gap:
                raise PlacementError(f"{spec.name} at ({x:.3f},{y:.3f}) overlaps {other.spec.name}")
        self.objects.append(_TableObject(spec, float(x), float(y), float(yaw),
                                         spec.height / 2.0))

    def remove_object(self, name: str) -> None:
        before = len(self.objects)
        self.objects = [o for o in self.objects if o.spec.name != name]
        if len(self.objects) == before:
            raise KeyError(f"no object named {name!r}")

    def spawn_in_gripper(self, spec: ObjectSpec) -> None:
        """Register an object already held in the closed gripper (the
        canonical starting condition of a collection episode)."""
        if any(o.attached for o in self.objects):
            raise PlacementError("gripper already holds an object")
        mid, psi = self.closure_point()
        obj = _TableObject(spec, float(mid[0]), float(mid[1]), psi - np.pi / 2,
                           float(mid[2]), attached=True)
        obj.rel_xy = np.zeros(2)
        obj.rel_yaw = -np.pi / 2
        self.objects.append(obj)
        self.gripper_cmd = 1.0
        self.aperture = spec.width

    def held_object(self) -> _TableObject | None:
        for o in self.objects:
            if o.attached:
                return o
        return None

    # -- stepping -----------------------------------------------------

    def step(self, cmd: Command, render: bool = True) -> Observation:
        """Advance one tick toward `cmd`.

        With render=False the frame is skipped and the observation's
        image is None; everything else, outcomes and noise draws
        included, is what a rendered step produces, and a later
        observe() renders the same frame.
        """
        target = np.asarray(cmd.joint_targets, dtype=np.float64)
        clamped_joints = np.clip(target, JOINT_LIMITS[:, 0], JOINT_LIMITS[:, 1])
        g = min(1.0, max(0.0, cmd.gripper))
        clamped = bool(np.any(clamped_joints != target)) or g != cmd.gripper

        if self._noise_rng is not None:
            self._noise = self._noise_rng.normal(0.0, self._noise_std, size=6)

        q_prev = self.q_cmd
        ap_prev = self.aperture
        ap_target = (1.0 - g) * self.max_aperture
        ap_reachable = ap_prev + np.clip(ap_target - ap_prev,
                                         -self.aperture_rate, self.aperture_rate)
        for i in range(1, self.substeps + 1):
            frac = i / self.substeps
            q_sub = q_prev + frac * (clamped_joints - q_prev)
            ap_sub = ap_prev + frac * (ap_reachable - ap_prev)
            self._apply_substate(q_sub, ap_sub)
        # aperture was updated by the substeps (clamped at a held object's width)
        self.q_cmd = clamped_joints
        self.gripper_cmd = g
        self.tick += 1
        if not render:
            return Observation(image=None, executed_joints=self.executed_joints(),
                               tick=self.tick, clamped=clamped)
        return self.observe(clamped=clamped)

    def _apply_substate(self, q_cmd_sub: np.ndarray, ap_sub: float) -> None:
        q_exec = self.executed_joints(q_cmd_sub)
        mid, psi = self.closure_point(q_exec)
        held = self.held_object()
        if held is not None:
            c, s = np.cos(psi), np.sin(psi)
            rot = np.array([[c, -s], [s, c]])
            xy = mid[:2] + rot @ held.rel_xy
            held.x, held.y = float(xy[0]), float(xy[1])
            held.yaw = psi + held.rel_yaw
            held.z_center = float(mid[2])
            if ap_sub > held.spec.width + self.grasp_margin:
                # released: settle onto the table where it is
                held.attached = False
                held.z_center = held.spec.height / 2.0
            else:
                # fingers rest on the object, cannot close further
                ap_sub = max(ap_sub, held.spec.width)
        else:
            closing = ap_sub < self.aperture - 1e-12
            if closing:
                for obj in self.objects:
                    if ap_sub <= obj.spec.width and not obj.attached \
                            and obj.last_outcome is None:
                        outcome = self._classify(obj, mid)
                        obj.last_outcome = outcome
                        self.last_outcome = outcome
                        if outcome is not Outcome.FAILED:
                            self._attach(obj, mid, psi)
        self.aperture = ap_sub

    def _classify(self, obj: _TableObject, mid: np.ndarray) -> Outcome:
        if not self.grasp_feasible(obj.spec):
            return Outcome.FAILED
        if abs(mid[2] - obj.spec.height / 2.0) > self.height_window:
            return Outcome.FAILED
        c, s = np.cos(-obj.yaw), np.sin(-obj.yaw)
        dx, dy = mid[0] - obj.x, mid[1] - obj.y
        lon = c * dx - s * dy
        lat = s * dx + c * dy
        half_len = obj.spec.length / 2.0
        half_wid = obj.spec.width / 2.0
        if abs(lat) < half_wid - self.grasp_margin and abs(lon) <= self.center_frac * half_len:
            return Outcome.SUCCEEDED
        if abs(lat) <= half_wid and abs(lon) <= half_len:
            return Outcome.ROTATED
        return Outcome.FAILED

    def _attach(self, obj: _TableObject, mid: np.ndarray, psi: float) -> None:
        c, s = np.cos(-psi), np.sin(-psi)
        rot = np.array([[c, -s], [s, c]])
        obj.rel_xy = rot @ np.array([obj.x - mid[0], obj.y - mid[1]])
        obj.rel_yaw = obj.yaw - psi
        obj.attached = True

    def clear_outcomes(self) -> None:
        self.last_outcome = None
        for o in self.objects:
            o.last_outcome = None

    # -- rendering ----------------------------------------------------

    def _scene(self) -> tuple[list[Box], list[Capsule]]:
        q_exec = self.executed_joints()
        boxes = []
        for o in self.objects:
            cy, sy = np.cos(o.yaw), np.sin(o.yaw)
            rot = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
            boxes.append(Box(center=np.array([o.x, o.y, o.z_center]), rot=rot,
                             half=np.array([o.spec.length, o.spec.width, o.spec.height]) / 2.0,
                             color=o.spec.color))
        p, r = self.tool_pose(q_exec)
        for side in (-1.0, 1.0):
            off = side * (self.aperture / 2.0 + self.FINGER_THICKNESS / 2.0)
            center = p + r[:, 0] * (self.FINGER_LENGTH / 2.0) + r[:, 1] * off
            boxes.append(Box(center=center, rot=r,
                             half=np.array([self.FINGER_LENGTH / 2.0,
                                            self.FINGER_THICKNESS / 2.0,
                                            self.FINGER_THICKNESS / 2.0]),
                             color=(0.13, 0.13, 0.14)))
        pts = chain_points(q_exec, self.geom)
        radii = (0.020, 0.016, 0.014, 0.011, 0.008, 0.007)
        shades = (0.26, 0.30, 0.28, 0.32, 0.30, 0.34)
        capsules = []
        for i in range(len(pts) - 1):
            tone = shades[min(i, len(shades) - 1)]
            capsules.append(Capsule(pts[i], pts[i + 1], radii[min(i, len(radii) - 1)],
                                    (tone, tone + 0.02, tone + 0.05)))
        return boxes, capsules

    def observe(self, clamped: bool = False) -> Observation:
        boxes, capsules = self._scene()
        img = self.renderer.render(self.camera, boxes, capsules)
        return Observation(image=img, executed_joints=self.executed_joints(),
                           tick=self.tick, clamped=clamped)
