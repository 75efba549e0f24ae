"""Forward and inverse kinematics for the 6-joint chain.

Joint layout (all revolute): base yaw about world z, three pitches
about the arm-plane y axis, a tool roll about the link axis, and a
final pitch.  With every angle at zero the arm lies stretched along +x
at the base riser height, so the zero-pose hand sits at
(a1+a2+a3+d5+d6, 0, d1) = (0.50, 0, 0.10) with default geometry.

Positive pitch tips the distal links downward.  The tool approach axis
is the last link's local +x; fingers close along local +y.

Top-down grasp poses (approach axis straight down) admit a closed-form
solution: the roll joint carries the closure yaw, the final pitch stays
zero, and the three pitches solve a planar two-link problem with the
straight vertical tail a3+d5+d6.  `ik_nominal` seeds from that solution
when the target belongs to this family and polishes with damped least
squares; other targets run DLS from a generic seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArmGeometry", "IkError", "chain_points", "fk_nominal", "grasp_rotation",
           "ik_nominal", "jacobian", "JOINT_LIMITS"]


class IkError(RuntimeError):
    """Target unreachable or iteration failed to converge."""


@dataclass(frozen=True)
class ArmGeometry:
    d1: float = 0.10   # base riser height
    a1: float = 0.19   # upper arm
    a2: float = 0.19   # forearm
    a3: float = 0.05   # wrist link
    d5: float = 0.02   # roll hub
    d6: float = 0.05   # tool plate

    @property
    def reach(self) -> float:
        return self.a1 + self.a2 + self.a3 + self.d5 + self.d6

    @property
    def tail(self) -> float:
        return self.a3 + self.d5 + self.d6


DEFAULT_GEOMETRY = ArmGeometry()

# joint limits, radians
JOINT_LIMITS = np.array([
    [-2.6, 2.6],
    [-1.7, 1.9],
    [-2.4, 2.4],
    [-2.4, 2.4],
    [-1.6, 1.6],
    [-1.6, 1.6],
])

# ik_nominal stops once both residuals are below tolerance
_IK_POS_TOL = 1e-8    # m
_IK_ROT_TOL = 1e-6    # rad
_IK_MAX_ITER = 200


def _rz(q: float) -> np.ndarray:
    c, s = np.cos(q), np.sin(q)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(q: float) -> np.ndarray:
    c, s = np.cos(q), np.sin(q)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rx(q: float) -> np.ndarray:
    c, s = np.cos(q), np.sin(q)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _frames(q: np.ndarray, geom: ArmGeometry):
    """World rotation, joint origin, and joint axis for each of the 6
    joints, plus the final hand frame."""
    g = geom
    origins = []
    axes = []
    p = np.array([0.0, 0.0, g.d1])
    r = np.eye(3)

    # joint 0: yaw about world z
    origins.append(p.copy()); axes.append(r[:, 2].copy())
    r = r @ _rz(q[0])
    # joint 1: pitch, then upper arm along local x
    origins.append(p.copy()); axes.append(r[:, 1].copy())
    r = r @ _ry(q[1]); p = p + r[:, 0] * g.a1
    # joint 2: pitch, forearm
    origins.append(p.copy()); axes.append(r[:, 1].copy())
    r = r @ _ry(q[2]); p = p + r[:, 0] * g.a2
    # joint 3: pitch, wrist link
    origins.append(p.copy()); axes.append(r[:, 1].copy())
    r = r @ _ry(q[3]); p = p + r[:, 0] * g.a3
    # joint 4: roll about the link axis, roll hub
    origins.append(p.copy()); axes.append(r[:, 0].copy())
    r = r @ _rx(q[4]); p = p + r[:, 0] * g.d5
    # joint 5: pitch, tool plate
    origins.append(p.copy()); axes.append(r[:, 1].copy())
    r = r @ _ry(q[5]); p = p + r[:, 0] * g.d6

    return origins, axes, p, r


def fk_nominal(q: np.ndarray, geom: ArmGeometry = DEFAULT_GEOMETRY) -> tuple[np.ndarray, np.ndarray]:
    """Hand position and rotation of the offset-free, sag-free chain."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (6,):
        raise ValueError(f"expected 6 joint angles, got shape {q.shape}")
    _, _, p, r = _frames(q, geom)
    return p, r


def chain_points(q: np.ndarray, geom: ArmGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Polyline through the link endpoints, base to hand (for drawing)."""
    g = geom
    pts = [np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, g.d1])]
    origins, _, p, _ = _frames(np.asarray(q, dtype=np.float64), geom)
    pts.extend(origins[2:])  # joints at the a1/a2/a3/d5 boundaries
    pts.append(p)
    return np.array(pts)


def jacobian(q: np.ndarray, geom: ArmGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """6x6 geometric Jacobian: rows = (linear velocity, angular velocity)."""
    origins, axes, p, _ = _frames(np.asarray(q, dtype=np.float64), geom)
    cols = []
    for o, a in zip(origins, axes):
        cols.append(np.concatenate([np.cross(a, p - o), a]))
    return np.array(cols).T


def grasp_rotation(yaw: float) -> np.ndarray:
    """Tool rotation for a top-down grasp on an object whose length axis
    points along `yaw`: approach axis straight down, finger closure axis
    perpendicular to the length axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    x = np.array([0.0, 0.0, -1.0])
    y = np.array([-s, c, 0.0])
    z = np.cross(x, y)
    return np.column_stack([x, y, z])


def _rot_error(r_cur: np.ndarray, r_tgt: np.ndarray) -> np.ndarray:
    e = np.zeros(3)
    for i in range(3):
        e += np.cross(r_cur[:, i], r_tgt[:, i])
    return 0.5 * e


def _topdown_seed(target_pos: np.ndarray, target_rot: np.ndarray,
                  geom: ArmGeometry) -> np.ndarray | None:
    """Closed-form joints for the straight-down tool family, or None when
    the planar two-link subproblem has no solution."""
    x, y, z = target_pos
    q0 = np.arctan2(y, x)
    rr = np.hypot(x, y)
    # elbow target in the arm plane, relative to the shoulder
    ex = rr
    ez = z + geom.tail - geom.d1
    l2 = ex * ex + ez * ez
    l_ = np.sqrt(l2)
    if l_ > geom.a1 + geom.a2 or l_ < abs(geom.a1 - geom.a2) or l_ < 1e-9:
        return None
    # interior angles of the shoulder/elbow triangle
    cos_gamma = np.clip((l2 + geom.a1 ** 2 - geom.a2 ** 2) / (2 * geom.a1 * l_), -1.0, 1.0)
    gamma = np.arccos(cos_gamma)
    phi_t = np.arctan2(-ez, ex)  # pitch-down angle of the chord
    u1 = phi_t - gamma           # upper arm above the chord: arched elbow
    v = np.array([ex - geom.a1 * np.cos(u1), ez + geom.a1 * np.sin(u1)])
    u2 = np.arctan2(-v[1], v[0])
    # closure yaw carried by the roll joint
    yaw = np.arctan2(target_rot[1, 2], target_rot[0, 2])
    return np.array([q0, u1, u2 - u1, np.pi / 2 - u2, q0 - yaw, 0.0])


def ik_nominal(target_pos: np.ndarray, target_rot: np.ndarray,
               q0: np.ndarray | None = None,
               geom: ArmGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Inverse kinematics for a full 6-D pose.

    Top-down targets start from the closed-form solution; everything
    runs through a damped-least-squares polish whose damping shrinks
    with the residual.  Raises :class:`IkError` when the target lies
    outside the workspace or the iteration stalls above tolerance.
    """
    target_pos = np.asarray(target_pos, dtype=np.float64)
    target_rot = np.asarray(target_rot, dtype=np.float64)
    shoulder = np.array([0.0, 0.0, geom.d1])
    if np.linalg.norm(target_pos - shoulder) > geom.reach:
        raise IkError(f"target {target_pos} beyond reach {geom.reach:.3f} m")

    if q0 is not None:
        q = np.asarray(q0, dtype=np.float64).copy()
    else:
        q = None
        if abs(target_rot[2, 0] + 1.0) < 1e-6:  # approach axis straight down
            q = _topdown_seed(target_pos, target_rot, geom)
        if q is None:
            q = np.array([np.arctan2(target_pos[1], target_pos[0]), -0.4, 0.3, 1.2, 0.0, 0.47])

    best_err = np.inf
    for _ in range(_IK_MAX_ITER):
        p, r = fk_nominal(q, geom)
        e = np.concatenate([target_pos - p, _rot_error(r, target_rot)])
        pos_err = np.linalg.norm(e[:3])
        rot_err = np.linalg.norm(e[3:])
        if pos_err < _IK_POS_TOL and rot_err < _IK_ROT_TOL:
            return q
        best_err = min(best_err, pos_err)
        lam = min(0.05, max(1e-4, 0.3 * np.linalg.norm(e)))
        j = jacobian(q, geom)
        dq = j.T @ np.linalg.solve(j @ j.T + lam * lam * np.eye(6), e)
        step = np.linalg.norm(dq)
        if step > 0.5:
            dq *= 0.5 / step
        q = np.clip(q + dq, JOINT_LIMITS[:, 0], JOINT_LIMITS[:, 1])
    raise IkError(f"no convergence: position error {best_err:.2e} m at {target_pos}")
