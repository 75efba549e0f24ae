"""Scenario: every tunable of the world, protocol, and training runs.

Loaded from YAML so experiments are reproducible from a single file;
`load_default()` returns the packaged configuration.  The scenario owns
object specs, the body-state grid (camera offset x joint offset), the
placement sector, collection protocol timing, and default
hyperparameters for the codec, predictor, adapter, and servo loop.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .kinematics import ArmGeometry, grasp_rotation, ik_nominal
from .render import CameraModel, Renderer, TableSpec
from .sim import BodyState, ObjectSpec

__all__ = ["Scenario", "load_default", "load_scenario"]

_CAMERA_OFFSET_DIR = np.array([0.0, 1.0, 0.0])   # body-state camera shifts, +y


@dataclass(frozen=True)
class PlacementSector:
    r_range: tuple[float, float]
    azimuth_range: tuple[float, float]
    yaw_range: tuple[float, float]
    min_separation: float  # meters; placements quantized to this grid

    def sample(self, rng: np.random.Generator) -> tuple[float, float, float]:
        r = rng.uniform(*self.r_range)
        az = rng.uniform(*self.azimuth_range)
        yaw = rng.uniform(*self.yaw_range)
        q = self.min_separation
        x = round((r * np.cos(az)) / q) * q
        y = round((r * np.sin(az)) / q) * q
        return float(x), float(y), float(yaw)


@dataclass(frozen=True)
class ProtocolTiming:
    approach_ticks: int
    pregrasp_ticks: int
    lower_ticks: int
    grasp_ticks: int
    retreat_ticks: int
    home_ticks: int
    hover_height: float  # lift above grasp pose, m

    @property
    def total_ticks(self) -> int:
        # +1 for the initial posture-hold tick that opens every phase log
        return (1 + self.approach_ticks + self.pregrasp_ticks + self.lower_ticks
                + self.grasp_ticks + self.retreat_ticks + self.home_ticks)


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: ArmGeometry
    base_camera: CameraModel
    table: TableSpec
    objects: dict[str, ObjectSpec]
    body_states: dict[str, BodyState]
    sector: PlacementSector
    timing: ProtocolTiming
    home_q: np.ndarray
    home_tool: tuple[float, float, float]
    gripper_max_aperture: float
    gripper_rate: float
    grasp_margin: float
    grasp_center_frac: float
    grasp_height_window: float
    grasp_substeps: int
    finger_drop: float          # closure point below tool plate, m
    joint_noise_deg: float
    noise_seed: int
    supersample: int = 1
    codec: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    adapter: dict = field(default_factory=dict)
    servo: dict = field(default_factory=dict)
    presets: dict = field(default_factory=dict)

    @cached_property
    def renderer(self) -> Renderer:
        """One renderer per scenario, so every world built from it
        shares the per-camera ray and table caches."""
        return Renderer(self.table, supersample=self.supersample)

    def grasp_tool_z(self, spec: ObjectSpec) -> float:
        return spec.height / 2.0 + self.finger_drop

    def grasp_command_pose(self, spec: ObjectSpec, x: float, y: float, yaw: float):
        pos = np.array([x, y, self.grasp_tool_z(spec)])
        return pos, grasp_rotation(yaw)

    def interpolated_state(self, name: str, a: str, b: str) -> BodyState:
        """Body state midway between two trained states (unseen premise)."""
        sa, sb = self.body_states[a], self.body_states[b]
        return BodyState(name=name,
                         joint_offset=(sa.joint_offset + sb.joint_offset) / 2.0,
                         camera_offset=(sa.camera_offset + sb.camera_offset) / 2.0,
                         sag_gain=(sa.sag_gain + sb.sag_gain) / 2.0)


def _build_body_states(raw: dict, sag_gain: float) -> dict[str, BodyState]:
    states: dict[str, BodyState] = {}
    cam_offsets = raw["camera_offsets_mm"]
    joint_sets = raw["joint_offsets_deg"]
    for ci, cam_mm in enumerate(cam_offsets, start=1):
        for jname, joffs in joint_sets.items():
            name = f"c{ci}-{jname}"
            states[name] = BodyState(
                name=name,
                joint_offset=np.deg2rad(np.asarray(joffs, dtype=np.float64)),
                camera_offset=_CAMERA_OFFSET_DIR * (cam_mm / 1000.0),
                sag_gain=sag_gain,
            )
    return states


def _parse(raw: dict) -> Scenario:
    geom = ArmGeometry(**raw.get("geometry", {}))
    cam = raw["camera"]
    base_camera = CameraModel.from_lookat(
        position=np.asarray(cam["position"], dtype=np.float64),
        look_at=np.asarray(cam["look_at"], dtype=np.float64),
        focal_px=float(cam["focal_px"]),
        width=int(cam["width"]), height=int(cam["height"]))
    tr = raw.get("table", {})
    table = TableSpec(x_range=tuple(tr.get("x_range", (-0.06, 0.44))),
                      y_range=tuple(tr.get("y_range", (-0.32, 0.32))))
    if "color" in tr:
        # single tone on both checker phases renders a uniform surface
        tone = tuple(float(v) for v in tr["color"])
        table = replace(table, color_a=tone, color_b=tone)

    objects = {}
    for name, spec in raw["objects"].items():
        objects[name] = ObjectSpec(
            name=name,
            width=spec["width_mm"] / 1000.0,
            length=spec["length_mm"] / 1000.0,
            height=spec["height_mm"] / 1000.0,
            color=tuple(spec["color"]))

    sag_gain = float(raw["body"]["sag_gain"])
    body_states = _build_body_states(raw["body"], sag_gain)

    pl = raw["placement"]
    sector = PlacementSector(
        r_range=tuple(pl["r_range"]),
        azimuth_range=tuple(pl["azimuth_range"]),
        yaw_range=tuple(pl["yaw_range"]),
        min_separation=pl["min_separation_mm"] / 1000.0)

    tm = raw["protocol"]
    timing = ProtocolTiming(
        approach_ticks=int(tm["approach_ticks"]),
        pregrasp_ticks=int(tm["pregrasp_ticks"]),
        lower_ticks=int(tm["lower_ticks"]),
        grasp_ticks=int(tm["grasp_ticks"]),
        retreat_ticks=int(tm["retreat_ticks"]),
        home_ticks=int(tm["home_ticks"]),
        hover_height=tm["hover_mm"] / 1000.0)

    gr = raw["gripper"]
    gp = raw["grasp"]
    home = raw["home"]
    home_tool = (float(home["tool_x"]), float(home["tool_y"]), float(home["tool_z"]))
    home_q = ik_nominal(np.asarray(home_tool), grasp_rotation(0.0), geom=geom)

    return Scenario(
        name=raw.get("name", "unnamed"),
        geometry=geom,
        base_camera=base_camera,
        table=table,
        objects=objects,
        body_states=body_states,
        sector=sector,
        timing=timing,
        home_q=home_q,
        home_tool=home_tool,
        gripper_max_aperture=gr["max_aperture_mm"] / 1000.0,
        gripper_rate=gr["rate_mm_per_tick"] / 1000.0,
        grasp_margin=gp["margin_mm"] / 1000.0,
        grasp_center_frac=float(gp["center_frac"]),
        grasp_height_window=gp["height_window_mm"] / 1000.0,
        grasp_substeps=int(gp["substeps"]),
        finger_drop=gp["finger_drop_mm"] / 1000.0,
        joint_noise_deg=float(raw.get("noise", {}).get("joint_noise_deg", 0.0)),
        noise_seed=int(raw.get("noise", {}).get("seed", 0)),
        supersample=int(cam.get("supersample", 1)),
        codec=dict(raw.get("codec", {})),
        model=dict(raw.get("model", {})),
        adapter=dict(raw.get("adapter", {})),
        servo=dict(raw.get("servo", {})),
        presets=dict(raw.get("presets", {})),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return _parse(raw)


def load_default() -> Scenario:
    ref = importlib.resources.files("servopb").joinpath("scenarios/default.yaml")
    raw = yaml.safe_load(ref.read_text(encoding="utf-8"))
    return _parse(raw)
