from dataclasses import replace

import numpy as np
import pytest

from servopb.rng import substream
from servopb.world import (ArmWorld, BodyState, Command, Outcome, PlacementError,
                           grasp_rotation, ik_nominal)
from servopb.world.scenario import load_default
from servopb.world.sim import ObjectSpec, sag_deflection


@pytest.fixture(scope="module")
def sc():
    return load_default()


def rigid_state(name="rigid"):
    return BodyState(name=name, joint_offset=np.zeros(6),
                     camera_offset=np.zeros(3), sag_gain=0.0)


def goto(world, sc, q_target, ticks=4, gripper=0.0):
    start = world.q_cmd.copy()
    for i in range(1, ticks + 1):
        world.step(Command(start + i / ticks * (q_target - start), gripper))


def grasp_q(sc, x, y, yaw, z=None):
    z = sc.grasp_tool_z(sc.objects["L-25"]) if z is None else z
    return ik_nominal(np.array([x, y, z]), grasp_rotation(yaw), geom=sc.geometry)


class TestBodyState:
    def test_rejects_large_joint_offset(self):
        with pytest.raises(ValueError):
            BodyState("bad", np.full(6, np.deg2rad(6.0)), np.zeros(3), 0.0)

    def test_rejects_large_camera_offset(self):
        with pytest.raises(ValueError):
            BodyState("bad", np.zeros(6), np.array([0.0, 0.06, 0.0]), 0.0)

    def test_accepts_grid_extremes(self):
        BodyState("ok", np.deg2rad([5, -5, 5, -5, 5, -5]),
                  np.array([0.0, 0.05, 0.0]), 0.02)


class TestCommand:
    def test_array_roundtrip(self):
        u = np.arange(7, dtype=np.float64) / 10
        cmd = Command.from_array(u)
        np.testing.assert_array_equal(cmd.as_array(), u)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            Command.from_array(np.zeros(6))


class TestDeterminism:
    def test_zero_command_fixed_point(self, sc):
        world = ArmWorld(sc, sc.body_states["c2-j1"])
        hold = Command(sc.home_q, 0.0)
        first = world.step(hold)
        for _ in range(3):
            obs = world.step(hold)
            np.testing.assert_array_equal(obs.executed_joints, first.executed_joints)
            assert obs.image.tobytes() == first.image.tobytes()

    def test_replay_bit_identical(self, sc):
        rng = substream(7, "sim-replay")
        seqs = [[Command(sc.home_q + rng.uniform(-0.08, 0.08, 6), rng.uniform(0, 1))
                 for _ in range(6)] for _ in range(5)]
        for seq in seqs:
            wa = ArmWorld(sc, sc.body_states["c3-j1"])
            wb = ArmWorld(sc, sc.body_states["c3-j1"])
            wa.place_object(sc.objects["S-15"], 0.24, 0.02, 0.1)
            wb.place_object(sc.objects["S-15"], 0.24, 0.02, 0.1)
            for cmd in seq:
                oa = wa.step(cmd)
                ob = wb.step(cmd)
                np.testing.assert_array_equal(oa.executed_joints, ob.executed_joints)
                assert oa.image.tobytes() == ob.image.tobytes()

    def test_executed_equals_commanded_for_rigid_state(self, sc):
        world = ArmWorld(sc, rigid_state())
        q = sc.home_q + 0.05
        obs = world.step(Command(q, 0.0))
        np.testing.assert_allclose(obs.executed_joints, q, atol=1e-15)

    def test_joint_offset_adds(self, sc):
        off = np.deg2rad([2, -2, 2, -2, 2, -2])
        state = BodyState("t", off, np.zeros(3), 0.0)
        world = ArmWorld(sc, state)
        obs = world.step(Command(sc.home_q, 0.0))
        np.testing.assert_allclose(obs.executed_joints, sc.home_q + off, atol=1e-15)

    def test_camera_offset_moves_centroid_monotonically(self, sc):
        spec = sc.objects["L-25"]
        tgt = np.array(spec.color) * 255
        us = []
        for dy in [0.0, 0.01, 0.02, 0.03, 0.04]:
            state = BodyState("sweep", np.zeros(6), np.array([0.0, dy, 0.0]), 0.0)
            world = ArmWorld(sc, state)
            world.place_object(spec, 0.24, 0.02, 0.2)
            img = world.observe().image
            mask = np.abs(img.astype(float) - tgt).sum(axis=2) < 80
            assert mask.sum() > 0
            us.append(np.nonzero(mask)[1].mean())
        ranks = np.argsort(np.argsort(us))
        corr = np.corrcoef(ranks, np.arange(5))[0, 1]
        assert abs(corr) == pytest.approx(1.0)


class TestSkippedRender:
    @pytest.mark.parametrize("noise_deg", [0.0, 0.3])
    def test_unrendered_step_then_observe_matches_rendered_step(self, sc, noise_deg):
        scn = replace(sc, joint_noise_deg=noise_deg)
        spec = scn.objects["L-25"]
        qg = grasp_q(scn, 0.24, 0.0, 0.0)
        q_far = scn.home_q.copy()
        q_far[0] = 9.0                      # out of limits: clamped
        cmds = ([Command(scn.home_q + i / 3 * (qg - scn.home_q), 0.0) for i in range(1, 4)]
                + [Command(qg, 1.0), Command(q_far, 1.0), Command(scn.home_q, 1.0)])
        worlds = []
        for _ in range(2):
            world = ArmWorld(scn, scn.body_states["c2-j1"])
            world.place_object(spec, 0.24, 0.0, 0.0)
            worlds.append(world)
        shown, skipped = worlds
        clamped = []
        for cmd in cmds:
            a = shown.step(cmd)
            b = skipped.step(cmd, render=False)
            assert b.image is None
            np.testing.assert_array_equal(a.executed_joints, b.executed_joints)
            assert (a.tick, a.clamped) == (b.tick, b.clamped)
            assert shown.last_outcome is skipped.last_outcome
            assert a.image.tobytes() == skipped.observe().image.tobytes()
            clamped.append(a.clamped)
        # the sequence exercises a closure and a clamped command
        assert shown.last_outcome is not None
        assert any(clamped)

    def test_worlds_share_the_scenario_renderer(self, sc):
        a = ArmWorld(sc, sc.body_states["c1-j0"])
        b = ArmWorld(sc, sc.body_states["c3-j1"])
        assert a.renderer is b.renderer is sc.renderer


class TestStepMechanics:
    def test_out_of_limit_command_clamped_and_flagged(self, sc):
        world = ArmWorld(sc, rigid_state())
        bad = sc.home_q.copy()
        bad[0] = 9.0
        obs = world.step(Command(bad, 0.0))
        assert obs.clamped
        assert obs.executed_joints[0] == pytest.approx(2.6)

    def test_sag_pulls_arm_down(self, sc):
        qg = grasp_q(sc, 0.24, 0.0, 0.0)
        soft = BodyState("soft", np.zeros(6), np.zeros(3), 0.012)
        world = ArmWorld(sc, soft)
        world.q_cmd = qg.copy()
        mid_soft, _ = world.closure_point()
        rigid = ArmWorld(sc, rigid_state())
        rigid.q_cmd = qg.copy()
        mid_rigid, _ = rigid.closure_point()
        assert mid_soft[2] < mid_rigid[2] - 0.002

    def test_sag_depends_only_on_commanded_pose(self, sc):
        qg = grasp_q(sc, 0.26, -0.05, 0.2)
        a = sag_deflection(qg, 0.012, sc.geometry)
        b = sag_deflection(qg.copy(), 0.012, sc.geometry)
        np.testing.assert_array_equal(a, b)


class TestGraspClassification:
    """Closure offsets with a rigid body state give exact geometry."""

    def prepare(self, sc, spec_name="L-25", yaw=0.0):
        world = ArmWorld(sc, rigid_state())
        spec = sc.objects[spec_name]
        world.place_object(spec, 0.24, 0.0, yaw)
        return world, spec

    def close_at(self, world, sc, spec, dx, dy, dz=0.0):
        z = sc.grasp_tool_z(spec) + dz
        qg = ik_nominal(np.array([0.24 + dx, 0.0 + dy, z]),
                        grasp_rotation(0.0), geom=sc.geometry)
        goto(world, sc, qg, ticks=3, gripper=0.0)
        world.step(Command(qg, 1.0))
        return world.last_outcome

    def test_centered_closure_succeeds(self, sc):
        world, spec = self.prepare(sc)
        assert self.close_at(world, sc, spec, 0.0, 0.0) is Outcome.SUCCEEDED

    def test_edge_closure_rotates(self, sc):
        # 25 mm wide: succeeded needs |lat| < 10.5 mm, footprint 12.5 mm
        world, spec = self.prepare(sc)
        assert self.close_at(world, sc, spec, 0.0, 0.0115) is Outcome.ROTATED

    def test_miss_fails(self, sc):
        world, spec = self.prepare(sc)
        assert self.close_at(world, sc, spec, 0.0, 0.0145) is Outcome.FAILED

    def test_off_center_along_length_rotates(self, sc):
        # central 60 % of the 100 mm length: succeeded needs |lon| <= 30 mm
        world, spec = self.prepare(sc)
        assert self.close_at(world, sc, spec, 0.035, 0.0) is Outcome.ROTATED

    def test_too_high_closure_fails(self, sc):
        world, spec = self.prepare(sc)
        assert self.close_at(world, sc, spec, 0.0, 0.0, dz=0.020) is Outcome.FAILED

    def test_yawed_object_frame_used(self, sc):
        # object yawed 90 deg: length along y, width along x
        world = ArmWorld(sc, rigid_state())
        spec = sc.objects["L-25"]
        world.place_object(spec, 0.24, 0.0, np.pi / 2)
        out = self.close_at(world, sc, spec, 0.0, 0.035)
        assert out is Outcome.ROTATED

    def test_too_wide_object_fails(self, sc):
        world = ArmWorld(sc, rigid_state())
        fat = ObjectSpec("fat", width=0.040, length=0.1, height=0.05,
                         color=(0.5, 0.5, 0.5))
        world.place_object(fat, 0.24, 0.0, 0.0)
        assert not world.grasp_feasible(fat)
        assert self.close_at(world, sc, fat, 0.0, 0.0) is Outcome.FAILED


class TestAttachment:
    def test_grasped_object_follows_hand(self, sc):
        world, spec = TestGraspClassification().prepare(sc)
        TestGraspClassification().close_at(world, sc, spec, 0.0, 0.0)
        assert world.last_outcome is Outcome.SUCCEEDED
        held = world.held_object()
        assert held is not None
        assert world.aperture == pytest.approx(spec.width)
        q_up = ik_nominal(np.array([0.22, 0.05, 0.115]), grasp_rotation(0.3),
                          geom=sc.geometry)
        goto(world, sc, q_up, ticks=3, gripper=1.0)
        mid, _ = world.closure_point()
        assert held.z_center == pytest.approx(mid[2], abs=1e-12)
        np.testing.assert_allclose([held.x, held.y], mid[:2], atol=1e-9)

    def test_release_settles_on_table(self, sc):
        world, spec = TestGraspClassification().prepare(sc)
        TestGraspClassification().close_at(world, sc, spec, 0.0, 0.0)
        q_up = ik_nominal(np.array([0.22, 0.05, 0.115]), grasp_rotation(0.0),
                          geom=sc.geometry)
        goto(world, sc, q_up, ticks=3, gripper=1.0)
        world.step(Command(q_up, 0.0))
        obj = world.objects[0]
        assert not obj.attached
        assert obj.z_center == pytest.approx(spec.height / 2)
        assert world.held_object() is None

    def test_spawn_in_gripper_closes_on_object(self, sc):
        world = ArmWorld(sc, rigid_state())
        spec = sc.objects["S-15"]
        world.spawn_in_gripper(spec)
        held = world.held_object()
        assert held is not None
        assert world.aperture == pytest.approx(spec.width)
        mid, _ = world.closure_point()
        np.testing.assert_allclose([held.x, held.y], mid[:2], atol=1e-12)


class TestObjectManagement:
    def test_overlapping_placement_rejected(self, sc):
        world = ArmWorld(sc, rigid_state())
        world.place_object(sc.objects["L-25"], 0.24, 0.0, 0.0)
        with pytest.raises(PlacementError):
            world.place_object(sc.objects["S-15"], 0.25, 0.01, 0.0)

    def test_remove_restores_empty_render(self, sc):
        world = ArmWorld(sc, rigid_state())
        empty = world.observe().image.tobytes()
        world.place_object(sc.objects["L-25"], 0.24, 0.0, 0.0)
        assert world.observe().image.tobytes() != empty
        world.remove_object("L-25")
        assert world.observe().image.tobytes() == empty

    def test_remove_missing_raises(self, sc):
        world = ArmWorld(sc, rigid_state())
        with pytest.raises(KeyError):
            world.remove_object("ghost")
