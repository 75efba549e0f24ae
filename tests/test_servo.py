"""Servo-step mechanics and the geometric baseline.

Closed-loop success rates live in the acceptance suite where a fully
trained model exists; here the contracts are exercised with random
weights and exact geometry."""

import inspect

import numpy as np
import pytest

from servopb.model import HEADROOM, Normalizer, VsnpbConfig, VsnpbModel
from servopb.rng import substream
from servopb.servo import (baseline_grasp_trial, pixel_to_plane,
                           run_grasp_trial, servo_step)
from servopb.world import (ArmWorld, BodyState, Command, ObjectSpec, Outcome,
                           Renderer, fk_nominal, load_default)


@pytest.fixture(scope="module")
def sc():
    return load_default()


def unit_normalizer(dim, limit=HEADROOM):
    return Normalizer(np.zeros(dim), np.ones(dim), limit)


def random_model(seed=0, n_s=15, gripper_limit=None, gripper_shift=0.0):
    cfg = VsnpbConfig(n_s=n_s)
    from servopb.model import VsnpbNet
    params = VsnpbNet(cfg).init_params(substream(seed, "servo-test"))
    lim = np.full(cfg.n_u, 0.9)
    if gripper_limit is not None:
        lim[6] = gripper_limit
    norm_u = unit_normalizer(cfg.n_u, lim)
    norm_u.shift[6] = gripper_shift
    return VsnpbModel(config=cfg, params=params, pb_table=np.zeros((2, 2)),
                      state_names=["a", "b"], norm_s=unit_normalizer(n_s),
                      norm_u=norm_u)


class IdentityCodec:
    """Stands in for the autoencoder: image mean statistics as a code."""

    def __init__(self, dim=15):
        self.dim = dim

    def encode(self, frames):
        flat = frames.reshape(frames.shape[0], -1, 3).mean(axis=1) / 255.0
        out = np.zeros((frames.shape[0], self.dim))
        out[:, :3] = flat
        return out


class CloseAt:
    """Model whose gripper output reads closed from control tick `tick` on."""

    def __init__(self, model, tick):
        self._model, self._tick, self._calls = model, tick, 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict(self, *args, **kwargs):
        s, u, hidden, clipped = self._model.predict(*args, **kwargs)
        u = u.copy()
        u[6] = 1.0 if self._calls >= self._tick else 0.0
        self._calls += 1
        return s, u, hidden, clipped


@pytest.fixture
def render_count(monkeypatch):
    """Counts Renderer.render calls made while the test runs."""
    calls = []
    render = Renderer.render

    def counted(self, *args, **kwargs):
        calls.append(1)
        return render(self, *args, **kwargs)

    monkeypatch.setattr(Renderer, "render", counted)
    return calls


class TestServoStep:
    def test_command_stays_in_training_range(self):
        model = random_model(seed=1)
        hidden = None
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = rng.uniform(-1, 1, 15)
            u = rng.uniform(-0.9, 0.9, 7)
            u_next, cmd, hidden, clipped = servo_step(model, s, u,
                                                      np.zeros(2), hidden)
            assert np.all(u_next <= 0.9 + 1e-12)
            assert np.all(u_next >= -0.9 - 1e-12)
            assert isinstance(clipped, bool)
            assert cmd.gripper in (0.0, 1.0)

    def test_gripper_binarization_strict_at_half(self):
        # constant gripper channel: every prediction clamps to exactly
        # 0.5, and "more than 0.5" must leave that open
        model = random_model(seed=2, gripper_limit=0.0, gripper_shift=0.5)
        s = np.zeros(15)
        u = np.zeros(7)
        u_next, cmd, _, _ = servo_step(model, s, u, np.zeros(2), None)
        assert u_next[6] == 0.5
        assert cmd.gripper == 0.0

    def test_gripper_above_half_closes(self):
        # shift 0.5 puts the raw head output right at the threshold, so
        # both branches appear over random inputs
        model = random_model(seed=3, gripper_shift=0.5)
        found_closed = found_open = False
        rng = np.random.default_rng(9)
        for k in range(40):
            s = rng.uniform(-1, 1, 15)
            u = rng.uniform(-0.9, 0.9, 7)
            u_next, cmd, _, _ = servo_step(model, s, u, rng.uniform(-1, 1, 2),
                                           None)
            assert cmd.gripper == (1.0 if u_next[6] > 0.5 else 0.0)
            found_closed |= cmd.gripper == 1.0
            found_open |= cmd.gripper == 0.0
        assert found_closed and found_open

    def test_joint_channels_match_prediction(self):
        model = random_model(seed=5)
        s = np.full(15, 0.2)
        u = np.zeros(7)
        u_next, cmd, _, _ = servo_step(model, s, u, np.zeros(2), None)
        np.testing.assert_array_equal(cmd.joint_targets, u_next[:6])

    def test_propagates_dimension_errors(self):
        model = random_model(seed=6)
        with pytest.raises(ValueError):
            servo_step(model, np.zeros(3), np.zeros(7), np.zeros(2), None)


class TestGraspTrial:
    def test_empty_table_fails(self, sc):
        world = ArmWorld(sc, sc.body_states["c1-j0"])
        model = random_model(seed=7)
        res = run_grasp_trial(world, model, IdentityCodec(), np.zeros(2),
                              max_ticks=12)
        assert res.outcome is Outcome.FAILED
        assert not res.success
        assert res.timeout == (res.closed_tick is None)
        assert res.commands.shape[1] == 7
        assert res.executed.shape[1] == 6

    def test_timeout_flagged_when_never_closing(self, sc):
        # constant-0.5 gripper channel can never exceed the threshold
        world = ArmWorld(sc, sc.body_states["c1-j0"])
        model = random_model(seed=8, gripper_limit=0.0)
        res = run_grasp_trial(world, model, IdentityCodec(), np.zeros(2),
                              max_ticks=6)
        assert res.outcome is Outcome.FAILED
        assert res.timeout is True
        assert res.closed_tick is None
        assert res.ticks == 6

    def test_trial_order_invariance(self, sc):
        model = random_model(seed=9)
        spec = sc.objects["L-25"]

        def one(x):
            world = ArmWorld(sc, sc.body_states["c2-j0"])
            world.place_object(spec, x, 0.02, 0.1)
            return run_grasp_trial(world, model, IdentityCodec(), np.zeros(2),
                                   max_ticks=10)

        xs = [0.22, 0.25, 0.28]
        first = [one(x) for x in xs]
        second = [one(x) for x in reversed(xs)]
        for a, b in zip(first, reversed(second)):
            assert a.outcome is b.outcome
            np.testing.assert_array_equal(a.commands, b.commands)
            np.testing.assert_array_equal(a.executed, b.executed)

    def test_close_event_triggers_retreat(self, sc):
        # force an immediate close: gripper channel pinned at 1.0
        model = random_model(seed=10, gripper_limit=0.0, gripper_shift=1.0)
        world = ArmWorld(sc, sc.body_states["c1-j0"])
        res = run_grasp_trial(world, model, IdentityCodec(), np.zeros(2),
                              max_ticks=10)
        assert res.closed_tick == 0
        assert res.ticks == 1 + 3
        assert np.all(res.commands[1:, 6] == 1.0)
        assert res.timeout is False


    @pytest.mark.parametrize("close_tick", [0, 3, None])
    def test_every_rendered_frame_is_encoded(self, sc, render_count, close_tick):
        encoded = []

        class CountingCodec(IdentityCodec):
            def encode(self, frames):
                encoded.append(frames.shape[0])
                return super().encode(frames)

        model = CloseAt(random_model(seed=11), 10**6 if close_tick is None else close_tick)
        world = ArmWorld(sc, sc.body_states["c2-j1"])
        res = run_grasp_trial(world, model, CountingCodec(), np.zeros(2),
                              max_ticks=6)
        assert res.closed_tick == close_tick
        assert res.ticks == (6 if close_tick is None else close_tick + 1 + 3)
        # the initial frame plus one per open-gripper tick
        assert len(render_count) == sum(encoded) == 1 + (6 if close_tick is None
                                                          else close_tick)


class TestPixelToPlane:
    def test_roundtrip_through_same_camera(self, sc):
        cam = sc.base_camera
        pt = np.array([0.24, 0.05, 0.025])
        pix, depth = cam.project(pt[None])
        assert depth[0] > 0
        est = pixel_to_plane(cam, pix[0, 0], pix[0, 1], pt[2])
        np.testing.assert_allclose(est, pt, atol=1e-10)

    def test_offset_camera_shifts_estimate_by_offset(self, sc):
        # in-plane camera translation lands one-for-one in the estimate
        offset = np.array([0.0, 0.03, 0.0])
        actual = sc.base_camera.shifted(offset)
        pt = np.array([0.26, -0.04, 0.0075])
        pix, _ = actual.project(pt[None])
        est = pixel_to_plane(sc.base_camera, pix[0, 0], pix[0, 1], pt[2])
        np.testing.assert_allclose(est, pt - offset, atol=1e-10)

    def test_rejects_plane_behind_camera(self, sc):
        cam = sc.base_camera
        with pytest.raises(ValueError):
            pixel_to_plane(cam, 31.5, 23.5, 5.0)   # above the camera


class TestBaseline:
    def test_correct_model_succeeds(self, sc):
        rigid = BodyState("rigid", np.zeros(6), np.zeros(3), 0.0)
        world = ArmWorld(sc, rigid)
        spec = sc.objects["L-25"]
        world.place_object(spec, 0.24, 0.03, 0.2)
        res = baseline_grasp_trial(world, spec)
        assert res.outcome is Outcome.SUCCEEDED
        assert res.closed_tick is not None

    def test_perturbed_body_fails_on_narrow_object(self, sc):
        bent = BodyState("bent", np.deg2rad([2, 2, 2, 2, 2, 2]),
                         np.array([0.0, 0.010, 0.0]), sc.body_states["c1-j0"].sag_gain)
        world = ArmWorld(sc, bent)
        spec = sc.objects["S-15"]
        # off-axis placement: the radial pull lands laterally, outside the jaws
        world.place_object(spec, 0.26, 0.10, 0.0)
        res = baseline_grasp_trial(world, spec)
        assert res.outcome is Outcome.FAILED

    def test_renders_no_frame(self, sc, render_count):
        world = ArmWorld(sc, sc.body_states["c2-j0"])
        spec = sc.objects["L-25"]
        world.place_object(spec, 0.24, 0.03, 0.2)
        res = baseline_grasp_trial(world, spec)
        assert res.ticks == sc.timing.total_ticks
        assert render_count == []

    def test_never_touches_the_network(self):
        names = set(inspect.signature(baseline_grasp_trial).parameters)
        assert names == {"world", "spec"}

    def test_missing_object_raises(self, sc):
        world = ArmWorld(sc, sc.body_states["c1-j0"])
        with pytest.raises(KeyError):
            baseline_grasp_trial(world, sc.objects["L-25"])

    def test_unreachable_grasp_height_fails_cleanly(self, sc):
        tower = ObjectSpec("tower", 0.015, 0.05, 1.0, (0.5, 0.5, 0.5))
        world = ArmWorld(sc, sc.body_states["c1-j0"])
        world.place_object(tower, 0.24, 0.0, 0.0)
        res = baseline_grasp_trial(world, tower)
        assert res.outcome is Outcome.FAILED
        assert res.ticks == 0

    def test_outcome_matches_scripted_pick(self, sc):
        # zero camera offset: estimate is exact, so the baseline is the
        # scripted pick and must land the same outcome the collector sees
        state = sc.body_states["c1-j1"]
        world = ArmWorld(sc, state)
        spec = sc.objects["L-25"]
        world.place_object(spec, 0.23, -0.02, 0.0)
        res = baseline_grasp_trial(world, spec)
        assert res.outcome in (Outcome.SUCCEEDED, Outcome.ROTATED, Outcome.FAILED)
        assert res.ticks == sc.timing.total_ticks
