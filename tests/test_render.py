import numpy as np
import pytest

from servopb.world.render import Box, CameraModel, Capsule, Renderer, TableSpec


@pytest.fixture
def camera():
    return CameraModel.from_lookat(
        position=np.array([-0.10, -0.22, 0.38]),
        look_at=np.array([0.24, 0.02, 0.0]),
        focal_px=85.0, width=64, height=48)


@pytest.fixture
def renderer():
    return Renderer(TableSpec(x_range=(-0.06, 0.44), y_range=(-0.32, 0.32)))


def axis_box(center, half, color):
    return Box(center=np.asarray(center, dtype=float), rot=np.eye(3),
               half=np.asarray(half, dtype=float), color=color)


class TestCameraModel:
    def test_basis_orthonormal(self, camera):
        r = np.array(camera.right)
        d = np.array(camera.down)
        f = np.array(camera.forward)
        for v in (r, d, f):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(r @ d) < 1e-12
        assert abs(r @ f) < 1e-12
        np.testing.assert_allclose(np.cross(f, r), d, atol=1e-12)

    def test_lookat_point_projects_to_center(self, camera):
        px, depth = camera.project(np.array([[0.24, 0.02, 0.0]]))
        assert depth[0] > 0
        # principal point uses the pixel-center convention
        np.testing.assert_allclose(px[0], [(64 - 1) / 2, (48 - 1) / 2], atol=1e-9)

    def test_point_right_of_axis_lands_right(self, camera):
        target = np.array([0.24, 0.02, 0.0]) + 0.05 * np.array(camera.right)
        px, _ = camera.project(target[None, :])
        assert px[0, 0] > 32

    def test_shift_moves_position_only(self, camera):
        moved = camera.shifted(np.array([0.0, 0.02, 0.0]))
        assert moved.right == camera.right
        assert moved.down == camera.down
        assert moved.forward == camera.forward
        np.testing.assert_allclose(
            np.array(moved.position) - np.array(camera.position),
            [0.0, 0.02, 0.0], atol=1e-15)


class TestRenderer:
    def test_output_shape_and_determinism(self, camera, renderer):
        box = axis_box([0.24, 0.0, 0.025], [0.05, 0.0125, 0.025], (0.2, 0.4, 0.8))
        a = renderer.render(camera, [box], [])
        b = renderer.render(camera, [box], [])
        assert a.shape == (48, 64, 3) and a.dtype == np.uint8
        assert a.tobytes() == b.tobytes()

    def test_empty_scene_shows_table_checker(self, camera, renderer):
        img = renderer.render(camera, [], [])
        # bottom half looks at the table: checker gives at least 2 tones
        lower = img[30:, :, :].reshape(-1, 3)
        assert len(np.unique(lower, axis=0)) >= 2

    def test_box_visible_and_colored(self, camera, renderer):
        color = (0.85, 0.18, 0.15)
        box = axis_box([0.24, 0.0, 0.025], [0.05, 0.0075, 0.025], color)
        img = renderer.render(camera, [box], [])
        tgt = np.array(color) * 255
        dist = np.abs(img.astype(float) - tgt).sum(axis=2)
        assert (dist < 80).sum() >= 10

    def test_nearer_box_occludes(self, camera, renderer):
        far = axis_box([0.24, 0.0, 0.02], [0.03, 0.03, 0.02], (0.9, 0.1, 0.1))
        # second box sits between the camera and the first, higher up
        near_center = np.array([0.24, 0.0, 0.02]) - 0.12 * np.array(camera.forward)
        near = axis_box(near_center, [0.03, 0.03, 0.02], (0.1, 0.9, 0.1))
        img_far = renderer.render(camera, [far], [])
        img_both = renderer.render(camera, [far, near], [])
        red = np.abs(img_far.astype(float) - np.array([229.5, 25.5, 25.5])).sum(axis=2) < 80
        red_both = np.abs(img_both.astype(float) - np.array([229.5, 25.5, 25.5])).sum(axis=2) < 80
        assert red.sum() > 0
        assert red_both.sum() < red.sum()

    def test_draw_order_does_not_change_pixels(self, camera, renderer):
        a = axis_box([0.22, -0.04, 0.025], [0.02, 0.02, 0.025], (0.9, 0.2, 0.1))
        b = axis_box([0.26, 0.05, 0.025], [0.02, 0.02, 0.025], (0.1, 0.3, 0.9))
        img_ab = renderer.render(camera, [a, b], [])
        img_ba = renderer.render(camera, [b, a], [])
        assert img_ab.tobytes() == img_ba.tobytes()

    def test_capsule_visible(self, camera, renderer):
        cap = Capsule(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.25]),
                      0.02, (0.3, 0.32, 0.35))
        img = renderer.render(camera, [], [cap])
        base = renderer.render(camera, [], [])
        assert img.tobytes() != base.tobytes()

    def test_camera_offset_shifts_centroid_monotonically(self, camera, renderer):
        box = axis_box([0.24, 0.0, 0.025], [0.03, 0.0125, 0.025], (0.15, 0.38, 0.85))
        tgt = np.array([0.15, 0.38, 0.85]) * 255
        us = []
        offsets = [0.0, 0.01, 0.02, 0.03, 0.04]
        for dy in offsets:
            cam = camera.shifted(np.array([0.0, dy, 0.0]))
            img = renderer.render(cam, [box], [])
            mask = np.abs(img.astype(float) - tgt).sum(axis=2) < 80
            assert mask.sum() > 0
            us.append(np.nonzero(mask)[1].mean())
        diffs = np.diff(us)
        assert np.all(diffs > 0) or np.all(diffs < 0)


class TestTableCache:
    """The empty table is drawn once per camera; cached frames must be
    byte-equal to a fresh renderer's, whatever was rendered before."""

    @pytest.mark.parametrize("table", [
        TableSpec(),
        TableSpec(color_a=(0.52, 0.47, 0.40), color_b=(0.52, 0.47, 0.40)),
    ], ids=["checkered", "uniform"])
    def test_cached_render_equals_fresh(self, camera, table):
        box = axis_box([0.24, 0.0, 0.025], [0.05, 0.0125, 0.025], (0.2, 0.4, 0.8))
        cap = Capsule(np.array([0.0, 0.0, 0.0]), np.array([0.1, 0.0, 0.25]),
                      0.02, (0.3, 0.32, 0.35))
        cached = Renderer(table, supersample=4)
        # the scenario grid's three camera offsets, revisited out of order
        for dy, scene in [(0.0, ([box], [cap])), (0.02, ([], [])),
                          (0.04, ([box], [])), (0.0, ([], [])),
                          (0.04, ([], [cap])), (0.02, ([box], [cap]))]:
            cam = camera.shifted(np.array([0.0, dy, 0.0]))
            fresh = Renderer(table, supersample=4).render(cam, *scene)
            assert cached.render(cam, *scene).tobytes() == fresh.tobytes()
