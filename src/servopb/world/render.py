"""Flat-shaded software rasterizer for the tabletop scene.

Primitives: a finite checkered table rectangle on the z=0 plane
(per-pixel ray intersection, so camera shifts produce real parallax),
oriented boxes with per-face Lambert shading and exact per-pixel plane
depth, and capsules for the arm links.  Everything is plain numpy over
a shared depth buffer; no randomness anywhere, and the final image is
quantized to 8-bit so a stored frame and a re-rendered frame are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Box", "CameraModel", "Capsule", "Renderer", "TableSpec"]

BACKDROP = (0.09, 0.10, 0.12)    # color where no ray meets the table
LIGHT = np.array([-0.35, 0.25, 0.9]) / np.linalg.norm([-0.35, 0.25, 0.9])


@dataclass(frozen=True)
class CameraModel:
    position: tuple[float, float, float]
    right: tuple[float, float, float]
    down: tuple[float, float, float]
    forward: tuple[float, float, float]
    focal_px: float
    width: int
    height: int

    @classmethod
    def from_lookat(cls, position, look_at, focal_px: float, width: int, height: int) -> "CameraModel":
        position = np.asarray(position, dtype=np.float64)
        fwd = np.asarray(look_at, dtype=np.float64) - position
        fwd = fwd / np.linalg.norm(fwd)
        if abs(fwd[2]) > 0.999:
            raise ValueError("camera axis too close to vertical for z-up framing")
        right = np.array([fwd[1], -fwd[0], 0.0])
        right /= np.linalg.norm(right)
        down = np.cross(fwd, right)
        down /= np.linalg.norm(down)
        return cls(tuple(position), tuple(right), tuple(down), tuple(fwd),
                   float(focal_px), int(width), int(height))

    def shifted(self, offset) -> "CameraModel":
        """Camera translated by `offset` with orientation unchanged, so a
        mounting shift moves the image content rather than re-aiming."""
        pos = np.asarray(self.position) + np.asarray(offset, dtype=np.float64)
        return replace(self, position=tuple(pos))

    @property
    def basis(self) -> np.ndarray:
        return np.stack([self.right, self.down, self.forward])

    def project(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World points (N,3) -> pixel coords (N,2) and camera depth (N,)."""
        d = pts - np.asarray(self.position)
        cam = d @ self.basis.T
        w = cam[:, 2]
        cx = (self.width - 1) / 2.0
        cy = (self.height - 1) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            px = cx + self.focal_px * cam[:, 0] / w
            py = cy + self.focal_px * cam[:, 1] / w
        return np.stack([px, py], axis=1), w


@dataclass(frozen=True)
class TableSpec:
    x_range: tuple[float, float] = (-0.06, 0.44)
    y_range: tuple[float, float] = (-0.32, 0.32)
    color_a: tuple[float, float, float] = (0.55, 0.50, 0.42)
    color_b: tuple[float, float, float] = (0.47, 0.43, 0.36)
    checker: float = 0.06


@dataclass(frozen=True)
class Box:
    center: np.ndarray   # (3,)
    rot: np.ndarray      # (3,3), columns = local axes in world
    half: np.ndarray     # (3,) half extents
    color: tuple[float, float, float]

    def corners(self) -> np.ndarray:
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                         dtype=np.float64)
        return self.center + (signs * self.half) @ self.rot.T


# each face: 4 corner indices (consistent with Box.corners ordering) and
# the local axis/sign of its outward normal
_FACES = [
    ((4, 5, 7, 6), 0, +1), ((0, 1, 3, 2), 0, -1),
    ((2, 3, 7, 6), 1, +1), ((0, 1, 5, 4), 1, -1),
    ((1, 3, 7, 5), 2, +1), ((0, 2, 6, 4), 2, -1),
]


@dataclass(frozen=True)
class Capsule:
    a: np.ndarray
    b: np.ndarray
    radius: float
    color: tuple[float, float, float]


class Renderer:
    """Rasterizer with per-camera caches of the scene's static parts.

    Rays depend only on the camera's orientation and intrinsics; the
    empty table layer depends on the whole camera.  Both are computed
    on first use and kept for the renderer's lifetime.  The table layer
    is stored as a uint8 palette index (backdrop, color_a, color_b) plus
    float64 depth and composed into a fresh buffer on every render, so
    a cached render is byte-identical to a fresh renderer's.
    """

    def __init__(self, table: TableSpec | None = None, supersample: int = 1):
        if int(supersample) < 1:
            raise ValueError("supersample factor must be >= 1")
        self.table = table or TableSpec()
        self.supersample = int(supersample)
        self._palette = np.array([BACKDROP, self.table.color_a, self.table.color_b],
                                 dtype=np.float64)
        self._ray_cache: dict = {}
        self._table_cache: dict[CameraModel, tuple[np.ndarray, np.ndarray]] = {}

    # -- rays ---------------------------------------------------------

    def _rays(self, cam: CameraModel) -> np.ndarray:
        key = (cam.right, cam.down, cam.forward, cam.focal_px, cam.width, cam.height)
        hit = self._ray_cache.get(key)
        if hit is None:
            cx = (cam.width - 1) / 2.0
            cy = (cam.height - 1) / 2.0
            xs = (np.arange(cam.width) - cx) / cam.focal_px
            ys = (np.arange(cam.height) - cy) / cam.focal_px
            u, v = np.meshgrid(xs, ys)
            hit = (u[..., None] * np.asarray(cam.right)
                   + v[..., None] * np.asarray(cam.down)
                   + np.asarray(cam.forward))
            self._ray_cache[key] = hit
        return hit

    # -- primitives ---------------------------------------------------

    def _table_layer(self, cam: CameraModel, rays) -> tuple[np.ndarray, np.ndarray]:
        """Palette index and depth of the empty table seen from `cam`."""
        layer = self._table_cache.get(cam)
        if layer is None:
            pos = np.asarray(cam.position)
            dz = rays[..., 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = -pos[2] / dz
            pts = pos + t[..., None] * rays
            tb = self.table
            hit = ((t > 0) & (dz < 0)
                   & (pts[..., 0] >= tb.x_range[0]) & (pts[..., 0] <= tb.x_range[1])
                   & (pts[..., 1] >= tb.y_range[0]) & (pts[..., 1] <= tb.y_range[1]))
            cells = (np.floor(pts[..., 0] / tb.checker) + np.floor(pts[..., 1] / tb.checker))
            odd = cells.astype(np.int64) % 2
            index = np.where(hit, 1 + odd, 0).astype(np.uint8)
            depth = np.where(hit, t, np.inf)
            index.flags.writeable = False
            depth.flags.writeable = False
            layer = self._table_cache[cam] = (index, depth)
        return layer

    def _fill_face(self, img, depth, cam: CameraModel, rays,
                   quad_px: np.ndarray, plane_pt: np.ndarray, normal: np.ndarray,
                   color: np.ndarray) -> None:
        h, w = depth.shape
        x0 = int(max(0, np.floor(quad_px[:, 0].min())))
        x1 = int(min(w - 1, np.ceil(quad_px[:, 0].max())))
        y0 = int(max(0, np.floor(quad_px[:, 1].min())))
        y1 = int(min(h - 1, np.ceil(quad_px[:, 1].max())))
        if x1 < x0 or y1 < y0:
            return
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        inside = np.ones(gx.shape, dtype=bool)
        # convex quad: consistent winding via signed area sign
        area = 0.0
        for i in range(4):
            x_a, y_a = quad_px[i]
            x_b, y_b = quad_px[(i + 1) % 4]
            area += x_a * y_b - x_b * y_a
        sign = 1.0 if area >= 0 else -1.0
        for i in range(4):
            x_a, y_a = quad_px[i]
            x_b, y_b = quad_px[(i + 1) % 4]
            cross = (x_b - x_a) * (gy - y_a) - (y_b - y_a) * (gx - x_a)
            inside &= sign * cross >= -1e-9
        if not inside.any():
            return
        sub = rays[y0 : y1 + 1, x0 : x1 + 1]
        pos = np.asarray(cam.position)
        denom = sub @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((plane_pt - pos) @ normal) / denom
        ok = inside & (t > 1e-6) & np.isfinite(t) & (t < depth[y0 : y1 + 1, x0 : x1 + 1])
        if not ok.any():
            return
        patch_img = img[y0 : y1 + 1, x0 : x1 + 1]
        patch_depth = depth[y0 : y1 + 1, x0 : x1 + 1]
        patch_img[ok] = color
        patch_depth[ok] = t[ok]

    def _draw_box(self, img, depth, cam: CameraModel, rays, box: Box) -> None:
        corners = box.corners()
        px, w = cam.project(corners)
        if np.any(w <= 1e-6):
            return
        order = []
        for fi, (idx, axis, sgn) in enumerate(_FACES):
            order.append((np.mean(w[list(idx)]), fi))
        order.sort(reverse=True)  # far faces first
        base = np.asarray(box.color)
        for _, fi in order:
            idx, axis, sgn = _FACES[fi]
            normal = sgn * box.rot[:, axis]
            if normal @ (np.asarray(cam.position) - corners[idx[0]]) <= 0:
                continue  # back face
            shade = 0.42 + 0.58 * max(0.0, float(normal @ LIGHT))
            self._fill_face(img, depth, cam, rays, px[list(idx)],
                            corners[idx[0]], normal, np.clip(base * shade, 0, 1))

    def _draw_capsule(self, img, depth, cam: CameraModel, rays, cap: Capsule) -> None:
        pts = np.stack([cap.a, cap.b])
        px, w = cam.project(pts)
        if np.any(w <= 1e-6):
            return
        r_px = cap.radius * cam.focal_px / w.min()
        h, ww = depth.shape
        x0 = int(max(0, np.floor(px[:, 0].min() - r_px)))
        x1 = int(min(ww - 1, np.ceil(px[:, 0].max() + r_px)))
        y0 = int(max(0, np.floor(px[:, 1].min() - r_px)))
        y1 = int(min(h - 1, np.ceil(px[:, 1].max() + r_px)))
        if x1 < x0 or y1 < y0:
            return
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1).astype(np.float64),
                             np.arange(y0, y1 + 1).astype(np.float64))
        ax, ay = px[0]
        bx, by = px[1]
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        if denom < 1e-12:
            s = np.zeros_like(gx)
        else:
            s = np.clip(((gx - ax) * dx + (gy - ay) * dy) / denom, 0.0, 1.0)
        dist = np.hypot(gx - (ax + s * dx), gy - (ay + s * dy))
        t = w[0] + s * (w[1] - w[0])
        ok = (dist <= r_px) & (t < depth[y0 : y1 + 1, x0 : x1 + 1])
        if not ok.any():
            return
        # cheap cylindrical shading: darker toward the silhouette
        shade = 0.55 + 0.45 * np.sqrt(np.clip(1.0 - (dist / max(r_px, 1e-9)) ** 2, 0.0, 1.0))
        color = np.asarray(cap.color)[None, None, :] * shade[..., None]
        patch_img = img[y0 : y1 + 1, x0 : x1 + 1]
        patch_depth = depth[y0 : y1 + 1, x0 : x1 + 1]
        patch_img[ok] = np.clip(color, 0, 1)[ok]
        patch_depth[ok] = t[ok]

    # -- scene --------------------------------------------------------

    def _render_float(self, cam: CameraModel, boxes: list[Box],
                      capsules: list[Capsule]) -> np.ndarray:
        rays = self._rays(cam)
        index, table_depth = self._table_layer(cam, rays)
        img = self._palette[index]
        depth = table_depth.copy()
        for box in boxes:
            self._draw_box(img, depth, cam, rays, box)
        for cap in capsules:
            self._draw_capsule(img, depth, cam, rays, cap)
        return img

    def render(self, cam: CameraModel, boxes: list[Box], capsules: list[Capsule]) -> np.ndarray:
        """Rasterize to an (H, W, 3) uint8 image.

        With supersample k > 1 the scene is rasterized at k times the
        resolution and box-averaged down, so sub-pixel motion moves
        edge intensities smoothly instead of flipping whole pixels.
        Scaling focal and size by k keeps the fine grid's k x k block
        centers exactly on the base camera's pixel centers.  The empty
        table comes from the per-camera cache; boxes and capsules are
        drawn over it on every call.
        """
        k = self.supersample
        if k > 1:
            fine = replace(cam, focal_px=cam.focal_px * k,
                           width=cam.width * k, height=cam.height * k)
            hi = self._render_float(fine, boxes, capsules)
            img = hi.reshape(cam.height, k, cam.width, k, 3).mean(axis=(1, 3))
        else:
            img = self._render_float(cam, boxes, capsules)
        return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
