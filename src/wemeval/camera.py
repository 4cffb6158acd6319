"""The camera model: flow decomposition into camera and residual object flow.

Camera ego-motion between a frame pair is modeled as a full projective
homography fit by seeded RANSAC over 4-point DLT hypotheses. Rendering the
homography over the pixel grid gives the camera-induced flow; subtracting it
from the raw flow leaves the residual object flow. ``decompose-flow`` and the
simulator use it; ``eval`` never imports it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .rollout import FlowField


class DegenerateMatchesError(ValueError):
    """All RANSAC hypotheses were degenerate (e.g. collinear samples)."""


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 projective transform with h[2][2] normalized to 1."""

    h: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.h, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {m.shape}")
        if abs(m[2, 2]) < 1e-12:
            raise ValueError("homography h[2][2] is ~0, cannot normalize")
        m = m / m[2, 2]
        if abs(np.linalg.det(m)) <= 1e-9:
            raise ValueError("homography is numerically singular")
        m.flags.writeable = False
        object.__setattr__(self, "h", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "Homography":
        m = np.eye(3)
        m[0, 2] = tx
        m[1, 2] = ty
        return cls(m)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Project (n, 2) points; raises if any lands at infinity."""
        pts = np.asarray(points, dtype=np.float64)
        return np.column_stack(_project(self.h, pts[:, 0], pts[:, 1]))


def _project(m: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xp, yp): the images of the points (xs, ys) under the 3x3 projective matrix ``m``,
    x' = Hx / (h3 . x). Raises ValueError naming the first point, in C order, that maps to infinity."""
    w = m[2, 0] * xs + m[2, 1] * ys + m[2, 2]
    bad = np.abs(w) < 1e-12
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"point at infinity at pixel ({xs.flat[i]:g}, {ys.flat[i]:g})")
    return (m[0, 0] * xs + m[0, 1] * ys + m[0, 2]) / w, (m[1, 0] * xs + m[1, 1] * ys + m[1, 2]) / w


def _hartley_normalization(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate centroid to origin and scale mean distance to sqrt(2)."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = np.mean(np.hypot(shifted[:, 0], shifted[:, 1]))
    scale = math.sqrt(2.0) / mean_dist if mean_dist > 1e-12 else 1.0
    t = np.array(
        [[scale, 0.0, -scale * centroid[0]],
         [0.0, scale, -scale * centroid[1]],
         [0.0, 0.0, 1.0]]
    )
    return shifted * scale, t


def _dlt(src: np.ndarray, dst: np.ndarray) -> Homography | None:
    """Direct linear transform on >= 4 correspondences; None when rank-deficient or not a Homography."""
    src_n, t_src = _hartley_normalization(src)
    dst_n, t_dst = _hartley_normalization(dst)
    x, y, xp, yp = *src_n.T, *dst_n.T
    zero, one = np.zeros_like(x), np.ones_like(x)  # below: the two rows of each correspondence
    a = np.column_stack([x, y, one, zero, zero, zero, -x * xp, -y * xp, -xp,
                         zero, zero, zero, x, y, one, -x * yp, -y * yp, -yp]).reshape(-1, 9)
    try:
        _, s, vt = np.linalg.svd(a)
        if s[7] < 1e-12:  # rank < 8: the solution space is not 1-dimensional
            return None
        return Homography(np.linalg.inv(t_dst) @ vt[-1].reshape(3, 3) @ t_src)
    except ValueError:  # np.linalg.LinAlgError is one
        return None


def _any_three_collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    return any(abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) < tol
               for (ax, ay), (bx, by), (cx, cy) in itertools.combinations(points.tolist(), 3))


def reprojection_errors(h: Homography, matches: np.ndarray) -> np.ndarray:
    """Euclidean distance between projected source points and their targets."""
    xp, yp = _project(h.h, matches[:, 0, 0], matches[:, 0, 1])
    return np.hypot(xp - matches[:, 1, 0], yp - matches[:, 1, 1])


def _as_matches(matches: Sequence) -> np.ndarray:
    arr = np.asarray(matches, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise ValueError(f"matches must have shape (n, 2, 2), got {arr.shape}")
    return arr


def estimate_homography(
    matches: Sequence,
    threshold: float = 1.0,
    iterations: int = 500,
    seed: int = 0,
) -> tuple[Homography, np.ndarray]:
    """Fit a projective homography to point pairs with seeded RANSAC.

    ``matches`` is a sequence of ((x, y), (x', y')) correspondences. Returns the
    homography refit by least squares on the consensus inliers, plus the boolean
    inlier mask (reprojection error <= threshold under the returned homography).
    Deterministic for a fixed seed.
    """
    arr = _as_matches(matches)
    n = arr.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 matches, got {n}")
    if not threshold > 0:  # NaN fails this too
        raise ValueError("threshold must be positive")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    rng = np.random.default_rng(seed)
    best_count, best, best_inliers = -1, None, None
    for _ in range(iterations):
        idx = rng.choice(n, size=4, replace=False)
        src, dst = arr[idx, 0, :], arr[idx, 1, :]
        if _any_three_collinear(src) or _any_three_collinear(dst):
            continue
        h = _dlt(src, dst)
        if h is None:
            continue
        try:
            inliers = reprojection_errors(h, arr) <= threshold
        except ValueError:  # a source point maps to infinity
            continue
        if (count := int(inliers.sum())) > best_count:
            best_count, best, best_inliers = count, h, inliers

    if best is None:
        raise DegenerateMatchesError(
            f"no non-degenerate 4-point hypothesis found in {iterations} iterations"
        )

    refit = _dlt(arr[best_inliers, 0, :], arr[best_inliers, 1, :]) if best_count >= 4 else None
    if refit is None:  # the best hypothesis stands, with the inliers it was counted by
        return best, best_inliers
    return refit, reprojection_errors(refit, arr) <= threshold


@lru_cache(maxsize=16)
def _pixel_grid(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 (xs, ys) coordinates of every pixel of a width x height grid."""
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def project_pixel_grid(m: np.ndarray, width: int, height: int) -> tuple[np.ndarray, ...]:
    """(xs, ys, xp, yp): the coordinates of every pixel of a width x height
    grid and their images under the 3x3 projective matrix ``m``. ``xs`` and
    ``ys`` are read-only and shared by every call of the same size.

    Raises ValueError if a pixel maps to infinity.
    """
    xs, ys = _pixel_grid(width, height)
    return xs, ys, *_project(m, xs, ys)


def render_camera_flow(h: Homography, width: int, height: int) -> FlowField:
    """Flow induced by applying the homography to every pixel coordinate.

    Pixel (x, y) maps to project(h, (x, y)); the flow is the displacement.
    """
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    xs, ys, xp, yp = project_pixel_grid(h.h, width, height)
    return FlowField(u=xp - xs, v=yp - ys)


def residual_object_flow(f: FlowField, f_cam: FlowField) -> FlowField:
    """Raw flow minus camera-induced flow, per pixel."""
    if (f.height, f.width) != (f_cam.height, f_cam.width):
        raise ValueError(
            f"flow dims {f.width}x{f.height} do not match camera flow {f_cam.width}x{f_cam.height}"
        )
    return FlowField(u=f.u.astype(np.float64) - f_cam.u, v=f.v.astype(np.float64) - f_cam.v)
