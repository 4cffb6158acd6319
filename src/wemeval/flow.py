"""Optical-flow decomposition and motion statistics.

Camera ego-motion between a frame pair is modeled as a full projective
homography fit by seeded RANSAC over 4-point DLT hypotheses. Rendering the
homography over the pixel grid gives the camera-induced flow; subtracting it
from the raw flow leaves the residual object flow. Per-pair flow statistics
feed the 4-component motion profile used by the profile-alignment metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rollout import Chunk, FlowField

PROFILE_LOG_RATIO_CLAMP = 20.0
ENTROPY_BINS = 16


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
        ones = np.ones((pts.shape[0], 1))
        proj = np.hstack([pts, ones]) @ self.h.T
        w = proj[:, 2]
        if np.any(np.abs(w) < 1e-12):
            idx = int(np.argmin(np.abs(w)))
            raise ValueError(f"point at infinity when projecting ({pts[idx, 0]}, {pts[idx, 1]})")
        return proj[:, :2] / w[:, None]


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


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Direct linear transform on >= 4 correspondences; None when rank-deficient."""
    src_n, t_src = _hartley_normalization(src)
    dst_n, t_dst = _hartley_normalization(dst)
    n = src.shape[0]
    a = np.zeros((2 * n, 9))
    x, y = src_n[:, 0], src_n[:, 1]
    xp, yp = dst_n[:, 0], dst_n[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -x * xp
    a[0::2, 7] = -y * xp
    a[0::2, 8] = -xp
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -x * yp
    a[1::2, 7] = -y * yp
    a[1::2, 8] = -yp
    try:
        _, s, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return None
    if s[7] < 1e-12:  # rank < 8: the solution space is not 1-dimensional
        return None
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def _any_three_collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    for i in range(points.shape[0]):
        for j in range(i + 1, points.shape[0]):
            for k in range(j + 1, points.shape[0]):
                d1 = points[j] - points[i]
                d2 = points[k] - points[i]
                if abs(d1[0] * d2[1] - d1[1] * d2[0]) < tol:
                    return True
    return False


def reprojection_errors(h: Homography, matches: np.ndarray) -> np.ndarray:
    """Euclidean distance between projected source points and their targets."""
    projected = h.apply(matches[:, 0, :])
    return np.hypot(*(projected - matches[:, 1, :]).T)


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
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    rng = np.random.default_rng(seed)
    best_count = -1
    best_h: np.ndarray | None = None
    for _ in range(iterations):
        idx = rng.choice(n, size=4, replace=False)
        src, dst = arr[idx, 0, :], arr[idx, 1, :]
        if _any_three_collinear(src) or _any_three_collinear(dst):
            continue
        h = _dlt(src, dst)
        if h is None:
            continue
        try:
            errors = reprojection_errors(Homography(h), arr)
        except ValueError:
            continue
        count = int((errors <= threshold).sum())
        if count > best_count:
            best_count = count
            best_h = h

    if best_h is None:
        raise DegenerateMatchesError(
            f"no non-degenerate 4-point hypothesis found in {iterations} iterations"
        )

    inliers = reprojection_errors(Homography(best_h), arr) <= threshold
    if inliers.sum() >= 4:
        refit = _dlt(arr[inliers, 0, :], arr[inliers, 1, :])
        if refit is not None:
            try:
                candidate = Homography(refit)
            except ValueError:
                candidate = None
            if candidate is not None:
                best_h = refit

    final = Homography(best_h)
    return final, reprojection_errors(final, arr) <= threshold


def render_camera_flow(h: Homography, width: int, height: int) -> FlowField:
    """Flow induced by applying the homography to every pixel coordinate.

    Pixel (x, y) maps to project(h, (x, y)); the flow is the displacement.
    """
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    m = h.h
    w = m[2, 0] * xs + m[2, 1] * ys + m[2, 2]
    bad = np.abs(w) < 1e-12
    if bad.any():
        yy, xx = np.argwhere(bad)[0]
        raise ValueError(f"point at infinity at pixel ({xx}, {yy})")
    xp = (m[0, 0] * xs + m[0, 1] * ys + m[0, 2]) / w
    yp = (m[1, 0] * xs + m[1, 1] * ys + m[1, 2]) / w
    return FlowField(u=xp - xs, v=yp - ys)


def residual_object_flow(f: FlowField, f_cam: FlowField) -> FlowField:
    """Raw flow minus camera-induced flow, per pixel."""
    if (f.height, f.width) != (f_cam.height, f_cam.width):
        raise ValueError(
            f"flow dims {f.width}x{f.height} do not match camera flow {f_cam.width}x{f_cam.height}"
        )
    return FlowField(u=f.u.astype(np.float64) - f_cam.u, v=f.v.astype(np.float64) - f_cam.v)


def flow_stats(f: FlowField, top_fraction: float = 0.2) -> tuple[float, float, float]:
    """(median magnitude, mean of the top-fraction magnitudes, normalized entropy).

    All three come from one descending sort. The entropy is that of a uniform
    histogram of B = ENTROPY_BINS bins over [0, peak], magnitude m falling in
    bin min(floor(m / peak * B), B - 1), divided by log(B); an all-zero field
    has entropy 0. Raises ValueError if any magnitude is inf or NaN.
    """
    desc = np.sort(f.magnitude().ravel())[::-1]
    if not np.isfinite(desc[0]):  # NaN sorts last, so any inf or NaN is desc[0]
        raise ValueError("flow field has a non-finite magnitude")
    n = desc.size
    median = float(desc[n // 2] if n % 2 else (desc[n // 2 - 1] + desc[n // 2]) / 2)
    top = float(desc[: math.ceil(top_fraction * n)].mean())
    if desc[0] <= 0.0:
        return median, top, 0.0
    idx = np.minimum((desc / desc[0] * ENTROPY_BINS).astype(np.int64), ENTROPY_BINS - 1)
    # idx is non-increasing along desc, so each bin's count is a run length.
    counts = np.diff(np.searchsorted(idx[::-1], np.arange(ENTROPY_BINS + 1)))
    p = counts[counts > 0] / n
    return median, top, float(-(p * np.log(p)).sum() / math.log(ENTROPY_BINS))


@dataclass(frozen=True, eq=False)
class MotionProfile:
    """Per-frame-pair motion descriptors, one 4-vector per step.

    Columns: median magnitude / diagonal, top-fraction mean / diagonal,
    log(1 + top/median), normalized entropy.
    """

    steps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.steps, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"profile steps must be (n, 4), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("profile must have at least one step")
        arr.flags.writeable = False
        object.__setattr__(self, "steps", arr)

    def __len__(self) -> int:
        return self.steps.shape[0]


def _log_ratio(median: float, top: float) -> float:
    """log(1 + top/median) with the zero-median singularity saturated.

    A zero median makes the ratio unbounded: the component falls back to
    log(1 + top/1e-6), and the fully degenerate all-zero pair saturates at
    the clamp value. Everything is capped at PROFILE_LOG_RATIO_CLAMP.
    """
    if median > 0.0:
        return min(PROFILE_LOG_RATIO_CLAMP, math.log1p(top / median))
    if top > 0.0:
        return min(PROFILE_LOG_RATIO_CLAMP, math.log1p(top / 1e-6))
    return PROFILE_LOG_RATIO_CLAMP


def motion_profile(chunk: Chunk, top_fraction: float = 0.2) -> MotionProfile:
    """4-component motion profile over the chunk's consecutive frame pairs.

    Each row is built from ``flow_stats`` of one flow field, so the entropy
    column always uses ENTROPY_BINS bins.
    """
    if len(chunk.frames) < 2:
        raise ValueError("motion profile needs a chunk with T >= 2")
    if chunk.flows is None or len(chunk.flows) != len(chunk.frames) - 1:
        raise ValueError("motion profile needs T-1 flow fields on the chunk")
    first = chunk.frames[0]
    diag = math.hypot(first.width, first.height)
    rows = []
    for f in chunk.flows:
        median, top, entropy = flow_stats(f, top_fraction=top_fraction)
        rows.append([median / diag, top / diag, _log_ratio(median, top), entropy])
    return MotionProfile(steps=np.array(rows))


def resample_profile(p: MotionProfile, target: int = 16) -> MotionProfile:
    """Component-wise linear resampling to ``target`` equally spaced steps.

    Sampling positions span [0, len-1], so endpoints are preserved exactly and
    no component ever leaves its original min/max range. A length-1 profile is
    replicated.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    n = len(p)
    positions = np.linspace(0.0, float(n - 1), target)
    xp = np.arange(n, dtype=np.float64)
    cols = [np.interp(positions, xp, p.steps[:, c]) for c in range(4)]
    return MotionProfile(steps=np.stack(cols, axis=1))
