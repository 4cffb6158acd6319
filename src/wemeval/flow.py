"""Optical-flow decomposition and motion statistics.

Camera ego-motion between a frame pair is modeled as a full projective
homography fit by seeded RANSAC over 4-point DLT hypotheses. Rendering the
homography over the pixel grid gives the camera-induced flow; subtracting it
from the raw flow leaves the residual object flow. Per-pair flow statistics
feed the 4-component motion profile used by the profile-alignment metric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .rollout import FlowField, Frame

PROFILE_LOG_RATIO_CLAMP = 20.0
ENTROPY_BINS = 16
# Left edges of the entropy bins over magnitude / peak (inf closes the last one), and exact
# brackets 2**-40 (relative) around each edge's square that no rounding of sqrt(s) / peak crosses.
_BIN_EDGES = np.append(np.arange(ENTROPY_BINS) / ENTROPY_BINS, np.inf)
_SQUARED_BRACKETS = np.outer([1 - 2.0**-40, 1 + 2.0**-40], _BIN_EDGES**2)
_SQUARED_BRACKETS[:, 0] = -1.0  # every square is in bin 0 or above
_BIN_EDGES.flags.writeable = _SQUARED_BRACKETS.flags.writeable = False


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


def flow_stats(f: FlowField | np.ndarray, top_fraction: float = 0.2) -> tuple[float, float, float]:
    """(median magnitude, mean of the top-fraction magnitudes, normalized entropy).

    ``f`` is a flow field or its ``squared_magnitude``, which is then sorted in place; only the
    middle one or two squares, the top fraction and the peak are rooted. The top mean adds the
    largest magnitudes from the peak down. The entropy is that of a uniform histogram of B =
    ENTROPY_BINS bins over [0, peak], magnitude m in bin min(floor(m / peak * B), B - 1), over
    log(B); an all-zero field has entropy 0. Raises ValueError if any magnitude is inf or NaN.
    """
    asc = (f.squared_magnitude() if isinstance(f, FlowField) else f).ravel()
    asc.sort()
    n = asc.size
    peak = math.sqrt(asc[-1])
    if not math.isfinite(peak):  # NaN sorts last, so any inf or NaN is the peak
        raise ValueError("flow field has a non-finite magnitude")
    median = math.sqrt(asc[n // 2]) if n % 2 else (math.sqrt(asc[n // 2]) + math.sqrt(asc[n // 2 - 1])) / 2
    k = math.ceil(top_fraction * n)
    top = float(np.add.reduce(np.sqrt(asc[n - k :])[::-1])) / k  # .mean()'s own sum and division
    if peak <= 0.0:
        return median, top, 0.0
    lower, upper = _SQUARED_BRACKETS * asc[-1]
    below = asc.searchsorted(lower)
    if (below != asc.searchsorted(upper, side="right")).any():  # a square its bracket cannot place
        below = (np.sqrt(asc) / peak).searchsorted(_BIN_EDGES)
    counts = below[1:] - below[:-1]
    p = counts[counts > 0] / n
    return median, top, float(-(p * np.log(p)).sum() / math.log(ENTROPY_BINS))


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


@lru_cache(maxsize=16)
def _resample_grid(n: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 sampling positions (``target`` of them, spanning
    [0, n-1]) and the sample points 0..n-1 of an n-step profile."""
    positions = np.linspace(0.0, float(n - 1), target)
    xp = np.arange(n, dtype=np.float64)
    positions.flags.writeable = xp.flags.writeable = False
    return positions, xp


def motion_profile(stats: Sequence[tuple[float, float, float]], frame: Frame, steps: int = 16) -> np.ndarray:
    """The read-only (steps, 4) float64 motion profile of one row per ``flow_stats`` triple.

    Columns: median magnitude / diagonal, top-fraction mean / diagonal, log(1 + top/median) and
    the normalized entropy, the diagonal being ``frame``'s. Each column is linearly resampled to
    ``steps`` equally spaced positions spanning [0, len(stats) - 1], so the endpoints are kept
    exactly and no component leaves its original range; one triple is replicated.
    """
    if not stats:
        raise ValueError("motion profile needs at least one flow_stats triple")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    diag = math.hypot(frame.width, frame.height)
    rows = np.array([[m / diag, t / diag, _log_ratio(m, t), e] for m, t, e in stats])
    positions, xp = _resample_grid(len(stats), steps)
    profile = np.empty((steps, 4))
    for c in range(4):
        profile[:, c] = np.interp(positions, xp, rows[:, c])
    profile.flags.writeable = False
    return profile
