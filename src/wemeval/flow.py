"""Motion statistics of optical flow.

Per-pair flow statistics feed the 4-component motion profile used by the
profile-alignment metric. The camera model that splits flow into camera and
residual object flow is in ``camera``.
"""

from __future__ import annotations

import math
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
