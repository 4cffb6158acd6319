"""Trajectory, chunk, frame, mask, and flow data model with validation and phase boundaries."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class PhaseLabel(enum.Enum):
    """Coarse behavior label of a chunk: navigation or manipulation."""

    NAV = "Nav"
    MANIP = "Manip"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Frame:
    """Single image with intensities normalized to [0, 1].

    Stored as float32 with shape (height, width, channels), channels 1 or 3.
    8-bit sources should be divided by 255 before construction. Value-range
    and finiteness violations are reported by ``validate_trajectory`` rather
    than rejected here, so malformed inputs stay inspectable.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(
                f"frame data must be (h, w) or (h, w, c) with c in (1, 3), got shape {arr.shape}"
            )
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class WorldEgoMask:
    """Per-pixel binary assignment: 1 = ego (robot / manipulated object), 0 = world.

    Values other than {0, 1} are accepted at construction and flagged by
    ``validate_trajectory``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise ValueError(f"mask data must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "data", _readonly(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def is_binary(self) -> bool:
        return bool(((self.data == 0) | (self.data == 1)).all())


@dataclass(frozen=True, eq=False)
class FlowField:
    """Dense per-pixel 2-vector motion between two consecutive frames.

    u is the horizontal (x, column) displacement and v the vertical (y, row)
    displacement, both in pixels.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.float32)
        v = np.asarray(self.v, dtype=np.float32)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError(f"flow components must be 2-d and share a shape, got {u.shape} / {v.shape}")
        object.__setattr__(self, "u", _readonly(u))
        object.__setattr__(self, "v", _readonly(v))

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]

    def magnitude(self) -> np.ndarray:
        """Per-pixel flow magnitude, computed in float64.

        The f32 components square exactly in f64 and cannot overflow there, so
        sqrt(u*u + v*v) is within an ulp of hypot without hypot's scaling.
        """
        return np.sqrt(np.square(self.u, dtype=np.float64) + np.square(self.v, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Chunk:
    """One generated video segment for one instruction turn.

    ``flows`` (length T-1) and ``masks`` (length T), when present, must match
    the frame dimensions; mismatches are reported by ``validate_trajectory``.
    """

    frames: tuple[Frame, ...]
    instruction: str
    phase: PhaseLabel
    flows: tuple[FlowField, ...] | None = None
    masks: tuple[WorldEgoMask, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.flows is not None:
            object.__setattr__(self, "flows", tuple(self.flows))
        if self.masks is not None:
            object.__setattr__(self, "masks", tuple(self.masks))

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered multi-turn rollout of chunks, safe for concurrent read."""

    id: str
    chunks: tuple[Chunk, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass
class ValidationReport:
    """Accumulated invariant violations; empty iff the trajectory is well-formed."""

    issues: list[str]

    def is_valid(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.is_valid()


def _frame_dims(frame: Frame) -> tuple[int, int]:
    return frame.height, frame.width


def validate_trajectory(traj: Trajectory) -> ValidationReport:
    """Check every data-model invariant and report all violations.

    Validation never raises: each violation becomes one human-readable issue
    line naming the chunk (and frame/flow/mask index) it was found at.
    """
    issues: list[str] = []
    if len(traj.chunks) == 0:
        issues.append("trajectory: no chunks")
        return ValidationReport(issues)

    ref_dims: tuple[int, int] | None = None
    for ci, chunk in enumerate(traj.chunks):
        t = len(chunk.frames)
        if t == 0:
            issues.append(f"chunk {ci}: empty chunk")
        else:
            dims = _frame_dims(chunk.frames[0])
            if ref_dims is None:
                ref_dims = dims
            elif dims != ref_dims:
                issues.append(
                    f"chunk {ci}: frame dims {dims[1]}x{dims[0]} differ from trajectory dims "
                    f"{ref_dims[1]}x{ref_dims[0]}"
                )
            for fi, frame in enumerate(chunk.frames):
                if _frame_dims(frame) != dims:
                    issues.append(f"chunk {ci} frame {fi}: dim mismatch within chunk")
                vals = frame.data
                if vals.size == 0:
                    issues.append(f"chunk {ci} frame {fi}: empty frame")
                elif not np.isfinite(vals).all():
                    issues.append(f"chunk {ci} frame {fi}: non-finite value")
                elif vals.min() < 0.0 or vals.max() > 1.0:
                    issues.append(f"chunk {ci} frame {fi}: value outside [0, 1]")

        if chunk.flows is not None:
            if t > 0 and len(chunk.flows) != t - 1:
                issues.append(f"chunk {ci}: flow count {len(chunk.flows)} != T-1 ({t - 1})")
            for fi, flow in enumerate(chunk.flows):
                if t > 0 and (flow.height, flow.width) != _frame_dims(chunk.frames[0]):
                    issues.append(f"chunk {ci} flow {fi}: dim mismatch with frames")
                if not (np.isfinite(flow.u).all() and np.isfinite(flow.v).all()):
                    issues.append(f"chunk {ci} flow {fi}: non-finite value")

        if chunk.masks is not None:
            if t > 0 and len(chunk.masks) != t:
                issues.append(f"chunk {ci}: mask count {len(chunk.masks)} != T ({t})")
            for mi, mask in enumerate(chunk.masks):
                if t > 0 and (mask.height, mask.width) != _frame_dims(chunk.frames[0]):
                    issues.append(f"chunk {ci} mask {mi}: dim mismatch with frames")
                if not mask.is_binary():
                    issues.append(f"chunk {ci} mask {mi}: non-binary mask")

    return ValidationReport(issues)


def phase_boundaries(traj: Trajectory) -> list[int]:
    """Indices k (1-based, 1 <= k <= K-1) where the phase switches between chunk k and k+1.

    The result is strictly ascending. Example: phases [Nav, Nav, Manip, Nav]
    yield [2, 3].
    """
    phases = [c.phase for c in traj.chunks]
    return [k for k in range(1, len(phases)) if phases[k - 1] != phases[k]]
