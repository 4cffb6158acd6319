"""Trajectory, chunk, frame, mask, and flow data model with validation and phase boundaries."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np


class PhaseLabel(enum.Enum):
    """Coarse behavior label of a chunk: navigation or manipulation."""

    NAV = "Nav"
    MANIP = "Manip"


def _frozen(x: object, dtype: np.typing.DTypeLike = None) -> np.ndarray:
    """A new read-only array of ``x``'s values: what a frozen value's public
    constructor holds, so that no caller can reach or write it."""
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class _Payload:
    """A frozen value that holds one read-only array, ``data``, of shape
    (height, width, ...): a ``Frame``, ``WorldEgoMask`` or ``FlowField``.
    Each public constructor copies the caller's values into ``data``."""

    data: np.ndarray

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def _trusted(cls: type[_Payload], array: np.ndarray) -> _Payload:
    """A ``Frame``, ``WorldEgoMask`` or ``FlowField`` whose ``data`` is
    ``array`` as it is, without the public constructor's copy and checks.

    Only for the package's own read-only views that no caller can write and that
    already are what that constructor would hold: a record of a sidecar that
    ``formats`` read, or a slice of a ``Frame``'s data.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "data", array)
    return obj


@dataclass(frozen=True, eq=False)
class Frame(_Payload):
    """Single image with intensities normalized to [0, 1].

    Stored as float32 with shape (height, width, channels), channels 1 or 3.
    8-bit sources should be divided by 255 before construction, which copies
    the caller's array into a read-only one. Value-range
    and finiteness violations are reported by ``validate_trajectory`` rather
    than rejected here, so malformed inputs stay inspectable.
    """

    def __post_init__(self) -> None:
        arr = _frozen(self.data, np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(
                f"frame data must be (h, w) or (h, w, c) with c in (1, 3), got shape {arr.shape}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class WorldEgoMask(_Payload):
    """Per-pixel binary assignment: 1 = ego (robot / manipulated object), 0 = world.

    Construction holds a read-only copy; values other than {0, 1} are accepted
    and flagged by ``validate_trajectory``.
    """

    def __post_init__(self) -> None:
        arr = _frozen(self.data)
        if arr.ndim != 2:
            raise ValueError(f"mask data must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    def is_binary(self) -> bool:
        return bool(((self.data == 0) | (self.data == 1)).all())


@dataclass(frozen=True, eq=False, init=False)
class FlowField(_Payload):
    """Dense per-pixel 2-vector motion between two consecutive frames.

    u is the horizontal (x, column) displacement and v the vertical (y, row)
    displacement, both in pixels. The field holds one read-only (h, w, 2)
    float32 block ``data`` of interleaved (u, v) pairs, the layout of a flow
    sidecar; ``u`` and ``v`` are strided views of it.
    ``FlowField(u=..., v=...)`` stacks the two components into a new block.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        if u.ndim != 2 or u.shape != v.shape:
            raise ValueError(f"flow components must be 2-d and share a shape, got {u.shape} / {v.shape}")
        uv = np.stack((u, v), axis=-1)
        uv.flags.writeable = False
        object.__setattr__(self, "data", uv)

    @property
    def u(self) -> np.ndarray:
        return self.data[:, :, 0]

    @property
    def v(self) -> np.ndarray:
        return self.data[:, :, 1]

    def squared_magnitude(self) -> np.ndarray:
        """Per-pixel u*u + v*v in float64, in a new (h, w) array that the
        caller may overwrite. The f32 components square exactly in f64 and
        cannot overflow there, so only the sum rounds: its square root is
        within an ulp of hypot. The squares take one pass over the block.
        """
        squares = np.square(self.data, dtype=np.float64)
        return np.add(squares[:, :, 0], squares[:, :, 1])


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered multi-turn rollout of chunks, safe for concurrent read."""

    id: str
    chunks: tuple[Chunk, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))


@dataclass
class ValidationReport:
    """Accumulated invariant violations; empty iff the trajectory is well-formed."""

    issues: list[str]

    def is_valid(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.is_valid()


def validate_trajectory(traj: Trajectory, reduce: Callable | None = None) -> ValidationReport:
    """Check every data-model invariant and report all violations.

    Validation never raises: each violation becomes one human-readable issue
    line naming the chunk (and frame/flow/mask index) it was found at.
    Until the first issue, ``reduce(chunk)`` reduces each chunk whose frames and flows passed
    their other checks, and returns whether each flow field is finite, in place of the sweep.
    """
    issues: list[str] = []
    if len(traj.chunks) == 0:
        issues.append("trajectory: no chunks")
        return ValidationReport(issues)

    ref_dims: tuple[int, int] | None = None
    for ci, chunk in enumerate(traj.chunks):
        t = len(chunk.frames)
        dims = chunk.frames[0].data.shape[:2] if t else None
        if t == 0:
            issues.append(f"chunk {ci}: empty chunk")
        else:
            if ref_dims is None:
                ref_dims = dims
            elif dims != ref_dims:
                issues.append(
                    f"chunk {ci}: frame dims {dims[1]}x{dims[0]} differ from trajectory dims "
                    f"{ref_dims[1]}x{ref_dims[0]}"
                )
            for fi, frame in enumerate(chunk.frames):
                if frame.data.shape[:2] != dims:
                    issues.append(f"chunk {ci} frame {fi}: dim mismatch within chunk")
                vals = frame.data
                if vals.size == 0:
                    issues.append(f"chunk {ci} frame {fi}: empty frame")
                elif not (vals.min() >= 0.0 and vals.max() <= 1.0):  # NaN and +-inf fail too
                    problem = "value outside [0, 1]" if np.isfinite(vals).all() else "non-finite value"
                    issues.append(f"chunk {ci} frame {fi}: {problem}")

        flows = chunk.flows or ()
        if chunk.flows is not None and t > 0 and len(flows) != t - 1:
            issues.append(f"chunk {ci}: flow count {len(flows)} != T-1 ({t - 1})")
        misfit = [t > 0 and flow.data.shape[:2] != dims for flow in flows]
        reduced = reduce is not None and not issues and not any(misfit)
        finite = reduce(chunk) if reduced else [np.isfinite(flow.data).all() for flow in flows]
        for fi, (bad_dims, ok) in enumerate(zip(misfit, finite)):
            if bad_dims:
                issues.append(f"chunk {ci} flow {fi}: dim mismatch with frames")
            if not ok:
                issues.append(f"chunk {ci} flow {fi}: non-finite value")

        if chunk.masks is not None:
            if t > 0 and len(chunk.masks) != t:
                issues.append(f"chunk {ci}: mask count {len(chunk.masks)} != T ({t})")
            for mi, mask in enumerate(chunk.masks):
                if t > 0 and mask.data.shape[:2] != dims:
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
