"""Trajectory, chunk, frame, mask, and flow data model with validation and phase boundaries."""

from __future__ import annotations

import enum
from typing import Callable, Sequence

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


class _Frozen:
    """Base of the package's frozen values: ``__init__`` sets each slot once,
    through ``object.__setattr__``, and any later assignment or deletion raises
    ``AttributeError``. Equality and hashing are by identity unless a class
    defines its own."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


class _Payload(_Frozen):
    """A frozen value that holds one read-only array, ``data``, of shape
    (height, width, ...): a ``Frame``, ``WorldEgoMask`` or ``FlowField``.
    Each public constructor copies the caller's values into ``data``."""

    __slots__ = ("data",)
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
    if cls is Frame:
        object.__setattr__(obj, "_cells", {})
    return obj


class Frame(_Payload):
    """Single image with intensities normalized to [0, 1].

    Stored as float32 with shape (height, width, channels), channels 1 or 3.
    8-bit sources should be divided by 255 before construction, which copies
    the caller's array into a read-only one. Value-range
    and finiteness violations are reported by ``validate_trajectory`` rather
    than rejected here, so malformed inputs stay inspectable.

    A frame also keeps the embedder's cell statistics of its data, one read-only
    row per grid, made when it is first embedded (``features._frame_stats``):
    the data cannot change, so neither can the rows.
    """

    __slots__ = ("_cells",)
    _cells: dict[int, np.ndarray]

    def __init__(self, data: np.ndarray) -> None:
        arr = _frozen(data, np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(
                f"frame data must be (h, w) or (h, w, c) with c in (1, 3), got shape {arr.shape}"
            )
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "_cells", {})

    @property
    def channels(self) -> int:
        return self.data.shape[2]


class WorldEgoMask(_Payload):
    """Per-pixel binary assignment: 1 = ego (robot / manipulated object), 0 = world.

    Construction holds a read-only copy; values other than {0, 1} are accepted
    and flagged by ``validate_trajectory``.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray) -> None:
        arr = _frozen(data)
        if arr.ndim != 2:
            raise ValueError(f"mask data must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    def is_binary(self) -> bool:
        return bool(((self.data == 0) | (self.data == 1)).all())


class FlowField(_Payload):
    """Dense per-pixel 2-vector motion between two consecutive frames.

    u is the horizontal (x, column) displacement and v the vertical (y, row)
    displacement, both in pixels. The field holds one read-only (h, w, 2)
    float32 block ``data`` of interleaved (u, v) pairs, the layout of a flow
    sidecar; ``u`` and ``v`` are strided views of it.
    ``FlowField(u=..., v=...)`` stacks the two components into a new block.
    """

    __slots__ = ()

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


class Chunk(_Frozen):
    """One generated video segment for one instruction turn.

    ``flows`` (length T-1) and ``masks`` (length T), when present, must match
    the frame dimensions; mismatches are reported by ``validate_trajectory``.
    """

    __slots__ = ("frames", "instruction", "phase", "flows", "masks")
    frames: tuple[Frame, ...]
    instruction: str
    phase: PhaseLabel
    flows: tuple[FlowField, ...] | None
    masks: tuple[WorldEgoMask, ...] | None

    def __init__(self, frames: Sequence[Frame], instruction: str, phase: PhaseLabel,
                 flows: Sequence[FlowField] | None = None, masks: Sequence[WorldEgoMask] | None = None) -> None:
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "instruction", instruction)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "flows", None if flows is None else tuple(flows))
        object.__setattr__(self, "masks", None if masks is None else tuple(masks))


class Trajectory(_Frozen):
    """Ordered multi-turn rollout of chunks, safe for concurrent read: two
    threads that embed a frame for the first time may both compute its cell
    statistics, and the rows have the same bits."""

    __slots__ = ("id", "chunks")
    id: str
    chunks: tuple[Chunk, ...]

    def __init__(self, id: str, chunks: Sequence[Chunk]) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "chunks", tuple(chunks))


class ValidationReport:
    """Accumulated invariant violations; empty iff the trajectory is well-formed."""

    __slots__ = ("issues",)

    def __init__(self, issues: list[str]) -> None:
        self.issues = issues

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
