"""Deterministic 2D navigation/manipulation simulator for metric fixtures.

Navigation chunks move the camera (an affine homography per step) over a
static value-noise scene with baked-in objects; manipulation chunks hold the
camera and translate one designated ego object by an exact per-step pixel
displacement. Frames, per-pair flow components, homographies, and world-ego
masks are all recorded from the generating transforms, so every fixture is an
exact oracle: camera flow re-renders from the recorded homography, residual
flow support equals the moving object's pixels, and masks label exactly the
moving object plus a fixed gripper glyph.

The static layer of a frame (every pixel's scene coordinates, the value noise
and the static objects) depends only on the camera pose, so it is drawn once
per pose and each frame at that pose paints the ego object, the gripper
glyph and the sensor noise on a copy. The pose changes only at a navigation
step, so a manipulation chunk reuses the layer of the frame before it. At
128 px a navigation frame takes about 0.9 ms and a manipulation frame about
0.4 ms on one core of a shared 2-vCPU Xeon (README, Simulator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .camera import Homography, project_pixel_grid, render_camera_flow
from .rollout import Chunk, FlowField, Frame, PhaseLabel, Trajectory, WorldEgoMask


class SimConfigError(ValueError):
    """A bad simulator spec, or an ego object that leaves the frame during rendering."""


@dataclass(frozen=True)
class ObjectSpec:
    shape: str  # "disk" | "square"
    size: float  # radius (disk) or half-side (square), scene units = pixels
    intensity: float
    position: tuple[float, float]  # center (x, y) in scene coords

    def __post_init__(self) -> None:
        if self.shape not in ("disk", "square"):
            raise SimConfigError(f"unknown object shape '{self.shape}'")
        if not 0 < self.size < math.inf:  # NaN fails too
            raise SimConfigError("object size must be positive and finite")
        if len(self.position) != 2 or not all(map(math.isfinite, self.position)):
            raise SimConfigError(f"object position must be a finite (x, y), got {self.position!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise SimConfigError("object intensity must be in [0, 1]")


@dataclass(frozen=True)
class CameraMotion:
    """Per-step image-space camera transform: translate, rotate or zoom about center."""

    kind: str  # "translate" | "rotate" | "zoom" | "none"
    dx: float = 0.0
    dy: float = 0.0
    degrees: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("translate", "rotate", "zoom", "none"):
            raise SimConfigError(f"unknown camera motion '{self.kind}'")
        if not (all(map(math.isfinite, (self.dx, self.dy, self.degrees))) and 0 < self.factor < math.inf):
            raise SimConfigError(f"camera motion must be finite with a positive zoom factor: {self!r}")

    def to_homography(self, width: int, height: int) -> Homography:
        if self.kind == "translate":
            return Homography.translation(self.dx, self.dy)
        if self.kind == "none":
            return Homography.identity()
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        center = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
        back = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
        if self.kind == "rotate":
            a = math.radians(self.degrees)
            core = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        else:
            core = np.diag([self.factor, self.factor, 1.0])
        return Homography(center @ core @ back)


@dataclass(frozen=True)
class ChunkSpec:
    phase: PhaseLabel
    steps: int  # frame count T for this chunk
    camera: CameraMotion | None = None
    object_motion: tuple[float, float] | None = None  # per-step (dx, dy) pixels

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise SimConfigError("chunks need steps >= 2")
        if self.phase is PhaseLabel.NAV:
            if self.camera is None:
                raise SimConfigError("nav chunk needs a camera motion")
            if self.object_motion is not None:
                raise SimConfigError("nav chunk must not move objects")
        else:
            motion = self.object_motion
            if motion is None or len(motion) != 2 or not all(map(math.isfinite, motion)):
                raise SimConfigError(f"manip chunk needs a finite object motion (dx, dy), got {motion!r}")
            if self.camera is not None and self.camera.kind != "none":
                raise SimConfigError("manip chunk must hold the camera")


# The most pixels a fixture may hold over all its frames (width x height x the
# chunks' steps), e.g. 512 x 512 x 64 or 1024 x 1024 x 16. gen-fixtures peaks
# at about 330 MB of RSS on a 1024 x 1024 x 16 fixture.
MAX_PIXEL_FRAMES = 1 << 24


@dataclass(frozen=True)
class SimConfig:
    seed: int
    width: int
    height: int
    chunks: tuple[ChunkSpec, ...]
    objects: tuple[ObjectSpec, ...] = ()
    ego_object: int = 0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunks", tuple(self.chunks))
        object.__setattr__(self, "objects", tuple(self.objects))
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise SimConfigError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.width < 16 or self.height < 16:
            raise SimConfigError("frame dims must be at least 16x16")
        if not self.chunks:
            raise SimConfigError("config needs at least one chunk")
        if (pixels := self.width * self.height * sum(c.steps for c in self.chunks)) > MAX_PIXEL_FRAMES:
            raise SimConfigError(f"width x height x frames is {pixels}, more than {MAX_PIXEL_FRAMES}")
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails too
            raise SimConfigError("noise_sigma must be finite and >= 0")
        needs_object = any(c.phase is PhaseLabel.MANIP for c in self.chunks)
        if needs_object and not (0 <= self.ego_object < len(self.objects)):
            raise SimConfigError("manip chunks need a valid ego_object index")


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-pair flow decomposition and per-frame masks of a fixture."""

    phases: tuple[PhaseLabel, ...]
    masks: tuple[tuple[WorldEgoMask, ...], ...]
    camera_flows: tuple[tuple[FlowField, ...], ...]
    object_flows: tuple[tuple[FlowField, ...], ...]
    homographies: tuple[tuple[Homography, ...], ...]


_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def _hash01(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice noise in [0, 1) from integer coordinates."""
    x = ix.astype(np.int64).astype(np.uint64)
    y = iy.astype(np.int64).astype(np.uint64)
    seed_term = np.uint64((seed * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        h = x * _MIX1 + y * _MIX2 + seed_term
        h ^= h >> np.uint64(30)
        h *= _MIX2
        h ^= h >> np.uint64(27)
        h *= _MIX3
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(40)).astype(np.float64) / float(1 << 24)


def _smoothstep(f: np.ndarray) -> np.ndarray:
    """``f * f * (3 - 2 f)``, in place."""
    f2 = f * f
    f *= -2.0
    f += 3.0
    f *= f2
    return f


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``a + (b - a) * t``, in ``b``."""
    b -= a
    b *= t
    b += a
    return b


def _cells(fx: np.ndarray, fy: np.ndarray, seed: int) -> Callable[[int, int], np.ndarray]:
    """Split lattice coordinates in place into each pixel's offsets within its
    cell (gx, gy), and return ``corner(dx, dy)``: ``_hash01`` at every pixel's
    corner (gx + dx, gy + dy), for dx and dy in {0, 1}.

    The lattice points of the cells' bounding box are hashed once and gathered
    by flat index, unless the box holds more points than there are pixels (a
    far zoom-out); then each corner is hashed per pixel, so memory stays
    bounded by the frame. Both give the same bits.
    """
    gx, gy = (np.floor(f, out=np.empty(f.shape, np.intp), casting="unsafe") for f in (fx, fy))
    fx -= gx
    fy -= gy
    x0, y0 = int(gx.min()), int(gy.min())
    nx, ny = int(gx.max()) - x0 + 2, int(gy.max()) - y0 + 2
    if nx * ny > gx.size:
        return lambda dx, dy: _hash01(gx + dx, gy + dy, seed)
    table = _hash01(np.arange(x0, x0 + nx), np.arange(y0, y0 + ny)[:, None], seed).ravel()
    idx = gy  # the flat index of each cell's corner (gx, gy) in the table
    idx -= y0
    idx *= nx
    idx += gx
    idx -= x0
    return lambda dx, dy: table[dy * nx + dx :].take(idx)


def _value_noise(x: np.ndarray, y: np.ndarray, seed: int, scale: float = 8.0) -> np.ndarray:
    # A 128 px float64 frame is 128 KiB, which the default heap returns to the
    # system when freed; so few full-frame temporaries live at once.
    fx, fy = x / scale, y / scale
    corner = _cells(fx, fy, seed)
    sx = _smoothstep(fx)
    top = _lerp(corner(0, 0), corner(1, 0), sx)
    bottom = _lerp(corner(0, 1), corner(1, 1), sx)
    return _lerp(top, bottom, _smoothstep(fy))


def _membership(x: np.ndarray, y: np.ndarray, obj: ObjectSpec, center: tuple[float, float]) -> np.ndarray:
    cx, cy = center
    if obj.shape == "disk":
        return (x - cx) ** 2 + (y - cy) ** 2 <= obj.size**2
    return np.maximum(np.abs(x - cx), np.abs(y - cy)) <= obj.size


def _gripper_mask(height: int, width: int) -> np.ndarray:
    gh = max(2, height // 8)
    gw = max(1, width // 16)
    off = max(2, width // 10)
    cx = width // 2
    m = np.zeros((height, width), dtype=bool)
    m[height - gh :, cx - off - gw : cx - off] = True
    m[height - gh :, cx + off : cx + off + gw] = True
    return m


@dataclass
class _CameraState:
    pose: np.ndarray  # scene -> image homography matrix
    ego_center: tuple[float, float] | None
    inverse: np.ndarray = field(init=False)  # image -> scene, inverted once per pose

    def __post_init__(self) -> None:
        self.move_to(self.pose)

    def move_to(self, pose: np.ndarray) -> None:
        self.pose = pose
        self.inverse = np.linalg.inv(pose)


def _advance(state: _CameraState, spec: ChunkSpec, step_h: Homography) -> None:
    if spec.phase is PhaseLabel.NAV:
        state.move_to(step_h.h @ state.pose)
    else:
        dx, dy = spec.object_motion
        sdx, sdy = state.inverse[:2, :2] @ np.array([dx, dy])
        state.ego_center = (state.ego_center[0] + sdx, state.ego_center[1] + sdy)


def _ego_image_footprint(state: _CameraState, obj: ObjectSpec) -> tuple[float, float, float]:
    """Ego object's image-space center and a conservative bounding radius."""
    cx, cy = state.ego_center
    p = state.pose @ np.array([cx, cy, 1.0])
    lin = state.pose[:2, :2]
    scale = float(np.sqrt(np.abs(np.linalg.det(lin))))
    radius = obj.size * scale * (math.sqrt(2.0) if obj.shape == "square" else 1.0)
    return p[0] / p[2], p[1] / p[2], radius


def generate_trajectory(cfg: SimConfig) -> tuple[Trajectory, GroundTruth]:
    """Render a fixture trajectory together with its exact ground truth.

    Motion also advances by one step across each chunk boundary, so consecutive
    chunks have a genuine appearance/motion gap rather than a repeated frame.
    Output is bit-identical for the same config.
    """
    has_ego = 0 <= cfg.ego_object < len(cfg.objects)
    ego_obj = cfg.objects[cfg.ego_object] if has_ego else None
    statics = [o for i, o in enumerate(cfg.objects) if not (has_ego and i == cfg.ego_object)]
    state = _CameraState(pose=np.eye(3), ego_center=ego_obj.position if ego_obj else None)
    step_homs = [
        (c.camera or CameraMotion("none")).to_homography(cfg.width, cfg.height) for c in cfg.chunks
    ]
    noise_rng = np.random.default_rng([cfg.seed, 0xFACE])
    glyph = _gripper_mask(cfg.height, cfg.width)
    zero_flow = FlowField(
        u=np.zeros((cfg.height, cfg.width)), v=np.zeros((cfg.height, cfg.width))
    )

    def static_layer() -> tuple[np.ndarray, ...]:
        """(pose, px, py, values): every pixel's scene coordinates and the
        scene without the ego object, seen from the current pose; read-only."""
        _, _, px, py = project_pixel_grid(state.inverse, cfg.width, cfg.height)
        values = _value_noise(px, py, cfg.seed)
        for obj in statics:
            np.copyto(values, obj.intensity, where=_membership(px, py, obj, obj.position))
        for a in (px, py, values):
            a.flags.writeable = False
        return state.pose, px, py, values

    # The static layer is drawn once per pose: a manip chunk holds the camera,
    # so it reuses the layer of the frame before it. The old layer is dropped
    # only once the new one is drawn, and every frame is painted on the one
    # canvas (``Frame`` makes the float32 copy), so the heap reuses the same
    # blocks instead of trimming and faulting them in again on every frame.
    layer = static_layer()
    canvas = np.empty((cfg.height, cfg.width))

    def render() -> tuple[np.ndarray, np.ndarray]:
        nonlocal layer
        if layer[0] is not state.pose:
            layer = static_layer()
        _, px, py, scene = layer
        values = canvas
        np.copyto(values, scene)
        support = np.zeros((cfg.height, cfg.width), dtype=bool)
        if ego_obj is not None:
            support = _membership(px, py, ego_obj, state.ego_center)
            np.copyto(values, ego_obj.intensity, where=support)
        np.copyto(values, 0.95, where=glyph)
        if cfg.noise_sigma > 0:
            values += noise_rng.normal(0.0, cfg.noise_sigma, values.shape)
        return np.clip(values, 0.0, 1.0, out=values), support

    chunks: list[Chunk] = []
    gt_cam, gt_obj, gt_homs = [], [], []
    for ci, spec in enumerate(cfg.chunks):
        if ci > 0:
            _advance(state, spec, step_homs[ci])
        is_nav = spec.phase is PhaseLabel.NAV
        cam_flow = render_camera_flow(step_homs[ci], cfg.width, cfg.height) if is_nav else zero_flow
        frames, masks, objs = [], [], []
        for t in range(spec.steps):
            if ego_obj is not None:
                x, y, r = _ego_image_footprint(state, ego_obj)
                if x - r < 0 or y - r < 0 or x + r > cfg.width - 1 or y + r > cfg.height - 1:
                    raise SimConfigError(f"chunk {ci} frame {t}: ego object leaves frame bounds")
            values, support = render()
            frames.append(Frame(data=values))  # a new float32 array; the canvas is painted again
            ego_pixels = glyph | support if not is_nav else glyph
            masks.append(WorldEgoMask(data=ego_pixels.astype(np.uint8)))
            if t < spec.steps - 1:
                if not is_nav:
                    dx, dy = spec.object_motion
                    objs.append(FlowField(u=np.where(support, dx, 0.0), v=np.where(support, dy, 0.0)))
                _advance(state, spec, step_homs[ci])
        # The pairs of a chunk share its step, its camera flow (a manip chunk
        # holds the camera: its step is the identity) and a nav chunk's zero object flow.
        pairs = spec.steps - 1
        cams = (cam_flow,) * pairs
        objs = (zero_flow,) * pairs if is_nav else tuple(objs)
        instruction = (f"drive the viewpoint through the scene (leg {ci + 1})" if is_nav
                       else f"slide the target object (leg {ci + 1})")
        chunks.append(
            Chunk(frames=tuple(frames), instruction=instruction, phase=spec.phase,
                  flows=cams if is_nav else objs, masks=tuple(masks))
        )
        gt_cam.append(cams)
        gt_obj.append(objs)
        gt_homs.append((step_homs[ci],) * pairs)

    traj = Trajectory(id=f"sim-{cfg.seed}", chunks=tuple(chunks))
    gt = GroundTruth(
        phases=tuple(s.phase for s in cfg.chunks),
        masks=tuple(c.masks for c in chunks),
        camera_flows=tuple(gt_cam),
        object_flows=tuple(gt_obj),
        homographies=tuple(gt_homs),
    )
    return traj, gt


_PERTURB_KINDS = ("frame-noise", "chunk-shuffle", "phase-swap", "boundary-smooth")


def _with_frames(chunk: Chunk, frames: Sequence[Frame]) -> Chunk:
    """``chunk`` with ``frames`` in place of its own."""
    return Chunk(frames, chunk.instruction, chunk.phase, chunk.flows, chunk.masks)


def perturb_rollout(
    traj: Trajectory, gt: GroundTruth, kind: str, magnitude: float, seed: int
) -> Trajectory:
    """Apply a controlled corruption so metric monotonicity can be tested.

    frame-noise adds clamped Gaussian noise of sigma = magnitude; chunk-shuffle
    deranges the chunk order; phase-swap relabels one chunk's phase;
    boundary-smooth cross-fades the two frames at one chunk boundary with blend
    factor = magnitude, shrinking the true appearance gap. Magnitude 0 is the
    identity for every kind.

    phase-swap changes no score, breakdown or note of ``evaluate_all``: no
    metric reads the generated chunks' phase labels (``cpdm`` and ``fphs``
    read the ground truth's).
    """
    if kind not in _PERTURB_KINDS:
        raise ValueError(f"unknown perturbation kind '{kind}'")
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    if magnitude == 0:
        return traj
    rng = np.random.default_rng([seed, _PERTURB_KINDS.index(kind)])
    k = len(traj.chunks)
    new_id = f"{traj.id}+{kind}"

    if kind == "frame-noise":
        def noisy(f: Frame) -> Frame:
            data = f.data.astype(np.float64)
            data += rng.normal(0.0, magnitude, data.shape)
            return Frame(data=np.clip(data, 0.0, 1.0, out=data))

        chunks = [_with_frames(c, [noisy(f) for f in c.frames]) for c in traj.chunks]
        return Trajectory(id=new_id, chunks=tuple(chunks))

    if kind == "chunk-shuffle":
        if k < 2:
            raise ValueError("chunk-shuffle needs K >= 2 (no derangement exists for K = 1)")
        while True:
            perm = rng.permutation(k)
            if not np.any(perm == np.arange(k)):
                break
        return Trajectory(id=new_id, chunks=tuple(traj.chunks[i] for i in perm))

    if kind == "phase-swap":
        idx = int(rng.integers(k))
        chunk = traj.chunks[idx]
        flipped = PhaseLabel.MANIP if chunk.phase is PhaseLabel.NAV else PhaseLabel.NAV
        chunks = list(traj.chunks)
        chunks[idx] = Chunk(chunk.frames, chunk.instruction, flipped, chunk.flows, chunk.masks)
        return Trajectory(id=new_id, chunks=tuple(chunks))

    # boundary-smooth
    if k < 2:
        raise ValueError("boundary-smooth needs K >= 2")
    blend = min(1.0, magnitude) / 2.0
    boundary = int(rng.integers(1, k))  # between chunks boundary-1 and boundary
    left, right = traj.chunks[boundary - 1], traj.chunks[boundary]
    f_last = left.frames[-1].data.astype(np.float64)
    f_first = right.frames[0].data.astype(np.float64)
    new_last = Frame(data=(1 - blend) * f_last + blend * f_first)
    new_first = Frame(data=blend * f_last + (1 - blend) * f_first)
    chunks = list(traj.chunks)
    chunks[boundary - 1] = _with_frames(left, left.frames[:-1] + (new_last,))
    chunks[boundary] = _with_frames(right, (new_first,) + right.frames[1:])
    return Trajectory(id=new_id, chunks=tuple(chunks))


def mixed_fixture_config(seed: int, size: int = 64, t: int = 6) -> SimConfig:
    """Standard mixed-phase fixture: Nav/Manip alternation with one ego disk."""
    return SimConfig(
        seed=seed,
        width=size,
        height=size,
        chunks=(
            ChunkSpec(PhaseLabel.NAV, t, camera=CameraMotion("translate", dx=1.0, dy=0.0)),
            ChunkSpec(PhaseLabel.MANIP, t, object_motion=(0.0, 1.0)),
            ChunkSpec(PhaseLabel.NAV, t, camera=CameraMotion("translate", dx=-1.0, dy=0.5)),
            ChunkSpec(PhaseLabel.MANIP, t, object_motion=(1.0, -1.0)),
        ),
        objects=(
            ObjectSpec("disk", size / 10.0, 0.85, (size * 0.45, size * 0.35)),
            ObjectSpec("square", size / 12.0, 0.15, (size * 0.7, size * 0.25)),
        ),
        ego_object=0,
    )


def default_catalog(size: int = 64, t: int = 6) -> list[tuple[str, SimConfig]]:
    """At least 20 fixtures spanning Nav-only, Manip-only, and mixed-phase configs."""
    entries = [(f"mixed-{i:02d}", mixed_fixture_config(seed=100 + i, size=size, t=t)) for i in range(8)]

    def family(name: str, seed: int, chunk: ChunkSpec, objects: tuple[ObjectSpec, ...]) -> None:
        """Adds fixture ``name``: ``chunk`` twice, with ``objects[0]`` the ego object."""
        cfg = SimConfig(seed=seed, width=size, height=size, chunks=(chunk, chunk), objects=objects)
        entries.append((name, cfg))

    nav_motions = [
        CameraMotion("translate", dx=1.0, dy=0.0),
        CameraMotion("translate", dx=0.0, dy=1.0),
        CameraMotion("translate", dx=-1.0, dy=0.5),
        CameraMotion("rotate", degrees=1.5),
        CameraMotion("zoom", factor=1.01),
        CameraMotion("zoom", factor=0.99),
    ]
    for i, motion in enumerate(nav_motions):
        family(f"nav-{i:02d}", 200 + i, ChunkSpec(PhaseLabel.NAV, t, camera=motion),
               (ObjectSpec("disk", size / 12.0, 0.9, (size * 0.5, size * 0.4)),))
    manip_motions = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (-1.0, 1.0)]
    for i, motion in enumerate(manip_motions):
        family(f"manip-{i:02d}", 300 + i, ChunkSpec(PhaseLabel.MANIP, t, object_motion=motion),
               (ObjectSpec("disk", size / 10.0, 0.85, (size * 0.5, size * 0.45)),
                ObjectSpec("square", size / 12.0, 0.2, (size * 0.25, size * 0.3))))
    return entries
