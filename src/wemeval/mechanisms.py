"""World-ego mechanism kernel: role-conditioned attention masks, token routing,
soft fusion, the gated world-state update, mask losses and weight annealing.

Everything here is forward-only, pure, and deterministic; every array a value
here holds is a read-only copy made at construction. The role experts
themselves (transformer blocks) are out of scope; this module realizes the
structural contracts any backbone must satisfy around them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .rollout import _frozen


class SegmentKind(enum.Enum):
    INITIAL_FRAME = "initial_frame"
    INSTRUCTION = "instruction"
    VIDEO_CHUNK = "video_chunk"
    WORLD_QUERY = "world_query"
    EGO_QUERY = "ego_query"


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    turn: int
    length: int


_TURN_KINDS = (SegmentKind.INSTRUCTION, SegmentKind.VIDEO_CHUNK)


@dataclass(frozen=True)
class SequenceLayout:
    """Token segments of one state-predictor input sequence.

    Layout shape: InitialFrame, then alternating Instruction/VideoChunk pairs
    for each completed turn, the current Instruction (which has no chunk yet),
    and finally the WorldQuery and EgoQuery segments. Only instruction and
    chunk turns are checked. Any other shape, or a segment of length < 1, is
    one ValueError.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for s in segs:
            if s.length < 1:
                raise ValueError(f"segment {s.kind.value} has non-positive length")
        # The (kind, turn) sequence for n completed turns; None marks a turn
        # that is not checked.
        n = max(0, (len(segs) - 4) // 2)
        expected = [(SegmentKind.INITIAL_FRAME, None)]
        for turn in range(1, n + 1):
            expected += [(SegmentKind.INSTRUCTION, turn), (SegmentKind.VIDEO_CHUNK, turn)]
        expected += [(SegmentKind.INSTRUCTION, n + 1), (SegmentKind.WORLD_QUERY, None),
                     (SegmentKind.EGO_QUERY, None)]
        got = [(s.kind, s.turn if s.kind in _TURN_KINDS else None) for s in segs]
        if got != expected:
            position = 0
            while position < min(len(got), len(expected)) and got[position] == expected[position]:
                position += 1
            raise ValueError("layout must be initial_frame, then instruction and video_chunk for each "
                             "completed turn 1..n, then the instruction of turn n+1, world_query and "
                             f"ego_query; segment {position} breaks it")

    @property
    def total_tokens(self) -> int:
        return sum(s.length for s in self.segments)

    @property
    def completed_turns(self) -> int:
        return sum(1 for s in self.segments if s.kind is SegmentKind.VIDEO_CHUNK)

    @property
    def current_turn(self) -> int:
        return self.completed_turns + 1

    def ranges(self) -> list[tuple[Segment, int, int]]:
        """(segment, start, end) position spans in layout order."""
        spans = []
        pos = 0
        for s in self.segments:
            spans.append((s, pos, pos + s.length))
            pos += s.length
        return spans


def standard_layout(
    initial_len: int,
    turn_lens: Sequence[tuple[int, int]],
    current_instruction_len: int,
    world_query_len: int,
    ego_query_len: int,
) -> SequenceLayout:
    """Build a well-formed layout from per-segment token counts."""
    segs = [Segment(SegmentKind.INITIAL_FRAME, 0, initial_len)]
    for turn, (instr_len, video_len) in enumerate(turn_lens, start=1):
        segs.append(Segment(SegmentKind.INSTRUCTION, turn, instr_len))
        segs.append(Segment(SegmentKind.VIDEO_CHUNK, turn, video_len))
    current = len(turn_lens) + 1
    segs.append(Segment(SegmentKind.INSTRUCTION, current, current_instruction_len))
    segs.append(Segment(SegmentKind.WORLD_QUERY, current, world_query_len))
    segs.append(Segment(SegmentKind.EGO_QUERY, current, ego_query_len))
    return SequenceLayout(tuple(segs))


def build_rca_mask(layout: SequenceLayout, k_window: int) -> np.ndarray:
    """Role-conditioned attention pattern over the layout: a read-only bool
    (queries x keys) visibility matrix over its tokens.

    World-query rows see the initial frame, every video chunk, every
    instruction except the current one, and each other; they never see the
    current instruction or ego queries. Ego-query rows see each other, the
    current instruction, and the instruction/chunk pairs of the most recent
    ``k_window`` completed turns; the initial frame is visible to them only
    when ``k_window`` exceeds the number of completed turns. All other rows
    follow plain causal visibility.
    """
    if k_window < 1:
        raise ValueError("k_window must be >= 1")
    lengths = [s.length for s in layout.segments]
    kind = np.repeat([s.kind.value for s in layout.segments], lengths)
    # The initial frame counts as turn 0; the query groups' turns are never read.
    turn = np.repeat([s.turn if s.kind in _TURN_KINDS else 0 for s in layout.segments], lengths)
    world = kind == SegmentKind.WORLD_QUERY.value
    ego = kind == SegmentKind.EGO_QUERY.value
    current_instruction = (kind == SegmentKind.INSTRUCTION.value) & (turn == layout.current_turn)
    # The history of the last k_window completed turns: with the current
    # instruction, and with the initial frame once the window reaches turn 0.
    recent = ~(world | ego) & (turn > layout.completed_turns - k_window)

    allowed = np.tril(np.ones((layout.total_tokens, layout.total_tokens), dtype=bool))
    allowed[world] = ~(ego | current_instruction)
    allowed[ego] = ego | recent
    allowed.flags.writeable = False
    return allowed


def _dilate_chebyshev(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation over the last two axes with an 8-connected step repeated ``radius`` times."""
    out = mask.astype(bool)
    h, w = out.shape[-2:]
    pad = [(0, 0)] * (out.ndim - 2) + [(1, 1), (1, 1)]
    for _ in range(radius):
        padded = np.pad(out, pad)
        acc = np.zeros_like(out)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc |= padded[..., 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        out = acc
    return out


@dataclass(frozen=True, eq=False)
class RoutePlan:
    """Token partition for the world/ego experts with neighbor expansion.

    ``base_mask`` has shape (t, h, w) with 1 = ego. Expanded index sets are
    sorted flat indices (C order) covering each expert's active tokens after
    spatial dilation; they are supersets of the base assignment.
    """

    base_mask: np.ndarray
    radius: int
    world_expanded: np.ndarray
    ego_expanded: np.ndarray

    def __post_init__(self) -> None:
        base = _frozen(self.base_mask, np.uint8)
        if base.ndim != 3:
            raise ValueError("base mask must be (t, h, w)")
        object.__setattr__(self, "base_mask", base)
        flat = base.ravel()
        for name, expanded, value in (
            ("world", self.world_expanded, 0),
            ("ego", self.ego_expanded, 1),
        ):
            expanded = _frozen(expanded, np.int64)
            base_idx = np.flatnonzero(flat == value)
            if not np.isin(base_idx, expanded).all():
                raise ValueError(f"{name} expanded set must contain its base set")
            object.__setattr__(self, f"{name}_expanded", expanded)

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return tuple(self.base_mask.shape)

    @property
    def size(self) -> int:
        return int(self.base_mask.size)

    def base_world(self) -> np.ndarray:
        return np.flatnonzero(self.base_mask.ravel() == 0)

    def base_ego(self) -> np.ndarray:
        return np.flatnonzero(self.base_mask.ravel() == 1)


def route_tokens(token_mask: np.ndarray, radius: int) -> RoutePlan:
    """Partition the token grid by the mask and expand each side spatially.

    ``token_mask`` is (h, w) or (t, h, w) with values in {0, 1}; expansion
    dilates each expert's base set by the Chebyshev radius within each frame
    (no temporal dilation). Radius 0 keeps the exact partition.
    """
    arr = np.asarray(token_mask)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.size == 0:
        raise ValueError("token mask must be a non-empty (h, w) or (t, h, w) grid")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("token mask must be binary")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ego = arr == 1
    world_expanded = np.flatnonzero(_dilate_chebyshev(~ego, radius))
    ego_expanded = np.flatnonzero(_dilate_chebyshev(ego, radius))
    return RoutePlan(base_mask=arr, radius=radius, world_expanded=world_expanded, ego_expanded=ego_expanded)


@dataclass(frozen=True, eq=False)
class StateVector:
    """(tokens x channels) real matrix; always finite."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.values, np.float64)
        if arr.ndim != 2:
            raise ValueError(f"state must be (n, d), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("state contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def unroute(plan: RoutePlan, world_out: StateVector, ego_out: StateVector) -> StateVector:
    """Recompose expert outputs into one sequence under the base assignment.

    Expert outputs carry one row per token of their expanded set, in that
    set's (sorted) order. Each output token takes the row from the expert that
    owns its base assignment, so expansion overlap never leaks across roles.
    """
    if world_out.n != plan.world_expanded.size:
        raise ValueError(
            f"world expert output covers {world_out.n} tokens, expanded set has {plan.world_expanded.size}"
        )
    if ego_out.n != plan.ego_expanded.size:
        raise ValueError(
            f"ego expert output covers {ego_out.n} tokens, expanded set has {plan.ego_expanded.size}"
        )
    if world_out.d != ego_out.d:
        raise ValueError("expert outputs must share the channel dim")
    out = np.empty((plan.size, world_out.d))
    base_world = plan.base_world()
    base_ego = plan.base_ego()
    out[base_world] = world_out.values[np.searchsorted(plan.world_expanded, base_world)]
    out[base_ego] = ego_out.values[np.searchsorted(plan.ego_expanded, base_ego)]
    return StateVector(out)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def soft_fuse(alpha: np.ndarray, x_world: StateVector, x_ego: StateVector) -> StateVector:
    """Per-token convex combination alpha * world + (1 - alpha) * ego."""
    a = np.asarray(alpha, dtype=np.float64).ravel()
    if x_world.values.shape != x_ego.values.shape:
        raise ValueError("fusion inputs must share (n, d)")
    if a.size != x_world.n:
        raise ValueError(f"alpha has {a.size} tokens, states have {x_world.n}")
    a = a[:, None]
    return StateVector(a * x_world.values + (1.0 - a) * x_ego.values)


@dataclass(frozen=True, eq=False)
class GateParams:
    """Affine gate weights for the recurrent world-state update.

    Naming: ``w_<gate>_<input>`` with gates r (reset), c (candidate), g (keep)
    and inputs prev / prop (proposal) / ego (pooled ego summary).
    """

    w_r_prev: np.ndarray
    w_r_prop: np.ndarray
    w_r_ego: np.ndarray
    b_r: np.ndarray
    w_c_prev: np.ndarray
    w_c_prop: np.ndarray
    b_c: np.ndarray
    w_g_prev: np.ndarray
    w_g_prop: np.ndarray
    w_g_ego: np.ndarray
    b_g: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name), np.float64))

    @classmethod
    def zeros(cls, d: int) -> "GateParams":
        z = np.zeros((d, d))
        b = np.zeros(d)
        return cls(z, z, z, b, z, z, b, z, z, z, b)

    @classmethod
    def random(cls, d: int, seed: int, scale: float = 0.5) -> "GateParams":
        rng = np.random.default_rng(seed)
        mats = [rng.normal(0.0, scale, size=(d, d)) for _ in range(8)]
        biases = [rng.normal(0.0, scale, size=d) for _ in range(3)]
        return cls(
            mats[0], mats[1], mats[2], biases[0],
            mats[3], mats[4], biases[1],
            mats[5], mats[6], mats[7], biases[2],
        )


class GruParts(NamedTuple):
    reset: np.ndarray
    candidate: np.ndarray
    keep: np.ndarray
    output: np.ndarray


def gru_update_parts(
    prev: StateVector, proposal: StateVector, ego_summary: np.ndarray, params: GateParams
) -> GruParts:
    """Reset gate, candidate state, keep gate, and gated output of the world-state update."""
    if prev.values.shape != proposal.values.shape:
        raise ValueError("prev and proposal must share (n, d)")
    ego = np.asarray(ego_summary, dtype=np.float64).ravel()
    if ego.size != prev.d:
        raise ValueError(f"ego summary dim {ego.size} != channel dim {prev.d}")
    p, q = prev.values, proposal.values
    reset = _sigmoid(p @ params.w_r_prev + q @ params.w_r_prop + ego @ params.w_r_ego + params.b_r)
    candidate = np.tanh((reset * p) @ params.w_c_prev + q @ params.w_c_prop + params.b_c)
    keep = _sigmoid(p @ params.w_g_prev + q @ params.w_g_prop + ego @ params.w_g_ego + params.b_g)
    output = keep * p + (1.0 - keep) * candidate
    return GruParts(reset=reset, candidate=candidate, keep=keep, output=output)


class LossBreakdown(NamedTuple):
    bce: float
    dice: float
    total: float


def bce_dice_loss(pred: np.ndarray, gt: np.ndarray, eps: float = 1e-7) -> LossBreakdown:
    """Class-balanced binary cross-entropy plus Dice loss for mask supervision.

    Predictions are clamped to [eps, 1 - eps]. BCE weights are N / (2 * N_class)
    with an empty class weighted 0; the Dice term is defined 0 when the ground
    truth is empty (both overlap sums vanish).
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"pred shape {p.shape} != gt shape {g.shape}")
    if p.size == 0:
        raise ValueError("empty grids have no loss")
    if not np.isin(g, (0, 1)).all():
        raise ValueError("gt must be binary")
    p = np.clip(p, eps, 1.0 - eps)
    n = g.size
    n1 = float(g.sum())
    n0 = n - n1
    w1 = n / (2.0 * n1) if n1 > 0 else 0.0
    w0 = n / (2.0 * n0) if n0 > 0 else 0.0
    bce = float(-(w1 * g * np.log(p) + w0 * (1.0 - g) * np.log(1.0 - p)).mean())
    if n1 == 0:
        dice = 0.0
    else:
        dice = float(1.0 - 2.0 * (p * g).sum() / (p.sum() + g.sum()))
    return LossBreakdown(bce=bce, dice=dice, total=bce + dice)


def anneal_lambda(step: int, total_steps: int, lambda0: float, shape: str = "linear") -> float:
    """Mask-loss weight schedule decaying to 20% of the initial value.

    Linear by default; the cosine shape reaches the same endpoints with a
    smooth profile. Both are non-increasing in ``step``.
    """
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} out of range [0, {total_steps}]")
    frac = step / total_steps
    if shape == "linear":
        return lambda0 * (1.0 - 0.8 * frac)
    if shape == "cosine":
        floor = 0.2 * lambda0
        return floor + (lambda0 - floor) * (1.0 + math.cos(math.pi * frac)) / 2.0
    raise ValueError(f"unknown schedule shape '{shape}'")
