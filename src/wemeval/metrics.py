"""The six rollout-evaluation metrics and the aggregate report.

All metrics compare a generated trajectory against its ground-truth
counterpart chunk by chunk. Three target multi-turn continuity (boundary
dynamics, late-prefix alignment, instruction-step retrieval) and three target
hybrid navigation/manipulation fidelity (motion-profile alignment, cross-phase
margin, phase-hop state consistency). Every metric is a pure function of
(gen, gt, config).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .features import EmbedderSpec, cosine_similarity, embed_frames, perceptual_distance
from .flow import motion_profile, resample_profile
from .rollout import (
    Chunk,
    Frame,
    Trajectory,
    phase_boundaries,
    validate_trajectory,
)


class MetricNotApplicable(ValueError):
    """The metric's preconditions are not met by this trajectory pair."""


@dataclass(frozen=True)
class MetricConfig:
    """Shipped defaults for every metric knob.

    ``lpsa_window`` and ``fphs_window`` are the per-side frame windows (both
    default 4), ``tau_cpdm`` the margin sharpness (0.05), ``resample_steps``
    the motion-profile length (16), and ``top_fraction`` the high-motion
    selection share (0.2). ``tau_pmpa`` has no published value; 0.5 is this
    toolkit's default.
    """

    lpsa_window: int = 4
    fphs_window: int = 4
    tau_cpdm: float = 0.05
    tau_pmpa: float = 0.5
    resample_steps: int = 16
    top_fraction: float = 0.2
    eps: float = 1e-6
    embedder: EmbedderSpec = field(default_factory=EmbedderSpec)

    def __post_init__(self) -> None:
        if min(self.lpsa_window, self.fphs_window, self.resample_steps) < 1:
            raise ValueError("window and resample sizes must be >= 1")
        if self.tau_cpdm <= 0 or self.tau_pmpa <= 0 or self.eps <= 0:
            raise ValueError("tau and eps values must be positive")
        if not 0 < self.top_fraction <= 1:
            raise ValueError("top_fraction must be in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricResult:
    """Score of one metric plus its per-chunk / per-boundary breakdown."""

    score: float | None
    breakdown: list[float]
    notes: list[str] = field(default_factory=list)


METRIC_NAMES = ("rcbd", "lpsa", "cisr", "pmpa", "cpdm", "fphs")


@dataclass
class MetricReport:
    """All metric scores for one trajectory pair; absent scores carry a note."""

    trajectory: str
    scores: dict[str, float | None]
    breakdowns: dict[str, list[float]]
    notes: list[str]

    def to_dict(self) -> dict:
        return {
            "trajectory": self.trajectory,
            "scores": dict(self.scores),
            "breakdowns": dict(self.breakdowns),
            "notes": list(self.notes),
        }


def symmetric_match(x: float, y: float, eps: float = 1e-6) -> float:
    """exp(-|log(x / y)|): 1 at equality, symmetric, decaying with the ratio.

    Both inputs are clamped below by ``eps`` first, so zero gaps are well
    defined.
    """
    x = max(x, eps)
    y = max(y, eps)
    return math.exp(-abs(math.log(x / y)))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _mean_flow_magnitude(chunk: Chunk, index: int) -> float:
    return float(chunk.flows[index].magnitude().mean())


def _require_equal_k(gen: Trajectory, gt: Trajectory) -> int:
    if len(gen.chunks) != len(gt.chunks):
        raise ValueError(f"chunk counts differ: gen K={len(gen.chunks)}, gt K={len(gt.chunks)}")
    return len(gen.chunks)


def _boundary_gaps(traj: Trajectory, k: int, cfg: MetricConfig) -> tuple[float, float]:
    """Appearance and motion gap at the boundary between chunks k and k+1 (0-based k)."""
    left, right = traj.chunks[k], traj.chunks[k + 1]
    b = perceptual_distance(left.frames[-1], right.frames[0], cfg.embedder)
    if not left.flows or not right.flows:
        raise MetricNotApplicable(f"rcbd: missing flows at boundary {k + 1}")
    m = abs(_mean_flow_magnitude(left, len(left.flows) - 1) - _mean_flow_magnitude(right, 0))
    return b, m


def rcbd(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Boundary-dynamics fidelity: geometric mean of appearance and motion gap matches.

    The appearance gap is the perceptual distance between the last frame of a
    chunk and the first frame of the next; the motion gap is the absolute
    difference of the mean flow magnitudes on the two sides (last flow field
    of the left chunk vs. first of the right). Each gap pair is compared with
    ``symmetric_match`` so over-smoothing is penalized like overshoot.
    """
    k = _require_equal_k(gen, gt)
    if k < 2:
        raise MetricNotApplicable("rcbd: needs K >= 2")
    per_boundary = []
    for b_idx in range(k - 1):
        b_gen, m_gen = _boundary_gaps(gen, b_idx, cfg)
        b_gt, m_gt = _boundary_gaps(gt, b_idx, cfg)
        s_appearance = symmetric_match(b_gen, b_gt, cfg.eps)
        s_motion = symmetric_match(m_gen, m_gt, cfg.eps)
        per_boundary.append(math.sqrt(s_appearance * s_motion))
    return MetricResult(score=float(np.mean(per_boundary)), breakdown=per_boundary)


def _window_frames(chunk: Chunk, window: int, last: bool) -> list[Frame]:
    w = min(window, len(chunk.frames))
    return list(chunk.frames[-w:]) if last else list(chunk.frames[:w])


def lpsa(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Late-prefix alignment: linearly weighted cosine over end-of-chunk windows.

    Chunk k contributes with weight k, so later chunks (which accumulate more
    rollout error) dominate.
    """
    k = _require_equal_k(gen, gt)
    similarities = []
    for i in range(k):
        e_gen = embed_frames(_window_frames(gen.chunks[i], cfg.lpsa_window, last=True), cfg.embedder)
        e_gt = embed_frames(_window_frames(gt.chunks[i], cfg.lpsa_window, last=True), cfg.embedder)
        similarities.append(cosine_similarity(e_gen, e_gt))
    weights = np.arange(1, k + 1, dtype=np.float64)
    score = float(np.dot(weights, similarities) / weights.sum())
    return MetricResult(score=score, breakdown=similarities)


def _chunk_embeddings(traj: Trajectory, cfg: MetricConfig) -> list[np.ndarray]:
    return [embed_frames(list(c.frames), cfg.embedder) for c in traj.chunks]


def cisr(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Instruction-step retrieval as mean reciprocal rank.

    Each generated chunk queries all ground-truth chunk embeddings; the rank
    of the matching step gives 1/rank. Similarity ties count pessimistically
    (worst rank among the tied entries), so constant embeddings never inflate
    the score.
    """
    k = _require_equal_k(gen, gt)
    gen_emb = _chunk_embeddings(gen, cfg)
    gt_emb = _chunk_embeddings(gt, cfg)
    reciprocal = []
    for i in range(k):
        sims = np.array([cosine_similarity(gen_emb[i], gt_emb[j]) for j in range(k)])
        rank = int((sims >= sims[i]).sum())  # ties resolved to the worst rank
        reciprocal.append(1.0 / rank)
    return MetricResult(score=float(np.mean(reciprocal)), breakdown=reciprocal)


def pmpa(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Motion-profile alignment: exp(-delta / tau) per chunk, averaged.

    delta is the mean pointwise L2 distance between the resampled 4-component
    motion profiles of the generated and ground-truth chunk, so it is
    invariant to the resample count. Chunks too short for a profile (T < 2)
    are skipped with a note.
    """
    k = _require_equal_k(gen, gt)
    scores = []
    notes = []
    for i in range(k):
        if len(gen.chunks[i].frames) < 2 or len(gt.chunks[i].frames) < 2:
            notes.append(f"pmpa: chunk {i} skipped (T < 2)")
            continue
        if gen.chunks[i].flows is None or gt.chunks[i].flows is None:
            raise MetricNotApplicable(f"pmpa: missing flows on chunk {i}")
        p_gen = resample_profile(
            motion_profile(gen.chunks[i], top_fraction=cfg.top_fraction), cfg.resample_steps
        )
        p_gt = resample_profile(
            motion_profile(gt.chunks[i], top_fraction=cfg.top_fraction), cfg.resample_steps
        )
        delta = float(np.linalg.norm(p_gen.steps - p_gt.steps, axis=1).mean())
        scores.append(math.exp(-delta / cfg.tau_pmpa))
    if not scores:
        return MetricResult(score=None, breakdown=[], notes=notes + ["pmpa: no scorable chunks"])
    return MetricResult(score=float(np.mean(scores)), breakdown=scores, notes=notes)


def cpdm(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Cross-phase margin: sigmoid of (same-step similarity - best opposite-phase similarity).

    Absent (with a note) when the ground truth has a single phase, since no
    opposite-phase negative exists.
    """
    k = _require_equal_k(gen, gt)
    phases = [c.phase for c in gt.chunks]
    if len(set(phases)) < 2:
        return MetricResult(score=None, breakdown=[], notes=["cpdm: single-phase trajectory"])
    gen_emb = _chunk_embeddings(gen, cfg)
    gt_emb = _chunk_embeddings(gt, cfg)
    scores = []
    for i in range(k):
        r_pos = cosine_similarity(gen_emb[i], gt_emb[i])
        r_neg = max(
            cosine_similarity(gen_emb[i], gt_emb[j]) for j in range(k) if phases[j] != phases[i]
        )
        scores.append(_sigmoid((r_pos - r_neg) / cfg.tau_cpdm))
    return MetricResult(score=float(np.mean(scores)), breakdown=scores)


def _accumulated_gt_magnitude(
    gt_left: Chunk, gt_right: Chunk, w_left: int, w_right: int
) -> np.ndarray:
    """Sum of ground-truth flow magnitudes over the boundary window's frame pairs."""
    h, w = gt_left.frames[0].height, gt_left.frames[0].width
    acc = np.zeros((h, w))
    if w_left >= 2:
        for f in gt_left.flows[-(w_left - 1):]:
            acc += f.magnitude()
    if w_right >= 2:
        for f in gt_right.flows[: w_right - 1]:
            acc += f.magnitude()
    return acc


def _change_region_bbox(acc: np.ndarray, top_fraction: float) -> tuple[int, int, int, int]:
    """Bounding box (r0, r1, c0, c1) of the top-fraction accumulated-motion pixels.

    The cutoff is the ceil(fraction * N)-th largest value; pixels tied at the
    cutoff are included.
    """
    flat = np.sort(acc.ravel())[::-1]
    k = int(math.ceil(top_fraction * flat.size))
    cutoff = flat[k - 1]
    region = acc >= cutoff
    rows = np.flatnonzero(region.any(axis=1))
    cols = np.flatnonzero(region.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _crop(frames: list[Frame], bbox: tuple[int, int, int, int]) -> list[Frame]:
    r0, r1, c0, c1 = bbox
    return [Frame(data=f.data[r0:r1, c0:c1, :]) for f in frames]


def fphs(gen: Trajectory, gt: Trajectory, cfg: MetricConfig) -> MetricResult:
    """Phase-hop consistency in the localized change region at each phase switch.

    Windows of up to ``fphs_window`` frames on each side of the switch are
    cropped to the bounding box of the top-fraction pixels of accumulated
    ground-truth flow magnitude, then compared by window-embedding cosine.
    Absent (with a note) when no phase switch exists.
    """
    _require_equal_k(gen, gt)
    switches = phase_boundaries(gt)
    if not switches:
        return MetricResult(score=None, breakdown=[], notes=["fphs: no phase switch"])
    scores = []
    notes = []
    for k1 in switches:  # 1-based: switch between chunks k1 and k1+1
        gt_left, gt_right = gt.chunks[k1 - 1], gt.chunks[k1]
        gen_left, gen_right = gen.chunks[k1 - 1], gen.chunks[k1]
        w_left = min(cfg.fphs_window, len(gt_left.frames))
        w_right = min(cfg.fphs_window, len(gt_right.frames))
        needs_flows = (w_left >= 2 and gt_left.flows is None) or (
            w_right >= 2 and gt_right.flows is None
        )
        if needs_flows:
            notes.append(f"fphs: boundary {k1} skipped (missing gt flows)")
            continue
        acc = _accumulated_gt_magnitude(gt_left, gt_right, w_left, w_right)
        bbox = _change_region_bbox(acc, cfg.top_fraction)
        gen_window = _window_frames(gen_left, w_left, last=True) + _window_frames(
            gen_right, w_right, last=False
        )
        gt_window = _window_frames(gt_left, w_left, last=True) + _window_frames(
            gt_right, w_right, last=False
        )
        e_gen = embed_frames(_crop(gen_window, bbox), cfg.embedder)
        e_gt = embed_frames(_crop(gt_window, bbox), cfg.embedder)
        scores.append(cosine_similarity(e_gen, e_gt))
    if not scores:
        return MetricResult(score=None, breakdown=[], notes=notes + ["fphs: no scorable boundary"])
    return MetricResult(score=float(np.mean(scores)), breakdown=scores, notes=notes)


_METRIC_FUNCS = {
    "rcbd": rcbd,
    "lpsa": lpsa,
    "cisr": cisr,
    "pmpa": pmpa,
    "cpdm": cpdm,
    "fphs": fphs,
}


def evaluate_all(gen: Trajectory, gt: Trajectory, cfg: MetricConfig | None = None) -> MetricReport:
    """Run every applicable metric on one trajectory pair.

    Raises on K mismatch or validation failure; metrics whose preconditions
    fail on otherwise valid data are reported absent with a note. Deterministic
    for a fixed config.
    """
    cfg = cfg or MetricConfig()
    for name, traj in (("gen", gen), ("gt", gt)):
        report = validate_trajectory(traj)
        if not report.is_valid():
            raise ValueError(f"{name} trajectory invalid: " + "; ".join(report.issues))
    _require_equal_k(gen, gt)
    g0, t0 = gen.chunks[0].frames[0], gt.chunks[0].frames[0]
    if (g0.height, g0.width) != (t0.height, t0.width):
        raise ValueError("gen and gt frame dims differ")

    scores: dict[str, float | None] = {}
    breakdowns: dict[str, list[float]] = {}
    notes: list[str] = []
    for name, func in _METRIC_FUNCS.items():
        try:
            result = func(gen, gt, cfg)
        except MetricNotApplicable as exc:
            scores[name] = None
            breakdowns[name] = []
            notes.append(str(exc))
            continue
        scores[name] = result.score
        breakdowns[name] = result.breakdown
        notes.extend(result.notes)
    return MetricReport(trajectory=gen.id, scores=scores, breakdowns=breakdowns, notes=notes)
