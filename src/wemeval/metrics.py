"""The six rollout-evaluation metrics and the aggregate report.

All metrics compare a generated trajectory against its ground-truth
counterpart chunk by chunk. Three target multi-turn continuity (boundary
dynamics, late-prefix alignment, instruction-step retrieval) and three target
hybrid navigation/manipulation fidelity (motion-profile alignment, cross-phase
margin, phase-hop state consistency). Every metric is a pure function of
(``ScoringPair``, config).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .features import EmbedderSpec, cosine_similarity, embed_frames, perceptual_distance
from .flow import flow_stats, motion_profile
from .rollout import Chunk, Frame, Trajectory, _frozen, _trusted, phase_boundaries, validate_trajectory


# The most steps a motion profile is resampled to: a profile of 4096 steps of
# four float64 components is 128 KiB, however large the configured value.
MAX_RESAMPLE_STEPS = 4096


@dataclass(frozen=True)
class MetricConfig:
    """Shipped defaults for every metric knob.

    ``lpsa_window`` and ``fphs_window`` are the per-side frame windows (both
    default 4), ``tau_cpdm`` the margin sharpness (0.05), ``resample_steps``
    the motion-profile length (16, at most ``MAX_RESAMPLE_STEPS``), and
    ``top_fraction`` the high-motion selection share (0.2). ``tau_pmpa`` has
    no published value; 0.5 is this toolkit's default.
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
        for name in ("lpsa_window", "fphs_window", "resample_steps"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.resample_steps > MAX_RESAMPLE_STEPS:
            raise ValueError(f"resample_steps must be <= {MAX_RESAMPLE_STEPS}, got {self.resample_steps!r}")
        for name in ("tau_cpdm", "tau_pmpa", "eps"):
            if not 0 < (value := getattr(self, name)) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0 < self.top_fraction <= 1:
            raise ValueError(f"top_fraction must be in (0, 1], got {self.top_fraction!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricResult:
    """Score of one metric plus its per-chunk / per-boundary breakdown."""

    score: float | None
    breakdown: list[float]
    notes: list[str] = field(default_factory=list)


def _absent(*notes: str) -> MetricResult:
    """A metric that does not apply to this pair: no score, no breakdown, the reasons."""
    return MetricResult(score=None, breakdown=[], notes=list(notes))


@dataclass
class MetricReport:
    """All metric scores for one trajectory pair; absent scores carry a note."""

    trajectory: str
    scores: dict[str, float | None]
    breakdowns: dict[str, list[float]]
    notes: list[str]

    def to_dict(self) -> dict:  # not dataclasses.asdict, whose deep copy takes ~100x as long
        return {"trajectory": self.trajectory, "scores": dict(self.scores),
                "breakdowns": dict(self.breakdowns), "notes": list(self.notes)}


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
    """The frames cut to ``bbox``: the frames themselves when it spans them,
    so the embedder's memo serves the rows their chunks computed; otherwise
    strided views of their read-only data."""
    if bbox == (0, frames[0].height, 0, frames[0].width):
        return frames
    r0, r1, c0, c1 = bbox
    return [_trusted(Frame, f.data[r0:r1, c0:c1, :]) for f in frames]


class TrajectoryFeatures:
    """One trajectory as the metrics read it, a function of it, the config and (on a gt) its phase
    ``switches`` alone: one built gt can be scored against any number of gens.

    The constructor validates ``traj`` and, in the same pass, reduces each chunk to one squared-
    magnitude array per flow field. That array gives the chunk's resampled motion ``profiles``
    (None below two frames or without fields), its first and last mean magnitude (``motion``;
    None without fields) and, at each gt phase switch whose window has its fields (``spans``:
    the window widths left and right; the others get no span), the summed magnitude whose
    top-fraction ``boxes`` crop both sides' ``fphs`` windows. The whole-chunk and end-window
    embeddings (``chunks``, ``ends``) are made on first read, once.
    """

    def __init__(self, name: str, traj: Trajectory, cfg: MetricConfig, switches: Sequence[int] = ()):
        self.traj, self.switches, self.cfg = traj, list(switches), cfg
        self.phases = [c.phase for c in traj.chunks]
        self.lengths = [len(c.frames) for c in traj.chunks]
        self.motion, self.profiles, self.spans, self._acc = [], [], {}, {}
        for k1 in switches:  # 1-based: the switch between chunks k1 and k1+1
            widths = (min(cfg.fphs_window, self.lengths[k1 - 1]), min(cfg.fphs_window, self.lengths[k1]))
            if not any(w >= 2 and c.flows is None for w, c in zip(widths, traj.chunks[k1 - 1 : k1 + 1])):
                self.spans[k1] = widths
        report = validate_trajectory(traj, self._reduce)
        if not report.is_valid():
            raise ValueError(f"{name} trajectory invalid: " + "; ".join(report.issues))
        self.boxes = {k1: _change_region_bbox(acc, cfg.top_fraction) for k1, acc in self._acc.items()}

    def _reduce(self, chunk: Chunk) -> list[bool]:
        """Reduce the next chunk; returns whether each of its flow fields is finite."""
        ci, cfg, flows = len(self.motion), self.cfg, chunk.flows or ()
        n = len(flows)
        if ci + 1 in self.spans:
            self._acc[ci + 1] = np.zeros(chunk.frames[0].data.shape[:2])
        # The first right - 1 fields feed switch ci, and the last left - 1 feed switch ci + 1.
        left, right = self.spans.get(ci + 1, (0, 0))[0], self.spans.get(ci, (0, 0))[1]
        stats, means = [], []
        for fi, flow in enumerate(flows):
            squares = flow.squared_magnitude()
            fed = [k1 for k1, feeds in ((ci, fi < right - 1), (ci + 1, fi > n - left)) if feeds]
            end = fi in (0, n - 1)
            if fed or end:
                magnitudes = np.sqrt(squares)  # rooted once, before flow_stats sorts the squares
                for k1 in fed:
                    self._acc[k1] += magnitudes
                if end:
                    means.append(float(magnitudes.mean()))
                del magnitudes
            try:
                stats.append(flow_stats(squares, cfg.top_fraction))
            except ValueError:  # a non-finite value, which validate_trajectory reports
                stats.append(None)
            del squares  # before the next field's array is made, so the heap does not grow
        self.motion.append((means[0], means[-1]) if means else None)
        finite = [row is not None for row in stats]
        self.profiles.append(motion_profile(stats, chunk.frames[0], cfg.resample_steps)
                             if stats and all(finite) else None)
        return finite

    @cached_property
    def chunks(self) -> list[np.ndarray]:
        return [embed_frames(c.frames, self.cfg.embedder) for c in self.traj.chunks]

    @cached_property
    def ends(self) -> list[np.ndarray]:
        return [embed_frames(c.frames[-self.cfg.lpsa_window:], self.cfg.embedder) for c in self.traj.chunks]


@dataclass(frozen=True, eq=False)
class ScoringPair:
    """What the metrics read of valid (gen, gt) trajectories with equal chunk count K and frame dims.

    ``sims[i, j]``, held as a read-only copy, is the cosine similarity of whole gen chunk i and
    whole gt chunk j. ``gaps`` holds the (gen, gt) (appearance, motion) gaps of each boundary that
    ``rcbd`` reaches, and ``windows`` the (gen, gt) ``fphs`` window embeddings of each gt span.
    """

    gen: TrajectoryFeatures
    gt: TrajectoryFeatures
    sims: np.ndarray
    gaps: Sequence = ()
    windows: Sequence = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sims", _frozen(self.sims, np.float64))

    @classmethod
    def of(cls, gen: Trajectory, gt: Trajectory | TrajectoryFeatures, cfg: MetricConfig) -> "ScoringPair":
        """Build gen's features, then gt's unless ``gt`` is built already, and check the pair (a ValueError
        names the check). Then join the two sides, the one place that does: embed gen's frame lists, then
        gt's, each side's in the store-key order: whole chunks, boundary frames, end and fphs windows."""
        first = TrajectoryFeatures("gen", gen, cfg)  # before gt's, so that a bad gen is the one named
        truth = gt if isinstance(gt, TrajectoryFeatures) else (
            TrajectoryFeatures("gt", gt, cfg, phase_boundaries(gt)))
        sides, spec, k = (first, truth), cfg.embedder, len(gen.chunks)
        if truth.cfg != cfg:
            raise ValueError("gt features were built with another config")
        if k != len(truth.lengths):
            raise ValueError(f"chunk counts differ: gen K={k}, gt K={len(truth.lengths)}")
        if gen.chunks[0].frames[0].data.shape[:2] != truth.traj.chunks[0].frames[0].data.shape[:2]:
            raise ValueError("gen and gt frame dims differ")
        # rcbd stops at the first boundary beside a chunk that lacks fields on either side
        reach = max(min((c for c in range(k) if not all(side.motion[c] for side in sides)), default=k) - 1, 0)

        def read(side: TrajectoryFeatures) -> tuple:
            chunks, motion = side.traj.chunks, side.motion
            return (side.chunks,
                    [(perceptual_distance(chunks[b].frames[-1], chunks[b + 1].frames[0], spec),
                      abs(motion[b][1] - motion[b + 1][0])) for b in range(reach)],
                    side.ends,
                    [embed_frames(_crop(list(chunks[k1 - 1].frames[-left:] + chunks[k1].frames[:right]),
                                        truth.boxes[k1]), spec) for k1, (left, right) in truth.spans.items()])

        (gen_chunks, gen_gaps, _, gen_windows), (gt_chunks, gt_gaps, _, gt_windows) = map(read, sides)
        return cls(*sides, [[cosine_similarity(a, b) for b in gt_chunks] for a in gen_chunks],
                   list(zip(gen_gaps, gt_gaps)), list(zip(gen_windows, gt_windows)))


def rcbd(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Boundary-dynamics fidelity: geometric mean of appearance and motion gap matches.

    The appearance gap is the perceptual distance between the last frame of a
    chunk and the first frame of the next; the motion gap is the absolute
    difference of the mean flow magnitudes on the two sides (last flow field
    of the left chunk vs. first of the right). Each gap pair is compared with
    ``symmetric_match`` so over-smoothing is penalized like overshoot.
    Absent (with a note) for K < 2 or a boundary without flows on either side.
    """
    k, reached = len(pair.sims), len(pair.gaps)
    if k < 2:
        return _absent("rcbd: needs K >= 2")
    if reached < k - 1:
        return _absent(f"rcbd: missing flows at boundary {reached + 1}")
    per_boundary = [math.sqrt(symmetric_match(b_gen, b_gt, cfg.eps) * symmetric_match(m_gen, m_gt, cfg.eps))
                    for (b_gen, m_gen), (b_gt, m_gt) in pair.gaps]
    return MetricResult(score=float(np.mean(per_boundary)), breakdown=per_boundary)


def lpsa(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Late-prefix alignment: linearly weighted cosine over end-of-chunk windows.

    Chunk k contributes with weight k, so later chunks (which accumulate more
    rollout error) dominate.
    """
    similarities = [cosine_similarity(e_gen, e_gt) for e_gen, e_gt in zip(pair.gen.ends, pair.gt.ends)]
    weights = np.arange(1, len(similarities) + 1, dtype=np.float64)
    score = float(np.dot(weights, similarities) / weights.sum())
    return MetricResult(score=score, breakdown=similarities)


def cisr(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Instruction-step retrieval as mean reciprocal rank.

    Each generated chunk queries all ground-truth chunks (one row of
    ``pair.sims``); the rank of the matching step gives 1/rank. Similarity
    ties count pessimistically (worst rank among the tied entries), so
    constant embeddings never inflate the score.
    """
    reciprocal = []
    for i, sims in enumerate(pair.sims):
        rank = int((sims >= sims[i]).sum())  # ties resolved to the worst rank
        reciprocal.append(1.0 / rank)
    return MetricResult(score=float(np.mean(reciprocal)), breakdown=reciprocal)


def pmpa(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Motion-profile alignment: exp(-delta / tau) per chunk, averaged.

    delta is the mean pointwise L2 distance between the resampled 4-component
    motion profiles of the generated and ground-truth chunk, so it is
    invariant to the resample count. Chunks too short for a profile (T < 2)
    are skipped with a note; a scorable chunk without flows makes it absent.
    """
    gen, gt = pair.gen, pair.gt
    scores, notes = [], []
    for i in range(len(pair.sims)):
        if gen.lengths[i] < 2 or gt.lengths[i] < 2:
            notes.append(f"pmpa: chunk {i} skipped (T < 2)")
            continue
        if gen.profiles[i] is None or gt.profiles[i] is None:
            return _absent(*notes, f"pmpa: missing flows on chunk {i}")
        delta = float(np.linalg.norm(gen.profiles[i] - gt.profiles[i], axis=1).mean())
        scores.append(math.exp(-delta / cfg.tau_pmpa))
    if not scores:
        return _absent(*notes, "pmpa: no scorable chunks")
    return MetricResult(score=float(np.mean(scores)), breakdown=scores, notes=notes)


def cpdm(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Cross-phase margin: sigmoid of (same-step similarity - best opposite-phase similarity).

    Absent (with a note) when the ground truth has a single phase, since no
    opposite-phase negative exists.
    """
    phases = pair.gt.phases
    if len(set(phases)) < 2:
        return _absent("cpdm: single-phase trajectory")
    scores = []
    for i, sims in enumerate(pair.sims):
        r_neg = max(sims[j] for j in range(len(sims)) if phases[j] != phases[i])
        scores.append(_sigmoid((sims[i] - r_neg) / cfg.tau_cpdm))
    return MetricResult(score=float(np.mean(scores)), breakdown=scores)


def fphs(pair: ScoringPair, cfg: MetricConfig) -> MetricResult:
    """Phase-hop consistency in the localized change region at each phase switch.

    Windows of up to ``fphs_window`` frames on each side of the switch are
    cropped to the bounding box of the top-fraction pixels of accumulated
    ground-truth flow magnitude, then compared by window-embedding cosine.
    Absent (with a note) when no phase switch exists.
    """
    if not pair.gt.switches:
        return _absent("fphs: no phase switch")
    notes = [f"fphs: boundary {k1} skipped (missing gt flows)" for k1 in pair.gt.switches if k1 not in pair.gt.spans]
    scores = [cosine_similarity(w_gen, w_gt) for w_gen, w_gt in pair.windows]
    if not scores:
        return _absent(*notes, "fphs: no scorable boundary")
    return MetricResult(score=float(np.mean(scores)), breakdown=scores, notes=notes)


_METRIC_FUNCS = {func.__name__: func for func in (rcbd, lpsa, cisr, pmpa, cpdm, fphs)}
METRIC_NAMES = tuple(_METRIC_FUNCS)


def evaluate_all(gen: Trajectory, gt: Trajectory | TrajectoryFeatures,
                 cfg: MetricConfig | None = None) -> MetricReport:
    """Run every metric on one trajectory pair; ``gt`` may be features built once for many gens.

    Raises ValueError when ``ScoringPair.of`` rejects the pair; metrics whose
    preconditions fail on a valid pair are reported absent with a note.
    Deterministic for a fixed config.
    """
    cfg = cfg or MetricConfig()
    pair = ScoringPair.of(gen, gt, cfg)
    results = {name: func(pair, cfg) for name, func in _METRIC_FUNCS.items()}
    return MetricReport(
        trajectory=gen.id,
        scores={name: r.score for name, r in results.items()},
        breakdowns={name: r.breakdown for name, r in results.items()},
        notes=[note for r in results.values() for note in r.notes],
    )
