"""Benchmark workloads: what each one generates, and the input properties it reports.

Set-up is everything a user does before ``wemeval eval`` can run: simulate the
fixtures, write manifests and sidecars, write the pairs file and, for
``external-store``, build the embedding store. The program under test only
ever sees the generated files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wemeval import features, formats
from wemeval.manifest import save_manifest
from wemeval.metrics import METRIC_NAMES, MetricConfig, evaluate_all
from wemeval.microsim import default_catalog, generate_trajectory, mixed_fixture_config, perturb_rollout

from tracing import patched

PERTURB_KINDS = ("frame-noise", "chunk-shuffle", "phase-swap", "boundary-smooth")
PERTURB_MAGNITUDE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # frame side in pixels
    frames: int  # frames per chunk
    batch: int  # pairs of mixed K=4 fixtures; 0 means the built-in catalog
    parallel: bool  # --workers nproc instead of --workers 1
    external_store: bool  # --embedder external-file
    catalog_stride: int = 1  # every n-th catalog fixture

    @property
    def catalog(self) -> bool:
        return self.batch == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hd-mixed", size=128, frames=16, batch=0, parallel=False, external_store=False),
        Workload("batch-small", size=32, frames=4, batch=100, parallel=True, external_store=False),
        Workload("external-store", size=64, frames=6, batch=0, parallel=False, external_store=True),
    )
}


def smoke_scale(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    return dataclasses.replace(w, size=32, frames=4, batch=min(w.batch, 6), catalog_stride=5)


@dataclass
class PairSet:
    """One set-up's output: the pairs file and what the checks expect of the report."""

    pairs_file: Path
    gen_ids: list[str]
    gt_phase_counts: list[int]  # distinct phases of each ground truth, in pair order
    store_index: Path | None
    reference_scores: list[dict] | None  # in-process reference-embedder scores, per pair


def _specs(w: Workload, seed: int) -> list:
    """(ground-truth sim config, perturbation kind, perturbation seed) per pair."""
    rng = np.random.default_rng([seed, 0xBE7C])
    if w.catalog:
        entries = [cfg for _, cfg in default_catalog(size=w.size, t=w.frames)][::w.catalog_stride]
        kinds = [PERTURB_KINDS[i % len(PERTURB_KINDS)] for i in range(len(entries))]
    else:
        entries = [mixed_fixture_config(0, size=w.size, t=w.frames)] * w.batch
        kinds = ["frame-noise"] * w.batch
    sim_seeds = rng.choice(2**31, size=len(entries), replace=False)
    perturb_seeds = rng.integers(0, 2**31, size=len(entries))
    return [
        (dataclasses.replace(cfg, seed=int(s)), kind, int(p))
        for cfg, kind, s, p in zip(entries, kinds, sim_seeds, perturb_seeds)
    ]


def build(w: Workload, seed: int, out_dir: Path) -> PairSet:
    """Generate the workload's pairs under ``out_dir``; the timed set-up step."""
    out_dir.mkdir(parents=True)
    store_vectors: dict[str, np.ndarray] = {}
    reference_scores = [] if w.external_store else None
    cfg = MetricConfig()
    entries, gen_ids, phase_counts = [], [], []
    for i, (sim, kind, perturb_seed) in enumerate(_specs(w, seed)):
        gt, truth = generate_trajectory(sim)
        gen = perturb_rollout(gt, truth, kind, PERTURB_MAGNITUDE, perturb_seed)
        pair_dir = f"p{i:03d}"
        save_manifest(gt, out_dir / pair_dir / "gt.json")
        save_manifest(gen, out_dir / pair_dir / "gen.json")
        entries.append({"gen": f"{pair_dir}/gen.json", "gt": f"{pair_dir}/gt.json"})
        gen_ids.append(gen.id)
        phase_counts.append(len({c.phase for c in gt.chunks}))
        if w.external_store:
            reference_scores.append(_record_embeddings(gen, gt, cfg, store_vectors))
    pairs_file = out_dir / "pairs.json"
    pairs_file.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    store_index = None
    if w.external_store:
        store_index = out_dir / "store" / "embeddings.json"
        store_index.parent.mkdir()
        features.EmbeddingStore.write(store_index, store_vectors)
    return PairSet(pairs_file, gen_ids, phase_counts, store_index, reference_scores)


def _record_embeddings(gen, gt, cfg: MetricConfig, vectors: dict[str, np.ndarray]) -> dict:
    """Score one pair with the reference embedder, keeping every embedding it computed.

    The keys are the content keys the external embedder will look up for the
    same frame lists, so the store covers every lookup the six metrics make.
    """
    embed = features.embed_frames

    def recording(frames, spec):
        vector = embed(frames, spec)
        vectors[features.frame_content_key(frames)] = vector
        return vector

    with patched("wemeval", [(features, "embed_frames", recording)]):
        return evaluate_all(gen, gt, cfg).scores


def reference_aggregate(pairs: PairSet) -> dict[str, float | None]:
    """Mean of each metric over the pairs that have it, as ``eval`` aggregates."""
    out = {}
    for name in METRIC_NAMES:
        values = [s[name] for s in pairs.reference_scores if s.get(name) is not None]
        out[name] = float(np.mean(values)) if values else None
    return out


def input_properties(w: Workload, pairs: PairSet) -> dict:
    """Frame size, chunk length, K mix, pair count, working set and payload sharing."""
    base = pairs.pairs_file.parent
    on_disk = sum(p.stat().st_size for p in base.rglob("*") if p.is_file() and "store" not in p.parts)
    k_mix: dict[str, int] = {}
    shared = 0
    for entry in json.loads(pairs.pairs_file.read_text(encoding="utf-8")):
        frame_hashes = []
        for role in ("gen", "gt"):
            manifest = base / entry[role]
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            hashes = set()
            for chunk in doc["chunks"]:
                for frame in formats.read_frame_file(manifest.parent / chunk["frames"]):
                    hashes.add(hashlib.sha256(frame.data.tobytes()).digest())
            frame_hashes.append(hashes)
            if role == "gt":
                phases = "+".join(sorted({c["phase"] for c in doc["chunks"]}))
                key = f"K={len(doc['chunks'])} {phases}"
                k_mix[key] = k_mix.get(key, 0) + 1
        shared += bool(frame_hashes[0] & frame_hashes[1])
    n = len(pairs.gen_ids)
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6
    return {
        "frame_px": [w.size, w.size],
        "frames_per_chunk": w.frames,
        "k_mix": dict(sorted(k_mix.items())),
        "pairs": n,
        "on_disk_mb": on_disk / 1e6,
        "on_disk_mb_per_trajectory": on_disk / 1e6 / (2 * n),
        "ram_mb": ram,
        "working_set_over_ram": on_disk / 1e6 / ram,
        "single_phase_frac": sum(c == 1 for c in pairs.gt_phase_counts) / n,
        "shared_payload_frac": shared / n,
    }
