"""What one pair's scoring does, seen from outside: which external-store keys
it looks up and in what order, how often it reduces each flow field and each
frame, and that a ground truth's features built once score any number of
generated trajectories."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from wemeval import features, metrics
from wemeval.features import EMBEDDER_EXTERNAL, EmbedderSpec, EmbeddingStore, frame_content_key
from wemeval.metrics import MetricConfig, ScoringPair, TrajectoryFeatures, evaluate_all
from wemeval.microsim import default_catalog, generate_trajectory, mixed_fixture_config, perturb_rollout
from wemeval.rollout import FlowField, Frame, Trajectory, phase_boundaries


def _mixed_pair(seed: int, t: int = 6):
    """A 32 px catalog-style mixed gt and a frame-noise gen that shares no frame with it."""
    gt, truth = generate_trajectory(mixed_fixture_config(seed=seed, size=32, t=t))
    return perturb_rollout(gt, truth, "frame-noise", 0.05, seed=seed), gt


def _side_keys(traj: Trajectory, switches: list[int], boxes: dict, cfg: MetricConfig) -> list[str]:
    """The keys of one side's frame lists: whole chunks, the frames across each
    boundary, end windows, then each switch's fphs window cropped to its box."""
    chunks = traj.chunks
    w, lw = cfg.fphs_window, cfg.lpsa_window
    whole = [list(c.frames) for c in chunks]
    boundary = [[f] for b in range(len(chunks) - 1) for f in (chunks[b].frames[-1], chunks[b + 1].frames[0])]
    ends = [list(c.frames[-lw:]) for c in chunks]
    windows = []
    for k1 in switches:
        r0, r1, c0, c1 = boxes[k1]
        window = list(chunks[k1 - 1].frames[-w:]) + list(chunks[k1].frames[:w])
        windows.append([Frame(data=f.data[r0:r1, c0:c1, :]) for f in window])
    return [frame_content_key(frames) for frames in whole + boundary + ends + windows]


class TestStoreLookups:
    """The external-store key contract of one pair (README, scoring pipeline)."""

    @pytest.fixture
    def store_pair(self, tmp_path, monkeypatch):
        gen, gt = _mixed_pair(seed=34)
        switches = phase_boundaries(gt)
        assert switches == [1, 2, 3]
        boxes = ScoringPair.of(gen, gt, MetricConfig()).gt.boxes
        expected = {name: _side_keys(traj, switches, boxes, MetricConfig())
                    for name, traj in (("gen", gen), ("gt", gt))}
        rng = np.random.default_rng(0)
        index = tmp_path / "store.json"
        EmbeddingStore.write(index, {key: rng.random(16) for keys in expected.values() for key in keys})
        cfg = MetricConfig(embedder=EmbedderSpec(kind=EMBEDDER_EXTERNAL, source=str(index)))
        looked_up = []
        lookup = EmbeddingStore.lookup
        monkeypatch.setattr(EmbeddingStore, "lookup",
                            lambda store, key: looked_up.append(key) or lookup(store, key))
        return gen, gt, cfg, expected, looked_up

    def test_gen_keys_then_gt_keys_each_in_pipeline_order(self, store_pair):
        gen, gt, cfg, expected, looked_up = store_pair
        report = evaluate_all(gen, gt, cfg)
        assert None not in report.scores.values()
        sides = ["gen" if key in expected["gen"] else "gt" for key in looked_up]
        assert sides == sorted(sides)  # every gen key before any gt key
        # within a side: whole chunks, boundary frames, end windows, fphs windows
        assert looked_up == expected["gen"] + expected["gt"]

    def test_no_key_is_looked_up_for_a_rejected_pair(self, store_pair):
        gen, gt, cfg, _, looked_up = store_pair
        chunk = gt.chunks[2]
        nan = np.full(chunk.flows[0].u.shape, np.nan, dtype=np.float32)
        broken = dataclasses.replace(chunk, flows=(FlowField(u=nan, v=nan),) + chunk.flows[1:])
        invalid = Trajectory(id="invalid", chunks=gt.chunks[:2] + (broken,) + gt.chunks[3:])
        shorter = Trajectory(id="shorter", chunks=gt.chunks[:-1])
        smaller = generate_trajectory(mixed_fixture_config(seed=34, size=24, t=6))[0]
        for pair, match in (((invalid, gt), "gen trajectory invalid"), ((gen, invalid), "gt trajectory invalid"),
                            ((invalid, invalid), "gen trajectory invalid"),
                            ((gen, shorter), "chunk counts differ"), ((gen, smaller), "frame dims differ")):
            with pytest.raises(ValueError, match=match):
                evaluate_all(*pair, cfg)
            assert looked_up == []


class TestWorkCounts:
    """A perf guard: one evaluate_all reduces each flow field of each side once
    and computes each distinct frame's cell statistics once."""

    @pytest.mark.parametrize("kind", ["frame-noise", "boundary-smooth", "phase-swap"])
    def test_one_reduction_per_field_and_per_distinct_frame(self, kind, monkeypatch):
        name, sim = default_catalog(size=32)[0]
        assert name.startswith("mixed-")
        gt, truth = generate_trajectory(sim)
        gen = perturb_rollout(gt, truth, kind, 0.05 if kind == "frame-noise" else 1.0, seed=7)
        stats, gray, fields, frames = metrics.flow_stats, features._gray, [], []
        monkeypatch.setattr(metrics, "flow_stats", lambda *a: fields.append(a[0]) or stats(*a))
        monkeypatch.setattr(features, "_gray", lambda f: frames.append(f) or gray(f))
        report = evaluate_all(gen, gt, MetricConfig())
        assert None not in report.scores.values()
        assert len(fields) == sum(len(c.flows) for traj in (gen, gt) for c in traj.chunks)
        distinct = {id(f) for traj in (gen, gt) for c in traj.chunks for f in c.frames}
        assert len(frames) == len(distinct) and {id(f) for f in frames} == distinct


class TestBuiltGroundTruth:
    def test_one_gt_scores_many_gens_as_fresh_pairs_do(self, monkeypatch):
        cfg = MetricConfig()
        gt, truth = generate_trajectory(mixed_fixture_config(seed=36, size=32, t=6))
        # frame-noise gens share no frame with the gt, so each call on a gt frame list is the gt's
        gens = [perturb_rollout(gt, truth, "frame-noise", sigma, seed=s) for s, sigma in ((1, 0.05), (2, 0.2))]
        fresh = [evaluate_all(gen, gt, cfg).to_dict() for gen in gens]

        embedded = []
        embed = metrics.embed_frames
        monkeypatch.setattr(metrics, "embed_frames",
                            lambda frames, spec: embedded.append(tuple(map(id, frames))) or embed(frames, spec))
        built = TrajectoryFeatures("gt", gt, cfg, phase_boundaries(gt))
        assert [evaluate_all(gen, built, cfg).to_dict() for gen in gens] == fresh
        calls = Counter(embedded)
        for c in gt.chunks:
            assert calls[tuple(map(id, c.frames))] == 1
            assert calls[tuple(map(id, c.frames[-cfg.lpsa_window:]))] == 1

    def test_a_gt_built_with_another_config_is_refused(self):
        gen, gt = _mixed_pair(seed=37, t=4)
        built = TrajectoryFeatures("gt", gt, MetricConfig(fphs_window=2), phase_boundaries(gt))
        with pytest.raises(ValueError, match="another config"):
            ScoringPair.of(gen, built, MetricConfig())
