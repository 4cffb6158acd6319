from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from wemeval import metrics
from wemeval.features import EmbedderSpec, embed_frames
from wemeval.metrics import (
    MetricConfig,
    ScoringPair,
    cisr,
    cpdm,
    evaluate_all,
    fphs,
    lpsa,
    pmpa,
    rcbd,
    symmetric_match,
)
from wemeval.microsim import default_catalog, generate_trajectory, mixed_fixture_config, perturb_rollout
from wemeval.rollout import Chunk, FlowField, Frame, PhaseLabel, Trajectory


def _frame(value: float, h: int = 16, w: int = 16) -> Frame:
    return Frame(data=np.full((h, w, 1), value, dtype=np.float32))


def _textured_frame(seed: int, h: int = 16, w: int = 16) -> Frame:
    rng = np.random.default_rng(seed)
    return Frame(data=rng.random((h, w, 1)).astype(np.float32))


def _uniform_flow(mag: float, h: int = 16, w: int = 16) -> FlowField:
    return FlowField(u=np.full((h, w), mag), v=np.zeros((h, w)))


def _chunk(frames, phase=PhaseLabel.NAV, flows=None) -> Chunk:
    return Chunk(frames=tuple(frames), instruction="", phase=phase,
                 flows=tuple(flows) if flows is not None else None)


def _flow_chunk(frame_seedlist, flow_mags, phase=PhaseLabel.NAV) -> Chunk:
    frames = [_textured_frame(s) for s in frame_seedlist]
    flows = [_uniform_flow(m) for m in flow_mags]
    return _chunk(frames, phase=phase, flows=flows)


class TestSymmetricMatch:
    def test_equal_gaps_score_one(self):
        for c in (0.1, 1.0, 42.0):
            assert symmetric_match(c, c) == pytest.approx(1.0)

    def test_factor_four_ratio(self):
        assert symmetric_match(1.0, 4.0) == pytest.approx(0.25, abs=1e-12)
        assert symmetric_match(4.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    @given(x=st.floats(1e-5, 1e5), y=st.floats(1e-5, 1e5))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_one_only_at_equality(self, x, y):
        s_xy = symmetric_match(x, y)
        assert s_xy == pytest.approx(symmetric_match(y, x), abs=1e-12)
        assert 0.0 < s_xy <= 1.0
        if x == y:
            assert s_xy == 1.0
        elif abs(math.log(x / y)) > 1e-9:
            assert s_xy < 1.0


class TestRcbd:
    def test_identical_trajectories_score_one(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        pair = ScoringPair.of(traj, traj, default_config)
        assert rcbd(pair, default_config).score == pytest.approx(1.0, abs=1e-12)

    def test_motion_gap_ratio_four_gives_half(self, default_config):
        # Same boundary frames on both sides (appearance match = 1); motion
        # gaps 4 px vs 1 px give symmetric match 0.25, boundary score 0.5.
        frames_a = [_textured_frame(1), _textured_frame(2)]
        frames_b = [_textured_frame(3), _textured_frame(4)]
        gen = Trajectory(id="g", chunks=(
            _chunk(frames_a, flows=[_uniform_flow(4.0)]),
            _chunk(frames_b, flows=[_uniform_flow(0.0)]),
        ))
        gt = Trajectory(id="t", chunks=(
            _chunk(frames_a, flows=[_uniform_flow(1.0)]),
            _chunk(frames_b, flows=[_uniform_flow(0.0)]),
        ))
        pair = ScoringPair.of(gen, gt, default_config)
        assert rcbd(pair, default_config).score == pytest.approx(0.5, abs=1e-9)

    def test_single_chunk_not_applicable(self, default_config):
        traj = Trajectory(id="g", chunks=(_flow_chunk([1, 2], [1.0]),))
        result = rcbd(ScoringPair.of(traj, traj, default_config), default_config)
        assert (result.score, result.breakdown) == (None, [])
        assert result.notes == ["rcbd: needs K >= 2"]

    def test_missing_flows_not_applicable(self, default_config):
        gen = Trajectory(id="g", chunks=(
            _chunk([_textured_frame(1), _textured_frame(2)]),
            _chunk([_textured_frame(3), _textured_frame(4)]),
        ))
        result = rcbd(ScoringPair.of(gen, gen, default_config), default_config)
        assert (result.score, result.breakdown) == (None, [])
        assert result.notes == ["rcbd: missing flows at boundary 1"]

    def test_missing_gt_flows_name_their_boundary(self, default_config):
        gen = Trajectory(id="g", chunks=tuple(_flow_chunk([s, s + 1], [1.0]) for s in (1, 3, 5)))
        gt = Trajectory(id="t", chunks=gen.chunks[:2] + (_chunk(gen.chunks[2].frames),))
        result = rcbd(ScoringPair.of(gen, gt, default_config), default_config)
        assert (result.score, result.breakdown) == (None, [])
        assert result.notes == ["rcbd: missing flows at boundary 2"]


class TestLpsa:
    def test_identical_trajectories_score_one(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        pair = ScoringPair.of(traj, traj, default_config)
        assert lpsa(pair, default_config).score == pytest.approx(1.0, abs=1e-12)

    def test_weighted_mean_with_black_mismatches(self, default_config):
        # Black gen chunks embed to the zero vector: cosine 0 against any
        # textured target, giving r = [0, 0, 1] and LPSA = 3/6.
        gt_chunks = [_chunk([_textured_frame(s), _textured_frame(s + 10)]) for s in (1, 2, 3)]
        gen_chunks = [
            _chunk([_frame(0.0), _frame(0.0)]),
            _chunk([_frame(0.0), _frame(0.0)]),
            gt_chunks[2],
        ]
        gen = Trajectory(id="g", chunks=tuple(gen_chunks))
        gt = Trajectory(id="t", chunks=tuple(gt_chunks))
        result = lpsa(ScoringPair.of(gen, gt, default_config), default_config)
        assert result.breakdown == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert result.score == pytest.approx(0.5, abs=1e-12)

    def test_two_chunk_weighting(self, default_config):
        gt_chunks = [_chunk([_textured_frame(s)]) for s in (1, 2)]
        gen = Trajectory(id="g", chunks=(gt_chunks[0], _chunk([_frame(0.0)])))
        gt = Trajectory(id="t", chunks=tuple(gt_chunks))
        pair = ScoringPair.of(gen, gt, default_config)
        assert lpsa(pair, default_config).score == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestCisr:
    def test_identity_with_distinct_chunks(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        pair = ScoringPair.of(traj, traj, default_config)
        assert cisr(pair, default_config).score == pytest.approx(1.0)

    def test_swapped_chunks_rank_second(self, default_config):
        a = _chunk([_textured_frame(1), _textured_frame(2)])
        b = _chunk([_textured_frame(3), _textured_frame(4)])
        gen = Trajectory(id="g", chunks=(b, a))
        gt = Trajectory(id="t", chunks=(a, b))
        pair = ScoringPair.of(gen, gt, default_config)
        assert cisr(pair, default_config).score == pytest.approx(0.5)

    def test_degenerate_constant_embeddings_rank_pessimistically(self, default_config):
        # Uniform chunks all embed to the same direction; every similarity
        # ties at 1, so each correct match takes the worst rank K.
        chunks = tuple(_chunk([_frame(v), _frame(v)]) for v in (0.2, 0.5, 0.8))
        traj = Trajectory(id="g", chunks=chunks)
        pair = ScoringPair.of(traj, traj, default_config)
        assert cisr(pair, default_config).score == pytest.approx(1.0 / 3.0)

    def test_ranks_one_two_three(self, default_config):
        # Every gen chunk repeats texture A, so the rankings follow the gt
        # chunks' similarity to A: rank 1 for A itself, then B (an A blend),
        # then C. Mean reciprocal rank is (1 + 1/2 + 1/3) / 3.
        from wemeval.features import EmbedderSpec, cosine_similarity, embed_frames

        a = _textured_frame(101)
        blend = Frame(data=(0.7 * a.data + 0.3 * _textured_frame(102).data))
        c = _textured_frame(103)
        gt_chunks = (_chunk([a, a]), _chunk([blend, blend]), _chunk([c, c]))
        gen = Trajectory(id="g", chunks=(_chunk([a, a]),) * 3)
        gt = Trajectory(id="t", chunks=gt_chunks)
        spec = EmbedderSpec()
        e = [embed_frames([f, f], spec) for f in (a, blend, c)]
        assert cosine_similarity(e[0], e[1]) > cosine_similarity(e[0], e[2])  # ordering premise
        result = cisr(ScoringPair.of(gen, gt, default_config), default_config)
        assert result.breakdown == pytest.approx([1.0, 0.5, 1.0 / 3.0])
        assert result.score == pytest.approx((1.0 + 0.5 + 1.0 / 3.0) / 3.0, abs=1e-12)


class TestPmpa:
    def test_identical_flows_score_one(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        pair = ScoringPair.of(traj, traj, default_config)
        assert pmpa(pair, default_config).score == pytest.approx(1.0)

    def test_constant_profile_offset(self, default_config):
        # Uniform flow magnitudes a vs b shift the two normalized-magnitude
        # profile components by (a - b) / L each, so delta = sqrt(2)|a - b| / L.
        a, b = 3.0, 1.0
        diag = math.hypot(16, 16)
        gen = Trajectory(id="g", chunks=(_flow_chunk([1, 2, 3], [a, a]),))
        gt = Trajectory(id="t", chunks=(_flow_chunk([1, 2, 3], [b, b]),))
        delta = math.sqrt(2.0) * (a - b) / diag
        expected = math.exp(-delta / default_config.tau_pmpa)
        pair = ScoringPair.of(gen, gt, default_config)
        assert pmpa(pair, default_config).score == pytest.approx(expected, abs=1e-9)

    def test_delta_equal_tau_gives_inverse_e(self):
        cfg = MetricConfig()
        diag = math.hypot(16, 16)
        gap = cfg.tau_pmpa * diag / math.sqrt(2.0)
        gen = Trajectory(id="g", chunks=(_flow_chunk([1, 2], [1.0 + gap]),))
        gt = Trajectory(id="t", chunks=(_flow_chunk([1, 2], [1.0]),))
        pair = ScoringPair.of(gen, gt, cfg)
        assert pmpa(pair, cfg).score == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_short_chunks_are_skipped_with_note(self, default_config):
        gen = Trajectory(id="g", chunks=(_chunk([_textured_frame(1)]),))
        result = pmpa(ScoringPair.of(gen, gen, default_config), default_config)
        assert result.score is None
        assert any("T < 2" in n for n in result.notes)

    def test_missing_flows_not_applicable(self, default_config):
        gen = Trajectory(id="g", chunks=(_chunk([_textured_frame(1), _textured_frame(2)]),))
        result = pmpa(ScoringPair.of(gen, gen, default_config), default_config)
        assert (result.score, result.breakdown) == (None, [])
        assert result.notes == ["pmpa: missing flows on chunk 0"]

    def test_missing_flows_keep_earlier_skip_notes(self, default_config):
        gen = Trajectory(id="g", chunks=(
            _chunk([_textured_frame(1)]),
            _chunk([_textured_frame(2), _textured_frame(3)]),
        ))
        result = pmpa(ScoringPair.of(gen, gen, default_config), default_config)
        assert (result.score, result.breakdown) == (None, [])
        assert result.notes == ["pmpa: chunk 0 skipped (T < 2)", "pmpa: missing flows on chunk 1"]


class TestCpdm:
    def test_equal_margins_give_half(self, default_config):
        # All-uniform chunks embed identically: r+ = r- = 1 at every chunk.
        chunks = (
            _chunk([_frame(0.3), _frame(0.3)], phase=PhaseLabel.NAV),
            _chunk([_frame(0.6), _frame(0.6)], phase=PhaseLabel.MANIP),
        )
        traj = Trajectory(id="g", chunks=chunks)
        pair = ScoringPair.of(traj, traj, default_config)
        assert cpdm(pair, default_config).score == pytest.approx(0.5)

    def test_identity_fixture_beats_half(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        assert cpdm(ScoringPair.of(traj, traj, default_config), default_config).score > 0.5

    def test_single_phase_is_absent_with_note(self, default_config):
        chunks = tuple(_chunk([_textured_frame(s), _textured_frame(s + 5)]) for s in (1, 2))
        pair = ScoringPair.of(Trajectory(id="g", chunks=chunks), Trajectory(id="t", chunks=chunks),
                              default_config)
        result = cpdm(pair, default_config)
        assert result.score is None
        assert any("single-phase" in n for n in result.notes)

    def test_sigmoid_margins(self):
        # sigmoid(+-1) at the documented sharpness; checked through the public
        # breakdown on an engineered pair of near-identical margins.
        assert 1.0 / (1.0 + math.exp(-1.0)) == pytest.approx(0.7311, abs=1e-4)
        assert 1.0 / (1.0 + math.exp(1.0)) == pytest.approx(0.2689, abs=1e-4)


class TestFphs:
    def test_identity_scores_one(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        pair = ScoringPair.of(traj, traj, default_config)
        assert fphs(pair, default_config).score == pytest.approx(1.0, abs=1e-12)

    def test_no_phase_switch_absent_with_note(self, default_config):
        chunks = tuple(_flow_chunk([s, s + 1], [1.0]) for s in (1, 3))
        pair = ScoringPair.of(Trajectory(id="g", chunks=chunks), Trajectory(id="t", chunks=chunks),
                              default_config)
        result = fphs(pair, default_config)
        assert result.score is None
        assert any("no phase switch" in n for n in result.notes)

    def test_change_region_covers_moving_object(self, default_config):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=31, size=32, t=4))
        k1 = 1  # Nav -> Manip switch
        r0, r1, c0, c1 = ScoringPair.of(traj, traj, default_config).gt.boxes[k1]
        moving = np.zeros((32, 32), dtype=bool)
        for obj_flow in gt.object_flows[k1][:3]:
            moving |= np.hypot(obj_flow.u, obj_flow.v) > 0
        rows, cols = np.nonzero(moving)
        assert rows.min() >= r0 and rows.max() < r1
        assert cols.min() >= c0 and cols.max() < c1


    def test_partial_change_region_is_cropped_and_matches_oracle(self, default_config):
        from wemeval.metrics import _crop

        # gt flows are zero but for an 8 x 8 patch, a quarter of the frame, on
        # both sides of the switch: the region is that patch, a strict sub-box.
        patch = np.zeros((16, 16))
        patch[2:10, 4:12] = 1.0
        flows = [FlowField(u=patch, v=0.5 * patch)] * 3

        def traj(name, seed):
            chunks = (_chunk([_textured_frame(seed + i) for i in range(4)], PhaseLabel.NAV, flows),
                      _chunk([_textured_frame(seed + 4 + i) for i in range(4)], PhaseLabel.MANIP, flows))
            return Trajectory(id=name, chunks=chunks)

        gen, gt = traj("g", 100), traj("t", 200)
        pair = ScoringPair.of(gen, gt, default_config)
        bbox = pair.gt.boxes[1]
        assert bbox == (2, 10, 4, 12)
        window = list(gt.chunks[0].frames)
        for frame, crop in zip(window, _crop(window, bbox)):
            assert crop.data.shape == (8, 8, 1) and not crop.data.flags.c_contiguous
            assert np.shares_memory(crop.data, frame.data)
        score = fphs(pair, default_config).score
        assert score == pytest.approx(oracle.fphs(gen, gt, default_config), abs=1e-9)

    def test_whole_frame_region_reduces_no_frame_beyond_the_chunks(self, default_config, monkeypatch):
        from wemeval import features
        from wemeval.metrics import _crop
        from wemeval.rollout import phase_boundaries

        gt, truth = generate_trajectory(mixed_fixture_config(seed=31, size=32, t=4))
        gen = perturb_rollout(gt, truth, "frame-noise", 0.05, seed=3)
        window = list(gt.chunks[0].frames)
        assert _crop(window, (0, 32, 0, 32)) is window

        gray, reduced = features._gray, []
        monkeypatch.setattr(features, "_gray", lambda f: reduced.append(f) or gray(f))
        assert evaluate_all(gen, gt, default_config).scores["fphs"] is not None
        chunk_frames = {id(f) for t in (gen, gt) for c in t.chunks for f in c.frames}
        assert len(reduced) == len(chunk_frames) == 32
        assert {id(f) for f in reduced} == chunk_frames
        switches = phase_boundaries(gt)
        assert switches
        boxes = ScoringPair.of(gen, gt, default_config).gt.boxes
        for k1 in switches:  # camera motion spreads the top 20% over the whole frame
            assert boxes[k1] == (0, 32, 0, 32)


class TestFphsSkipNotes:
    """A gt switch whose window lacks flows is skipped with a note; with none left, fphs is absent."""

    @staticmethod
    def _mixed_gt_without_flows(chunks_without):
        gt, _ = generate_trajectory(dict(default_catalog(size=32, t=4))["mixed-00"])
        chunks = tuple(Chunk(c.frames, c.instruction, c.phase, None, c.masks) if i in chunks_without else c
                       for i, c in enumerate(gt.chunks))
        return gt, Trajectory(id=gt.id, chunks=chunks)

    def test_one_window_without_flows_is_skipped_and_the_rest_scored(self, default_config):
        gen, gt = self._mixed_gt_without_flows({0})  # chunk 0 borders switch 1 alone
        result = fphs(ScoringPair.of(gen, gt, default_config), default_config)
        assert result.notes == ["fphs: boundary 1 skipped (missing gt flows)"]
        assert result.score is not None and len(result.breakdown) == 2
        assert evaluate_all(gen, gt, default_config).notes[-1:] == result.notes

    def test_no_window_with_flows_is_absent(self, default_config):
        gen, gt = self._mixed_gt_without_flows({0, 1, 2, 3})
        result = fphs(ScoringPair.of(gen, gt, default_config), default_config)
        assert result.score is None and result.breakdown == []
        assert result.notes == [f"fphs: boundary {k1} skipped (missing gt flows)" for k1 in (1, 2, 3)] + [
            "fphs: no scorable boundary"]


class TestIdentityScores:
    """What an identical pair (gen equal to gt) scores, as the README states."""

    def test_catalog_self_pairs(self, default_config):
        cpdms = []
        for name, cfg in default_catalog(size=32, t=4):
            traj, _ = generate_trajectory(cfg)
            scores = evaluate_all(traj, traj, default_config).scores
            mixed = name.startswith("mixed-")
            for metric in ("rcbd", "lpsa", "cisr", "pmpa") + (("fphs",) if mixed else ()):
                assert scores[metric] == pytest.approx(1.0, abs=1e-12), (name, metric)
            if not mixed:  # a single phase has no opposite-phase chunk and no switch
                assert scores["cpdm"] is None and scores["fphs"] is None
                continue
            # sigmoid((1 - r_neg) / tau) per chunk: r_neg, the best opposite-phase
            # similarity, is near 1 for chunks of one scene, and at least 0
            # because reference vectors are nonnegative.
            ceiling = 1.0 / (1.0 + math.exp(-1.0 / default_config.tau_cpdm))
            assert 0.5 < scores["cpdm"] < ceiling < 1.0
            cpdms.append(scores["cpdm"])
        assert len(cpdms) == 8
        assert float(np.median(cpdms)) == pytest.approx(0.5484878239077465, abs=1e-9)

    def test_tied_chunk_lowers_cisr_and_zero_frames_have_cosine_zero(self, default_config):
        a = _chunk([_textured_frame(1), _textured_frame(2)])
        b = _chunk([_textured_frame(3), _textured_frame(4)])
        black = _chunk([_frame(0.0), _frame(0.0)], phase=PhaseLabel.MANIP)
        tied = Trajectory(id="t", chunks=(a, a, b))
        assert evaluate_all(tied, tied, default_config).scores["cisr"] == pytest.approx(2.0 / 3.0)
        dark = Trajectory(id="d", chunks=(a, black))
        breakdowns = evaluate_all(dark, dark, default_config).breakdowns
        assert breakdowns["lpsa"] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert breakdowns["cisr"] == pytest.approx([1.0, 0.5])
        assert breakdowns["cpdm"][1] == pytest.approx(0.5)


class TestMetricConfig:
    def test_equal_configs_compare_and_hash_equal(self):
        a = MetricConfig(tau_cpdm=0.1, embedder=EmbedderSpec(grid=4))
        b = MetricConfig(tau_cpdm=0.1, embedder=EmbedderSpec(grid=4))
        assert a == b and hash(a) == hash(b) and a is not b
        assert MetricConfig() == MetricConfig() and hash(MetricConfig()) == hash(MetricConfig())
        others = [MetricConfig(tau_cpdm=0.2, embedder=EmbedderSpec(grid=4)), MetricConfig(tau_cpdm=0.1),
                  MetricConfig(tau_cpdm=0.1, embedder=EmbedderSpec(grid=5))]
        assert all(a != other and not a == other for other in others)
        assert len({a, b, *others}) == 4
        assert a != a.embedder and EmbedderSpec(grid=4) == a.embedder

    def test_repr_names_every_field_and_unknown_keywords_are_refused(self):
        assert repr(EmbedderSpec()) == "EmbedderSpec(kind='reference', grid=8, source=None)"
        assert repr(MetricConfig(eps=1e-3)) == (
            "MetricConfig(lpsa_window=4, fphs_window=4, tau_cpdm=0.05, tau_pmpa=0.5, resample_steps=16, "
            "top_fraction=0.2, eps=0.001, embedder=EmbedderSpec(kind='reference', grid=8, source=None))")
        with pytest.raises(TypeError, match="'tau'"):
            MetricConfig(tau=0.1)


class TestEvaluateAll:
    def test_identity_mixed_fixture(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        report = evaluate_all(traj, traj, default_config)
        for name in ("rcbd", "lpsa", "cisr", "pmpa", "fphs"):
            assert report.scores[name] == pytest.approx(1.0, abs=1e-9)
        assert 0.5 < report.scores["cpdm"] <= 1.0

    def test_windows_and_resample_steps_of_one_are_accepted(self, mixed_identity_pair):
        traj, _ = mixed_identity_pair
        report = evaluate_all(traj, traj, MetricConfig(lpsa_window=1, fphs_window=1, resample_steps=1))
        for name in ("rcbd", "lpsa", "cisr", "pmpa", "fphs"):
            assert report.scores[name] == pytest.approx(1.0, abs=1e-9)
        assert report.scores["cpdm"] is not None

    def test_single_chunk_single_phase_applicability(self, default_config):
        traj = Trajectory(id="one", chunks=(_flow_chunk([1, 2, 3], [1.0, 1.0]),))
        report = evaluate_all(traj, traj, default_config)
        assert report.scores["rcbd"] is None
        assert report.scores["cpdm"] is None
        assert report.scores["fphs"] is None
        assert report.scores["lpsa"] == pytest.approx(1.0)
        assert report.scores["cisr"] == pytest.approx(1.0)
        assert len(report.notes) >= 3

    def test_each_chunk_is_embedded_once(self, default_config, monkeypatch):
        # T = 6 exceeds both windows (4), so only cisr/cpdm embed whole chunks;
        # the perturbed gen shares no frame objects with the ground truth.
        gt, truth = generate_trajectory(mixed_fixture_config(seed=34, size=32, t=6))
        gen = perturb_rollout(gt, truth, "frame-noise", 0.05, seed=3)
        chunks = {tuple(map(id, c.frames)) for traj in (gen, gt) for c in traj.chunks}
        whole_chunk_calls = []

        def counting(frames, spec):
            if tuple(map(id, frames)) in chunks:
                whole_chunk_calls.append(frames)
            return embed_frames(frames, spec)

        monkeypatch.setattr(metrics, "embed_frames", counting)
        report = evaluate_all(gen, gt, default_config)
        assert report.scores["cisr"] is not None and report.scores["cpdm"] is not None
        assert len(whole_chunk_calls) == 2 * len(gt.chunks)

    def test_each_field_and_frame_is_reduced_once_per_trajectory(self, default_config, monkeypatch):
        # T = 6: the lpsa and fphs windows, the boundary frames and both sides
        # of every switch reuse what the chunks' pass reduced.
        from wemeval import features

        gt, truth = generate_trajectory(mixed_fixture_config(seed=35, size=32, t=6))
        gen = perturb_rollout(gt, truth, "frame-noise", 0.05, seed=4)
        squared, gray, built, reduced = FlowField.squared_magnitude, features._gray, [], []
        monkeypatch.setattr(FlowField, "squared_magnitude", lambda f: built.append(f) or squared(f))
        monkeypatch.setattr(features, "_gray", lambda f: reduced.append(f) or gray(f))
        report = evaluate_all(gen, gt, default_config)
        assert None not in report.scores.values()
        fields = [f for t in (gen, gt) for c in t.chunks for f in c.flows]
        assert len(built) == len(fields) == 2 * 4 * 5
        assert sorted(map(id, built)) == sorted(map(id, fields))  # a field both sides hold is built twice
        frames = {id(f) for t in (gen, gt) for c in t.chunks for f in c.frames}
        assert len(reduced) == len(frames) and {id(f) for f in reduced} == frames

    def test_phase_swap_changes_no_score_breakdown_or_note(self, default_config):
        """ROADMAP item 4 ("phase-swap is invisible"), as it stands: no metric
        reads the generated chunks' phase labels, since ``cpdm`` and ``fphs``
        read the ground truth's. Making the kind visible, or dropping it,
        changes this test on purpose."""
        mixed = [cfg for name, cfg in default_catalog(size=32, t=4) if name.startswith("mixed-")]
        assert len(mixed) == 8
        for seed, cfg in enumerate(mixed):
            traj, truth = generate_trajectory(cfg)
            swapped = perturb_rollout(traj, truth, "phase-swap", 1.0, seed=seed)
            assert [c.phase for c in swapped.chunks] != [c.phase for c in traj.chunks]
            clean = evaluate_all(traj, traj, default_config)
            perturbed = evaluate_all(swapped, traj, default_config)
            assert perturbed.scores == clean.scores
            assert perturbed.breakdowns == clean.breakdowns
            assert perturbed.notes == clean.notes

    def test_shuffled_gen_reduces_cisr(self, default_config):
        traj, gt_aux = generate_trajectory(mixed_fixture_config(seed=33, size=32, t=4))
        shuffled = perturb_rollout(traj, gt_aux, "chunk-shuffle", 1.0, seed=2)
        report = evaluate_all(shuffled, traj, default_config)
        assert report.scores["cisr"] < 1.0

    def test_k_mismatch_raises(self, default_config):
        a = Trajectory(id="a", chunks=(_flow_chunk([1, 2], [1.0]),))
        b = Trajectory(id="b", chunks=(_flow_chunk([1, 2], [1.0]), _flow_chunk([3, 4], [1.0])))
        with pytest.raises(ValueError, match="chunk counts differ"):
            evaluate_all(a, b, default_config)

    def test_frame_dims_mismatch_raises(self, default_config):
        small = Trajectory(id="a", chunks=(_flow_chunk([1, 2], [1.0]),))
        large = Trajectory(id="b", chunks=(_chunk([_textured_frame(s, 32, 32) for s in (1, 2)],
                                                  flows=[_uniform_flow(1.0, 32, 32)]),))
        with pytest.raises(ValueError, match="^gen and gt frame dims differ$"):
            ScoringPair.of(small, large, default_config)

    def test_invalid_trajectory_raises(self, default_config):
        bad = Trajectory(id="bad", chunks=(Chunk(frames=(), instruction="", phase=PhaseLabel.NAV),))
        with pytest.raises(ValueError, match="invalid"):
            evaluate_all(bad, bad, default_config)

    def test_metrics_absent_with_notes_when_flows_missing(self, default_config):
        chunks = tuple(
            _chunk([_textured_frame(s), _textured_frame(s + 9)], phase=p)
            for s, p in ((1, PhaseLabel.NAV), (2, PhaseLabel.MANIP))
        )
        traj = Trajectory(id="noflows", chunks=chunks)
        report = evaluate_all(traj, traj, default_config)
        assert report.scores["rcbd"] is None
        assert report.scores["pmpa"] is None
        assert any("missing flows" in n for n in report.notes)
        assert report.scores["lpsa"] == pytest.approx(1.0)

    def test_scores_stay_in_documented_ranges_on_1000_random_pairs(self, default_config):
        # Pool of tiny same-shaped fixtures; 1000 ordered cross-pairs.
        from wemeval.microsim import CameraMotion, ChunkSpec, ObjectSpec, SimConfig

        rng = np.random.default_rng(77)
        pool = []
        for i in range(40):
            chunk_specs = []
            for _ in range(2):
                if rng.random() < 0.5:
                    chunk_specs.append(ChunkSpec(
                        PhaseLabel.NAV, 3,
                        camera=CameraMotion("translate", dx=float(rng.uniform(-1, 1)),
                                            dy=float(rng.uniform(-1, 1))),
                    ))
                else:
                    chunk_specs.append(ChunkSpec(
                        PhaseLabel.MANIP, 3,
                        object_motion=(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                    ))
            sim = SimConfig(seed=1000 + i, width=16, height=16, chunks=tuple(chunk_specs),
                            objects=(ObjectSpec("disk", 2.0, 0.9, (7.0, 6.0)),))
            pool.append(generate_trajectory(sim)[0])
        for _ in range(1000):
            gen = pool[int(rng.integers(len(pool)))]
            gt = pool[int(rng.integers(len(pool)))]
            s = evaluate_all(gen, gt, default_config).scores
            for name in ("rcbd", "cisr", "pmpa", "cpdm"):
                if s[name] is not None:
                    assert 0.0 < s[name] <= 1.0, name
            for name in ("lpsa", "fphs"):
                if s[name] is not None:
                    assert -1.0 <= s[name] <= 1.0, name

    def test_deterministic_for_fixed_config(self, mixed_identity_pair, default_config):
        traj, _ = mixed_identity_pair
        a = evaluate_all(traj, traj, default_config)
        b = evaluate_all(traj, traj, default_config)
        assert a.to_dict() == b.to_dict()
