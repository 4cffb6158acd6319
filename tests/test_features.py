from __future__ import annotations

import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wemeval.features import (
    EmbedderSpec,
    EmbeddingStore,
    _gray,
    cosine_similarity,
    embed_frames,
    frame_content_key,
    perceptual_distance,
)
from wemeval.rollout import Frame


def _frame(value: float, h: int = 8, w: int = 8) -> Frame:
    return Frame(data=np.full((h, w, 1), value, dtype=np.float32))


def _textured(seed: int, h: int = 8, w: int = 8) -> Frame:
    rng = np.random.default_rng(seed)
    return Frame(data=rng.random((h, w, 1)).astype(np.float32))


class TestReferenceEmbedder:
    def test_uniform_gray_frame_closed_form(self):
        spec = EmbedderSpec(grid=2)
        v = embed_frames([_frame(0.5)], spec)
        # Pre-normalization: four cell means of 0.5 and four zero stds.
        assert v.shape == (8,)
        assert np.allclose(v[:4], 0.5) and np.allclose(v[4:], 0.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_identical_inputs_embed_identically(self):
        spec = EmbedderSpec(grid=4)
        a = embed_frames([_textured(1), _textured(2)], spec)
        b = embed_frames([_textured(1), _textured(2)], spec)
        assert np.array_equal(a, b)
        assert cosine_similarity(a, b) == pytest.approx(1.0)

    def test_all_black_frames_embed_to_zero(self):
        v = embed_frames([_frame(0.0)], EmbedderSpec(grid=4))
        assert not v.any()

    def test_frame_order_does_not_matter(self):
        spec = EmbedderSpec(grid=4)
        frames = [_textured(s) for s in range(4)]
        a = embed_frames(frames, spec)
        b = embed_frames(frames[::-1], spec)
        assert np.allclose(a, b, atol=1e-15)

    def test_empty_frame_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            embed_frames([], EmbedderSpec())

    def test_grid_clamps_to_small_frames(self):
        v = embed_frames([_textured(0, h=3, w=5)], EmbedderSpec(grid=8))
        assert v.shape == (2 * 3 * 3,)

    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        grid=st.integers(1, 10),
        n_frames=st.integers(1, 3),
        channels=st.sampled_from([1, 3]),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_dims_match_oracle(self, h, w, grid, n_frames, channels, uniform, seed):
        rng = np.random.default_rng(seed)
        shape = (1, 1, 1) if uniform else (h, w, channels)
        frames = [Frame(data=np.broadcast_to(rng.random(shape), (h, w, channels)))
                  for _ in range(n_frames)]
        got = embed_frames(frames, EmbedderSpec(grid=grid))
        assert got.shape == (2 * min(grid, h, w) ** 2,)
        assert np.abs(got - oracle.embed(frames, grid)).max() <= 1e-12

    @given(
        h=st.integers(1, 24),
        w=st.integers(1, 24),
        scales=st.lists(st.sampled_from([1.0, 2.0**-30, 2.0**-60]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_channel_grayscale_equals_channel_mean(self, h, w, scales, seed):
        # Channels of f32 values within 2**29 of each other sum exactly in f64;
        # scaling them apart makes the summation order show in the result.
        f = Frame(data=np.random.default_rng(seed).random((h, w, 3)) * scales)
        assert np.array_equal(_gray(f), f.data.astype(np.float64).mean(axis=2))


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite_vectors(self):
        v = np.array([0.3, -0.7])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_zero_norm_convention(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            cosine_similarity(np.zeros(3), np.zeros(4))

    @given(
        vec=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=8),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, vec, scale):
        a = np.asarray(vec)
        assume(np.linalg.norm(a) > 1e-6)  # denormal norms underflow and hit the zero convention
        b = np.linspace(-1.0, 1.0, a.size)
        assert cosine_similarity(scale * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)


class TestPerceptualDistance:
    def test_identical_frames_distance_zero(self):
        f = _textured(5)
        assert perceptual_distance(f, f, EmbedderSpec()) == 0.0

    def test_uniform_intensities_are_indistinguishable(self):
        # Cosine is scale-invariant, so two uniform frames normalize to the
        # same direction regardless of their gray level.
        spec = EmbedderSpec(grid=1)
        assert perceptual_distance(_frame(0.25), _frame(0.75), spec) == pytest.approx(0.0)

    def test_negative_of_textured_frame_is_distant(self):
        spec = EmbedderSpec(grid=4)
        f = _textured(11)
        negative = Frame(data=(1.0 - f.data))
        d = perceptual_distance(f, negative, spec)
        assert 0.0 < d <= 2.0

    def test_two_black_frames_distance_zero(self):
        assert perceptual_distance(_frame(0.0), _frame(0.0), EmbedderSpec()) == 0.0

    def test_symmetry(self):
        a, b = _textured(1), _textured(2)
        spec = EmbedderSpec(grid=4)
        assert perceptual_distance(a, b, spec) == pytest.approx(perceptual_distance(b, a, spec))


class TestExternalStore:
    def test_lookup_round_trip(self, tmp_path):
        frames = [_textured(3)]
        key = frame_content_key(frames)
        vec = np.array([3.0, 4.0], dtype=np.float32)
        EmbeddingStore.write(tmp_path / "index.json", {key: vec, "other": np.ones(5, dtype=np.float32)})
        spec = EmbedderSpec(kind="external-file", source=str(tmp_path / "index.json"))
        got = embed_frames(frames, spec)
        assert np.allclose(got, [0.6, 0.8])  # L2-normalized on load

    def test_missing_key_raises(self, tmp_path):
        EmbeddingStore.write(tmp_path / "index.json", {"k": np.ones(2, dtype=np.float32)})
        spec = EmbedderSpec(kind="external-file", source=str(tmp_path / "index.json"))
        with pytest.raises(KeyError, match="not found"):
            embed_frames([_textured(1)], spec)

    def test_spec_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            EmbedderSpec(kind="external-file")
