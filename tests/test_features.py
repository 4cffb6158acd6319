from __future__ import annotations

import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wemeval import features, formats, metrics
from wemeval.features import (
    EmbedderSpec,
    EmbeddingStore,
    _gray,
    cosine_similarity,
    embed_frames,
    frame_content_key,
    l2_normalize,
    perceptual_distance,
)
from wemeval.microsim import generate_trajectory, mixed_fixture_config, perturb_rollout
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

    def test_frames_of_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="share dims"):
            embed_frames([_frame(0.5), _frame(0.5, h=8, w=6)], EmbedderSpec(grid=2))

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


def _embed_per_call(frames: list[Frame], grid: int) -> np.ndarray:
    """The reference path of ``embed_frames`` without the memo: every frame's
    statistics computed afresh on each call, with freshly built band matrices."""
    h, w = frames[0].height, frames[0].width
    g = min(grid, h, w)
    edges_h, edges_w = np.arange(g + 1) * h // g, np.arange(g + 1) * w // g
    rows = np.zeros((g, h))
    cols = np.zeros((g, w))
    for r in range(g):
        rows[r, edges_h[r]:edges_h[r + 1]] = 1.0
        cols[r, edges_w[r]:edges_w[r + 1]] = 1.0
    counts = np.outer(np.diff(edges_h), np.diff(edges_w))
    mean_acc = np.zeros(g * g)
    std_acc = np.zeros(g * g)
    for f in frames:
        gray = _gray(f)
        means = rows @ gray @ cols.T / counts
        dev = gray - rows.T @ means @ cols
        mean_acc += means.ravel()
        std_acc += np.sqrt(rows @ (dev * dev) @ cols.T / counts).ravel()
    return l2_normalize(np.concatenate([mean_acc, std_acc]) / len(frames))


def _scored_pair(seed: int):
    gt, truth = generate_trajectory(mixed_fixture_config(seed=seed, size=32, t=4))
    return perturb_rollout(gt, truth, "frame-noise", 0.05, seed=seed), gt


class TestFrameStatsMemo:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_reused_rows_equal_per_call_loop(self, channels):
        rng = np.random.default_rng(channels)
        frames = [Frame(data=rng.random((20, 24, channels))) for _ in range(6)]
        crops = [Frame(data=f.data[3:17, 5:21, :]) for f in frames]
        lists = [frames, frames[2:], frames[-3:], frames[::-1], frames[1:4][::-1],
                 [frames[0]] * 3, [frames[1], frames[0], frames[1]], crops, crops[::2],
                 crops[4:] + crops[:2], [crops[3]] * 2]
        for grid in (8, 3, 8):  # a second grid has its own rows; the first is reused after it
            for frame_list in lists:
                got = embed_frames(frame_list, EmbedderSpec(grid=grid))
                assert np.array_equal(got, _embed_per_call(frame_list, grid))

    def test_each_frame_is_reduced_once_per_pair(self, monkeypatch):
        gen, gt = _scored_pair(640)
        reduced, handed = [], []  # strong references, so no id is reused
        gray, embed = features._gray, features.embed_frames

        def recording_gray(f):
            reduced.append(f)
            return gray(f)

        def recording_embed(frames, spec):
            handed.extend(frames)
            return embed(frames, spec)

        monkeypatch.setattr(features, "_gray", recording_gray)
        monkeypatch.setattr(features, "embed_frames", recording_embed)
        monkeypatch.setattr(metrics, "embed_frames", recording_embed)
        metrics.evaluate_all(gen, gt)
        assert len({id(f) for f in reduced}) == len(reduced)
        assert {id(f) for f in reduced} == {id(f) for f in handed}
        whole = [f for traj in (gen, gt) for c in traj.chunks for f in c.frames]
        assert {id(f) for f in whole} <= {id(f) for f in reduced}
        assert len(handed) > len(reduced)  # windows and boundary frames reused their rows

    def test_memo_empties_with_its_trajectories(self):
        gen, gt = _scored_pair(641)
        metrics.evaluate_all(gen, gt)
        kept = [weakref.ref(row) for traj in (gen, gt) for c in traj.chunks for f in c.frames
                for row in f._cells.values()]
        assert len(kept) == sum(len(c.frames) for traj in (gen, gt) for c in traj.chunks)
        del gen, gt
        gc.collect()
        assert not [ref for ref in kept if ref() is not None]

    def test_a_crop_computes_its_own_row_and_a_second_embed_reads_the_stored_one(self, monkeypatch):
        frames = [_textured(seed, h=20, w=24) for seed in range(3)]
        first = embed_frames(frames, EmbedderSpec())
        stored = [f._cells[8] for f in frames]
        reduced = []
        gray = features._gray
        monkeypatch.setattr(features, "_gray", lambda f: reduced.append(f) or gray(f))
        assert np.array_equal(embed_frames(frames, EmbedderSpec()), first) and reduced == []
        assert metrics._crop(frames, (0, 20, 0, 24)) is frames  # a whole-frame box keeps the frames
        crops = metrics._crop(frames, (2, 17, 3, 21))
        cropped = embed_frames(crops, EmbedderSpec())
        assert [id(f) for f in reduced] == [id(c) for c in crops]
        assert np.array_equal(cropped, _embed_per_call(crops, 8))
        assert all(f._cells[8] is row and list(f._cells) == [8] for f, row in zip(frames, stored))
        assert np.array_equal(embed_frames(crops, EmbedderSpec()), cropped) and len(reduced) == len(crops)

    def test_cached_partition_and_rows_are_read_only(self):
        rows, cols, counts = features._bands(20, 24, 8)
        row = features._frame_stats(_textured(3, h=20, w=24), 8)
        for arr in (rows, cols, counts, row):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert features._bands(20, 24, 8)[0] is rows


def _stats_by_old_formula(f: Frame, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell statistics as computed before the row repeat: R.T @ means @ C
    puts each cell's mean back in place, and the deviations are a new array."""
    rows, cols, counts = features._bands(f.height, f.width, grid)
    gray = _gray(f)
    means = rows @ gray @ cols.T / counts
    dev = gray - rows.T @ means @ cols
    return means.ravel(), np.sqrt(rows @ (dev * dev) @ cols.T / counts).ravel()


def _stats_by_pixel_loop(f: Frame, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's mean and population std from its pixels, one at a time."""
    gray = f.data.astype(np.float64).mean(axis=2)
    h, w = gray.shape
    means, stds = [], []
    for r in range(grid):
        for c in range(grid):
            cell = [float(gray[y, x]) for y in range(r * h // grid, (r + 1) * h // grid)
                    for x in range(c * w // grid, (c + 1) * w // grid)]
            mean = math.fsum(cell) / len(cell)
            means.append(mean)
            stds.append(math.sqrt(math.fsum((v - mean) ** 2 for v in cell) / len(cell)))
    return np.array(means), np.array(stds)


def _kernel_frames() -> dict[str, Frame]:
    rng = np.random.default_rng(37)
    parent = Frame(data=rng.random((45, 31, 3)).astype(np.float32))
    return {
        "37x23-gray": Frame(data=rng.random((37, 23, 1)).astype(np.float32)),
        "37x23-rgb": Frame(data=rng.random((37, 23, 3)).astype(np.float32)),
        "37x23-crop": metrics._crop([parent], (4, 41, 5, 28))[0],  # a view of parent's data
        "1xn": Frame(data=rng.random((1, 17, 3)).astype(np.float32)),
        "nx1": Frame(data=rng.random((19, 1, 1)).astype(np.float32)),
        "even-cells": Frame(data=rng.random((32, 16, 3))),
    }


class TestFrameStatsKernel:
    """The row-repeat kernel of ``_frame_stats`` against the formula it replaced."""

    @pytest.mark.parametrize("name", list(_kernel_frames()))
    @pytest.mark.parametrize("grid", [8, 5])
    def test_rows_match_old_formula_bitwise_and_pixel_loop(self, name, grid):
        frame = _kernel_frames()[name]  # a new Frame, with no rows yet
        before = frame.data.copy()
        g = min(grid, frame.height, frame.width)
        means, stds = np.split(features._frame_stats(frame, g), 2)
        old_means, old_stds = _stats_by_old_formula(frame, g)
        assert np.array_equal(means, old_means) and np.array_equal(stds, old_stds)
        loop_means, loop_stds = _stats_by_pixel_loop(frame, g)
        assert np.abs(means - loop_means).max() <= 1e-12
        assert np.abs(stds - loop_stds).max() <= 1e-12
        assert np.array_equal(frame.data, before)

    def test_cell_heights_are_cached_read_only_ints(self):
        heights = features._heights(37, 8)
        assert heights.tolist() == [(r + 1) * 37 // 8 - r * 37 // 8 for r in range(8)]
        assert heights.sum() == 37 and not heights.flags.writeable
        assert features._heights(37, 8) is heights


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

    def test_frames_of_different_dims_rejected(self):
        with pytest.raises(ValueError, match="matching dims"):
            perceptual_distance(_frame(0.5), _frame(0.5, h=6), EmbedderSpec())

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

    def test_content_key_bytes_are_the_frame_payload(self, tmp_path):
        rng = np.random.default_rng(11)
        formats.write_frame_file(tmp_path / "f.bin", [Frame(data=rng.random((12, 10, 3)).astype(np.float32))])
        sidecar = formats.read_frame_file(tmp_path / "f.bin")
        crops = metrics._crop([_textured(5, 12, 10)] + sidecar, (2, 9, 3, 8))
        assert not crops[0].data.flags.c_contiguous  # an fphs crop is a strided view
        for frames in ([_textured(5)], sidecar, crops, [_textured(6), _frame(0.5)]):
            digest = hashlib.sha256()  # the key as stores were written before: one copy per frame
            for f in frames:
                digest.update(np.asarray([f.height, f.width, f.channels], dtype="<u4").tobytes())
                digest.update(f.data.astype("<f4").tobytes())
            assert frame_content_key(frames) == digest.hexdigest()

    def test_missing_key_raises(self, tmp_path):
        EmbeddingStore.write(tmp_path / "index.json", {"k": np.ones(2, dtype=np.float32)})
        spec = EmbedderSpec(kind="external-file", source=str(tmp_path / "index.json"))
        with pytest.raises(KeyError, match="not found"):
            embed_frames([_textured(1)], spec)

    @pytest.mark.parametrize("text, reason", [
        ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[" * 100000 + "]" * 100000, "JSON nested too deeply to decode"),
    ], ids=["not-json", "deep"])
    def test_undecodable_index_names_the_index(self, tmp_path, text, reason):
        index_path = tmp_path / "index.json"
        index_path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            EmbeddingStore(index_path)
        assert str(excinfo.value) == f"embedding index {index_path}: {reason}"

    def test_spec_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            EmbedderSpec(kind="external-file")

    def test_spec_requires_an_existing_index(self, tmp_path):
        with pytest.raises(ValueError, match="external embedder index not found: .*missing.json"):
            EmbedderSpec(kind="external-file", source=str(tmp_path / "missing.json"))

    def test_truncated_blob_names_the_key(self, tmp_path):
        EmbeddingStore.write(tmp_path / "index.json", {"k": np.ones(3, dtype=np.float32)})
        (tmp_path / "index.blob").write_bytes(b"\0" * 11)  # one byte short of three f32 values
        with pytest.raises(ValueError, match="embedding blob truncated for key 'k'"):
            EmbeddingStore(tmp_path / "index.json").lookup("k")

    def test_one_store_per_index_and_one_resolve_per_spelling(self, tmp_path, monkeypatch):
        frames = [_textured(4)]
        EmbeddingStore.write(tmp_path / "index.json", {frame_content_key(frames): np.ones(3)})
        (tmp_path / "sub").mkdir()
        spellings = [str(tmp_path / "index.json"), str(tmp_path / "sub" / ".." / "index.json")]
        resolved = []
        resolve = Path.resolve

        def counting(self, *args, **kwargs):
            resolved.append(str(self))
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting)
        for _ in range(3):
            for source in spellings:
                embed_frames(frames, EmbedderSpec(kind="external-file", source=source))
        assert [s for s in resolved if s in spellings] == spellings
        assert features._store_named(spellings[0]) is features._store_named(spellings[1])
