from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import matches_from_homography
from wemeval import microsim
from wemeval.camera import estimate_homography, project_pixel_grid, render_camera_flow, reprojection_errors
from wemeval.features import EmbedderSpec, perceptual_distance
from wemeval.manifest import save_manifest
from wemeval.microsim import (
    CameraMotion,
    ChunkSpec,
    ObjectSpec,
    SimConfig,
    SimConfigError,
    default_catalog,
    generate_trajectory,
    mixed_fixture_config,
    perturb_rollout,
)
from wemeval.rollout import PhaseLabel, validate_trajectory

GOLDEN = Path(__file__).parent / "data" / "golden_fixtures.json"


def _nav_config(seed: int = 0, dx: float = 1.0, dy: float = 0.0) -> SimConfig:
    return SimConfig(
        seed=seed, width=32, height=32,
        chunks=(ChunkSpec(PhaseLabel.NAV, 4, camera=CameraMotion("translate", dx=dx, dy=dy)),),
    )


def _manip_config(seed: int = 0, motion=(0.0, 1.0)) -> SimConfig:
    return SimConfig(
        seed=seed, width=32, height=32,
        chunks=(ChunkSpec(PhaseLabel.MANIP, 4, object_motion=motion),),
        objects=(ObjectSpec("disk", 3.0, 0.9, (14.0, 12.0)),),
    )


class TestGeneration:
    def test_nav_translation_flow_is_constant_and_masks_world_only(self):
        traj, gt = generate_trajectory(_nav_config())
        glyph = gt.masks[0][0].data.astype(bool)  # nav masks hold only the gripper glyph
        for flow in traj.chunks[0].flows:
            assert np.allclose(flow.u, 1.0) and np.allclose(flow.v, 0.0)
        for mask in traj.chunks[0].masks:
            assert np.array_equal(mask.data.astype(bool), glyph)
        assert glyph.any() and not glyph.all()

    def test_manip_residual_flow_matches_object_support(self):
        traj, gt = generate_trajectory(_manip_config())
        for obj_flow, mask in zip(gt.object_flows[0], gt.masks[0][:-1]):
            support = (np.hypot(obj_flow.u, obj_flow.v) > 0).astype(bool)
            assert support.any()
            assert np.allclose(obj_flow.v[support], 1.0)
            assert np.allclose(obj_flow.u[support], 0.0)
            assert (mask.data.astype(bool) | ~support).all()  # support subset of ego mask

    def test_camera_flow_consistent_with_recorded_homography(self):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=3, size=32, t=4))
        for ci in range(len(traj.chunks)):
            for cam, hom in zip(gt.camera_flows[ci], gt.homographies[ci]):
                rendered = render_camera_flow(hom, 32, 32)
                assert np.abs(rendered.u - cam.u.astype(np.float64)).max() <= 1e-6
                assert np.abs(rendered.v - cam.v.astype(np.float64)).max() <= 1e-6

    def test_full_flow_is_exact_sum_of_components(self):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=4, size=32, t=4))
        for ci, chunk in enumerate(traj.chunks):
            for full, cam, obj in zip(chunk.flows, gt.camera_flows[ci], gt.object_flows[ci]):
                assert np.array_equal(
                    full.u.astype(np.float64), cam.u.astype(np.float64) + obj.u.astype(np.float64)
                )
                assert np.array_equal(
                    full.v.astype(np.float64), cam.v.astype(np.float64) + obj.v.astype(np.float64)
                )

    def test_same_seed_is_bit_identical(self):
        a, _ = generate_trajectory(mixed_fixture_config(seed=9, size=32, t=3))
        b, _ = generate_trajectory(mixed_fixture_config(seed=9, size=32, t=3))
        for ca, cb in zip(a.chunks, b.chunks):
            for fa, fb in zip(ca.frames, cb.frames):
                assert np.array_equal(fa.data, fb.data)
            for la, lb in zip(ca.flows, cb.flows):
                assert np.array_equal(la.u, lb.u) and np.array_equal(la.v, lb.v)

    def test_generated_trajectories_validate(self):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=11, size=32, t=3))
        assert validate_trajectory(traj).is_valid()

    def test_homography_recoverable_from_fixture(self):
        _, gt = generate_trajectory(_nav_config(seed=5, dx=1.0, dy=-0.5))
        hom = gt.homographies[0][0]
        matches = matches_from_homography(hom, 32, 32, 30, seed=6)
        recovered, _ = estimate_homography(matches, threshold=1.0, iterations=300, seed=7)
        assert reprojection_errors(recovered, matches).max() <= 1e-4

    def test_object_leaving_bounds_is_config_error(self):
        cfg = SimConfig(
            seed=0, width=32, height=32,
            chunks=(ChunkSpec(PhaseLabel.MANIP, 8, object_motion=(4.0, 0.0)),),
            objects=(ObjectSpec("disk", 3.0, 0.9, (20.0, 12.0)),),
        )
        with pytest.raises(SimConfigError, match="leaves frame bounds"):
            generate_trajectory(cfg)

    @pytest.mark.parametrize("chunk, message", [
        (ChunkSpec(PhaseLabel.MANIP, 8, object_motion=(3.0, 0.0)),
         "chunk 1 frame 4: ego object leaves frame bounds"),
        (ChunkSpec(PhaseLabel.NAV, 6, camera=CameraMotion("translate", dx=0.0, dy=3.0)),
         "chunk 1 frame 4: ego object leaves frame bounds"),
    ], ids=["object-motion", "camera-motion"])
    def test_object_leaving_bounds_in_a_later_chunk_names_it(self, chunk, message):
        cfg = SimConfig(
            seed=0, width=32, height=32,
            chunks=(ChunkSpec(PhaseLabel.MANIP, 4, object_motion=(0.0, 1.0)), chunk),
            objects=(ObjectSpec("disk", 3.0, 0.9, (14.0, 12.0)),),
        )
        with pytest.raises(SimConfigError) as excinfo:
            generate_trajectory(cfg)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: _nav_config(seed=-1), "seed must be an int >= 0"),
        (lambda: _nav_config(seed=math.inf), "seed must be an int >= 0"),
        (lambda: _nav_config(seed=True), "seed must be an int >= 0"),
        (lambda: _nav_config(dx=math.inf), "camera motion must be finite"),
        (lambda: _nav_config(dy=math.nan), "camera motion must be finite"),
        (lambda: CameraMotion("zoom", factor=0.0), "positive zoom factor"),
        (lambda: _manip_config(motion=(0.0, -math.inf)), "finite object motion"),
        (lambda: _manip_config(motion=(1.0,)), "finite object motion"),
        (lambda: ObjectSpec("disk", math.inf, 0.9, (14.0, 12.0)), "size must be positive and finite"),
        (lambda: ObjectSpec("disk", 3.0, 0.9, (14.0, math.nan)), "finite \\(x, y\\)"),
        (lambda: dataclasses.replace(_nav_config(), noise_sigma=math.nan), "noise_sigma must be finite"),
        (lambda: ObjectSpec("star", 3.0, 0.9, (14.0, 12.0)), "unknown object shape"),
        (lambda: ObjectSpec("disk", 3.0, 1.5, (14.0, 12.0)), "intensity must be in"),
        (lambda: CameraMotion("spin"), "unknown camera motion"),
        (lambda: ChunkSpec(PhaseLabel.NAV, 4), "needs a camera motion"),
        (lambda: ChunkSpec(PhaseLabel.NAV, 4, camera=CameraMotion("translate", dx=1.0), object_motion=(0.0, 1.0)),
         "must not move objects"),
        (lambda: ChunkSpec(PhaseLabel.MANIP, 4, camera=CameraMotion("translate", dx=1.0),
                           object_motion=(0.0, 1.0)), "must hold the camera"),
        (lambda: dataclasses.replace(_nav_config(), chunks=()), "at least one chunk"),
        (lambda: dataclasses.replace(_manip_config(), ego_object=1), "valid ego_object"),
    ], ids=["negative-seed", "infinite-seed", "bool-seed", "infinite-dx", "nan-dy", "zero-zoom",
            "infinite-object-motion", "short-object-motion", "infinite-size", "nan-position",
            "nan-noise", "unknown-shape", "intensity-above-one", "unknown-camera-motion",
            "nav-without-camera", "nav-moving-objects", "manip-moving-camera", "no-chunks",
            "ego-object-out-of-range"])
    def test_bad_spec_is_refused_at_construction(self, build, message):
        with pytest.raises(SimConfigError, match=message):
            build()

    def test_large_seed_is_accepted(self):
        traj, _ = generate_trajectory(_nav_config(seed=2**70))
        assert traj.id == f"sim-{2**70}"

    def test_default_catalog_covers_all_phase_mixes(self):
        entries = default_catalog(size=32, t=4)
        assert len(entries) >= 20
        kinds = set()
        for _, cfg in entries:
            phases = {c.phase for c in cfg.chunks}
            if phases == {PhaseLabel.NAV}:
                kinds.add("nav")
            elif phases == {PhaseLabel.MANIP}:
                kinds.add("manip")
            else:
                kinds.add("mixed")
            generate_trajectory(cfg)  # every catalog entry must render
        assert kinds == {"nav", "manip", "mixed"}


@pytest.fixture(scope="module")
def fixture():
    return generate_trajectory(mixed_fixture_config(seed=21, size=32, t=4))


class TestPerturbations:
    def test_zero_magnitude_is_identity(self, fixture):
        traj, gt = fixture
        for kind in ("frame-noise", "chunk-shuffle", "phase-swap", "boundary-smooth"):
            assert perturb_rollout(traj, gt, kind, 0.0, seed=1) is traj

    def test_unknown_kind_rejected(self, fixture):
        traj, gt = fixture
        with pytest.raises(ValueError, match="unknown perturbation"):
            perturb_rollout(traj, gt, "melt", 1.0, seed=1)

    @pytest.mark.parametrize("kind, magnitude, message", [
        ("frame-noise", -0.1, "magnitude must be >= 0"),
        ("chunk-shuffle", 1.0, "chunk-shuffle needs K >= 2"),
        ("boundary-smooth", 1.0, "boundary-smooth needs K >= 2"),
    ], ids=["negative-magnitude", "shuffle-one-chunk", "smooth-one-chunk"])
    def test_bad_request_rejected(self, kind, magnitude, message):
        traj, gt = generate_trajectory(_nav_config())  # one chunk
        with pytest.raises(ValueError, match=message):
            perturb_rollout(traj, gt, kind, magnitude, seed=1)

    def test_chunk_shuffle_is_a_derangement(self, fixture):
        traj, gt = fixture
        shuffled = perturb_rollout(traj, gt, "chunk-shuffle", 1.0, seed=3)
        originals = [c.instruction for c in traj.chunks]
        moved = [c.instruction for c in shuffled.chunks]
        assert sorted(originals) == sorted(moved)
        assert all(a != b for a, b in zip(originals, moved))

    def test_frame_noise_perturbs_frames_but_keeps_flows(self, fixture):
        traj, gt = fixture
        noisy = perturb_rollout(traj, gt, "frame-noise", 0.1, seed=4)
        assert not np.array_equal(noisy.chunks[0].frames[0].data, traj.chunks[0].frames[0].data)
        assert noisy.chunks[0].flows is traj.chunks[0].flows
        assert validate_trajectory(noisy).is_valid()

    def test_phase_swap_flips_exactly_one_chunk(self, fixture):
        traj, gt = fixture
        swapped = perturb_rollout(traj, gt, "phase-swap", 1.0, seed=5)
        diffs = [a.phase != b.phase for a, b in zip(traj.chunks, swapped.chunks)]
        assert sum(diffs) == 1

    def test_boundary_smooth_shrinks_the_appearance_gap(self):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=22, size=32, t=4))
        spec = EmbedderSpec()
        smoothed = perturb_rollout(traj, gt, "boundary-smooth", 1.0, seed=6)
        changed = [
            i for i in range(len(traj.chunks))
            if not np.array_equal(smoothed.chunks[i].frames[-1].data, traj.chunks[i].frames[-1].data)
        ]
        assert len(changed) == 1
        k = changed[0]
        before = perceptual_distance(traj.chunks[k].frames[-1], traj.chunks[k + 1].frames[0], spec)
        after = perceptual_distance(
            smoothed.chunks[k].frames[-1], smoothed.chunks[k + 1].frames[0], spec
        )
        assert after < before


class TestStaticLayer:
    """The static scene is drawn once per camera pose and shared by every frame at it."""

    def _draws(self, monkeypatch, cfg):
        layers = []
        value_noise = microsim._value_noise

        def recording(x, y, seed, scale=8.0):
            layers.append(value_noise(x, y, seed, scale))
            return layers[-1]

        monkeypatch.setattr(microsim, "_value_noise", recording)
        traj, _ = generate_trajectory(cfg)
        return traj, layers

    def test_manip_only_config_draws_the_scene_once(self, monkeypatch):
        cfg = dict(default_catalog(size=32, t=4))["manip-00"]
        traj, layers = self._draws(monkeypatch, cfg)
        assert len(layers) == 1 and sum(len(c.frames) for c in traj.chunks) == 8

    def test_mixed_config_draws_once_per_nav_frame(self, monkeypatch):
        # Each manip chunk follows a nav chunk and holds its last pose.
        cfg = dict(default_catalog(size=32, t=4))["mixed-00"]
        _, layers = self._draws(monkeypatch, cfg)
        assert len(layers) == sum(c.steps for c in cfg.chunks if c.phase is PhaseLabel.NAV) == 8

    def test_a_manip_run_before_any_nav_draws_once(self, monkeypatch):
        manip = ChunkSpec(PhaseLabel.MANIP, 3, object_motion=(0.0, 1.0))
        nav = ChunkSpec(PhaseLabel.NAV, 3, camera=CameraMotion("translate", dx=1.0, dy=0.0))
        cfg = dataclasses.replace(_manip_config(), chunks=(manip, manip, nav, manip))
        _, layers = self._draws(monkeypatch, cfg)
        assert len(layers) == 1 + 3

    def test_sensor_noise_is_fresh_per_frame(self):
        traj, gt = generate_trajectory(dataclasses.replace(_manip_config(), noise_sigma=0.02))
        frames, masks = traj.chunks[0].frames, gt.masks[0]
        for a, b, ma, mb in zip(frames, frames[1:], masks, masks[1:]):
            world = ~(ma.data.astype(bool) | mb.data.astype(bool))
            assert not np.array_equal(a.data[world], b.data[world])

    def test_cached_layer_is_read_only(self, monkeypatch):
        _, layers = self._draws(monkeypatch, dict(default_catalog(size=32, t=4))["mixed-00"])
        for layer in layers:
            assert not layer.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                layer += 1.0


def _sidecar_digests(traj, pattern: str = "*.bin") -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        save_manifest(traj, Path(tmp) / "manifest.json")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(tmp).glob(pattern))}


def _truth_digest(gt) -> str:
    """One SHA-256 over every phase, mask, flow component and homography of a
    ``GroundTruth``, chunk by chunk."""
    digest = hashlib.sha256()
    for ci, phase in enumerate(gt.phases):
        digest.update(phase.value.encode())
        for mask in gt.masks[ci]:
            digest.update(mask.data.tobytes())
        for flow in (*gt.camera_flows[ci], *gt.object_flows[ci]):
            digest.update(flow.data.tobytes())
        for h in gt.homographies[ci]:
            digest.update(h.h.tobytes())
    return digest.hexdigest()


def _golden_fixtures() -> dict:
    """The SHA-256 of every sidecar that ``save_manifest`` writes for the
    fixtures in ``tests/data/golden_fixtures.json``.

    ``catalog`` holds the translate-only and manip catalog entries at
    ``<size>x<frames>``: their poses are translations, which every LAPACK
    inverts exactly. ``truth`` holds the ``_truth_digest`` of the same
    entries' ground truth. ``noisy`` holds the frame sidecars of ``mixed-00``
    at 32x4 under ``perturb_rollout`` frame-noise (magnitude 0.05, seed 3) and
    rendered with ``noise_sigma=0.02``.
    """
    golden: dict = {"catalog": {}, "truth": {}}
    for size, t in ((32, 4), (64, 6)):
        for name, cfg in default_catalog(size=size, t=t):
            if name.startswith(("mixed-", "manip-")) or name in ("nav-00", "nav-01", "nav-02"):
                traj, truth = generate_trajectory(cfg)
                golden["catalog"].setdefault(f"{size}x{t}", {})[name] = _sidecar_digests(traj)
                golden["truth"].setdefault(f"{size}x{t}", {})[name] = _truth_digest(truth)
    cfg = dict(default_catalog(size=32, t=4))["mixed-00"]
    traj, truth = generate_trajectory(cfg)
    golden["noisy"] = {
        "frame-noise": _sidecar_digests(perturb_rollout(traj, truth, "frame-noise", 0.05, 3),
                                        "*frames.bin"),
        "noise-sigma": _sidecar_digests(
            generate_trajectory(dataclasses.replace(cfg, noise_sigma=0.02))[0], "*frames.bin"),
    }
    return golden


def test_fixture_bytes_match_golden():
    """The simulator's output bytes are pinned; regenerate the file only for an
    intended output change, with ``PYTHONPATH=src python tests/test_microsim.py``."""
    assert _golden_fixtures() == json.loads(GOLDEN.read_text())


def _reference_noise(x, y, seed, scale=8.0):
    """Value noise with four ``_hash01`` calls per pixel, one per cell corner."""
    gx, gy = np.floor(x / scale), np.floor(y / scale)
    fx, fy = x / scale - gx, y / scale - gy
    sx = fx * fx * (3.0 - 2.0 * fx)
    sy = fy * fy * (3.0 - 2.0 * fy)
    v00 = microsim._hash01(gx, gy, seed)
    v10 = microsim._hash01(gx + 1, gy, seed)
    v01 = microsim._hash01(gx, gy + 1, seed)
    v11 = microsim._hash01(gx + 1, gy + 1, seed)
    top = v00 + (v10 - v00) * sx
    bottom = v01 + (v11 - v01) * sx
    return top + (bottom - top) * sy


def _pose(angle: float, zoom: float, tx: float, ty: float, cx: float, cy: float) -> np.ndarray:
    """Rotate by ``angle`` and scale by ``zoom`` about (cx, cy), then translate."""
    c, s = zoom * math.cos(angle), zoom * math.sin(angle)
    return np.array([[c, -s, cx - c * cx + s * cy + tx], [s, c, cy - s * cx - c * cy + ty], [0, 0, 1]])


class TestValueNoise:
    """The lattice-table noise equals the per-pixel reference bit for bit."""

    def _noise(self, monkeypatch, pose, width, height, seed):
        calls = []
        hash01 = microsim._hash01

        def counting(ix, iy, s):
            calls.append(np.broadcast(ix, iy).size)
            return hash01(ix, iy, s)

        monkeypatch.setattr(microsim, "_hash01", counting)
        _, _, px, py = project_pixel_grid(np.linalg.inv(pose), width, height)
        got = microsim._value_noise(px, py, seed)
        monkeypatch.setattr(microsim, "_hash01", hash01)
        assert np.array_equal(got, _reference_noise(px, py, seed))
        return calls

    def test_random_affine_poses_use_the_table(self, monkeypatch):
        rng = np.random.default_rng(12)
        for trial in range(60):
            width, height = (int(v) for v in rng.integers(16, 97, 2))
            angle = 0.0 if trial % 4 == 0 else rng.uniform(-math.pi, math.pi)
            zoom = 1.0 if trial % 4 < 2 else rng.uniform(0.5, 3.0)
            tx, ty = rng.uniform(-300, 300, 2) if trial % 2 else rng.integers(-40, 40, 2)
            pose = _pose(angle, zoom, tx, ty, (width - 1) / 2, (height - 1) / 2)
            calls = self._noise(monkeypatch, pose, width, height, int(rng.integers(2**31)))
            assert len(calls) == 1 and calls[0] <= width * height  # one table, no larger than the frame

    def test_far_zoom_out_hashes_per_pixel_in_bounded_memory(self, monkeypatch):
        pose = _pose(0.3, 1 / 64, 5.0, -7.0, 15.5, 15.5)  # 32 px span about 312 x 312 cells
        calls = self._noise(monkeypatch, pose, 32, 32, 99)
        assert calls == [32 * 32] * 4
        _, _, px, py = project_pixel_grid(np.linalg.inv(pose), 32, 32)
        tracemalloc.start()
        try:
            microsim._value_noise(px, py, 99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19  # the box's table alone would take 760 KiB


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_fixtures(), indent=1, sort_keys=True) + "\n")
