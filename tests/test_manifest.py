from __future__ import annotations

import json
import os
import signal
import sys

import numpy as np
import pytest

from wemeval import formats
from wemeval.manifest import ManifestError, load_manifest, save_manifest
from wemeval.microsim import generate_trajectory, mixed_fixture_config
from wemeval.rollout import Chunk, FlowField, Frame, PhaseLabel, Trajectory, WorldEgoMask


@pytest.fixture(scope="module")
def fixture_traj():
    traj, _ = generate_trajectory(mixed_fixture_config(seed=7, size=32, t=3))
    return traj


class TestBinaryFormats:
    def test_flow_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fields = [FlowField(u=rng.normal(size=(5, 7)), v=rng.normal(size=(5, 7))) for _ in range(3)]
        formats.write_flow_file(tmp_path / "f.bin", fields)
        loaded = formats.read_flow_file(tmp_path / "f.bin")
        assert len(loaded) == 3
        for a, b in zip(fields, loaded):
            assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_mask_round_trip(self, tmp_path):
        masks = [WorldEgoMask(data=np.eye(6, dtype=np.uint8)) for _ in range(2)]
        formats.write_mask_file(tmp_path / "m.bin", masks)
        loaded = formats.read_mask_file(tmp_path / "m.bin")
        assert np.array_equal(loaded[1].data, masks[1].data)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(formats.FormatError, match="bad magic"):
            formats.read_flow_file(path)

    def test_truncated_payload_raises(self, tmp_path):
        frames = [Frame(data=np.zeros((4, 4, 1), dtype=np.float32))]
        path = tmp_path / "fr.bin"
        formats.write_frame_file(path, frames)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(formats.FormatError, match="payload"):
            formats.read_frame_file(path)


class TestManifestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path, fixture_traj):
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        loaded = load_manifest(path)
        assert loaded.id == fixture_traj.id
        assert len(loaded.chunks) == len(fixture_traj.chunks)
        for a, b in zip(loaded.chunks, fixture_traj.chunks):
            assert a.instruction == b.instruction
            assert a.phase == b.phase
            for fa, fb in zip(a.frames, b.frames):
                assert np.array_equal(fa.data, fb.data)
            for la, lb in zip(a.flows, b.flows):
                assert np.array_equal(la.u, np.asarray(lb.u, dtype=np.float32))
            for ma, mb in zip(a.masks, b.masks):
                assert np.array_equal(ma.data, mb.data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="no such file"):
            load_manifest(tmp_path / "absent.json")

    def test_manifest_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_bytes(b'\xff{"id": 1}')
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert str(excinfo.value).startswith(f"{path}: invalid JSON: ")

    def test_missing_asset_names_the_file(self, tmp_path, fixture_traj):
        """No file, a directory and a FIFO (whose blocking open would wait for
        a writer) alike are a missing asset."""
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        asset = tmp_path / "traj_chunk1_flows.bin"
        asset.unlink()

        def waited(signum, frame):
            raise TimeoutError("load_manifest waited on the FIFO")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            for kind in ("none", "directory", "fifo"):
                if kind == "directory":
                    asset.mkdir()
                elif kind == "fifo":
                    asset.rmdir()
                    os.mkfifo(asset)
                with pytest.raises(ManifestError, match="flows.*asset missing.*traj_chunk1_flows.bin"):
                    load_manifest(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_missing_asset_message_joins_the_name_as_path_would(self, tmp_path, monkeypatch, fixture_traj):
        save_manifest(fixture_traj, tmp_path / "traj.json")
        (tmp_path / "traj_chunk0_frames.bin").unlink()
        monkeypatch.chdir(tmp_path)
        for given, asset in (("traj.json", "traj_chunk0_frames.bin"),
                             (tmp_path / "traj.json", f"{tmp_path}/traj_chunk0_frames.bin")):
            with pytest.raises(ManifestError) as excinfo:
                load_manifest(given, masks=False)
            assert str(excinfo.value) == f"{given} chunk 0: field 'frames': asset missing: {asset}"

    def test_nul_in_sidecar_name_is_a_missing_asset(self, tmp_path, fixture_traj):
        """``Path.is_file`` reads a name with a NUL byte as no file; the open's
        ValueError must not reach the caller without the manifest's place."""
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        doc = json.loads(path.read_text())
        doc["chunks"][1]["frames"] = "a\u0000b"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert str(excinfo.value) == f"{path} chunk 1: field 'frames': asset missing: {tmp_path}/a\0b"

    def test_invalid_phase_names_the_field(self, tmp_path, fixture_traj):
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        doc = json.loads(path.read_text())
        doc["chunks"][0]["phase"] = "Drive"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="field 'phase': invalid value 'Drive'"):
            load_manifest(path)

    def test_missing_field_named(self, tmp_path, fixture_traj):
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        doc = json.loads(path.read_text())
        del doc["chunks"][0]["instruction"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="field 'instruction' missing"):
            load_manifest(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "{path}: manifest must be a JSON object"),
        (lambda doc: {**doc, "chunks": []}, "{path}: field 'chunks' must not be empty"),
        (lambda doc: {**doc, "chunks": [doc["chunks"][0], 3]}, "{path} chunk 1: must be a JSON object"),
    ], ids=["not-object", "no-chunks", "chunk-not-object"])
    def test_malformed_document_names_the_file(self, tmp_path, fixture_traj, edit, message):
        path = save_manifest(fixture_traj, tmp_path / "traj.json")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(path)
        assert str(excinfo.value) == message.format(path=path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd entries")
    def test_descriptors_held_per_loaded_chunk(self, tmp_path):
        """Each mapped sidecar of a loaded trajectory holds one descriptor
        before Python 3.13 and none from 3.13; without masks a chunk maps two."""
        side, t = 128, 8  # the mask sidecar, the smallest, is side * side * t bytes
        zeros = np.zeros((side, side), np.float32)
        chunk = Chunk(frames=[Frame(data=zeros)] * t, instruction="i", phase=PhaseLabel.NAV,
                      flows=[FlowField(u=zeros, v=zeros)] * (t - 1),
                      masks=[WorldEgoMask(data=zeros.astype(np.uint8))] * t)
        path = save_manifest(Trajectory(id="t", chunks=(chunk, chunk)), tmp_path / "traj.json")
        assert all(p.stat().st_size >= formats.MAP_MIN_BYTES for p in tmp_path.glob("*.bin"))
        per_map = 0 if sys.version_info >= (3, 13) else 1
        for masks, sidecars in ((True, 3), (False, 2)):
            before = len(os.listdir("/proc/self/fd"))
            traj = load_manifest(path, masks=masks)
            assert len(os.listdir("/proc/self/fd")) - before == 2 * sidecars * per_map
            del traj
