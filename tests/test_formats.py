"""Sidecar reader and writer contracts: work bounded by file size, files
replaced rather than rewritten under their maps, and no input that ends
``eval`` with a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import mmap
import os
import re
import shutil
import stat
import struct
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matches_from_homography
from wemeval import formats
from wemeval.camera import Homography
from wemeval.cli import main
from wemeval.features import EmbedderSpec, EmbeddingStore, embed_frames
from wemeval.manifest import load_manifest, save_manifest
from wemeval.microsim import generate_trajectory, mixed_fixture_config
from wemeval.rollout import FlowField, Frame, WorldEgoMask

# kind -> (reader, magic, number of u32 header fields)
_FORMATS = {
    "frames": (formats.read_frame_file, formats.FRAME_MAGIC, 4),
    "flows": (formats.read_flow_file, formats.FLOW_MAGIC, 3),
    "masks": (formats.read_mask_file, formats.MASK_MAGIC, 3),
}


def _header(kind: str, *fields: int) -> bytes:
    _, magic, n_fields = _FORMATS[kind]
    assert len(fields) == n_fields
    return magic + struct.pack(f"<{n_fields}I", *fields)


def _one_record_header(kind: str) -> bytes:
    return _header(kind, 4, 4, 1, 1) if kind == "frames" else _header(kind, 4, 4, 1)


@pytest.mark.parametrize("kind", sorted(_FORMATS))
class TestReaders:
    def test_empty_file_is_a_truncated_header(self, tmp_path, kind):
        path = tmp_path / "empty.bin"
        path.touch()
        with pytest.raises(formats.FormatError, match="truncated header"):
            _FORMATS[kind][0](path)

    @pytest.mark.parametrize("zero", ["width", "height"])
    def test_zero_size_records_are_rejected_in_constant_time(self, tmp_path, kind, zero):
        w, h = (0, 4) if zero == "width" else (4, 0)
        fields = (w, h, 1, 2**32 - 1) if kind == "frames" else (w, h, 2**32 - 1)
        path = tmp_path / "zero.bin"
        path.write_bytes(_header(kind, *fields))
        start = time.perf_counter()
        with pytest.raises(formats.FormatError, match="4294967295 records of zero size"):
            _FORMATS[kind][0](path)
        assert time.perf_counter() - start < 0.5

    def test_size_mismatch_is_found_from_the_header_alone(self, tmp_path, kind):
        path = tmp_path / "huge.bin"
        path.write_bytes(_one_record_header(kind))
        os.truncate(path, 2**30)  # sparse: 1 GiB that holds no data, far above MAP_MIN_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(formats.FormatError, match="payload is"):
                _FORMATS[kind][0](path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_str_and_a_path_give_the_same_message(self, tmp_path, kind):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + _one_record_header(kind)[4:] + bytes(64))
        messages = []
        for given in (path, str(path)):
            with pytest.raises(formats.FormatError) as excinfo:
                _FORMATS[kind][0](given)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] == f"{path}: bad magic b'XXXX', expected {_FORMATS[kind][1]!r}"


def test_frame_reader_names_a_str_path_in_its_channel_error(tmp_path):
    path = tmp_path / "two_channels.bin"
    path.write_bytes(_header("frames", 4, 4, 2, 1))
    for given in (path, str(path)):
        with pytest.raises(formats.FormatError, match=f"^{re.escape(str(path))}: channel count 2 not in"):
            formats.read_frame_file(given)


@pytest.mark.parametrize("write, record", [
    (formats.write_frame_file, Frame(data=np.zeros((0, 4, 1), dtype=np.float32))),
    (formats.write_flow_file, FlowField(u=np.zeros((4, 0)), v=np.zeros((4, 0)))),
    (formats.write_mask_file, WorldEgoMask(data=np.zeros((0, 4), dtype=np.uint8))),
], ids=["frames", "flows", "masks"])
def test_writers_refuse_zero_size_records(tmp_path, write, record):
    with pytest.raises(ValueError, match="zero size"):
        write(tmp_path / "out.bin", [record])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("write, records, message", [
    (formats.write_flow_file, [], "no records"),
    (formats.write_mask_file, [WorldEgoMask(data=np.array([[0, 2]], dtype=np.uint8))], "binary"),
], ids=["no-flows", "non-binary-mask"])
def test_writers_refuse_what_a_sidecar_cannot_hold(tmp_path, write, records, message):
    with pytest.raises(ValueError, match=message):
        write(tmp_path / "out.bin", records)
    assert list(tmp_path.iterdir()) == []


def _arrays(traj) -> list[np.ndarray]:
    return [x for c in traj.chunks for x in [f.data for f in c.frames] + [f.data for f in c.flows]
            + [m.data for m in c.masks]]


def _vectors(traj) -> list[np.ndarray]:
    # New Frame objects over the same views, so the per-Frame memo cannot answer.
    return [embed_frames([Frame(data=f.data) for f in c.frames], EmbedderSpec()) for c in traj.chunks]


def test_saving_over_a_loaded_trajectory_leaves_it_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(formats, "MAP_MIN_BYTES", 0)  # map every sidecar
    a, _ = generate_trajectory(mixed_fixture_config(seed=11, size=32, t=4))
    b, _ = generate_trajectory(mixed_fixture_config(seed=12, size=32, t=4))
    short, _ = generate_trajectory(mixed_fixture_config(seed=13, size=16, t=2))
    path = save_manifest(a, tmp_path / "m.json")
    loaded = load_manifest(path)
    arrays = [x.copy() for x in _arrays(loaded)]
    vectors = _vectors(loaded)
    save_manifest(b, path)
    assert not np.array_equal(load_manifest(path).chunks[0].frames[0].data, arrays[0])
    save_manifest(short, path)  # smaller files: a rewrite in place would end this process by SIGBUS
    assert all(np.array_equal(got, want) for got, want in zip(_arrays(loaded), arrays, strict=True))
    assert all(np.array_equal(got, want) for got, want in zip(_vectors(loaded), vectors, strict=True))
    assert not list(tmp_path.glob("*.tmp"))


def _small_manifest(root: Path) -> str:
    traj, _ = generate_trajectory(mixed_fixture_config(seed=14, size=16, t=2))
    return str(save_manifest(traj, root / "in" / "m.json"))


def _decompose_flow(root: Path) -> int:
    formats.write_flow_file(root / "flow.bin", [FlowField(u=np.zeros((16, 16)), v=np.zeros((16, 16)))])
    (root / "matches.json").write_text(json.dumps(
        matches_from_homography(Homography.identity(), 16, 16, 12, seed=2).tolist()))
    return main(["decompose-flow", "--flow", str(root / "flow.bin"), "--matches", str(root / "matches.json"),
                 "--out-dir", str(root / "out")])


def _gen_fixtures(root: Path) -> int:
    (root / "catalog-in.json").write_text(json.dumps({"fixtures": [{
        "name": "a", "seed": 1, "width": 16, "height": 16,
        "chunks": [{"phase": "Nav", "steps": 2, "camera": {"kind": "translate", "dx": 1}}]}]}))
    return main(["gen-fixtures", "--out-dir", str(root / "fx"), "--catalog", str(root / "catalog-in.json")])


def _eval_out(root: Path) -> int:
    manifest = _small_manifest(root)
    return main(["eval", "--gen", manifest, "--gt", manifest, "--out", str(root / "r.jsonl")])


def _report_out(root: Path) -> int:
    assert _eval_out(root) == 0
    return main(["report", str(root / "r.jsonl"), "--out", str(root / "m.jsonl")])


# case -> (the file it writes, relative to the directory it is given; the write)
_WRITERS = {
    "frames": ("s.bin", lambda root: formats.write_frame_file(
        root / "s.bin", [Frame(data=np.ones((4, 4, 1), dtype=np.float32))])),
    "flows": ("s.bin", lambda root: formats.write_flow_file(
        root / "s.bin", [FlowField(u=np.ones((4, 4)), v=np.zeros((4, 4)))])),
    "masks": ("s.bin", lambda root: formats.write_mask_file(
        root / "s.bin", [WorldEgoMask(data=np.ones((4, 4), dtype=np.uint8))])),
    "manifest": ("in/m.json", _small_manifest),
    "store-blob": ("s.blob", lambda root: EmbeddingStore.write(root / "s.json", {"k": np.ones(3)})),
    "store-index": ("s.json", lambda root: EmbeddingStore.write(root / "s.json", {"k": np.ones(3)})),
    "catalog": ("fx/catalog.json", _gen_fixtures),
    "homographies": ("out/homographies.json", _decompose_flow),
    "eval-out": ("r.jsonl", _eval_out),
    "report-out": ("m.jsonl", _report_out),
}


@pytest.mark.parametrize("case", list(_WRITERS))
def test_every_writer_replaces_its_file_whole(tmp_path, monkeypatch, capsys, case):
    """A write that fails before its rename leaves the previous file as it
    was and no temp file; one that completes keeps the previous file's mode.
    The commands report the failure in one line and exit 2; the library's
    writers raise it."""
    name, write = _WRITERS[case]
    target = tmp_path / name
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(b"previous\n")
    target.chmod(0o600)
    replace = os.replace

    def failing(src, dst):
        if Path(dst) == target:
            raise OSError("injected failure")
        replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing)
        if case in ("catalog", "homographies", "eval-out", "report-out"):
            assert write(tmp_path) == 2
            assert capsys.readouterr().err.endswith(f": cannot write {target}: injected failure\n")
        else:
            with pytest.raises(OSError, match="injected failure"):
                write(tmp_path)
    assert target.read_bytes() == b"previous\n" and not list(tmp_path.rglob("*.tmp"))
    write(tmp_path)
    assert target.read_bytes() != b"previous\n" and stat.S_IMODE(target.stat().st_mode) == 0o600
    assert not list(tmp_path.rglob("*.tmp"))


def test_sidecars_from_map_min_bytes_are_mapped(tmp_path):
    # One 1 x n x 1 frame: a 20-byte header and 4 payload bytes per pixel.
    below = (formats.MAP_MIN_BYTES - 20 - 1) // 4
    for n, kind in ((below, bytes), (below + 1, mmap.mmap)):
        path = tmp_path / f"{n}.bin"
        formats.write_frame_file(path, [Frame(data=np.full((1, n, 1), 0.5, dtype=np.float32))])
        size = path.stat().st_size
        assert size < formats.MAP_MIN_BYTES if kind is bytes else size >= formats.MAP_MIN_BYTES
        (frame,) = formats.read_frame_file(path)
        owner = frame.data
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(owner.obj if isinstance(owner, memoryview) else owner, kind)
        assert float(frame.data.mean()) == 0.5


# --- the batch contract under mutated inputs, in-process through cli.main ---

@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    traj, _ = generate_trajectory(mixed_fixture_config(seed=21, size=16, t=3))
    save_manifest(traj, root / "gen" / "manifest.json")
    save_manifest(traj, root / "gt" / "manifest.json")
    return root


_U32 = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 16, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))
_VALUES = st.sampled_from([None, 0, 1, -1, 1.5, "", "x", "Nav", "Manip", "../gt/manifest.json", [], {}])
_FIELDS = st.sampled_from(["instruction", "phase", "frames", "flows", "masks"])

_SIDECAR = st.one_of(
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 4096)),
    st.tuples(st.just("header"), st.tuples(st.integers(0, 3), _U32)),
    st.tuples(st.just("zero-dim"), st.tuples(st.integers(0, 1), _U32)),
    st.tuples(st.just("value"), st.tuples(st.integers(0, 10**6),
                                          st.sampled_from([np.nan, np.inf, -np.inf, 2.0, -1.0, 0.5]))),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
)
_MANIFEST = st.one_of(
    st.tuples(st.just("set"), st.tuples(st.integers(0, 3), _FIELDS, _VALUES)),
    st.tuples(st.just("delete"), st.tuples(st.integers(0, 3), _FIELDS)),
    st.tuples(st.just("top"), st.tuples(st.sampled_from(["id", "chunks"]), _VALUES)),
    st.tuples(st.just("text"), st.integers(0, 400)),
)


def _mutate_sidecar(path: Path, mutation) -> None:
    kind, arg = mutation
    data = bytearray(path.read_bytes())
    n_fields = 4 if data[:4] == formats.FRAME_MAGIC else 3
    if kind == "magic":
        data[:4] = arg
    elif kind == "truncate":
        del data[arg % len(data):]
    elif kind == "header":
        index, value = arg
        struct.pack_into("<I", data, 4 + 4 * (index % n_fields), value)
    elif kind == "zero-dim":  # width or height 0, with any count
        dim, count = arg
        struct.pack_into("<I", data, 4 + 4 * dim, 0)
        struct.pack_into("<I", data, 4 + 4 * (n_fields - 1), count)
    elif kind == "value":
        offset, value = arg
        header = 4 + 4 * n_fields
        if data[:4] == formats.MASK_MAGIC:
            data[header + offset % (len(data) - header)] = 2
        else:
            slot = header + 4 * (offset % ((len(data) - header) // 4))
            struct.pack_into("<f", data, slot, value)
    else:
        data += arg
    path.write_bytes(bytes(data))


def _mutate_manifest(path: Path, mutation) -> None:
    kind, arg = mutation
    text = path.read_text()
    if kind == "text":
        path.write_text(text[:arg])
        return
    doc = json.loads(text)
    if kind == "top":
        doc[arg[0]] = arg[1]
    else:
        chunk = doc["chunks"][arg[0] % len(doc["chunks"])]
        if kind == "set":
            chunk[arg[1]] = arg[2]
        else:
            chunk.pop(arg[1])
    path.write_text(json.dumps(doc))


@given(
    side=st.sampled_from(["gen", "gt"]),
    target=st.one_of(st.just("manifest"), st.tuples(st.integers(0, 3), st.sampled_from(sorted(_FORMATS)))),
    sidecar=_SIDECAR,
    manifest=_MANIFEST,
    map_min_bytes=st.sampled_from([0, formats.MAP_MIN_BYTES]),
)
@settings(max_examples=200, deadline=None)
def test_mutated_inputs_exit_cleanly(pair_dir, side, target, sidecar, manifest, map_min_bytes):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(formats, "MAP_MIN_BYTES", map_min_bytes):
        root = Path(tmp)
        shutil.copytree(pair_dir, root, dirs_exist_ok=True)
        if target == "manifest":
            _mutate_manifest(root / side / "manifest.json", manifest)
        else:
            chunks = sorted((root / side).glob(f"manifest_chunk*_{target[1]}.bin"))
            _mutate_sidecar(chunks[target[0] % len(chunks)], sidecar)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--gen", str(root / "gen" / "manifest.json"),
                         "--gt", str(root / "gt" / "manifest.json"), "--out", str(root / "r.jsonl")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
