"""Binary sidecar formats for frame, flow, and mask payloads.

All three containers share the same layout: a 4-byte ASCII magic, little-endian
u32 header fields, then a raw little-endian payload in row-major order.

  flow  "WEMF": u32 width, height, count; count*h*w (u, v) pairs of f32
  mask  "WEMM": u32 width, height, count; count*h*w u8 values in {0, 1}
  frame "WEMV": u32 width, height, channels, count; count*h*w*c f32 intensities

Readers check the layout only; ``rollout.validate_trajectory`` checks values.
A file whose header declares records of zero size with a nonzero count is
malformed, so a reader's work is bounded by its file's size.

Readers make no copy of a payload: a file of at least ``MAP_MIN_BYTES`` (128
KiB) is mapped read-only, a smaller one is read once into ``bytes``, and every
frame, mask and flow field is a read-only view of its record there. A flow
field holds its (h, w, 2) block of interleaved (u, v) pairs. A map lives as
long as the views of it, and CPython's ``mmap`` keeps a duplicate of the file
descriptor as long as the map, so each loaded mapped sidecar holds one open
descriptor. A sidecar must not be truncated or rewritten in place while views
of it are held: the process may then see changed data or end by SIGBUS. The
writers here never do that: they write a new file beside the path and rename it
onto the path, so a map of the old file keeps its bytes.

``decode_json`` decodes every JSON input of the package: manifests, store
indexes and the command line's files.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .rollout import FlowField, Frame, WorldEgoMask

FLOW_MAGIC = b"WEMF"
MASK_MAGIC = b"WEMM"
FRAME_MAGIC = b"WEMV"


class FormatError(ValueError):
    """Raised when a sidecar file does not match its declared format."""


# A sidecar of at least this many bytes is mapped; a smaller one is read into
# immutable bytes. 128 KiB is glibc's default mmap threshold: malloc serves a
# read of that size or more from memory that it unmaps or trims again, so each
# such read faults its pages in anew. Scoring the 20 hd-mixed benchmark pairs
# in one process under the default heap (one pinned CPU of a shared 2-vCPU
# Xeon, Python 3.11, numpy 2.4) took 11.4k minor faults with a 512 KiB bound,
# 6.7k in load_manifest, and 3.0-4.0k with this one, 0.35k in load_manifest.
MAP_MIN_BYTES = 128 << 10


def decode_json(text: str) -> object:
    """``json.loads``, with a document nested too deeply for the decoder a
    ValueError like any other malformed one, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _load(path: Path, header_len: int) -> bytes | mmap.mmap:
    """The whole file at ``path``: a read-only map, or its bytes when it is
    smaller than ``MAP_MIN_BYTES``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        if size < header_len:  # mmap also refuses an empty file
            raise FormatError(f"{path}: truncated header")
        if size < MAP_MIN_BYTES:
            return os.read(fd, size)
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)


def _records(
    path: str | Path, magic: bytes, n_fields: int, dtype: str, record: Callable[..., tuple[int, ...]]
) -> np.ndarray:
    """The records of the sidecar at ``path``, as one read-only array of shape
    (count, *record) over the file's map or bytes.

    The header is ``n_fields`` u32 values after ``magic``: the dims, then the
    record count. ``record`` maps the dims to one record's shape. Of a mapped
    file only the header is read before its size is checked against it.
    """
    path = Path(path)
    header_len = 4 + 4 * n_fields
    buf = _load(path, header_len)
    try:
        if buf[:4] != magic:
            raise FormatError(f"{path}: bad magic {buf[:4]!r}, expected {magic!r}")
        *dims, count = struct.unpack_from(f"<{n_fields}I", buf, 4)
        shape = record(*dims)
        size = math.prod(shape)
        if count and not size:
            raise FormatError(f"{path}: {count} records of zero size {'x'.join(map(str, dims))}")
        expected = count * size * np.dtype(dtype).itemsize
        if len(buf) - header_len != expected:
            raise FormatError(f"{path}: payload is {len(buf) - header_len} bytes, expected {expected}")
    except FormatError:
        if isinstance(buf, mmap.mmap):
            buf.close()  # nothing views it yet
        raise
    return np.frombuffer(buf, dtype, count * size, header_len).reshape(count, *shape)


def _replace(path: str | Path, magic: bytes, header: tuple[int, ...], payload: np.ndarray) -> None:
    """Write a sidecar to ``<path>.<pid>.tmp`` and rename it onto ``path``, so
    that maps of the file it replaces keep their bytes."""
    if 0 in header:
        raise ValueError(f"cannot write records of zero size {'x'.join(map(str, header[:-1]))}")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(magic)
            fh.write(struct.pack(f"<{len(header)}I", *header))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_flow_file(path: str | Path, fields: Sequence[FlowField]) -> None:
    if not fields:
        raise ValueError("cannot write an empty flow file")
    h, w = fields[0].height, fields[0].width
    for f in fields:
        if (f.height, f.width) != (h, w):
            raise ValueError("all flow fields in one file must share dims")
    payload = np.stack([f.uv for f in fields]).astype("<f4", copy=False)
    _replace(path, FLOW_MAGIC, (w, h, len(fields)), payload)


def read_flow_file(path: str | Path) -> list[FlowField]:
    records = _records(path, FLOW_MAGIC, 3, "<f4", lambda w, h: (h, w, 2))
    return [FlowField.from_uv(uv) for uv in records]


def write_mask_file(path: str | Path, masks: Sequence[WorldEgoMask]) -> None:
    if not masks:
        raise ValueError("cannot write an empty mask file")
    h, w = masks[0].height, masks[0].width
    for m in masks:
        if (m.height, m.width) != (h, w):
            raise ValueError("all masks in one file must share dims")
        if not m.is_binary():
            raise ValueError("mask file format only holds binary masks")
    payload = np.stack([m.data for m in masks]).astype(np.uint8, copy=False)
    _replace(path, MASK_MAGIC, (w, h, len(masks)), payload)


def read_mask_file(path: str | Path) -> list[WorldEgoMask]:
    records = _records(path, MASK_MAGIC, 3, "u1", lambda w, h: (h, w))
    return [WorldEgoMask(data=m) for m in records]


def write_frame_file(path: str | Path, frames: Sequence[Frame]) -> None:
    if not frames:
        raise ValueError("cannot write an empty frame file")
    h, w, c = frames[0].height, frames[0].width, frames[0].channels
    for f in frames:
        if (f.height, f.width, f.channels) != (h, w, c):
            raise ValueError("all frames in one file must share dims")
    payload = np.stack([f.data for f in frames]).astype("<f4", copy=False)
    _replace(path, FRAME_MAGIC, (w, h, c, len(frames)), payload)


def read_frame_file(path: str | Path) -> list[Frame]:
    path = Path(path)

    def record(w: int, h: int, c: int) -> tuple[int, int, int]:
        if c not in (1, 3):
            raise FormatError(f"{path}: channel count {c} not in (1, 3)")
        return h, w, c

    return [Frame(data=f) for f in _records(path, FRAME_MAGIC, 4, "<f4", record)]
