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
frame, mask and flow field holds as its ``data`` a read-only view of its record
there, a flow field's its (h, w, 2) block of interleaved (u, v) pairs. A map
lives as long as the views of it. Before Python 3.13, CPython's ``mmap`` keeps
a duplicate of the file descriptor as long as the map, so each loaded mapped
sidecar holds one open descriptor; from 3.13 the maps are made with
``trackfd=False`` and hold none. A sidecar must not be truncated or rewritten
in place while views of it are held: the process may then see changed data or
end by SIGBUS. A path that holds no regular file (a directory, a FIFO) is a
FileNotFoundError, raised without waiting on a FIFO's writer.

``replacing`` is the one way the package writes a file: it writes a temp file
beside the path and renames it onto the path, so a reader sees the old file or
the new one whole and a map of the old file keeps its bytes. Every file the
package creates or replaces takes it: the three sidecars, manifests
(``manifest.save_manifest``), embedding store blobs and indexes
(``features.EmbeddingStore.write``), ``gen-fixtures``' ``catalog.json``,
``decompose-flow``'s ``homographies.json`` and the reports of ``--out``. The
one exception is a report written in place to an ``--out`` that is not a
regular file (a symlink's target, ``/dev/null``, a FIFO).

``decode_json`` decodes every JSON input of the package: manifests, store
indexes and the command line's files.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import mmap
import os
import stat
import struct
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

from .rollout import FlowField, Frame, WorldEgoMask, _Payload, _trusted

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


# From Python 3.13 a map need not keep a descriptor of its own.
_MAP_OPTIONS = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def _load(path: str | Path, header_len: int) -> bytes | mmap.mmap:
    """The whole file at ``path``: a read-only map, or its bytes when it is
    smaller than ``MAP_MIN_BYTES``. FileNotFoundError when no regular file is
    there; the open does not wait on a FIFO."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):  # a directory, FIFO or device
            raise FileNotFoundError(errno.ENOENT, "not a regular file", str(path))
        if st.st_size < header_len:  # mmap also refuses an empty file
            raise FormatError(f"{path}: truncated header")
        if st.st_size < MAP_MIN_BYTES:
            return os.read(fd, st.st_size)
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ, **_MAP_OPTIONS)
    finally:
        os.close(fd)


def _records(
    path: str | Path, magic: bytes, n_fields: int, dtype: str, record: Callable[..., tuple[int, ...]],
    cls: type[_Payload],
) -> list[_Payload]:
    """The records of the sidecar at ``path``, each a ``cls`` whose ``data`` is
    a read-only view of shape ``record`` over the file's map or bytes.

    The header is ``n_fields`` u32 values after ``magic``: the dims, then the
    record count. ``record`` maps the dims to one record's shape. Of a mapped
    file only the header is read before its size is checked against it.
    """
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
    records = np.frombuffer(buf, dtype, count * size, header_len).reshape(count, *shape)
    return [_trusted(cls, r) for r in records]


@contextlib.contextmanager
def replacing(path: str | Path, mode: str = "wb") -> Iterator[IO]:
    """Yields ``<path>.<pid>.tmp`` opened for writing in ``mode`` (text as
    UTF-8), which is renamed onto ``path`` when the block completes and
    removed when it raises anything, so a reader of ``path`` sees the old file
    or the new one whole, never part of one, and maps of the old file keep
    their bytes. A regular file at ``path`` passes its mode on to the new one.
    Opening the temp file raises before the block starts."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                if stat.S_ISREG((st := os.stat(path)).st_mode):
                    os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # a signal just after the replace
            os.unlink(tmp)
        raise


def _write_records(
    path: str | Path, magic: bytes, dims: Callable[..., tuple[int, ...]], values: Sequence[_Payload],
    dtype: str,
) -> None:
    """Write the ``data`` of ``values``, records of one shape, as the sidecar at
    ``path``. ``dims`` maps a record's shape to the header's dims, as
    ``_records``' ``record`` maps them back."""
    if not values:
        raise ValueError("cannot write a sidecar of no records")
    payload = np.stack([v.data for v in values]).astype(dtype, copy=False)  # ValueError on unequal shapes
    header = (*dims(*payload.shape[1:]), len(values))
    if not payload.size:
        raise ValueError(f"cannot write records of zero size {'x'.join(map(str, header[:-1]))}")
    with replacing(path) as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(header)}I", *header))
        fh.write(payload)


def write_flow_file(path: str | Path, fields: Sequence[FlowField]) -> None:
    _write_records(path, FLOW_MAGIC, lambda h, w, _: (w, h), fields, "<f4")


def read_flow_file(path: str | Path) -> list[FlowField]:
    return _records(path, FLOW_MAGIC, 3, "<f4", lambda w, h: (h, w, 2), FlowField)


def write_mask_file(path: str | Path, masks: Sequence[WorldEgoMask]) -> None:
    if not all(m.is_binary() for m in masks):
        raise ValueError("mask file format only holds binary masks")
    _write_records(path, MASK_MAGIC, lambda h, w: (w, h), masks, "u1")


def read_mask_file(path: str | Path) -> list[WorldEgoMask]:
    return _records(path, MASK_MAGIC, 3, "u1", lambda w, h: (h, w), WorldEgoMask)


def write_frame_file(path: str | Path, frames: Sequence[Frame]) -> None:
    _write_records(path, FRAME_MAGIC, lambda h, w, c: (w, h, c), frames, "<f4")


def read_frame_file(path: str | Path) -> list[Frame]:
    def record(w: int, h: int, c: int) -> tuple[int, int, int]:
        if c not in (1, 3):
            raise FormatError(f"{path}: channel count {c} not in (1, 3)")
        return h, w, c

    return _records(path, FRAME_MAGIC, 4, "<f4", record, Frame)
