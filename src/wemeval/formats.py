"""Binary sidecar formats for frame, flow, and mask payloads.

All three containers share the same layout: a 4-byte ASCII magic, little-endian
u32 header fields, then a raw little-endian payload in row-major order.

  flow  "WEMF": u32 width, height, count; count*h*w (u, v) pairs of f32
  mask  "WEMM": u32 width, height, count; count*h*w u8 values in {0, 1}
  frame "WEMV": u32 width, height, channels, count; count*h*w*c f32 intensities

Readers check the layout only; ``rollout.validate_trajectory`` checks values.
They copy nothing after the file read: every frame, mask and flow component
is a read-only view of the file's immutable bytes, so a flow field's ``u`` and
``v`` are strided views of the interleaved pairs.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .rollout import FlowField, Frame, WorldEgoMask

FLOW_MAGIC = b"WEMF"
MASK_MAGIC = b"WEMM"
FRAME_MAGIC = b"WEMV"


class FormatError(ValueError):
    """Raised when a sidecar file does not match its declared format."""


def _read_header(data: bytes, path: Path, magic: bytes, n_fields: int) -> tuple[int, ...]:
    header_len = 4 + 4 * n_fields
    if len(data) < header_len:
        raise FormatError(f"{path}: truncated header")
    if data[:4] != magic:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    return struct.unpack_from(f"<{n_fields}I", data, 4)


def _check_payload(data: bytes, path: Path, header_len: int, expected_bytes: int) -> None:
    got = len(data) - header_len
    if got != expected_bytes:
        raise FormatError(f"{path}: payload is {got} bytes, expected {expected_bytes}")


def write_flow_file(path: str | Path, fields: Sequence[FlowField]) -> None:
    path = Path(path)
    if not fields:
        raise ValueError("cannot write an empty flow file")
    h, w = fields[0].height, fields[0].width
    for f in fields:
        if (f.height, f.width) != (h, w):
            raise ValueError("all flow fields in one file must share dims")
    payload = np.stack([np.stack([f.u, f.v], axis=-1) for f in fields]).astype("<f4")
    with path.open("wb") as fh:
        fh.write(FLOW_MAGIC)
        fh.write(struct.pack("<3I", w, h, len(fields)))
        fh.write(payload.tobytes())


def read_flow_file(path: str | Path) -> list[FlowField]:
    path = Path(path)
    data = path.read_bytes()
    w, h, count = _read_header(data, path, FLOW_MAGIC, 3)
    _check_payload(data, path, 16, count * h * w * 2 * 4)
    arr = np.frombuffer(data, dtype="<f4", offset=16).reshape(count, h, w, 2)
    return [FlowField(u=arr[i, :, :, 0], v=arr[i, :, :, 1]) for i in range(count)]


def write_mask_file(path: str | Path, masks: Sequence[WorldEgoMask]) -> None:
    path = Path(path)
    if not masks:
        raise ValueError("cannot write an empty mask file")
    h, w = masks[0].height, masks[0].width
    for m in masks:
        if (m.height, m.width) != (h, w):
            raise ValueError("all masks in one file must share dims")
        if not m.is_binary():
            raise ValueError("mask file format only holds binary masks")
    payload = np.stack([np.asarray(m.data) for m in masks]).astype(np.uint8)
    with path.open("wb") as fh:
        fh.write(MASK_MAGIC)
        fh.write(struct.pack("<3I", w, h, len(masks)))
        fh.write(payload.tobytes())


def read_mask_file(path: str | Path) -> list[WorldEgoMask]:
    path = Path(path)
    data = path.read_bytes()
    w, h, count = _read_header(data, path, MASK_MAGIC, 3)
    _check_payload(data, path, 16, count * h * w)
    arr = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, h, w)
    return [WorldEgoMask(data=arr[i]) for i in range(count)]


def write_frame_file(path: str | Path, frames: Sequence[Frame]) -> None:
    path = Path(path)
    if not frames:
        raise ValueError("cannot write an empty frame file")
    h, w, c = frames[0].height, frames[0].width, frames[0].channels
    for f in frames:
        if (f.height, f.width, f.channels) != (h, w, c):
            raise ValueError("all frames in one file must share dims")
    payload = np.stack([f.data for f in frames]).astype("<f4")
    with path.open("wb") as fh:
        fh.write(FRAME_MAGIC)
        fh.write(struct.pack("<4I", w, h, c, len(frames)))
        fh.write(payload.tobytes())


def read_frame_file(path: str | Path) -> list[Frame]:
    path = Path(path)
    data = path.read_bytes()
    w, h, c, count = _read_header(data, path, FRAME_MAGIC, 4)
    if c not in (1, 3):
        raise FormatError(f"{path}: channel count {c} not in (1, 3)")
    _check_payload(data, path, 20, count * h * w * c * 4)
    arr = np.frombuffer(data, dtype="<f4", offset=20).reshape(count, h, w, c)
    return [Frame(data=arr[i]) for i in range(count)]
