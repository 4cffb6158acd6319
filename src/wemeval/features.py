"""Pluggable frame embedding and perceptual distance.

The reference embedder is a zero-dependency stand-in for a learned video
encoder: per-frame grid statistics (cell means and standard deviations),
averaged over the frame list and L2-normalized. An h x w frame is split into
g x g cells, g = min(grid, h, w); cell r spans rows [r*h//g, (r+1)*h//g), and
likewise for columns, so the cells tile the frame whether or not g divides its
dims. Whole frames and the crops of any size that fphs embeds take the same
path, through 0/1 band matrices R (g x h, the cell row of each pixel row) and
C (g x w): the cell sums R @ gray @ C.T give the means. means @ C spreads each
cell's mean over its pixel columns, and repeating each of its g rows by its
cell row's height puts each pixel's cell mean back in place exactly, as
R.T @ means @ C would (one nonzero product per entry) at about g/h of the
cost. The mean is subtracted from the grayscale buffer, which is then squared,
both in place, and the sums of the squared deviations, R @ dev**2 @ C.T, give
the population standard deviations. The second pass keeps the std of a
constant cell at rounding level; one-pass E[x^2] - E[x]^2 leaves ~1e-8 there.
A BLAS product adds the pixels of a cell in its own order, so the statistics,
and the scores built on them, agree with a pixel-by-pixel sum to about an ulp
rather than bit for bit.

A frame's cell statistics, its cell means then standard deviations, are
computed once per grid and kept as one row by the ``Frame`` itself, so the
windows and boundary frames that the metrics embed after the whole chunks
reuse their rows, and a row dies with its frame. A crop is a new ``Frame``
with rows of its own. The band matrices of each (h, w, grid) and the cell
heights of each (h, grid) are cached too. ``embed_frames`` adds the rows in
frame order, so a vector is bit-identical whether its rows were computed or
reused.

The external embedder serves vectors precomputed offline by any encoder,
looked up by a content key derived from the frame payload. Both feed the same
cosine-based similarity and distance used throughout the metric suite.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from . import formats
from .rollout import Frame, _Frozen

EMBEDDER_REFERENCE = "reference"
EMBEDDER_EXTERNAL = "external-file"


def _exact(kind: type, value: object, what: str) -> object:
    """``kind(value)``, or a ValueError saying that ``what`` cannot hold
    ``value``: a failed cast, a bool for a non-bool ``kind`` and an inexact
    cast of a number (3.7 to int) alike."""
    try:
        if isinstance(value, bool) and kind is not bool:
            raise ValueError  # int(True) == 1 would pass the exactness check
        typed = kind(value)
        if isinstance(value, (int, float)) and typed != value:
            raise ValueError
        return typed
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} cannot hold {value!r}") from None


class _Settings(_Frozen):
    """A frozen set of named settings, ``EmbedderSpec`` or ``MetricConfig``.

    ``FIELDS`` is each setting's (name, default), in order: keyword ``name`` sets
    it (nested settings also from a dict), a missing one takes its default.
    Settings of one class are equal, and hash equal, when every field is;
    ``to_dict`` gives the fields by name, nested settings as dicts of their own."""

    __slots__ = ()
    FIELDS: tuple[tuple[str, object], ...] = ()

    def __init__(self, **values: object) -> None:
        for name, default in self.FIELDS:
            value = values.pop(name, default)
            if isinstance(default, _Settings) and isinstance(value, dict):
                value = type(default)(**value)
            object.__setattr__(self, name, value)
        if values:
            raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument '{next(iter(values))}'")

    @classmethod
    def cast(cls, doc: object, prefix: str = "") -> dict:
        """The keywords of config object ``doc`` (file values or flag strings), each
        cast by ``_exact`` to its default's type, an object by its settings class;
        a key whose default is None is null, a string, or a number as its string.
        A non-object, an unknown key, a list or object for a None-default key, or
        a value its type cannot hold exactly is a ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError(f"config key '{prefix.rstrip('.')}' must be an object, got {doc!r}")
        defaults, typed = dict(cls.FIELDS), {}
        for key, value in doc.items():
            if key not in defaults:
                raise ValueError(f"unknown config key '{prefix}{key}'")
            default, what = defaults[key], f"config key '{prefix}{key}'"
            if isinstance(default, _Settings):
                typed[key] = default.cast(value, f"{prefix}{key}.")
            elif default is not None:
                typed[key] = _exact(type(default), value, what)
            elif isinstance(value, (bool, list, dict)):
                raise ValueError(f"{what} cannot hold {value!r}")
            else:
                typed[key] = None if value is None else str(value)
        return typed

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self.FIELDS)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name, _ in self.FIELDS)
        return f"{type(self).__name__}({fields})"

    def to_dict(self) -> dict:
        return {name: value.to_dict() if isinstance(value := getattr(self, name), _Settings) else value
                for name, _ in self.FIELDS}


class EmbedderSpec(_Settings):
    """Which embedder to use: the built-in grid-statistics one or an external store."""

    FIELDS = (("kind", EMBEDDER_REFERENCE), ("grid", 8), ("source", None))
    __slots__ = tuple(name for name, _ in FIELDS)
    kind: str
    grid: int
    source: str | None

    def __init__(self, **values: object) -> None:
        super().__init__(**values)
        if self.kind not in (EMBEDDER_REFERENCE, EMBEDDER_EXTERNAL):
            raise ValueError(f"unknown embedder kind '{self.kind}'")
        if self.kind == EMBEDDER_REFERENCE and self.grid < 1:
            raise ValueError("reference embedder grid must be >= 1")
        if self.kind == EMBEDDER_EXTERNAL:
            if not self.source:
                raise ValueError("external embedder needs a source index path")
            if not Path(self.source).is_file():
                raise ValueError(f"external embedder index not found: {self.source}")


def frame_content_key(frames: Sequence[Frame]) -> str:
    """Stable hex key over the frame payload, used to index external stores."""
    import hashlib  # loads OpenSSL, 4-5 ms of start-up that reference-embedder runs never need

    digest = hashlib.sha256()
    for f in frames:
        digest.update(struct.pack("<3I", f.height, f.width, f.channels))
        digest.update(np.ascontiguousarray(f.data, dtype="<f4"))  # no copy of contiguous data
    return digest.hexdigest()


class StoreKeyError(KeyError):
    """A key that an embedding store lacks; its ``str()`` is the message, unquoted."""
    __str__ = Exception.__str__


class EmbeddingStore:
    """Read-only lookup of precomputed embeddings.

    The index is a UTF-8 JSON object mapping key -> {"dim": int >= 0,
    "file": path, "offset": int >= 0}; ``offset`` is a byte offset into the
    named blob of little-endian f32 values. Blobs are read once and cached.
    A malformed index or entry is a ValueError naming the index (and key), and
    a missing key a ``StoreKeyError`` naming both.
    """

    def __init__(self, index_path: str | Path) -> None:
        self.index_path = Path(index_path)
        try:
            self._index: dict[str, dict] = formats.decode_json(self.index_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or nested too deeply
            raise ValueError(f"embedding index {self.index_path}: {exc}") from None
        if not isinstance(self._index, dict):
            raise ValueError(f"embedding index {self.index_path} must be a JSON object")
        self._blobs: dict[str, bytes] = {}  # by the index's "file" string

    def lookup(self, key: str) -> np.ndarray:
        if key not in self._index:
            raise StoreKeyError(f"embedding key '{key}' not found in {self.index_path}")
        entry = self._index[key]
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and all(type(entry.get(n)) is int and entry[n] >= 0 for n in ("dim", "offset"))):
            raise ValueError(f"embedding index {self.index_path}: entry for key '{key}' must be "
                             f'{{"dim": int >= 0, "file": str, "offset": int >= 0}}, got {entry!r}')
        file = entry["file"]
        if file not in self._blobs:
            self._blobs[file] = (self.index_path.parent / file).read_bytes()
        dim, offset = entry["dim"], entry["offset"]
        raw = self._blobs[file][offset : offset + 4 * dim]
        if len(raw) != 4 * dim:
            raise ValueError(f"embedding blob truncated for key '{key}'")
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)

    @staticmethod
    def write(index_path: str | Path, vectors: dict[str, np.ndarray]) -> None:
        """Serialize vectors into an index + blob pair (offline producer helper)."""
        index_path = Path(index_path)
        blob_name = index_path.stem + ".blob"
        index: dict[str, dict] = {}
        with formats.replacing(index_path.parent / blob_name) as blob:
            for key in sorted(vectors):
                data = np.asarray(vectors[key], dtype="<f4")
                index[key] = {"dim": int(data.size), "file": blob_name, "offset": blob.tell()}
                blob.write(data.tobytes())
        with formats.replacing(index_path, "w") as fh:
            fh.write(json.dumps(index, indent=2, sort_keys=True))


_stores: dict[str, EmbeddingStore] = {}  # by resolved index path


@functools.lru_cache(maxsize=None)
def _store_named(source: str) -> EmbeddingStore:
    """The one store of the index at ``source``; each spelling of it is resolved once."""
    key = str(Path(source).resolve())
    if key not in _stores:
        _stores[key] = EmbeddingStore(source)
    return _stores[key]


@functools.lru_cache(maxsize=16)
def _bands(h: int, w: int, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only 0/1 float64 band matrices of the module's cell partition:
    ``rows[r, y]`` is 1 when pixel row y lies in cell row r (g x h), ``cols``
    likewise for columns (g x w), and the pixel count of each cell (g x g)."""

    def band(n: int) -> np.ndarray:
        edges = np.arange(grid + 1) * n // grid
        pixel = np.arange(n)
        return ((edges[:-1, None] <= pixel) & (pixel < edges[1:, None])).astype(np.float64)

    rows, cols = band(h), band(w)
    counts = np.outer(rows.sum(axis=1), cols.sum(axis=1))
    rows.flags.writeable = cols.flags.writeable = counts.flags.writeable = False
    return rows, cols, counts


@functools.lru_cache(maxsize=16)
def _heights(h: int, grid: int) -> np.ndarray:
    """Read-only pixel-row count of each cell row of the partition (g ints)."""
    heights = np.diff(np.arange(grid + 1) * h // grid)
    heights.flags.writeable = False
    return heights


def _gray(f: Frame) -> np.ndarray:
    """Channel mean in float64, bit-identical to astype(float64).mean(axis=2)."""
    gray = f.data[:, :, 0].astype(np.float64)
    for c in range(1, f.channels):  # mean(axis=2)'s order: (a + b) + c
        gray += f.data[:, :, c]
    if f.channels > 1:
        gray /= f.channels
    return gray


def l2_normalize(v: np.ndarray) -> np.ndarray:
    norm = math.sqrt(v.dot(v))  # np.linalg.norm of a 1-d vector, bit for bit
    return v / norm if norm > 0.0 else v


def _frame_stats(f: Frame, grid: int) -> np.ndarray:
    """The read-only row of a frame's g x g cell statistics, the cell means
    then the standard deviations, kept by the ``Frame`` per grid. A ``Frame``
    is frozen over data that nothing can write, so its rows cannot go stale."""
    row = f._cells.get(grid)
    if row is None:
        rows, cols, counts = _bands(f.height, f.width, grid)
        gray = _gray(f)  # a buffer of this call's own, turned into the squared deviations
        means = rows @ gray @ cols.T / counts
        gray -= (means @ cols).repeat(_heights(f.height, grid), axis=0)  # exact: one nonzero product
        gray *= gray
        row = np.concatenate((means.ravel(), np.sqrt(rows @ gray @ cols.T / counts).ravel()))
        row.flags.writeable = False
        f._cells[grid] = row
    return row


def embed_frames(frames: Sequence[Frame], spec: EmbedderSpec) -> np.ndarray:
    """Embed a frame list into one L2-normalized vector.

    Reference embedder: grayscale each frame (channel mean), take the mean
    and standard deviation of each cell of the module docstring's partition,
    average the statistics over the frame list, concatenate [means, stds] and
    normalize. All-zero statistics normalize to the zero vector. Callers
    comparing embeddings must pass equally sized frames.

    External embedder: look up the frames' content key in the store.
    """
    if not frames:
        raise ValueError("cannot embed an empty frame list")
    if spec.kind == EMBEDDER_EXTERNAL:
        return l2_normalize(_store_named(spec.source).lookup(frame_content_key(frames)))

    h, w = frames[0].height, frames[0].width
    grid = min(spec.grid, h, w)
    acc = np.zeros(2 * grid * grid)
    for f in frames:
        if (f.height, f.width) != (h, w):
            raise ValueError("all frames in one embedding call must share dims")
        acc += _frame_stats(f, grid)
    return l2_normalize(acc / len(frames))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0 when either norm is 0.

    The result is clamped to [-1, 1]: the floating-point quotient can
    overshoot by an ulp for near-parallel vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dim mismatch: {a.shape} vs {b.shape}")
    na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))  # as in l2_normalize
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, np.dot(a, b) / (na * nb))))


def perceptual_distance(a: Frame, b: Frame, spec: EmbedderSpec) -> float:
    """1 - cosine similarity of the single-frame embeddings, clamped to [0, 2].

    Two zero embeddings (e.g. two all-black frames) are defined to be at
    distance 0 so that d(x, x) = 0 holds everywhere.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("perceptual distance needs frames with matching dims")
    ea = embed_frames([a], spec)
    eb = embed_frames([b], spec)
    if not ea.any() and not eb.any():
        return 0.0
    return float(min(2.0, max(0.0, 1.0 - cosine_similarity(ea, eb))))
