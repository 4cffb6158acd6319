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

A frame's cell statistics are computed once per grid and kept in a memo keyed
weakly by the ``Frame``, so the windows and boundary frames that the metrics
embed after the whole chunks reuse their rows; an entry dies with its frame.
The band matrices of each (h, w, grid) and the cell heights of each (h, grid)
are cached too. ``embed_frames`` still adds the rows in frame order, so a
vector is bit-identical whether its rows were computed or reused.

The external embedder serves vectors precomputed offline by any encoder,
looked up by a content key derived from the frame payload. Both feed the same
cosine-based similarity and distance used throughout the metric suite.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import formats
from .rollout import Frame

EMBEDDER_REFERENCE = "reference"
EMBEDDER_EXTERNAL = "external-file"


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use: the built-in grid-statistics one or an external store."""

    kind: str = EMBEDDER_REFERENCE
    grid: int = 8
    source: str | None = None

    def __post_init__(self) -> None:
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


class EmbeddingStore:
    """Read-only lookup of precomputed embeddings.

    The index is a UTF-8 JSON object mapping key -> {"dim": int >= 0,
    "file": path, "offset": int >= 0}; ``offset`` is a byte offset into the
    named blob of little-endian f32 values. Blobs are read once and cached.
    A malformed index or entry is a ValueError naming the index (and key).
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
            raise KeyError(f"embedding key '{key}' not found in {self.index_path}")
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


_stats_memo: weakref.WeakKeyDictionary[Frame, dict[int, tuple[np.ndarray, np.ndarray]]] = (
    weakref.WeakKeyDictionary())


def _frame_stats(f: Frame, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (means, stds) rows of a frame's g x g cells, memoized per
    ``Frame`` and grid. A ``Frame`` is frozen over data that nothing can
    write, so its rows cannot go stale."""
    by_grid = _stats_memo.setdefault(f, {})
    if grid not in by_grid:
        rows, cols, counts = _bands(f.height, f.width, grid)
        gray = _gray(f)  # a buffer of this call's own, turned into the squared deviations
        means = rows @ gray @ cols.T / counts
        gray -= (means @ cols).repeat(_heights(f.height, grid), axis=0)  # exact: one nonzero product
        gray *= gray
        stds = np.sqrt(rows @ gray @ cols.T / counts)
        means, stds = means.ravel(), stds.ravel()
        means.flags.writeable = stds.flags.writeable = False
        by_grid[grid] = means, stds
    return by_grid[grid]


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
    mean_acc = np.zeros(grid * grid)
    std_acc = np.zeros(grid * grid)
    for f in frames:
        if (f.height, f.width) != (h, w):
            raise ValueError("all frames in one embedding call must share dims")
        means, stds = _frame_stats(f, grid)
        mean_acc += means
        std_acc += stds
    vector = np.concatenate([mean_acc, std_acc]) / len(frames)
    return l2_normalize(vector)


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
