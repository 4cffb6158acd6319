"""Pluggable frame embedding and perceptual distance.

The reference embedder is a zero-dependency stand-in for a learned video
encoder: per-frame grid statistics (cell means and standard deviations),
averaged over the frame list and L2-normalized. An h x w frame is split into
g x g cells, g = min(grid, h, w); cell r spans rows [r*h//g, (r+1)*h//g), and
likewise for columns, so the cells tile the frame whether or not g divides its
dims. Whole frames and the crops of any size that fphs embeds take the same
path: per-cell sums give the means, then sums of squared deviations from them
give the population standard deviations. The second pass keeps the std of a
constant cell at rounding level; one-pass E[x^2] - E[x]^2 leaves ~1e-8 there.

The external embedder serves vectors precomputed offline by any encoder,
looked up by a content key derived from the frame payload. Both feed the same
cosine-based similarity and distance used throughout the metric suite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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
    digest = hashlib.sha256()
    for f in frames:
        digest.update(np.asarray([f.height, f.width, f.channels], dtype="<u4").tobytes())
        digest.update(f.data.astype("<f4").tobytes())
    return digest.hexdigest()


class EmbeddingStore:
    """Read-only lookup of precomputed embeddings.

    The index is UTF-8 JSON mapping key -> {"dim": int, "file": path,
    "offset": int}; ``offset`` is a byte offset into the named blob of
    little-endian f32 values. Blobs are read once and cached.
    """

    def __init__(self, index_path: str | Path) -> None:
        self.index_path = Path(index_path)
        self._index: dict[str, dict] = json.loads(self.index_path.read_text(encoding="utf-8"))
        self._blobs: dict[str, bytes] = {}

    def lookup(self, key: str) -> np.ndarray:
        entry = self._index.get(key)
        if entry is None:
            raise KeyError(f"embedding key '{key}' not found in {self.index_path}")
        blob_path = str(self.index_path.parent / entry["file"])
        if blob_path not in self._blobs:
            self._blobs[blob_path] = Path(blob_path).read_bytes()
        dim, offset = int(entry["dim"]), int(entry["offset"])
        raw = self._blobs[blob_path][offset : offset + 4 * dim]
        if len(raw) != 4 * dim:
            raise ValueError(f"embedding blob truncated for key '{key}'")
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)

    @staticmethod
    def write(index_path: str | Path, vectors: dict[str, np.ndarray]) -> None:
        """Serialize vectors into an index + blob pair (offline producer helper)."""
        index_path = Path(index_path)
        blob_name = index_path.stem + ".blob"
        index: dict[str, dict] = {}
        chunks: list[bytes] = []
        offset = 0
        for key in sorted(vectors):
            data = np.asarray(vectors[key], dtype="<f4").tobytes()
            index[key] = {"dim": int(np.asarray(vectors[key]).size), "file": blob_name, "offset": offset}
            chunks.append(data)
            offset += len(data)
        (index_path.parent / blob_name).write_bytes(b"".join(chunks))
        index_path.write_text(json.dumps(index, indent=2, sort_keys=True), encoding="utf-8")


_store_cache: dict[str, EmbeddingStore] = {}


def _store_for(spec: EmbedderSpec) -> EmbeddingStore:
    key = str(Path(spec.source).resolve())
    if key not in _store_cache:
        _store_cache[key] = EmbeddingStore(spec.source)
    return _store_cache[key]


def _cell_index(h: int, w: int, grid: int) -> np.ndarray:
    """Flat cell id (row-major) of each pixel under the module's cell partition."""
    edges = np.arange(grid + 1)
    rows = np.repeat(edges[:-1], np.diff(edges * h // grid))
    cols = np.repeat(edges[:-1], np.diff(edges * w // grid))
    return (rows[:, None] * grid + cols[None, :]).ravel()


def _gray(f: Frame) -> np.ndarray:
    """Channel mean in float64, bit-identical to astype(float64).mean(axis=2)."""
    gray = f.data[:, :, 0].astype(np.float64)
    for c in range(1, f.channels):  # mean(axis=2)'s order: (a + b) + c
        gray += f.data[:, :, c]
    if f.channels > 1:
        gray /= f.channels
    return gray


def l2_normalize(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else v


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
        return l2_normalize(_store_for(spec).lookup(frame_content_key(frames)))

    h, w = frames[0].height, frames[0].width
    grid = min(spec.grid, h, w)
    cell = _cell_index(h, w, grid)
    counts = np.bincount(cell)
    mean_acc = np.zeros(grid * grid)
    std_acc = np.zeros(grid * grid)
    for f in frames:
        if (f.height, f.width) != (h, w):
            raise ValueError("all frames in one embedding call must share dims")
        gray = _gray(f).ravel()
        means = np.bincount(cell, weights=gray) / counts
        dev = gray - means[cell]
        mean_acc += means
        std_acc += np.sqrt(np.bincount(cell, weights=dev * dev) / counts)
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
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
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
