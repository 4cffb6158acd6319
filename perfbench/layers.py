"""The traced pass and the per-layer metrics derived from its spans.

The layers are the package's modules. The pass loads both manifests of each
pair and scores them with ``evaluate_all``, exactly as ``wemeval eval`` does,
with a span around every call into a layer function listed in ``TARGETS``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from wemeval import features, flow, formats, manifest, metrics, rollout
from wemeval.features import EmbedderSpec

from tracing import Recorder, Span, count, patched, self_seconds, total, work


def _one(*args, **kwargs) -> float:
    return 1.0


def _file_bytes(path, *args, **kwargs) -> float:
    return float(os.path.getsize(path))


def _frame_count(frames, *args, **kwargs) -> float:
    return float(len(frames))


# (owner, attribute, span name, work count). A target the program no longer
# has is skipped, and the metrics built on it read 0.
TARGETS = [
    (manifest, "load_manifest", "manifest.load", _one),
    (formats, "read_frame_file", "formats.read_frames", _file_bytes),
    (formats, "read_flow_file", "formats.read_flows", _file_bytes),
    (formats, "read_mask_file", "formats.read_masks", _file_bytes),
    (rollout, "validate_trajectory", "rollout.validate", _one),
    (metrics, "evaluate_all", "metrics.evaluate_all", _one),
    *[(metrics, name, f"metrics.{name}", _one) for name in metrics.METRIC_NAMES],
    (features, "embed_frames", "features.embed", _frame_count),
    (features, "frame_content_key", "features.content_key", _frame_count),
    (features.EmbeddingStore, "__init__", "features.store_open", _one),
    (flow, "flow_stats", "flow.flow_stats", _one),
]

# Per-layer metric -> unit, better. Listed in BENCHMARK.json in this order.
LAYER_METRICS = {
    "manifest.load_ms": ("ms", "lower"),
    "rollout.validate_ms": ("ms", "lower"),
    "formats.read_frames_ms": ("ms", "lower"),
    "formats.read_flows_ms": ("ms", "lower"),
    "formats.read_masks_ms": ("ms", "lower"),
    "formats.sidecar_mb": ("MB", "lower"),
    "flow.flow_stats_us": ("us", "lower"),
    "flow.fields_per_pair": ("count", "lower"),
    "features.embed_us_per_frame": ("us", "lower"),
    "features.frames_embedded_per_pair": ("count", "lower"),
    "features.content_key_us_per_frame": ("us", "lower"),
    "features.store_open_ms": ("ms", "lower"),
    **{f"metrics.{name}_ms": ("ms", "lower") for name in metrics.METRIC_NAMES},
    "metrics.evaluate_all_ms": ("ms", "lower"),
    "metrics.scored_frac": ("ratio", "higher"),
    "cli.parallel_speedup": ("ratio", "higher"),
    "cli.unattributed_ms_per_pair": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _wrappers(recorder: Recorder, names: set[str] | None = None) -> list:
    out = []
    for owner, attr, span, work_of in TARGETS:
        if (names is None or span in names) and hasattr(owner, attr):
            out.append((owner, attr, recorder.wrap(span, getattr(owner, attr), work_of)))
    return out


def traced_pass(pairs_file: Path, cfg: metrics.MetricConfig) -> tuple[list[Span], list[dict], float]:
    """Score every pair in ``eval`` order with spans on; returns spans, records, seconds."""
    recorder = Recorder()
    entries = json.loads(pairs_file.read_text(encoding="utf-8"))
    records = []
    with patched("wemeval", _wrappers(recorder)):
        start = time.perf_counter()
        for i, entry in enumerate(entries):
            recorder.pair = i
            try:
                gen = manifest.load_manifest(pairs_file.parent / entry["gen"])
                gt = manifest.load_manifest(pairs_file.parent / entry["gt"])
                records.append(metrics.evaluate_all(gen, gt, cfg).to_dict())
            except (ValueError, KeyError) as exc:  # what ``eval`` turns into an error record
                records.append({"trajectory": None, "scores": {}, "error": str(exc)})
        seconds = time.perf_counter() - start
    return recorder.finished(), records, seconds


def store_probe(pairs_file: Path, work_dir: Path) -> list[Span]:
    """Content keys and a store open on a workload whose ``eval`` uses neither.

    Keys every chunk of every trajectory, writes a store of their reference
    embeddings, and opens it, so the two store-path layer metrics measure the
    same functions on this workload's own frames.
    """
    recorder = Recorder()
    entries = json.loads(pairs_file.read_text(encoding="utf-8"))
    vectors = {}
    spec = EmbedderSpec()
    index = work_dir / "probe-store.json"
    with patched("wemeval", _wrappers(recorder, {"features.content_key", "features.store_open"})):
        for i, entry in enumerate(entries):
            recorder.pair = i
            for role in ("gen", "gt"):
                for chunk in manifest.load_manifest(pairs_file.parent / entry[role]).chunks:
                    key = features.frame_content_key(chunk.frames)
                    vectors[key] = features.embed_frames(list(chunk.frames), spec)
        features.EmbeddingStore.write(index, vectors)
        features.EmbeddingStore(index)
    return recorder.finished()


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(
    spans: list[Span], probe: list[Span], records: list[dict], traced_s: float,
    untraced_s: float, speedup: float,
) -> dict[str, float]:
    """Per-layer metrics: ms per pair or per trajectory, us per call or per frame."""
    pairs = len(records)
    loads = count(spans, "manifest.load")
    store_spans = spans if count(spans, "features.store_open") else probe
    out = {
        "manifest.load_ms": 1e3 * _per(total(spans, "manifest.load"), loads),
        "rollout.validate_ms": 1e3 * _per(total(spans, "rollout.validate"), pairs),
        "formats.read_frames_ms": 1e3 * _per(total(spans, "formats.read_frames"), loads),
        "formats.read_flows_ms": 1e3 * _per(total(spans, "formats.read_flows"), loads),
        "formats.read_masks_ms": 1e3 * _per(total(spans, "formats.read_masks"), loads),
        "formats.sidecar_mb": 1e-6 * _per(sum(work(spans, f"formats.read_{kind}")
                                              for kind in ("frames", "flows", "masks")), loads),
        "flow.flow_stats_us": 1e6 * _per(total(spans, "flow.flow_stats"), count(spans, "flow.flow_stats")),
        "flow.fields_per_pair": _per(count(spans, "flow.flow_stats"), pairs),
        "features.embed_us_per_frame": 1e6 * _per(total(spans, "features.embed"),
                                                  work(spans, "features.embed")),
        "features.frames_embedded_per_pair": _per(work(spans, "features.embed"), pairs),
        "features.content_key_us_per_frame": 1e6 * _per(total(store_spans, "features.content_key"),
                                                        work(store_spans, "features.content_key")),
        "features.store_open_ms": 1e3 * _per(total(store_spans, "features.store_open"),
                                             count(store_spans, "features.store_open")),
    }
    for name in metrics.METRIC_NAMES:
        out[f"metrics.{name}_ms"] = 1e3 * _per(total(spans, f"metrics.{name}"), pairs)
    out["metrics.evaluate_all_ms"] = 1e3 * _per(total(spans, "metrics.evaluate_all"), pairs)
    scored = sum(v is not None for r in records for v in r["scores"].values())
    out["metrics.scored_frac"] = _per(scored, len(metrics.METRIC_NAMES) * pairs)
    out["cli.parallel_speedup"] = speedup
    attributed = total(spans, "manifest.load") + total(spans, "metrics.evaluate_all")
    out["cli.unattributed_ms_per_pair"] = 1e3 * _per(untraced_s - attributed, pairs)
    out["trace.overhead_ratio"] = _per(traced_s, untraced_s)
    return out


def self_ms_per_pair(spans: list[Span], pairs: int) -> dict[str, float]:
    return {name: 1e3 * _per(s, pairs) for name, s in sorted(self_seconds(spans).items())}
