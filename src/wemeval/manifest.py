"""Trajectory manifest loading and saving.

A manifest is a UTF-8 JSON file:

    {"id": str,
     "chunks": [{"instruction": str, "phase": "Nav"|"Manip",
                 "frames": path, "flows": path|null, "masks": path|null}]}

Sidecar paths are resolved relative to the manifest's directory. ``load_manifest``
followed by ``save_manifest`` round-trips frame/flow/mask payloads bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import formats
from .rollout import Chunk, PhaseLabel, Trajectory


class ManifestError(ValueError):
    """Manifest problems, always naming the offending path and field."""


def _require(obj: dict, field: str, kind: type, where: str) -> object:
    if field not in obj:
        raise ManifestError(f"{where}: field '{field}' missing")
    value = obj[field]
    if not isinstance(value, kind):
        raise ManifestError(f"{where}: field '{field}' must be {kind.__name__}, got {type(value).__name__}")
    return value


def _resolve_asset(base: Path, rel: str, where: str, field: str) -> Path:
    path = base / rel
    if not path.is_file():
        raise ManifestError(f"{where}: field '{field}': asset missing: {path}")
    return path


def load_manifest(path: str | Path) -> Trajectory:
    """Parse a trajectory manifest with its sidecar payloads.

    Raises ``ManifestError`` for bad JSON, fields, assets or sidecar formats.
    Content invariants are left to ``validate_trajectory``, which
    ``evaluate_all`` runs.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"{path}: no such file")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")

    traj_id = _require(doc, "id", str, str(path))
    chunk_docs = _require(doc, "chunks", list, str(path))
    if not chunk_docs:
        raise ManifestError(f"{path}: field 'chunks' must not be empty")

    base = path.parent
    chunks: list[Chunk] = []
    for ci, cdoc in enumerate(chunk_docs):
        where = f"{path} chunk {ci}"
        if not isinstance(cdoc, dict):
            raise ManifestError(f"{where}: must be a JSON object")
        instruction = _require(cdoc, "instruction", str, where)
        phase_str = _require(cdoc, "phase", str, where)
        try:
            phase = PhaseLabel(phase_str)
        except ValueError:
            raise ManifestError(
                f"{where}: field 'phase': invalid value '{phase_str}' (expected 'Nav' or 'Manip')"
            ) from None
        frames_rel = _require(cdoc, "frames", str, where)
        try:
            frames = formats.read_frame_file(_resolve_asset(base, frames_rel, where, "frames"))
        except formats.FormatError as exc:
            raise ManifestError(f"{where}: field 'frames': {exc}") from exc

        flows = None
        if cdoc.get("flows") is not None:
            flows_rel = _require(cdoc, "flows", str, where)
            try:
                flows = formats.read_flow_file(_resolve_asset(base, flows_rel, where, "flows"))
            except formats.FormatError as exc:
                raise ManifestError(f"{where}: field 'flows': {exc}") from exc
        masks = None
        if cdoc.get("masks") is not None:
            masks_rel = _require(cdoc, "masks", str, where)
            try:
                masks = formats.read_mask_file(_resolve_asset(base, masks_rel, where, "masks"))
            except formats.FormatError as exc:
                raise ManifestError(f"{where}: field 'masks': {exc}") from exc

        chunks.append(
            Chunk(frames=tuple(frames), instruction=instruction, phase=phase,
                  flows=tuple(flows) if flows is not None else None,
                  masks=tuple(masks) if masks is not None else None)
        )

    return Trajectory(id=str(traj_id), chunks=tuple(chunks))


def save_manifest(traj: Trajectory, path: str | Path) -> Path:
    """Write a manifest plus per-chunk sidecar binaries next to it.

    Sidecars are named ``<stem>_chunk<i>_{frames,flows,masks}.bin`` and
    referenced relatively, so the whole fixture directory is relocatable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stem = path.stem
    chunk_docs = []
    for ci, chunk in enumerate(traj.chunks):
        frames_rel = f"{stem}_chunk{ci}_frames.bin"
        formats.write_frame_file(path.parent / frames_rel, chunk.frames)
        cdoc: dict[str, object] = {
            "instruction": chunk.instruction,
            "phase": chunk.phase.value,
            "frames": frames_rel,
            "flows": None,
            "masks": None,
        }
        if chunk.flows:
            flows_rel = f"{stem}_chunk{ci}_flows.bin"
            formats.write_flow_file(path.parent / flows_rel, chunk.flows)
            cdoc["flows"] = flows_rel
        if chunk.masks:
            masks_rel = f"{stem}_chunk{ci}_masks.bin"
            formats.write_mask_file(path.parent / masks_rel, chunk.masks)
            cdoc["masks"] = masks_rel
        chunk_docs.append(cdoc)

    doc = {"id": traj.id, "chunks": chunk_docs}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
