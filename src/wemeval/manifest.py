"""Trajectory manifest loading and saving.

A manifest is a UTF-8 JSON file:

    {"id": str,
     "chunks": [{"instruction": str, "phase": "Nav"|"Manip",
                 "frames": path, "flows": path|null, "masks": path|null}]}

Sidecar paths are resolved relative to the manifest's directory. ``load_manifest``
followed by ``save_manifest`` round-trips frame/flow/mask payloads bit-exactly.
"""

from __future__ import annotations

import errno
import json
import os
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


# The errors that say no file is at a sidecar's path: as ``Path.is_file`` reads them.
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)
# Each field's reader itself as a dict value, where perfbench's traced pass wraps it.
_SIDECARS = {"frames": formats.read_frame_file, "flows": formats.read_flow_file,
             "masks": formats.read_mask_file}


def load_manifest(path: str | Path, *, masks: bool = True) -> Trajectory:
    """Parse a trajectory manifest with its sidecar payloads.

    Raises ``ManifestError`` for bad JSON (a file that is not UTF-8 included),
    fields, assets or sidecar formats.
    Content invariants are left to ``validate_trajectory``, which
    ``evaluate_all`` runs. With ``masks=False`` the chunks' ``masks`` fields
    are not read and their sidecars are not opened: every chunk has no masks.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"{path}: no such file")
    try:
        doc = formats.decode_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")

    traj_id = _require(doc, "id", str, str(path))
    chunk_docs = _require(doc, "chunks", list, str(path))
    if not chunk_docs:
        raise ManifestError(f"{path}: field 'chunks' must not be empty")

    base = os.path.dirname(path)  # "" in the working directory, where Path(".") / name gives name
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
        sidecars: dict[str, tuple | None] = {}
        for field, read in _SIDECARS.items():
            if field != "frames" and (cdoc.get(field) is None or field == "masks" and not masks):
                sidecars[field] = None  # flows and masks are optional, and masks=False reads none
                continue
            asset = os.path.join(base, _require(cdoc, field, str, where))
            try:
                sidecars[field] = tuple(read(asset))
            except formats.FormatError as exc:
                raise ManifestError(f"{where}: field '{field}': {exc}") from exc
            except (OSError, ValueError) as exc:  # a directory, FIFO or name with a NUL (ValueError) is no file
                if isinstance(exc, OSError) and exc.errno not in _NO_FILE:
                    raise
                raise ManifestError(f"{where}: field '{field}': asset missing: {asset}") from None
        chunks.append(Chunk(instruction=instruction, phase=phase, **sidecars))

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
        cdoc: dict[str, object] = {"instruction": chunk.instruction, "phase": chunk.phase.value}
        for field, write in (("frames", formats.write_frame_file), ("flows", formats.write_flow_file),
                             ("masks", formats.write_mask_file)):
            if field != "frames" and not getattr(chunk, field):
                cdoc[field] = None  # flows and masks are optional
                continue
            cdoc[field] = f"{stem}_chunk{ci}_{field}.bin"
            write(path.parent / cdoc[field], getattr(chunk, field))
        chunk_docs.append(cdoc)

    with formats.replacing(path, "w") as fh:
        fh.write(json.dumps({"id": traj.id, "chunks": chunk_docs}, indent=2, sort_keys=True) + "\n")
    return path
