"""The commands other than ``eval``: ``decompose-flow``, ``verify-mechanisms``,
``gen-fixtures`` and ``report``.

``cli.main`` imports this module only when one of them runs, so ``eval`` never
loads it, nor the camera model it uses. The helpers these commands share with
``eval`` stay in ``cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import formats
from .camera import estimate_homography, render_camera_flow, residual_object_flow
from .cli import _CommandError, _report_writer, _write_pairs, _writing
from .features import _exact
from .manifest import save_manifest
from .metrics import METRIC_NAMES, MetricConfig
from .rollout import PhaseLabel

if TYPE_CHECKING:
    from .microsim import SimConfig


def _parse_matches(doc: object) -> list[np.ndarray] | np.ndarray:
    """One match set ([[sx, sy, dx, dy], ...] or [[[sx, sy], [dx, dy]], ...]),
    or a list of such sets (one per flow field)."""

    def one_set(items: object) -> np.ndarray:
        if not isinstance(items, list):
            raise ValueError(f"a match set must be a JSON array, got {items!r}")
        arr = np.asarray(items, dtype=np.float64)  # ragged or mixed-form matches raise here
        if arr.size != 4 * len(items):
            raise ValueError("each match needs exactly 4 numbers")
        return arr.reshape(len(items), 2, 2)

    if not isinstance(doc, list) or not doc:
        raise ValueError("matches file must hold a non-empty JSON array")
    try:
        return one_set(doc)
    except (ValueError, TypeError):
        return [one_set(entry) for entry in doc]


def _make_dir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CommandError(f"cannot create {path}: {exc}") from None
    return Path(path)


def _cmd_decompose_flow(args: argparse.Namespace) -> int:
    try:
        fields = formats.read_flow_file(args.flow)
    except (OSError, formats.FormatError) as exc:
        raise _CommandError(str(exc)) from None
    if not fields:
        raise _CommandError(f"{args.flow}: holds no flow fields")
    try:
        matches = _parse_matches(formats.decode_json(Path(args.matches).read_text(encoding="utf-8")))
    except (OSError, ValueError, TypeError) as exc:
        raise _CommandError(f"bad matches file: {exc}") from None
    if isinstance(matches, list) and len(matches) != len(fields):
        raise _CommandError(f"{len(matches)} match sets for {len(fields)} flow fields")

    homographies = []
    camera_fields = []
    residual_fields = []
    for i, field in enumerate(fields):
        match_set = matches[i] if isinstance(matches, list) else matches
        try:
            h, _ = estimate_homography(match_set, threshold=args.threshold,
                                       iterations=args.iterations, seed=args.seed)
            camera = render_camera_flow(h, field.width, field.height)
        except ValueError as exc:  # DegenerateMatchesError and a pixel mapped to infinity included
            raise _CommandError(f"field {i}: {exc}") from None
        camera_fields.append(camera)
        residual_fields.append(residual_object_flow(field, camera))
        homographies.append(h.h.tolist())

    out_dir = _make_dir(args.out_dir)
    for name, flows in (("camera_flow.bin", camera_fields), ("residual_flow.bin", residual_fields)):
        with _writing(out_dir / name):
            formats.write_flow_file(out_dir / name, flows)
    with _writing(out_dir / "homographies.json"), formats.replacing(out_dir / "homographies.json", "w") as fh:
        fh.write(json.dumps(homographies, indent=2) + "\n")
    return 0


def _cmd_verify_mechanisms(args: argparse.Namespace) -> int:
    from .verify import run_verification  # with .mechanisms, 15-20 ms the other commands never need

    failed = 0
    with _report_writer(args.out) as emit:
        for record in run_verification(args.seed, args.trials):
            emit({"seed": args.seed, **record})  # as its trials end, so a SIGTERM waits for at most one
            failed += not record["passed"]
    return 1 if failed else 0


def _catalog_from_file(path: str) -> list[tuple[str, SimConfig]]:
    from .microsim import CameraMotion, ChunkSpec, ObjectSpec, SimConfig

    def integer(doc: dict, key: str, default: int | None = None) -> int:
        """``doc[key]`` (``default`` if it is absent) as an int by ``_exact``, naming the fixture."""
        return _exact(int, doc.get(key, default), f"fixture {name!r}: '{key}'")

    def number(value: object, key: str) -> float:
        """``value`` of ``key`` as a float by ``_exact``, naming the fixture."""
        return _exact(float, value, f"fixture {name!r}: '{key}'")

    doc = formats.decode_json(Path(path).read_text(encoding="utf-8"))
    entries = []
    names = set()
    for fx in doc["fixtures"]:
        name = fx["name"]
        # Each name is one directory under --out-dir, which it must not leave or
        # share with another fixture or the catalog.json that gen-fixtures writes.
        if (not isinstance(name, str) or name in ("", ".", "..", "catalog.json")
                or "/" in name or "\0" in name):
            raise ValueError(f"fixture name {name!r} is not one path component other than catalog.json")
        if name in names:
            raise ValueError(f"fixture name {name!r} is used twice")
        names.add(name)
        chunks = []
        for c in fx["chunks"]:
            camera = (CameraMotion(**{k: v if k == "kind" else number(v, f"camera.{k}")
                                      for k, v in c["camera"].items()})
                      if c.get("camera") is not None else None)
            motion = (tuple(number(m, "object_motion") for m in c["object_motion"])
                      if c.get("object_motion") is not None else None)
            chunks.append(ChunkSpec(phase=PhaseLabel(c["phase"]), steps=integer(c, "steps"),
                                    camera=camera, object_motion=motion))
        objects = tuple(
            ObjectSpec(shape=o["shape"], size=number(o["size"], "size"),
                       intensity=number(o["intensity"], "intensity"),
                       position=tuple(number(p, "position") for p in o["position"]))
            for o in fx.get("objects", [])
        )
        cfg = SimConfig(
            seed=fx["seed"], width=integer(fx, "width"), height=integer(fx, "height"),
            chunks=tuple(chunks), objects=objects, ego_object=integer(fx, "ego_object", 0),
            noise_sigma=number(fx.get("noise_sigma", 0.0), "noise_sigma"),
        )
        entries.append((name, cfg))
    return entries


def _cmd_gen_fixtures(args: argparse.Namespace) -> int:
    from .microsim import SimConfigError, default_catalog, generate_trajectory  # 13-16 ms the other commands never need

    if args.catalog:
        try:
            entries = _catalog_from_file(args.catalog)
        except (OSError, KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise _CommandError(f"bad catalog: {exc}") from None
    else:
        try:
            entries = default_catalog(size=args.size, t=args.frames)
        except SimConfigError as exc:
            raise _CommandError(f"--size {args.size} --frames {args.frames}: {exc}") from None

    out_dir = _make_dir(args.out_dir)
    catalog = []
    had_error = False
    for name, cfg in entries:
        try:
            traj, _ = generate_trajectory(cfg)
        except SimConfigError as exc:
            print(f"gen-fixtures: fixture '{name}': {exc}", file=sys.stderr)
            had_error = True
            continue
        with _writing(out_dir / name):
            manifest_path = save_manifest(traj, out_dir / name / "manifest.json")
        catalog.append(
            {
                "name": name,
                "seed": cfg.seed,
                "manifest": str(manifest_path.relative_to(out_dir)),
                "phases": [c.phase.value for c in cfg.chunks],
                "frames_per_chunk": [c.steps for c in cfg.chunks],
                "dims": [cfg.width, cfg.height],
            }
        )
    with _writing(out_dir / "catalog.json"), formats.replacing(out_dir / "catalog.json", "w") as fh:
        fh.write(json.dumps({"fixtures": catalog}, indent=2, sort_keys=True) + "\n")
    print(f"gen-fixtures: wrote {len(catalog)} fixture(s) to {out_dir}", file=sys.stderr)
    return 1 if had_error else 0


def _are_scores(scores: object) -> bool:
    """An object of the six metrics' scores, each null or a number that is not
    a bool and lies in [-1, 1], the range of every metric: NaN, the infinities
    and finite scores whose sum overflows would poison the aggregate."""
    return (isinstance(scores, dict) and scores.keys() == set(METRIC_NAMES)
            and all(v is None or (isinstance(v, (int, float)) and not isinstance(v, bool) and -1 <= v <= 1)
                    for v in scores.values()))


_RECORD_KINDS = ("config", "trajectory", "error", "aggregate")


def _record_kind(record: object) -> str:
    """Which of the four record kinds ``eval`` writes ``record`` is; ValueError
    if it is none of them.

    A trajectory record has a string id and scores that pass ``_are_scores``;
    each other kind is one object under its own key. A config's keys pass
    ``MetricConfig.cast``; an error holds exactly the strings ``gen``, ``gt`` and
    ``message`` and the pair's index ``pair``; an aggregate holds exactly
    ``scores``, which pass ``_are_scores``, the count ``pairs`` and the count
    ``failed`` of at most ``pairs``.
    """
    kinds = [kind for kind in _RECORD_KINDS if kind in record] if isinstance(record, dict) else []
    if len(kinds) != 1:
        raise ValueError("not a report record")
    kind = kinds[0]
    doc = record[kind]
    if kind == "trajectory":
        valid = isinstance(doc, str) and _are_scores(record.get("scores"))
    else:
        valid = len(record) == 1 and isinstance(doc, dict)
    if valid and kind == "config":
        MetricConfig.cast(doc)  # raises ValueError on a key that fails its cast
    elif valid and kind == "error":
        valid = (doc.keys() == {"gen", "gt", "message", "pair"}
                 and all(isinstance(doc[key], str) for key in ("gen", "gt", "message"))
                 and type(doc["pair"]) is int and doc["pair"] >= 0)  # type(True) is bool
    elif valid and kind == "aggregate":
        valid = (doc.keys() == {"scores", "pairs", "failed"} and _are_scores(doc["scores"])
                 and type(doc["pairs"]) is int and type(doc["failed"]) is int
                 and 0 <= doc["failed"] <= doc["pairs"])
    if not valid:
        raise ValueError("not a report record")
    return kind


def _cmd_report(args: argparse.Namespace) -> int:
    with _report_writer(args.out) as emit:
        config, lines = None, []  # the first config record; the text of each pair record
        configured = unconfigured = None  # the first input with a config record, and without
        for path in args.inputs:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:
                raise _CommandError(f"{path}: {exc}") from None
            has_config, aggregate, start, failed = False, None, len(lines), 0
            for lineno, raw in enumerate(text.splitlines(), start=1):
                if not raw.strip():
                    continue
                try:
                    record = formats.decode_json(raw)
                    kind = _record_kind(record)
                except ValueError:
                    raise _CommandError(f"{path}:{lineno}: not a report record") from None
                if aggregate is not None:
                    raise _CommandError(f"{path}:{lineno}: a record after the aggregate")
                if kind == "config":
                    if config is not None and record != config:
                        raise _CommandError(f"{path}:{lineno}: config differs from the first input's")
                    config, has_config = record, True
                elif kind == "aggregate":
                    aggregate = record["aggregate"]
                else:
                    lines.append(raw)
                    failed += kind == "error"
            pairs = len(lines) - start
            if aggregate is None or (aggregate["pairs"], aggregate["failed"]) != (pairs, failed):
                raise _CommandError(f"{path}: incomplete: it needs an aggregate record, last, that "
                                    f"counts its {pairs} pair(s) and {failed} failed")
            if has_config:
                configured = configured or path
            else:
                unconfigured = unconfigured or path
            if configured and unconfigured:
                raise _CommandError(f"{unconfigured}: no config record, so it cannot be merged "
                                    f"with {configured}")
        if config is not None:
            emit(config)
        _write_pairs(emit, map(json.loads, lines))
    return 0


COMMANDS = {
    "decompose-flow": _cmd_decompose_flow,
    "verify-mechanisms": _cmd_verify_mechanisms,
    "gen-fixtures": _cmd_gen_fixtures,
    "report": _cmd_report,
}
