"""Command-line surface: evaluation runs, flow decomposition, mechanism
verification, and fixture generation.

Reports are line-delimited JSON: one effective-config record, one record per
trajectory pair (or a per-pair error record), and a final aggregate. They are
a pure function of (inputs, config). Each record is written and flushed as
soon as it exists. ``eval --workers N`` scores pairs in up to N fork worker
processes and writes their records in index order, so N never changes the
report bytes. A regular-file or new ``--out`` is written to a temp file beside
it and renamed onto it only when the report is complete. Timing goes to
stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import stat
import sys
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import fields
from pathlib import Path
from typing import TextIO

import numpy as np

from . import formats
from .features import EMBEDDER_EXTERNAL, EMBEDDER_REFERENCE, EmbedderSpec
from .flow import DegenerateMatchesError, estimate_homography, render_camera_flow, residual_object_flow
from .manifest import load_manifest, save_manifest
from .metrics import METRIC_NAMES, MetricConfig, evaluate_all
from .microsim import (
    CameraMotion,
    ChunkSpec,
    ObjectSpec,
    SimConfig,
    SimConfigError,
    default_catalog,
    generate_trajectory,
)
from .rollout import PhaseLabel
from .verify import run_verification


class _CommandError(Exception):
    """A bad input or output: the command prints ``<command>: <message>`` on stderr and exits 2."""


def _emit(stream: TextIO, record: dict) -> None:
    stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    stream.flush()


@contextlib.contextmanager
def _report_writer(path: str | None) -> Iterator[Callable[[dict], None]]:
    """Yields a function that writes one record as a JSON line and flushes it.

    Lines go to stdout, or to ``<path>.<pid>.tmp`` beside ``path``, which is
    renamed onto ``path`` (keeping an existing file's mode) when the block
    completes and removed when it raises: a report at ``path`` is only ever
    replaced by a whole one. Only a new name or a regular file is replaced;
    anything else (a symlink's target, ``/dev/null``, a FIFO) is written in
    place. An unwritable ``path`` is a ``_CommandError`` before the block
    starts.
    """
    if path is None:
        yield lambda record: _emit(sys.stdout, record)
        return
    if os.path.isdir(path):  # os.replace would only fail at the end
        raise _CommandError(f"cannot write {path}: it is a directory")
    try:
        replaceable = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        replaceable = True
    tmp = f"{path}.{os.getpid()}.tmp" if replaceable else path
    try:
        stream = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise _CommandError(f"cannot write {path}: {exc.strerror}") from None
    if tmp == path:
        with stream:
            yield lambda record: _emit(stream, record)
        return
    try:
        with stream:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            yield lambda record: _emit(stream, record)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must be a JSON object")
    return doc


def _typed_fields(cls: type, doc: dict, prefix: str = "") -> dict:
    """Config-file keys for dataclass ``cls``, cast to the type of their default.

    A non-object ``doc``, an unknown key or an inexact cast (3.7 to int) is an error naming the key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config key '{prefix.rstrip('.')}' must be an object, got {doc!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    typed = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ValueError(f"unknown config key '{prefix}{key}'")
        try:
            typed[key] = value if defaults[key] is None else type(defaults[key])(value)
            if isinstance(value, (int, float)) and typed[key] != value:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"config key '{prefix}{key}' cannot hold {value!r}") from None
    return typed


def _build_metric_config(args: argparse.Namespace, file_cfg: dict) -> MetricConfig:
    """Precedence: flags > config file > built-in defaults."""
    file_cfg = dict(file_cfg)
    spec = _typed_fields(EmbedderSpec, file_cfg.pop("embedder", {}), "embedder.")
    updates = _typed_fields(MetricConfig, file_cfg)
    for f in fields(MetricConfig):
        if f.name != "embedder" and getattr(args, f.name) is not None:
            updates[f.name] = getattr(args, f.name)
    for key, flag in (("kind", args.embedder), ("grid", args.embedder_grid),
                      ("source", args.embedder_source)):
        if flag is not None:
            spec[key] = flag
    return MetricConfig(**updates, embedder=EmbedderSpec(**spec))


def _eval_pair(task: tuple[str, str, MetricConfig]) -> dict:
    """The report record of a (gen path, gt path, config) task, or an error
    record when the pair cannot be scored. One argument, for ``Executor.map``."""
    gen_path, gt_path, cfg = task
    try:
        return evaluate_all(load_manifest(gen_path), load_manifest(gt_path), cfg).to_dict()
    except (OSError, ValueError, KeyError) as exc:  # ManifestError is a ValueError
        return {"error": {"gen": gen_path, "gt": gt_path, "message": str(exc)}}


def _aggregate_record(scored: list[dict], failed: int) -> dict:
    scores = {}
    for name in METRIC_NAMES:
        values = [r["scores"][name] for r in scored if r["scores"].get(name) is not None]
        scores[name] = float(np.mean(values)) if values else None
    return {"aggregate": {"scores": scores, "pairs": len(scored) + failed, "failed": failed}}


def _read_pairs(path: str) -> list[tuple[str, str]]:
    """Pairs file: a JSON list of {"gen": path, "gt": path}, paths relative to the file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        raise ValueError("must be a JSON list of {'gen', 'gt'} objects")
    for i, entry in enumerate(doc):
        if not (isinstance(entry, dict) and all(isinstance(entry.get(k), str) for k in ("gen", "gt"))):
            raise ValueError(f"entry {i} needs string fields 'gen' and 'gt'")
    base = Path(path).parent
    return [(str(base / e["gen"]), str(base / e["gt"])) for e in doc]


def _exit_with_caller(caller: int) -> None:
    """Pool worker initializer. A worker whose calling ``eval`` was killed
    (SIGTERM, SIGKILL) would otherwise wait for work forever; it exits
    within half a second instead."""

    def watch() -> None:
        while os.getppid() == caller:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def _scored(tasks: list[tuple[str, str, MetricConfig]], workers: int) -> Iterator[Iterator[dict]]:
    """Yields the tasks' records in index order, scored by up to ``workers``
    fork processes (at most one per usable CPU); with one, on the calling
    thread and no process starts. A worker that dies raises
    ``BrokenProcessPool``. Leaving the block cancels the tasks not yet
    started and waits for the workers to exit."""
    n = min(workers, len(tasks))
    if n > 1:
        n = min(n, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if n <= 1:
        yield map(_eval_pair, tasks)
        return
    # Not at the top: they add about 15 ms to every one-worker run.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a forked worker starts without importing numpy and the
    # package again. Python 3.12 and later warn on fork when the process has
    # other threads, which a BLAS library under numpy may have started.
    pool = ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                               initializer=_exit_with_caller, initargs=(os.getpid(),))
    try:
        yield pool.map(_eval_pair, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        file_cfg = _load_config_file(args.config)
        cfg = _build_metric_config(args, file_cfg)
    except (OSError, ValueError, TypeError) as exc:
        raise _CommandError(f"bad configuration: {exc}") from None

    if args.pairs:
        try:
            pairs = _read_pairs(args.pairs)
        except (OSError, ValueError) as exc:
            raise _CommandError(f"bad pairs file {args.pairs}: {exc}") from None
    elif args.gen and args.gt:
        pairs = [(args.gen, args.gt)]
    else:
        raise _CommandError("provide --gen/--gt or --pairs")

    succeeded = []
    failed = 0
    started = time.perf_counter()
    tasks = [(gen, gt, cfg) for gen, gt in pairs]
    with _report_writer(args.out) as emit, _scored(tasks, args.workers) as records:
        emit({"config": cfg.to_dict()})
        for index, record in enumerate(records):
            if "error" in record:
                record["error"]["pair"] = index
                failed += 1
            else:
                succeeded.append(record)
            emit(record)
        emit(_aggregate_record(succeeded, failed))
    elapsed = time.perf_counter() - started
    print(f"evaluated {len(pairs)} pair(s) in {elapsed:.3f}s "
          f"({len(pairs) / elapsed:.2f} trajectories/s)", file=sys.stderr)
    if failed == 0:
        return 0
    return 2 if not succeeded else 1


def _parse_matches(doc: object) -> list[np.ndarray] | np.ndarray:
    """One match set ([[sx, sy, dx, dy], ...] or [[[sx, sy], [dx, dy]], ...]),
    or a list of such sets (one per flow field)."""

    def one_set(items: list) -> np.ndarray:
        rows = []
        for item in items:
            flat = np.asarray(item, dtype=np.float64).ravel()
            if flat.size != 4:
                raise ValueError("each match needs exactly 4 numbers")
            rows.append([[flat[0], flat[1]], [flat[2], flat[3]]])
        return np.asarray(rows)

    if not isinstance(doc, list) or not doc:
        raise ValueError("matches file must hold a non-empty JSON array")
    try:
        return one_set(doc)
    except (ValueError, TypeError):
        return [one_set(entry) for entry in doc]


def _cmd_decompose_flow(args: argparse.Namespace) -> int:
    try:
        fields = formats.read_flow_file(args.flow)
    except (OSError, formats.FormatError) as exc:
        print(f"decompose-flow: {exc}", file=sys.stderr)
        return 2
    try:
        matches = _parse_matches(json.loads(Path(args.matches).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        print(f"decompose-flow: bad matches file: {exc}", file=sys.stderr)
        return 2
    if isinstance(matches, list) and len(matches) != len(fields):
        print(
            f"decompose-flow: {len(matches)} match sets for {len(fields)} flow fields",
            file=sys.stderr,
        )
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    homographies = []
    camera_fields = []
    residual_fields = []
    for i, field in enumerate(fields):
        match_set = matches[i] if isinstance(matches, list) else matches
        try:
            h, _ = estimate_homography(match_set, threshold=args.threshold,
                                       iterations=args.iterations, seed=args.seed)
        except (ValueError, DegenerateMatchesError) as exc:
            print(f"decompose-flow: field {i}: {exc}", file=sys.stderr)
            return 2
        camera = render_camera_flow(h, field.width, field.height)
        camera_fields.append(camera)
        residual_fields.append(residual_object_flow(field, camera))
        homographies.append(h.h.tolist())

    (out_dir / "homographies.json").write_text(
        json.dumps(homographies, indent=2) + "\n", encoding="utf-8"
    )
    formats.write_flow_file(out_dir / "camera_flow.bin", camera_fields)
    formats.write_flow_file(out_dir / "residual_flow.bin", residual_fields)
    return 0


def _cmd_verify_mechanisms(args: argparse.Namespace) -> int:
    with _report_writer(args.out) as emit:
        records = run_verification(args.seed, args.trials, inject_fault=args.inject_fault)
        for record in records:
            emit(record)
    return 0 if all(r["passed"] for r in records) else 1


def _catalog_from_file(path: str) -> list[tuple[str, SimConfig]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = []
    for fx in doc["fixtures"]:
        chunks = []
        for c in fx["chunks"]:
            camera = None
            if c.get("camera") is not None:
                cam = c["camera"]
                camera = CameraMotion(
                    kind=cam["kind"], dx=cam.get("dx", 0.0), dy=cam.get("dy", 0.0),
                    degrees=cam.get("degrees", 0.0), factor=cam.get("factor", 1.0),
                )
            motion = tuple(c["object_motion"]) if c.get("object_motion") is not None else None
            chunks.append(ChunkSpec(phase=PhaseLabel(c["phase"]), steps=int(c["steps"]),
                                    camera=camera, object_motion=motion))
        objects = tuple(
            ObjectSpec(shape=o["shape"], size=float(o["size"]), intensity=float(o["intensity"]),
                       position=tuple(o["position"]))
            for o in fx.get("objects", [])
        )
        cfg = SimConfig(
            seed=int(fx["seed"]), width=int(fx["width"]), height=int(fx["height"]),
            chunks=tuple(chunks), objects=objects, ego_object=int(fx.get("ego_object", 0)),
            noise_sigma=float(fx.get("noise_sigma", 0.0)),
        )
        entries.append((str(fx["name"]), cfg))
    return entries


def _cmd_gen_fixtures(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"gen-fixtures: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    if args.catalog:
        try:
            entries = _catalog_from_file(args.catalog)
        except (OSError, KeyError, ValueError, TypeError, AttributeError, SimConfigError) as exc:
            print(f"gen-fixtures: bad catalog: {exc}", file=sys.stderr)
            return 2
    else:
        entries = default_catalog(size=args.size, t=args.frames)

    catalog = []
    had_error = False
    for name, cfg in entries:
        try:
            traj, _ = generate_trajectory(cfg)
        except SimConfigError as exc:
            print(f"gen-fixtures: fixture '{name}': {exc}", file=sys.stderr)
            had_error = True
            continue
        fixture_dir = out_dir / name
        fixture_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = save_manifest(traj, fixture_dir / "manifest.json")
        phases = [c.phase.value for c in cfg.chunks]
        catalog.append(
            {
                "name": name,
                "seed": cfg.seed,
                "manifest": str(manifest_path.relative_to(out_dir)),
                "phases": phases,
                "frames_per_chunk": [c.steps for c in cfg.chunks],
                "dims": [cfg.width, cfg.height],
                "expected": {
                    "self_eval_unit_scores": True,
                    "camera_flow_matches_recorded_homography": True,
                    "residual_flow_within_ego_mask": "Manip" in phases,
                    "cpdm_applicable": len(set(phases)) > 1,
                    "fphs_applicable": any(a != b for a, b in zip(phases, phases[1:])),
                },
            }
        )
    (out_dir / "catalog.json").write_text(
        json.dumps({"fixtures": catalog}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"gen-fixtures: wrote {len(catalog)} fixture(s) to {out_dir}", file=sys.stderr)
    return 1 if had_error else 0


def _is_report_record(record: object) -> bool:
    """A JSON object; a trajectory record also needs numeric-or-null scores."""
    if not isinstance(record, dict):
        return False
    if "trajectory" not in record:
        return True
    scores = record.get("scores")
    return isinstance(scores, dict) and all(
        v is None or isinstance(v, (int, float)) for v in scores.values())


def _cmd_report(args: argparse.Namespace) -> int:
    with _report_writer(args.out) as emit:
        config = None
        trajectories = []
        errors = 0
        for path in args.inputs:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:
                raise _CommandError(f"{path}: {exc}") from None
            for lineno, raw in enumerate(text.splitlines(), start=1):
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw)
                except ValueError:
                    record = None
                if not _is_report_record(record):
                    raise _CommandError(f"{path}:{lineno}: not a report record")
                if "config" in record:
                    if config is not None and record != config:
                        raise _CommandError(f"{path}:{lineno}: config differs from the first input's")
                    config = record
                elif "trajectory" in record:
                    trajectories.append(record)
                elif "error" in record:
                    errors += 1
        if config is not None:
            emit(config)
        for record in trajectories:
            emit(record)
        emit(_aggregate_record(trajectories, errors))
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wemeval",
                                     description="Embodied rollout evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate generated-vs-ground-truth trajectory pairs")
    p_eval.add_argument("--gen", help="generated trajectory manifest")
    p_eval.add_argument("--gt", help="ground-truth trajectory manifest")
    p_eval.add_argument("--pairs", help="JSON file: [{'gen': path, 'gt': path}, ...]")
    p_eval.add_argument("--out", help="report file (default stdout)")
    p_eval.add_argument("--config", help="JSON config file (flags override it)")
    p_eval.add_argument("--workers", type=_positive_int, default=1,
                        help="score pairs in up to N fork worker processes, at most one per "
                             "usable CPU; records still stream in index order")
    p_eval.add_argument("--lpsa-window", dest="lpsa_window", type=_positive_int, default=None)
    p_eval.add_argument("--fphs-window", dest="fphs_window", type=_positive_int, default=None)
    p_eval.add_argument("--tau-cpdm", dest="tau_cpdm", type=float, default=None)
    p_eval.add_argument("--tau-pmpa", dest="tau_pmpa", type=float, default=None)
    p_eval.add_argument("--resample-steps", dest="resample_steps", type=_positive_int, default=None)
    p_eval.add_argument("--top-fraction", dest="top_fraction", type=float, default=None)
    p_eval.add_argument("--eps", type=float, default=None)
    p_eval.add_argument("--embedder", choices=[EMBEDDER_REFERENCE, EMBEDDER_EXTERNAL], default=None)
    p_eval.add_argument("--embedder-grid", dest="embedder_grid", type=_positive_int, default=None)
    p_eval.add_argument("--embedder-source", dest="embedder_source", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_flow = sub.add_parser("decompose-flow", help="split raw flow into camera and residual parts")
    p_flow.add_argument("--flow", required=True, help="flow binary file")
    p_flow.add_argument("--matches", required=True, help="JSON point correspondences")
    p_flow.add_argument("--out-dir", required=True)
    p_flow.add_argument("--threshold", type=float, default=1.0, help="RANSAC inlier threshold (px)")
    p_flow.add_argument("--iterations", type=_positive_int, default=500)
    p_flow.add_argument("--seed", type=int, default=0)
    p_flow.set_defaults(func=_cmd_decompose_flow)

    p_verify = sub.add_parser("verify-mechanisms", help="run mechanism invariant checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=_positive_int, default=1000)
    p_verify.add_argument("--out", help="JSONL output (default stdout)")
    p_verify.add_argument("--inject-fault", choices=["unroute-flip"], default=None,
                          help=argparse.SUPPRESS)  # test-only fault injection
    p_verify.set_defaults(func=_cmd_verify_mechanisms)

    p_gen = sub.add_parser("gen-fixtures", help="emit simulator fixtures with exact ground truth")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--catalog", help="catalog JSON (defaults to the built-in catalog)")
    p_gen.add_argument("--size", type=_positive_int, default=64, help="frame side for the built-in catalog")
    p_gen.add_argument("--frames", type=_positive_int, default=6, help="frames per chunk for the built-in catalog")
    p_gen.set_defaults(func=_cmd_gen_fixtures)

    p_report = sub.add_parser("report", help="merge report files and recompute the aggregate")
    p_report.add_argument("inputs", nargs="+")
    p_report.add_argument("--out", help="merged report file (default stdout)")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CommandError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``eval ... | head``); the workers are gone
        # by now. Point stdout at devnull so the interpreter's flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
