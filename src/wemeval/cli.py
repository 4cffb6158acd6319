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
import signal
import stat
import sys
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import formats
from .features import EmbedderSpec
from .flow import DegenerateMatchesError, estimate_homography, render_camera_flow, residual_object_flow
from .manifest import load_manifest, save_manifest
from .metrics import METRIC_NAMES, MetricConfig, evaluate_all
from .rollout import PhaseLabel

if TYPE_CHECKING:
    from .microsim import SimConfig


class _CommandError(Exception):
    """A bad input or output: the command prints ``<command>: <message>`` on stderr and exits 2."""


class _Terminated(BaseException):
    """SIGTERM arrived while a report was being written; ``main`` re-raises the
    signal once the temp file is gone."""


def _raise_terminated(signum: int, frame: object) -> None:
    raise _Terminated


def _emit(stream: TextIO, record: dict) -> None:
    stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    stream.flush()


@contextlib.contextmanager
def _report_writer(path: str | None) -> Iterator[Callable[[dict], None]]:
    """Yields a function that writes one record as a JSON line and flushes it.

    Lines go to stdout, or to ``<path>.<pid>.tmp`` beside ``path``, which is
    renamed onto ``path`` (keeping an existing file's mode) when the block
    completes and removed when it raises or, on the main thread, when SIGTERM
    arrives: a report at ``path`` is only ever replaced by a whole one. Only a
    new name or a regular file is replaced; anything else (a symlink's
    target, ``/dev/null``, a FIFO) is written in place. An unwritable ``path``
    is a ``_CommandError`` before the block starts.
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
    on_main = threading.current_thread() is threading.main_thread()  # only it may set handlers
    previous = signal.signal(signal.SIGTERM, _raise_terminated) if on_main else None
    try:
        with stream:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            yield lambda record: _emit(stream, record)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # SIGTERM just after the replace
            os.unlink(tmp)
        raise
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    doc = formats.decode_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must be a JSON object")
    return doc


def _typed_fields(cls: type, doc: dict, prefix: str = "") -> dict:
    """Config keys for dataclass ``cls``, from the file or as flag strings, cast
    to the type of their default; a key whose default is None is a string or null.

    A non-object ``doc``, an unknown key, a bool for a non-bool key or an
    inexact cast (3.7 to int) is an error naming the key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config key '{prefix.rstrip('.')}' must be an object, got {doc!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    typed = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ValueError(f"unknown config key '{prefix}{key}'")
        default = defaults[key]
        try:
            if isinstance(value, bool) and not isinstance(default, bool):
                raise ValueError  # int(True) == 1 would pass the exactness check
            if default is None:
                typed[key] = None if value is None else str(value)
            else:
                typed[key] = type(default)(value)
                if isinstance(value, (int, float)) and typed[key] != value:
                    raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"config key '{prefix}{key}' cannot hold {value!r}") from None
    return typed


def _config_flags() -> Iterator[tuple[str, str, object]]:
    """(flag, config key, default) of each ``eval`` metric flag: the
    ``MetricConfig`` fields, then the ``EmbedderSpec`` fields under
    ``embedder.``. Key ``x_y`` is ``--x-y``, ``embedder.x`` is
    ``--embedder-x``, and ``embedder.kind`` is ``--embedder``."""
    keys = [(f.name, f.default) for f in fields(MetricConfig) if f.name != "embedder"]
    keys += [(f"embedder.{f.name}", f.default) for f in fields(EmbedderSpec)]
    for key, default in keys:
        yield "--" + key.removesuffix(".kind").replace(".", "-").replace("_", "-"), key, default


def _typed_config(doc: dict) -> tuple[dict, dict]:
    """The ``MetricConfig`` keys of config object ``doc`` and the
    ``EmbedderSpec`` keys of its ``embedder`` object, each by ``_typed_fields``."""
    doc = dict(doc)
    spec = _typed_fields(EmbedderSpec, doc.pop("embedder", {}), "embedder.")
    return _typed_fields(MetricConfig, doc), spec


def _build_metric_config(args: argparse.Namespace, file_cfg: dict) -> MetricConfig:
    """Precedence: flags > config file > built-in defaults, key by key. Flag
    strings take the file's cast; ranges are the dataclasses' to check."""
    given = {key: getattr(args, key) for _, key, _ in _config_flags()
             if getattr(args, key) is not None}
    flag_cfg = {key: value for key, value in given.items() if "." not in key}
    flag_cfg["embedder"] = {key.removeprefix("embedder."): value
                            for key, value in given.items() if "." in key}
    spec, updates = {}, {}
    for doc in (file_cfg, flag_cfg):
        typed, typed_spec = _typed_config(doc)
        updates.update(typed)
        spec.update(typed_spec)
    return MetricConfig(**updates, embedder=EmbedderSpec(**spec))


def _eval_pair(task: tuple[str, str, MetricConfig]) -> dict:
    """The report record of a (gen path, gt path, config) task, or an error
    record when the pair cannot be scored. One argument, for ``Executor.map``."""
    gen_path, gt_path, cfg = task
    try:
        return evaluate_all(load_manifest(gen_path), load_manifest(gt_path), cfg).to_dict()
    except (OSError, ValueError) as exc:  # ManifestError is a ValueError
        message = str(exc)
    except KeyError as exc:  # a missing store key; str() would quote the message
        message = exc.args[0]
    return {"error": {"gen": gen_path, "gt": gt_path, "message": message}}


def _aggregate_record(scored: list[dict], failed: int) -> dict:
    scores = {}
    for name in METRIC_NAMES:
        values = [r["scores"][name] for r in scored if r["scores"].get(name) is not None]
        scores[name] = float(np.mean(values)) if values else None
    return {"aggregate": {"scores": scores, "pairs": len(scored) + failed, "failed": failed}}


def _read_pairs(path: str) -> list[tuple[str, str]]:
    """Pairs file: a JSON list of {"gen": path, "gt": path}, paths relative to the file."""
    doc = formats.decode_json(Path(path).read_text(encoding="utf-8"))
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
    within half a second instead. SIGTERM gets its default action back from
    the report writer's handler, which only the caller can act on."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

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

    def one_set(items: object) -> np.ndarray:
        if not isinstance(items, list):
            raise ValueError(f"a match set must be a JSON array, got {items!r}")
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
        except (ValueError, DegenerateMatchesError) as exc:
            raise _CommandError(f"field {i}: {exc}") from None
        camera = render_camera_flow(h, field.width, field.height)
        camera_fields.append(camera)
        residual_fields.append(residual_object_flow(field, camera))
        homographies.append(h.h.tolist())

    out_dir = _make_dir(args.out_dir)
    (out_dir / "homographies.json").write_text(
        json.dumps(homographies, indent=2) + "\n", encoding="utf-8"
    )
    formats.write_flow_file(out_dir / "camera_flow.bin", camera_fields)
    formats.write_flow_file(out_dir / "residual_flow.bin", residual_fields)
    return 0


def _cmd_verify_mechanisms(args: argparse.Namespace) -> int:
    from .verify import run_verification  # with .mechanisms, 15-20 ms that eval never needs

    with _report_writer(args.out) as emit:
        records = run_verification(args.seed, args.trials)
        for record in records:
            emit(record)
    return 0 if all(r["passed"] for r in records) else 1


def _catalog_from_file(path: str) -> list[tuple[str, SimConfig]]:
    from .microsim import CameraMotion, ChunkSpec, ObjectSpec, SimConfig

    doc = formats.decode_json(Path(path).read_text(encoding="utf-8"))
    entries = []
    names = set()
    for fx in doc["fixtures"]:
        name = fx["name"]
        # Each name is one directory under --out-dir, which it must not leave or share.
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ValueError(f"fixture name {name!r} is not one path component")
        if name in names:
            raise ValueError(f"fixture name {name!r} is used twice")
        names.add(name)
        chunks = []
        for c in fx["chunks"]:
            camera = CameraMotion(**c["camera"]) if c.get("camera") is not None else None
            motion = tuple(c["object_motion"]) if c.get("object_motion") is not None else None
            chunks.append(ChunkSpec(phase=PhaseLabel(c["phase"]), steps=int(c["steps"]),
                                    camera=camera, object_motion=motion))
        objects = tuple(
            ObjectSpec(shape=o["shape"], size=float(o["size"]), intensity=float(o["intensity"]),
                       position=tuple(o["position"]))
            for o in fx.get("objects", [])
        )
        cfg = SimConfig(
            seed=fx["seed"], width=int(fx["width"]), height=int(fx["height"]),
            chunks=tuple(chunks), objects=objects, ego_object=int(fx.get("ego_object", 0)),
            noise_sigma=float(fx.get("noise_sigma", 0.0)),
        )
        entries.append((name, cfg))
    return entries


def _cmd_gen_fixtures(args: argparse.Namespace) -> int:
    from .microsim import SimConfigError, default_catalog, generate_trajectory  # 13-16 ms eval never needs

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


def _is_score(value: object) -> bool:
    """Null, or a number that is not a bool and lies in [-1, 1], the range of
    every metric: NaN, the infinities and finite scores whose sum overflows
    would poison the aggregate."""
    if value is None:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return -1 <= value <= 1


_RECORD_KINDS = ("config", "trajectory", "error", "aggregate")


def _record_kind(record: object) -> str:
    """Which of the four record kinds ``eval`` writes ``record`` is; ValueError
    if it is none of them.

    A trajectory record has a string id and a scores object whose values pass
    ``_is_score``; each other kind is one object under its own key. A config's
    keys pass ``_typed_fields``, and an error holds exactly the strings ``gen``,
    ``gt`` and ``message`` and the pair's index ``pair``.
    """
    kinds = [kind for kind in _RECORD_KINDS if kind in record] if isinstance(record, dict) else []
    if len(kinds) != 1:
        raise ValueError("not a report record")
    kind = kinds[0]
    doc = record[kind]
    if kind == "trajectory":
        scores = record.get("scores")
        valid = (isinstance(doc, str) and isinstance(scores, dict)
                 and all(_is_score(v) for v in scores.values()))
    else:
        valid = len(record) == 1 and isinstance(doc, dict)
    if valid and kind == "config":
        _typed_config(doc)  # raises ValueError on a key that fails its cast
    elif valid and kind == "error":
        valid = (doc.keys() == {"gen", "gt", "message", "pair"}
                 and all(isinstance(doc[key], str) for key in ("gen", "gt", "message"))
                 and type(doc["pair"]) is int and doc["pair"] >= 0)  # type(True) is bool
    if not valid:
        raise ValueError("not a report record")
    return kind


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
                    record = formats.decode_json(raw)
                    kind = _record_kind(record)
                except ValueError:
                    raise _CommandError(f"{path}:{lineno}: not a report record") from None
                if kind == "config":
                    if config is not None and record != config:
                        raise _CommandError(f"{path}:{lineno}: config differs from the first input's")
                    config = record
                elif kind == "trajectory":
                    trajectories.append(record)
                elif kind == "error":
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
    for flag, key, default in _config_flags():
        p_eval.add_argument(flag, dest=key, help=f"config key '{key}' (default {default})")
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
    p_verify.set_defaults(func=_cmd_verify_mechanisms)

    p_gen = sub.add_parser("gen-fixtures", help="emit simulator fixtures with exact ground truth")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--catalog", help="catalog JSON (defaults to the built-in catalog)")
    p_gen.add_argument("--size", type=int, default=64, help="frame side for the built-in catalog")
    p_gen.add_argument("--frames", type=int, default=6, help="frames per chunk for the built-in catalog")
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
    except _Terminated:
        # The report writer has removed its temp file and put the previous
        # SIGTERM action back; end as that action says, by default by SIGTERM.
        os.kill(os.getpid(), signal.SIGTERM)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (``eval ... | head``); the workers are gone
        # by now. Point stdout at devnull so the interpreter's flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
