"""Command-line surface: evaluation runs, flow decomposition, mechanism
verification, and fixture generation.

Reports are line-delimited JSON: one effective-config record, one record per
trajectory pair (or a per-pair error record), and a final aggregate. ``eval``
and ``report`` (which merges whole reports) write the pair records and the
aggregate with one function. Each record is written and flushed as soon as it
exists. ``eval --workers N`` scores pairs in up to N forked worker processes,
which take pair indices from one pipe of tickets and send records back over a
pipe each; the records are written in index order, so N never changes the
report bytes, nor does a rerun on one numpy/BLAS build (another BLAS kernel
moves scores by ~1e-12). A regular-file or new ``--out`` is written through
``formats.replacing``, so it is replaced only by a complete report. Timing goes
to stderr only. ``python -m wemeval.cli`` exits without the interpreter's
teardown; ``main`` itself returns as usual.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import stat
import sys
import threading
import time
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import formats
from .features import EmbedderSpec
from .flow import estimate_homography, render_camera_flow, residual_object_flow
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


def _emit(stream: TextIO, record: dict) -> None:
    stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    stream.flush()


@contextlib.contextmanager
def _writing(target: str | Path) -> Iterator[None]:
    """Turns an OSError in the block into a ``_CommandError`` naming ``target``."""
    try:
        yield
    except OSError as exc:
        raise _CommandError(f"cannot write {target}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _report_writer(path: str | None) -> Iterator[Callable[[dict], None]]:
    """Yields a function that writes one record as a JSON line and flushes it.

    Lines go to stdout, or to ``path`` through ``formats.replacing``. On the
    main thread, SIGTERM is recorded while the block runs, and the next write,
    or the block's end, raises ``_Terminated`` before the rename, so the temp
    file goes then too: a report at ``path`` is only ever replaced by a whole
    one. The handler raises nothing itself, since a weakref callback or a
    ``__del__`` that it interrupted would swallow the exception. Only a new
    name or a regular file is replaced; anything else
    (a symlink's target, ``/dev/null``, a FIFO) is written in place. An
    unwritable ``path`` is a ``_CommandError`` before the block starts, and a
    failed write, close or rename of it one when the block ends; other
    OSErrors of the block pass through as they are.
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
    # Only the main thread may set handlers, and only a temp file needs one.
    on_main = replaceable and threading.current_thread() is threading.main_thread()
    terminated = []  # the SIGTERMs received
    previous = signal.signal(signal.SIGTERM, lambda *_: terminated.append(1)) if on_main else None

    def check() -> None:
        if terminated:
            raise _Terminated

    try:
        with contextlib.ExitStack() as stack:
            with _writing(path):
                stream = stack.enter_context(formats.replacing(path, "w") if replaceable
                                             else open(path, "w", encoding="utf-8"))

            def write(record: dict) -> None:
                check()
                with _writing(path):
                    try:
                        _emit(stream, record)
                    except OSError:
                        with contextlib.suppress(OSError):
                            stream.close()  # drop the unwritten rest, which the cleanup would fail on anew
                        raise

            yield write
            check()
            with _writing(path):
                stack.close()  # the last flush and the rename, once the block has completed
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
            check()  # a SIGTERM during the cleanup or the rename


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    doc = formats.decode_json(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must be a JSON object")
    return doc


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
        if default is None and not isinstance(value, bool):
            typed[key] = None if value is None else str(value)
        else:
            typed[key] = _exact(type(default), value, f"config key '{prefix}{key}'")
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
    record when the pair cannot be scored. One argument, for ``map``. No
    metric reads the world-ego masks, so their sidecars are not loaded."""
    gen_path, gt_path, cfg = task
    try:
        return evaluate_all(load_manifest(gen_path, masks=False), load_manifest(gt_path, masks=False),
                            cfg).to_dict()
    except (OSError, ValueError) as exc:  # ManifestError is a ValueError
        message = str(exc)
    except KeyError as exc:  # a missing store key; str() would quote the message
        message = exc.args[0]
    return {"error": {"gen": gen_path, "gt": gt_path, "message": message}}


def _write_pairs(emit: Callable[[dict], None], records: Iterable[dict]) -> tuple[int, int]:
    """Writes the pair records in order, each error record's ``pair`` set to its
    position, then their aggregate; returns (pairs, failed). Of each record
    only its scores (None for an error) are kept."""
    scores = []
    for index, record in enumerate(records):
        if "error" in record:
            record["error"]["pair"] = index
        emit(record)
        scores.append(record.get("scores"))
    scored = [s for s in scores if s is not None]
    means = {}
    for name in METRIC_NAMES:
        values = [s[name] for s in scored if s[name] is not None]
        means[name] = float(np.mean(values)) if values else None
    failed = len(scores) - len(scored)
    emit({"aggregate": {"scores": means, "pairs": len(scores), "failed": failed}})
    return len(scores), failed


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


def _work(tasks: list[tuple[str, str, MetricConfig]], tickets: int, out: int) -> None:
    """A forked worker: writes ``<index> <record JSON>`` lines to ``out`` for the
    pairs of the 4-byte tickets it reads, and exits when they run out, when
    ``out`` has no reader, or on an error, after printing its traceback."""
    code = 1
    try:
        with open(out, "w", encoding="utf-8") as stream:
            while ticket := os.read(tickets, 4):
                index = int.from_bytes(ticket, "little")
                stream.write(f"{index} ")
                _emit(stream, _eval_pair(tasks[index]))
        code = 0
    except BrokenPipeError:
        pass  # the caller is gone
    except Exception:
        import traceback  # only a failing worker needs it

        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _scored(tasks: list[tuple[str, str, MetricConfig]], workers: int) -> Iterator[dict]:
    """The tasks' records in index order, scored by up to ``workers`` fork
    processes (at most one per usable CPU); with one, on the calling thread.
    Workers take pair indices from one pipe of tickets kept about two per
    worker ahead of the records received, so a slow pair holds up no other.
    Closing the generator closes the pipes and waits for the workers, each of
    which exits after the pair it holds. A dead worker is a ``_CommandError``."""
    n = min(workers, len(tasks))
    if n > 1:
        n = min(n, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if n <= 1:
        yield from map(_eval_pair, tasks)
        return
    import selectors  # one-worker runs never need it

    tickets, feed_fd = os.pipe()
    feed = open(feed_fd, "wb", buffering=0)
    sent = min(2 * n, len(tasks))
    feed.write(b"".join(i.to_bytes(4, "little") for i in range(sent)))  # far below the 64 KiB a pipe holds
    outs, pids = [], []
    try:
        for _ in range(n):
            out, into = os.pipe()
            outs.append(out)
            # fork, not spawn: a worker does not import numpy and the package again. A BLAS
            # pool under numpy stops at fork (pthread_atfork), so 3.12's warning does not apply.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the report writer's handler only records it
                for fd in (feed_fd, *outs):  # else the tickets never run out and no write fails
                    os.close(fd)
                _work(tasks, tickets, into)
            pids.append(pid)
            os.close(into)
        received, partial = {}, dict.fromkeys(outs, b"")
        with selectors.DefaultSelector() as sel:
            for fd in outs:
                sel.register(fd, selectors.EVENT_READ)
            for index in range(len(tasks)):
                while index not in received:
                    if sent == len(tasks):
                        feed.close()  # each worker exits once the pipe is empty
                    # With tickets left, a worker exits only by dying.
                    if len(sel.get_map()) < (1 if feed.closed else n):
                        raise _CommandError(f"a worker process died; pair {index} and later pairs were not scored")
                    for key, _ in sel.select():
                        if not (data := os.read(key.fd, 1 << 16)):
                            sel.unregister(key.fd)
                        *lines, partial[key.fd] = (partial[key.fd] + data).split(b"\n")
                        for at, record in (line.split(b" ", 1) for line in lines):
                            received[int(at)] = json.loads(record)
                            if sent < len(tasks):
                                feed.write(sent.to_bytes(4, "little"))
                                sent += 1
                yield received.pop(index)
    finally:
        feed.close()
        for fd in (tickets, *outs):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        file_cfg = _load_config_file(args.config)
        cfg = _build_metric_config(args, file_cfg)
    except (OSError, ValueError, TypeError) as exc:
        raise _CommandError(f"bad configuration: {exc}") from None

    if args.pairs and (args.gen or args.gt):
        raise _CommandError("give --pairs or --gen/--gt, not both")
    if args.pairs:
        try:
            pairs = _read_pairs(args.pairs)
        except (OSError, ValueError) as exc:
            raise _CommandError(f"bad pairs file {args.pairs}: {exc}") from None
    elif args.gen and args.gt:
        pairs = [(args.gen, args.gt)]
    else:
        raise _CommandError("provide --gen/--gt or --pairs")

    started = time.perf_counter()
    tasks = [(gen, gt, cfg) for gen, gt in pairs]
    with _report_writer(args.out) as emit, contextlib.closing(_scored(tasks, args.workers)) as records:
        emit({"config": cfg.to_dict()})
        total, failed = _write_pairs(emit, records)
    elapsed = time.perf_counter() - started
    print(f"evaluated {len(pairs)} pair(s) in {elapsed:.3f}s "
          f"({len(pairs) / elapsed:.2f} pairs/s)", file=sys.stderr)
    return 0 if not failed else 2 if failed == total else 1


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
    from .verify import run_verification  # with .mechanisms, 15-20 ms that eval never needs

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
    ``_typed_fields``; an error holds exactly the strings ``gen``, ``gt`` and
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
        _typed_config(doc)  # raises ValueError on a key that fails its cast
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


def _int_at_least(low: int) -> Callable[[str], int]:
    def integer(value: str) -> int:  # argparse names the type in "invalid integer value: 'x'"
        if (parsed := int(value)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return parsed
    return integer


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
    p_eval.add_argument("--workers", type=_int_at_least(1), default=1,
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
    p_flow.add_argument("--iterations", type=_int_at_least(1), default=500)
    p_flow.add_argument("--seed", type=_int_at_least(0), default=0)
    p_flow.set_defaults(func=_cmd_decompose_flow)

    p_verify = sub.add_parser("verify-mechanisms", help="run mechanism invariant checks")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--trials", type=_int_at_least(1), default=1000)
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


def run() -> None:
    """``main`` for ``python -m wemeval.cli`` and the ``wemeval`` script, ending
    without the interpreter's teardown (about 20 ms once numpy is loaded)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
