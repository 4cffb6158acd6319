"""Command-line surface: the parser, evaluation runs and the helpers every
command shares. Flow decomposition, mechanism verification, fixture generation
and report merging are in ``commands``, imported only when one of them runs.

Reports are line-delimited JSON: one effective-config record, one record per
trajectory pair (or a per-pair error record), and a final aggregate. ``eval``
and ``report`` (which merges whole reports) write the pair records and the
aggregate with one function. Each record is written and flushed as soon as it
exists. ``eval --workers N`` scores pairs in the calling process and up to N - 1
forked helpers, which take pair indices from one pipe of tickets and send records
back over a pipe each; the records are written in index order, so N never changes the
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
from typing import TextIO

import numpy as np

from . import formats
from .features import EmbedderSpec
from .manifest import load_manifest
from .metrics import METRIC_NAMES, MetricConfig, evaluate_all


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


def _eval_here(task: tuple[str, str, MetricConfig], index: int, waiting: int) -> dict:
    """``_eval_pair`` in a pool's caller: an unexpected exception ends ``eval`` as in a helper."""
    try:
        return _eval_pair(task)
    except Exception:
        import traceback  # only a failing pair needs it

        traceback.print_exc()
        raise _CommandError(f"pair {index} failed; pair {waiting} and later pairs were not scored") from None


def _scored(tasks: list[tuple[str, str, MetricConfig]], workers: int) -> Iterator[dict]:
    """The tasks' records in index order, scored on the calling thread if ``workers``
    is one. Else the caller scores pair 0, forks up to ``workers - 1`` helpers (one
    process per usable CPU) and, while the next record due is missing, scores the next
    pair not handed out. Helpers take pair indices from one pipe of tickets kept about two
    per helper ahead of the records received, so a slow pair holds up no other. Closing
    the generator waits for the helpers' pairs. A dead helper is a ``_CommandError``."""
    n = min(workers, len(tasks))
    if n > 1:
        n = min(n, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if n <= 1:
        yield from map(_eval_pair, tasks)
        return
    import selectors  # one-worker runs never need it

    yield _eval_here(tasks[0], 0, 0)  # before the fork, whose copied pages would slow it
    tickets, feed_fd = os.pipe()
    feed = open(feed_fd, "wb", buffering=0)
    sent = min(2 * n - 1, len(tasks))
    feed.write(b"".join(i.to_bytes(4, "little") for i in range(1, sent)))  # far below the 64 KiB a pipe holds
    outs, pids = [], []
    try:
        for _ in range(n - 1):
            out, into = os.pipe()
            outs.append(out)
            # fork, not spawn: a helper does not import numpy and the package again. A BLAS
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
            for index in range(1, len(tasks)):
                while index not in received:
                    if sent == len(tasks):
                        feed.close()  # each helper exits once the pipe is empty
                    # With tickets left, a helper exits only by dying.
                    if len(sel.get_map()) < (1 if feed.closed else n - 1):
                        raise _CommandError(f"a worker process died; pair {index} and later pairs were not scored")
                    if not (ready := sel.select(None if feed.closed else 0)):  # nothing to read: score one here
                        received[sent] = _eval_here(tasks[sent], sent, index)
                        sent += 1
                    for key, _ in ready:
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
                        help="score pairs in up to N processes, this one and forked helpers, "
                             "at most one per usable CPU; records still stream in index order")
    for flag, key, default in _config_flags():
        p_eval.add_argument(flag, dest=key, help=f"config key '{key}' (default {default})")

    p_flow = sub.add_parser("decompose-flow", help="split raw flow into camera and residual parts")
    p_flow.add_argument("--flow", required=True, help="flow binary file")
    p_flow.add_argument("--matches", required=True, help="JSON point correspondences")
    p_flow.add_argument("--out-dir", required=True)
    p_flow.add_argument("--threshold", type=float, default=1.0, help="RANSAC inlier threshold (px)")
    p_flow.add_argument("--iterations", type=_int_at_least(1), default=500)
    p_flow.add_argument("--seed", type=_int_at_least(0), default=0)

    p_verify = sub.add_parser("verify-mechanisms", help="run mechanism invariant checks")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--trials", type=_int_at_least(1), default=1000)
    p_verify.add_argument("--out", help="JSONL output (default stdout)")

    p_gen = sub.add_parser("gen-fixtures", help="emit simulator fixtures with exact ground truth")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--catalog", help="catalog JSON (defaults to the built-in catalog)")
    p_gen.add_argument("--size", type=int, default=64, help="frame side for the built-in catalog")
    p_gen.add_argument("--frames", type=int, default=6, help="frames per chunk for the built-in catalog")

    p_report = sub.add_parser("report", help="merge report files and recompute the aggregate")
    p_report.add_argument("inputs", nargs="+")
    p_report.add_argument("--out", help="merged report file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        from .commands import COMMANDS  # the other commands, which eval never loads

        return COMMANDS[args.command](args)
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
    # ``commands`` imports its helpers from this module, not from a second copy
    # whose _CommandError ``main`` would not catch.
    sys.modules["wemeval.cli"] = sys.modules[__name__]
    run()
