"""Benchmark of ``wemeval eval``, run from the root of a source checkout.

    python3 perfbench/run.py --workload hd-mixed --seed 1 --seconds 20 --trace 0

One client drives a batch job: the benchmark starts one ``eval --pairs``
child at a time from the checkout's ``src/`` and times it from outside, until
``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics of
those runs; ``--trace 1`` reports per-layer metrics from a separate in-process
traced pass over the same pairs (see layers.py). Every child's report goes
through the output checks. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the inputs and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # the whole invocation, including set-up and the traced pass
# external-store aggregates against the reference embedder's. The store holds
# f32 vectors; over 40 seeds the largest gap was 1.6e-7 (rcbd, whose small
# boundary distances f32 rounding moves most), the others stayed below 2e-9.
F32_TOLERANCE = 1e-5
THREADS_ENV = "WEMEVAL_THREADS"  # overrides --workers in the program, so it is cleared

# Other tenants of a shared host slow every process here by up to 2x in bursts
# of seconds, so raw wall times of consecutive runs spread by 10-20%. A fixed
# calibration child runs before and after each eval child; the eval child's
# times are scaled by CALIBRATION_REF_S over the mean of those two, giving
# times at a reference machine speed. The calibration does what eval does
# per pair in miniature: interpreter and numpy start-up, array reductions, a
# sort and a Python loop. It does not import the program.
CALIBRATION = """
import numpy as np
a = np.random.default_rng(0).random((128, 128))
acc = 0.0
for _ in range(600):
    m = np.hypot(a, a[::-1])
    acc += float(np.sort(m.ravel())[-100:].mean()) + float(m.mean(axis=0).std())
    acc += sum(float(x) for x in m[0, :32])
print(repr(acc))
"""
CALIBRATION_REF_S = 0.45  # its wall time on a quiet 2-core host

END_TO_END = {  # metric -> unit, better
    "pairs_per_s": ("pairs/s", "higher"),
    "first_record_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# Documented score ranges: rcbd, cisr, pmpa and cpdm in (0, 1]; lpsa and fphs
# are cosines in [-1, 1]. cpdm and fphs are absent exactly when the ground
# truth has a single phase.
SCORES = ("rcbd", "lpsa", "cisr", "pmpa", "cpdm", "fphs")
OPEN_UNIT = ("rcbd", "cisr", "pmpa", "cpdm")
PHASE_SWITCH_ONLY = ("cpdm", "fphs")


@dataclass
class ChildRun:
    workers: int
    wall_s: float
    first_record_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


def run_child(cmd: list[str], workers: int, env: dict, cwd: Path, deadline: float) -> ChildRun:
    """Run one child; time it, and read its peak RSS from ``os.wait4``."""
    with open(cwd / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=env)
    first_record = None
    newlines = 0
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(remaining):
                proc.kill()
                break
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
            if newlines < 2:  # line 1 is the config record, line 2 the first pair record
                newlines += data.count(b"\n")
                if newlines >= 2:
                    first_record = time.perf_counter() - start
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if first_record is None:  # no pair record arrived: the child failed
        first_record = wall
    return ChildRun(workers, wall, first_record, usage.ru_maxrss * 1024 / 1e6,
                    proc.returncode, b"".join(chunks))


def check_report(run: ChildRun, pairs, reference: dict | None) -> tuple[list[str], list[dict]]:
    """Output checks on one child's report; returns (problems, pair records)."""
    problems = []
    if run.exit_code != 0:
        problems.append(f"exit code {run.exit_code}")
    try:
        records = [json.loads(line) for line in run.stdout.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return problems + [f"unreadable report: {exc}"], []
    if len(records) < 2 or "config" not in records[0] or "aggregate" not in records[-1]:
        return problems + ["report lacks its config or aggregate record"], []
    body, aggregate = records[1:-1], records[-1]["aggregate"]
    errors = sum("error" in r for r in body)
    if errors:
        problems.append(f"{errors} error record(s)")
    if [r.get("trajectory") for r in body] != pairs.gen_ids:
        problems.append("pair records are not one per pair in index order")
    for i, (record, phases) in enumerate(zip(body, pairs.gt_phase_counts)):
        scores = record.get("scores", {})
        if set(scores) != set(SCORES):
            problems.append(f"pair {i}: scores {sorted(scores)}, expected {sorted(SCORES)}")
        for name, score in scores.items():
            expect_absent = name in PHASE_SWITCH_ONLY and phases == 1
            if (score is None) != expect_absent:
                problems.append(f"pair {i}: {name} is {score}, expected {'absent' if expect_absent else 'a score'}")
            elif score is not None and not (0 < score <= 1 if name in OPEN_UNIT else -1 <= score <= 1):
                problems.append(f"pair {i}: {name}={score} outside its documented range")
    if aggregate.get("pairs") != len(pairs.gen_ids) or aggregate.get("failed") != 0:
        problems.append(f"aggregate counts {aggregate.get('pairs')} pairs, {aggregate.get('failed')} failed")
    if reference is not None:
        for name, ref in reference.items():
            got = aggregate.get("scores", {}).get(name)
            if (got is None) != (ref is None) or (ref is not None and abs(got - ref) > F32_TOLERANCE):
                problems.append(f"aggregate {name}={got} differs from the reference embedder's {ref}")
    return problems, body


def at_reference_speed(times: list[float], calibration: list[float]) -> list[float]:
    """Scale each time by the reference over the calibrations just before and after it."""
    return [t * 2 * CALIBRATION_REF_S / (calibration[i] + calibration[i + 1])
            for i, t in enumerate(times)]


class BenchRun:
    """One benchmark invocation: its work directory, children and check results."""

    def __init__(self, args: argparse.Namespace) -> None:
        import workloads

        self.args = args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        workload = workloads.WORKLOADS[args.workload]
        self.workload = workloads.smoke_scale(workload) if args.scale == "smoke" else workload
        self.work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.cpus = os.sched_getaffinity(0)
        self.nproc = len(self.cpus)
        # Set-up and the calibration children around it share one CPU
        # (children inherit the affinity), so both meet the same contention
        # from other tenants; so do the eval children of a one-worker
        # workload. ``measure`` gives a parallel workload all CPUs back.
        os.sched_setaffinity(0, {max(self.cpus)})
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.runs: list[ChildRun] = []
        self.calibration_s: list[float] = []  # every calibration child, for the summary
        self.eval_calibration: list[float] = []  # those around the eval children
        self.setup_raw_s: list[float] = []
        self.calibration_out: bytes | None = None

    def setup(self, repeats: int, calibrate: bool) -> list[float]:
        """Build the inputs ``repeats`` times, keeping the last set; returns each time.

        With ``calibrate``, the times are at the reference machine speed.
        """
        import workloads

        self.work_dir.mkdir(parents=True)
        times = []
        calibration = [self.calibrate()] if calibrate else []
        for i in range(repeats):
            target = self.work_dir / f"set{i}"
            start = time.perf_counter()
            self.pairs = workloads.build(self.workload, self.args.seed, target)
            times.append(time.perf_counter() - start)
            self.setup_raw_s.append(times[-1])
            if calibrate:
                calibration.append(self.calibrate())
            if i > 0:
                shutil.rmtree(self.work_dir / f"set{i - 1}")
        self.reference = (workloads.reference_aggregate(self.pairs)
                          if self.workload.external_store else None)
        print(json.dumps({"workload": self.args.workload, "seed": self.args.seed,
                          "inputs": workloads.input_properties(self.workload, self.pairs)}))
        return at_reference_speed(times, calibration) if calibrate else times

    def check_child_import(self) -> None:
        """The children must import the program from this checkout, not an installed copy."""
        out = subprocess.run(
            [sys.executable, "-c", "import wemeval.cli, wemeval; print(wemeval.__file__)"],
            cwd=self.work_dir, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.perf_counter()),
        )
        path = Path(out.stdout.strip() or ".").resolve()
        if out.returncode != 0 or SRC.resolve() not in path.parents:
            raise SystemExit(f"eval children import wemeval from {path}, not {SRC}: {out.stderr}")

    def eval_cmd(self, workers: int) -> list[str]:
        cmd = [sys.executable, "-m", "wemeval.cli", "eval", "--pairs", str(self.pairs.pairs_file),
               "--workers", str(workers)]
        if self.pairs.store_index is not None:
            cmd += ["--embedder", "external-file", "--embedder-source", str(self.pairs.store_index)]
        return cmd

    def run_eval(self, workers: int) -> tuple[ChildRun, list[dict]]:
        run = run_child(self.eval_cmd(workers), workers, self.env, self.work_dir, self.deadline)
        problems, body = check_report(run, self.pairs, self.reference)
        digest = hashlib.sha256(run.stdout).hexdigest()
        self.digest = self.digest or digest
        if digest != self.digest:
            problems.append("report digest differs from the first run's")
        n = len(self.pairs.gen_ids)
        self.attempted += n
        if problems:
            self.failed += n
            self.problems += [f"eval --workers {workers}: {p}" for p in problems]
        self.runs.append(run)
        return run, body

    def calibrate(self) -> float:
        """Run the calibration child once; returns its wall time."""
        run = run_child([sys.executable, "-c", CALIBRATION], 1, self.env, self.work_dir, self.deadline)
        self.calibration_out = self.calibration_out or run.stdout
        if run.exit_code != 0 or run.stdout != self.calibration_out:
            self.problems.append(f"calibration child: exit {run.exit_code}, output {run.stdout!r}")
        self.calibration_s.append(run.wall_s)
        return run.wall_s

    def measure(self, worker_counts: list[int], calibrate: bool) -> list[dict]:
        """Cycle through ``worker_counts`` for ``--seconds``, one child at a time.

        With ``calibrate``, a calibration child runs first and after every eval child.
        """
        if self.workload.parallel:
            os.sched_setaffinity(0, self.cpus)
        body: list[dict] = []
        start = time.perf_counter()
        self.eval_calibration = [self.calibrate()] if calibrate else []
        i = 0
        while i < len(worker_counts) or time.perf_counter() - start < self.args.seconds:
            if time.perf_counter() >= self.deadline:
                self.problems.append("run budget exhausted")
                break
            _, body = self.run_eval(worker_counts[i % len(worker_counts)])
            if calibrate:
                self.eval_calibration.append(self.calibrate())
            i += 1
        return body

    def pps(self, workers: int) -> float:
        return statistics.median(len(self.pairs.gen_ids) / r.wall_s
                                 for r in self.runs if r.workers == workers)

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        """Medians over the children, their times at the reference machine speed."""
        walls = at_reference_speed([r.wall_s for r in self.runs], self.eval_calibration)
        firsts = at_reference_speed([r.first_record_s for r in self.runs], self.eval_calibration)
        return {
            "pairs_per_s": statistics.median(len(self.pairs.gen_ids) / w for w in walls),
            "first_record_s": statistics.median(firsts),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in self.runs),
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self, cli_body: list[dict]) -> dict[str, float]:
        import layers
        from wemeval.features import EMBEDDER_EXTERNAL, EmbedderSpec
        from wemeval.metrics import MetricConfig

        cfg = MetricConfig()
        if self.pairs.store_index is not None:
            cfg = MetricConfig(embedder=EmbedderSpec(kind=EMBEDDER_EXTERNAL,
                                                     source=str(self.pairs.store_index)))
        spans, records, traced_s = layers.traced_pass(self.pairs.pairs_file, cfg)
        self.attempted += len(records)
        traced_scores = json.loads(json.dumps([(r["trajectory"], r["scores"]) for r in records]))
        cli_scores = [[r.get("trajectory"), r.get("scores")] for r in cli_body]
        mismatched = sum(a != b for a, b in zip(traced_scores, cli_scores))
        if mismatched or len(records) != len(cli_body):
            self.failed += max(mismatched, 1)
            self.problems.append(f"traced pass: {mismatched} pair(s) score differently from the CLI report")
        probe = [] if self.workload.external_store else layers.store_probe(self.pairs.pairs_file,
                                                                            self.work_dir)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span._asdict()) + "\n")
        untraced_s = statistics.median(r.wall_s for r in self.runs if r.workers == 1)
        speedup = self.pps(self.workers) / self.pps(1) if self.workers != 1 else \
            self._split_speedup()
        print(json.dumps({"self_ms_per_pair": layers.self_ms_per_pair(spans, len(records)),
                          "traced_s": traced_s, "untraced_s": untraced_s}))
        return layers.layer_metrics(spans, probe, records, traced_s, untraced_s, speedup)

    def _split_speedup(self) -> float:
        """At one worker both sides are ``--workers 1``: compare alternate runs."""
        walls = [r.wall_s for r in self.runs]
        return statistics.median(walls[1::2]) / statistics.median(walls[0::2])

    @property
    def workers(self) -> int:
        return self.nproc if self.workload.parallel else 1

    def summary(self) -> None:
        samples = {"setup_raw_s": self.setup_raw_s}
        for key in ("wall_s", "first_record_s", "peak_rss_mb"):
            values = [getattr(r, key) for r in self.runs]
            samples[key] = {"n": len(values), "median": statistics.median(values),
                            "min": min(values), "max": max(values)}
        if self.calibration_s:
            samples["calibration_s"] = {"n": len(self.calibration_s),
                                        "median": statistics.median(self.calibration_s),
                                        "min": min(self.calibration_s), "max": max(self.calibration_s)}
        print(json.dumps({"workers": sorted({r.workers for r in self.runs}), "samples": samples}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["hd-mixed", "batch-small", "external-store"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: every workload at a tiny size, for smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "wemeval" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wemeval

    if SRC.resolve() not in Path(wemeval.__file__).resolve().parents:
        print(f"run.py: imported wemeval from {wemeval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = BenchRun(args)
    try:
        setup_times = bench.setup(1 if args.trace else SETUP_REPEATS, calibrate=not args.trace)
        bench.check_child_import()
        if args.trace:
            import layers

            body = bench.measure([bench.workers, 1], calibrate=False)
            metrics = bench.per_layer(body)
            units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
        else:
            bench.measure([bench.workers], calibrate=True)
            metrics = bench.end_to_end(setup_times)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        bench.summary()
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
