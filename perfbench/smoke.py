"""Smoke test of the benchmark itself; takes about half a minute.

    python3 perfbench/smoke.py

Runs every workload at a tiny scale with tracing off and on, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, and
passes its output checks. It also feeds the output checks broken reports to
see that they fail, and checks that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workloads(bench: dict) -> list[str]:
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if got != expected:
                failures.append(f"{where}: metrics {got} != BENCHMARK.json {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: output checks failed: {proc.stderr[-500:]}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{where}: non-numeric metric value")
            print(f"{where}: ok", flush=True)
    return failures


def check_checks() -> list[str]:
    """The output checks must reject a failing child and a malformed report."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from run import ChildRun, check_report
    from workloads import PairSet

    pairs = PairSet(Path("pairs.json"), ["a", "b"], [2, 1], None, None)
    config = {"config": {}}
    mixed = {"rcbd": 0.5, "lpsa": -0.3, "cisr": 1.0, "pmpa": 0.9, "cpdm": 0.5, "fphs": -0.2}
    good = [{"trajectory": "a", "scores": mixed},
            {"trajectory": "b", "scores": {**mixed, "cpdm": None, "fphs": None}}]
    aggregate = {"aggregate": {"scores": {}, "pairs": 2, "failed": 0}}

    def report(records, exit_code=0):
        text = "".join(json.dumps(r) + "\n" for r in records)
        return ChildRun(1, 1.0, 1.0, 1.0, exit_code, text.encode())

    cases = {
        "good": (report([config, *good, aggregate]), False),
        "exit code": (report([config, *good, aggregate], exit_code=1), True),
        "error record": (report([config, good[0], {"error": {"pair": 1}}, aggregate]), True),
        "order": (report([config, good[1], good[0], aggregate]), True),
        "range": (report([config, {**good[0], "scores": {**mixed, "rcbd": 0.0}}, good[1], aggregate]), True),
        "absent": (report([config, good[0], {**good[1], "scores": mixed}, aggregate]), True),
        "missing": (report([config, {**good[0], "scores": {"rcbd": 0.5}}, good[1], aggregate]), True),
        "truncated": (report([config, *good]), True),
    }
    failures = []
    for name, (run, should_fail) in cases.items():
        problems, _ = check_report(run, pairs, None)
        if bool(problems) != should_fail:
            failures.append(f"output check case '{name}': problems {problems}")
    reference = {"rcbd": 0.5}
    run = report([config, *good, {"aggregate": {"scores": {"rcbd": 0.5 + 1e-3}, "pairs": 2, "failed": 0}}])
    if not check_report(run, pairs, reference)[0]:
        failures.append("output check: external-store aggregate drift not caught")
    print("output checks reject broken reports: ok" if not failures else "output checks: FAILED")
    return failures


def check_bare_directory(bench_file: Path) -> list[str]:
    """Without the program's source, the benchmark exits non-zero and prints no result."""
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench_file, bare / "BENCHMARK.json")
        proc = run_bench(bare, "hd-mixed", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    print("bare directory refused: ok")
    return []


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    failures = check_checks() + check_bare_directory(bench_file) + check_workloads(bench)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
