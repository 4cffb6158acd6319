from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import matches_from_homography
import wemeval
from wemeval import cli, commands, features, formats, manifest, metrics, rollout, verify
from wemeval.cli import main
from wemeval.manifest import save_manifest
from wemeval.microsim import generate_trajectory, mixed_fixture_config, perturb_rollout
from wemeval.rollout import Chunk, Frame, Trajectory


# Nested past the JSON decoder's recursion limit.
DEEP_JSON = "[" * 200000 + "]" * 200000


def _json_text(doc) -> str:
    """A malformed-input case as file text: DEEP_JSON as it is, any other document dumped."""
    return doc if doc is DEEP_JSON else json.dumps(doc)


def _read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _scores_text(**scores) -> str:
    """A scores object, as JSON text, of all six metrics at 0.5 but for ``scores``."""
    return json.dumps({**dict.fromkeys(metrics.METRIC_NAMES, 0.5), **scores})


def _trajectory_line(**scores) -> str:
    return '{"trajectory": "t", "scores": ' + _scores_text(**scores) + "}"


def _absolute_pairs(root, pairs_file, indices):
    """The fixture pairs at ``indices`` with absolute paths, as a pairs-file list."""
    pairs = json.loads(pairs_file.read_text())
    return [{"gen": str(root / pairs[i]["gen"]), "gt": str(root / pairs[i]["gt"])} for i in indices]


def _good_pair_args(root, pairs_file):
    """``eval`` arguments scoring fixture pair 0 alone."""
    pair = _absolute_pairs(root, pairs_file, [0])[0]
    return ["eval", "--gen", pair["gen"], "--gt", pair["gt"]]


def _running(pid: str) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _children(pid: int, count: int) -> list[str]:
    """The child pids of process ``pid`` once it has ``count`` of them, or those
    it has after 30 s (Linux)."""
    deadline = time.monotonic() + 30
    while (len(children := Path(f"/proc/{pid}/task/{pid}/children").read_text().split()) != count
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return children


def _recorded_embeddings(gen, gt, monkeypatch):
    """Reference vectors, by content key, for every frame list that scoring (gen, gt) embeds."""
    vectors = {}
    embed = features.embed_frames

    def recording(frames, spec):
        vectors[features.frame_content_key(frames)] = embed(frames, spec)
        return vectors[features.frame_content_key(frames)]

    with monkeypatch.context() as patch:
        patch.setattr(features, "embed_frames", recording)
        patch.setattr(metrics, "embed_frames", recording)
        metrics.evaluate_all(gen, gt)
    return vectors


@pytest.fixture(scope="module")
def fixture_pair_dir(tmp_path_factory):
    """Ten gen/gt manifest pairs; pair 3 has a chunk-count mismatch."""
    root = tmp_path_factory.mktemp("pairs")
    pairs = []
    for i in range(10):
        traj, gt_aux = generate_trajectory(mixed_fixture_config(seed=500 + i, size=32, t=4))
        gen = perturb_rollout(traj, gt_aux, "frame-noise", 0.05, seed=i)
        if i == 3:
            gen = type(gen)(id=gen.id, chunks=gen.chunks[:-1])  # drop one chunk: K mismatch
        gen_path = save_manifest(gen, root / f"gen_{i:02d}" / "manifest.json")
        gt_path = save_manifest(traj, root / f"gt_{i:02d}" / "manifest.json")
        pairs.append({"gen": str(gen_path.relative_to(root)), "gt": str(gt_path.relative_to(root))})
    pairs_file = root / "pairs.json"
    pairs_file.write_text(json.dumps(pairs))
    return root, pairs_file


@pytest.fixture(scope="module")
def ten_pair_report(fixture_pair_dir, tmp_path_factory):
    """``eval``'s report of the ten fixture pairs: config, pairs 0-9 (pair 3 an
    error record) and the aggregate, one record a line."""
    _, pairs_file = fixture_pair_dir
    report = tmp_path_factory.mktemp("report") / "r.jsonl"
    assert main(["eval", "--pairs", str(pairs_file), "--out", str(report)]) == 1
    return report


class TestEval:
    def test_identity_pair_scores_ones(self, tmp_path):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=600, size=32, t=4))
        manifest = save_manifest(traj, tmp_path / "traj" / "manifest.json")
        out = tmp_path / "report.jsonl"
        code = main(["eval", "--gen", str(manifest), "--gt", str(manifest), "--out", str(out)])
        assert code == 0
        records = _read_records(out)
        assert "config" in records[0]
        scores = records[1]["scores"]
        for name in ("rcbd", "lpsa", "cisr", "pmpa", "fphs"):
            assert scores[name] == pytest.approx(1.0, abs=1e-9)
        assert records[-1]["aggregate"]["failed"] == 0

    def test_batch_with_one_mismatch_exits_one(self, fixture_pair_dir, tmp_path):
        _, pairs_file = fixture_pair_dir
        out = tmp_path / "report.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out)])
        assert code == 1
        records = _read_records(out)
        errors = [r for r in records if "error" in r]
        reports = [r for r in records if "trajectory" in r]
        assert len(errors) == 1 and errors[0]["error"]["pair"] == 3
        assert "chunk counts differ" in errors[0]["error"]["message"]
        assert len(reports) == 9
        assert records[-1]["aggregate"]["pairs"] == 10
        assert records[-1]["aggregate"]["failed"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deep_manifest_fails_only_its_pair(self, fixture_pair_dir, tmp_path, workers):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, [0, 1, 2])
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        pairs[1]["gen"] = str(deep)
        (tmp_path / "pairs.json").write_text(json.dumps(pairs))
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--pairs", str(tmp_path / "pairs.json"), "--out", str(out),
                     "--workers", str(workers)]) == 1
        records = _read_records(out)
        assert "trajectory" in records[1] and "trajectory" in records[3]
        assert records[2]["error"] == {"gen": str(deep), "gt": pairs[1]["gt"], "pair": 1,
                                       "message": f"{deep}: invalid JSON: JSON nested too deeply to decode"}

    def test_single_invalid_pair_exits_two(self, tmp_path):
        bogus = tmp_path / "missing.json"
        code = main(["eval", "--gen", str(bogus), "--gt", str(bogus), "--out",
                     str(tmp_path / "r.jsonl")])
        assert code == 2

    def test_worker_count_does_not_change_bytes(self, fixture_pair_dir, tmp_path):
        _, pairs_file = fixture_pair_dir
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"report_w{workers}.jsonl"
            main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--workers", str(workers)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_worker_count_does_not_change_bytes_at_256px(self, tmp_path):
        # Frames this large take the embedder's band products through BLAS,
        # which may split them over threads; the pool's forked workers must
        # still write what the calling process writes.
        gt, aux = generate_trajectory(mixed_fixture_config(seed=610, size=256, t=4))
        gen = perturb_rollout(gt, aux, "frame-noise", 0.05, seed=610)
        pair = {"gen": str(save_manifest(gen, tmp_path / "gen" / "manifest.json")),
                "gt": str(save_manifest(gt, tmp_path / "gt" / "manifest.json"))}
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps([pair, pair]))  # two tasks, so two workers start
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"report_w{workers}.jsonl"
            assert main(["eval", "--pairs", str(pairs_file), "--out", str(out),
                         "--workers", str(workers)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_cli_import_leaves_out_the_mechanism_verifier(self):
        env = {**os.environ, "PYTHONPATH": str(Path(wemeval.__file__).parents[1])}
        script = ("import sys, wemeval.cli; "
                  "print(sorted(set(sys.modules) & {'wemeval.verify', 'wemeval.mechanisms', "
                  "'wemeval.microsim', 'hashlib', 'multiprocessing', 'concurrent.futures'})); "
                  "print(wemeval.SimConfig.__module__)")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["[]", "wemeval.microsim"], out.stderr

    def test_records_stream_as_scored(self, fixture_pair_dir, monkeypatch, capsys):
        _, pairs_file = fixture_pair_dir
        written_before = []  # stdout written since the previous pair started, at each start
        score = cli._eval_pair

        def spying(task):
            written_before.append(capsys.readouterr().out)
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", spying)
        assert main(["eval", "--pairs", str(pairs_file)]) == 1
        report = "".join(written_before) + capsys.readouterr().out
        at_pair_1 = "".join(written_before[:2]).splitlines()
        assert at_pair_1 == report.splitlines()[:2]
        assert "config" in json.loads(at_pair_1[0]) and "trajectory" in json.loads(at_pair_1[1])

    def test_pool_keeps_error_records_in_index_order(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, [0, 1, 2])
        pairs.insert(1, {"gen": str(tmp_path / "absent" / "manifest.json"), "gt": pairs[0]["gt"]})
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"report_w{workers}.jsonl"
            assert main(["eval", "--pairs", str(absolute), "--out", str(out),
                         "--workers", str(workers)]) == 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        records = _read_records(tmp_path / "report_w2.jsonl")
        assert records[2]["error"]["pair"] == 1
        assert [("trajectory" in r) for r in records[1:-1]] == [True, False, True, True]

    def test_empty_pairs_file_with_workers_exits_zero(self, tmp_path, capsys):
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text("[]")
        assert main(["eval", "--pairs", str(pairs_file), "--workers", "2"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 2 and records[-1]["aggregate"]["pairs"] == 0

    def test_closed_stdout_exits_one_without_traceback(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, [i for i in range(10) if i != 3]) * 6
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        env = {**os.environ, "PYTHONPATH": str(Path(wemeval.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "wemeval.cli", "eval", "--pairs", str(absolute),
                                 "--workers", "2"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() and proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"evaluated" not in err

    def test_dead_worker_exits_two_instead_of_hanging(self, fixture_pair_dir, tmp_path, monkeypatch, capfd):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, range(10))
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        scored = tmp_path / "scored.log"
        score = cli._eval_pair

        def die_on_pair_1(task):
            if task[0] == pairs[1]["gen"]:
                os._exit(1)  # as an out-of-memory kill would end it
            with open(scored, "a") as log:
                log.write(f"{os.getpid()}\n")
            time.sleep(0.1)
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", die_on_pair_1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", "2", "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert err.splitlines() == ["eval: a worker process died; pair 1 and later pairs were not scored"]
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        scorers = scored.read_text().split()  # the helper scored none: pair 1 was its first
        assert set(scorers) == {str(os.getpid())} and len(scorers) <= 3  # the run stopped at the death

    def test_worker_exception_prints_its_traceback(self, fixture_pair_dir, tmp_path, monkeypatch, capfd):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, [0, 1, 2])
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        score = cli._eval_pair

        def fail_on_pair_1(task):
            if task[0] == pairs[1]["gen"]:
                raise RuntimeError("bug in a metric")
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", fail_on_pair_1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", "2", "--out", str(out)]) == 2
        err = capfd.readouterr().err.splitlines()
        assert err[0] == "Traceback (most recent call last):" and "RuntimeError: bug in a metric" in err
        assert err[-1].startswith("eval: a worker process died; pair ")
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    def test_free_worker_takes_the_next_pair(self, fixture_pair_dir, tmp_path, monkeypatch):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, range(10))
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        score = cli._eval_pair

        def pid_recording(task):
            if task[0] == pairs[1]["gen"]:
                time.sleep(1.0)
            return {**score(task), "pid": os.getpid()}

        monkeypatch.setattr(cli, "_eval_pair", pid_recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", "2", "--out", str(out)]) == 1
        pids = [r["pid"] for r in _read_records(out)[1:-1]]
        assert len(set(pids)) == 2 and pids[0] == os.getpid()
        assert pids.count(pids[1]) <= 2  # the helper: the slow pair and the ticket queued behind it

    def test_caller_scores_pair_0_before_it_forks(self, fixture_pair_dir, tmp_path, monkeypatch):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, range(10))
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        events = []  # this process's; a helper appends to its own copy
        score, fork = cli._eval_pair, os.fork

        def recording_fork():
            events.append("fork")
            return fork()

        def pid_recording(task):
            events.append((pairs.index({"gen": task[0], "gt": task[1]}), os.getpid()))
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", pid_recording)
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", "2", "--out", str(out)]) == 1
        assert events[:2] == [(0, os.getpid()), "fork"] and events.count("fork") == 1
        assert len(_read_records(out)) == 12

    def test_caller_and_every_helper_score_pairs(self, fixture_pair_dir, tmp_path, monkeypatch):
        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, range(10)) * 5))
        scorers = tmp_path / "scorers.log"
        score = cli._eval_pair

        def pid_logging(task):
            with open(scorers, "a") as log:
                log.write(f"{os.getpid()}\n")
            time.sleep(0.01)  # so that every helper is started before the pairs run out
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", pid_logging)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        outputs = []
        for workers in (1, 3):
            scorers.unlink(missing_ok=True)
            out = tmp_path / f"report_w{workers}.jsonl"
            assert main(["eval", "--pairs", str(absolute), "--out", str(out),
                         "--workers", str(workers)]) == 1
            outputs.append(out.read_bytes())
        pids = scorers.read_text().split()
        assert outputs[0] == outputs[1] and len(pids) == 50
        assert len(set(pids)) == 3 and str(os.getpid()) in pids

    @pytest.mark.parametrize("failing, slow, workers", [(0, None, 2), (3, 1, 2), (3, None, 1)],
                             ids=["before-the-fork", "beside-a-helper", "one-process"])
    def test_caller_exception_ends_eval_as_a_helper_one(self, fixture_pair_dir, tmp_path, monkeypatch, capfd,
                                                         failing, slow, workers):
        root, pairs_file = fixture_pair_dir
        pairs = _absolute_pairs(root, pairs_file, range(10))
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(pairs))
        helpers = []
        score, fork = cli._eval_pair, os.fork

        def recording_fork():
            if pid := fork():
                helpers.append(pid)
            return pid

        def failing_in_caller(task):
            if task[0] == pairs[failing]["gen"]:
                raise RuntimeError("bug in a metric")
            if slow is not None and task[0] == pairs[slow]["gen"]:
                time.sleep(1.0)  # the caller draws pair 3 while the helper holds pairs 1 and 2
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", failing_in_caller)
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", str(workers), "--out", str(out)]) == 2
        err = capfd.readouterr().err.splitlines()
        assert err[0] == "Traceback (most recent call last):" and "RuntimeError: bug in a metric" in err
        waiting = slow if slow is not None else failing if workers == 1 else 0
        assert err[-1] == f"eval: pair {failing} failed; pair {waiting} and later pairs were not scored"
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        assert len(helpers) == (0 if failing == 0 or workers == 1 else 1)
        for pid in helpers:  # reaped already
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_key_error_that_no_store_raised_is_a_bug_not_an_error_record(self, fixture_pair_dir, tmp_path,
                                                                           monkeypatch, capfd, workers):
        def broken(pair, cfg):
            raise KeyError(3)

        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, [0, 1])))
        monkeypatch.setitem(metrics._METRIC_FUNCS, "rcbd", broken)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "report.jsonl"
        assert main(["eval", "--pairs", str(absolute), "--workers", str(workers), "--out", str(out)]) == 2
        err = capfd.readouterr().err.splitlines()
        assert err[0] == "Traceback (most recent call last):" and "KeyError: 3" in err
        assert err[-1] == "eval: pair 0 failed; pair 0 and later pairs were not scored"
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("padding", [0, 100_000], ids=["records", "records-over-a-pipe-read"])
    def test_three_workers_over_many_pairs_write_the_one_worker_bytes(self, fixture_pair_dir, tmp_path,
                                                                      monkeypatch, padding):
        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, range(10)) * 5))  # > 6 tickets
        score = cli._eval_pair
        monkeypatch.setattr(cli, "_eval_pair", lambda task: {**score(task), "padding": "x" * padding})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        outputs = []
        for workers in (1, 3):
            out = tmp_path / f"report_w{workers}.jsonl"
            assert main(["eval", "--pairs", str(absolute), "--out", str(out),
                         "--workers", str(workers)]) == 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and len(_read_records(tmp_path / "report_w3.jsonl")) == 52

    def test_worker_run_writes_only_the_throughput_line_to_stderr(self, fixture_pair_dir, tmp_path):
        # Python 3.12+ warns when a process with threads (a BLAS pool under
        # numpy) forks, and shows the warning when the fork runs in __main__.
        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, [0, 1, 2, 4])))
        env = {**os.environ, "PYTHONPATH": str(Path(wemeval.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "wemeval.cli", "eval", "--pairs", str(absolute),
                               "--workers", "2"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 6
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("evaluated 4 pair(s) in ")
        assert proc.stderr.endswith(" pairs/s)\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a process's children from /proc")
    def test_workers_exit_when_eval_is_killed(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, [0, 1, 2]) * 40))
        env = {**os.environ, "PYTHONPATH": str(Path(wemeval.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "wemeval.cli", "eval", "--pairs", str(absolute),
                                 "--workers", "2"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        try:
            assert proc.stdout.readline() and proc.stdout.readline()  # pair 0, scored before the fork
            helpers = min(2, len(os.sched_getaffinity(0))) - 1
            workers = _children(proc.pid, helpers)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(int(pid), signal.SIGKILL)
        assert len(workers) == helpers and not left

    def test_flags_override_config_file(self, tmp_path):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=601, size=32, t=4))
        manifest = save_manifest(traj, tmp_path / "traj" / "manifest.json")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau_cpdm": 0.5, "resample_steps": 8}))
        out = tmp_path / "report.jsonl"
        main(["eval", "--gen", str(manifest), "--gt", str(manifest), "--config", str(cfg_file),
              "--tau-cpdm", "0.25", "--out", str(out)])
        config = _read_records(out)[0]["config"]
        assert config["tau_cpdm"] == 0.25  # flag wins
        assert config["resample_steps"] == 8  # file wins over default

    def test_null_config_value_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tau_cpdm": None}))
        assert main(["eval", "--gen", "a", "--gt", "b", "--config", str(cfg_file)]) == 2
        assert "bad configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"tau_cmpd": 0.3}, "'tau_cmpd'"),
        ({"workers": 2}, "'workers'"),
        ({"embedder": {"gird": 2}}, "'embedder.gird'"),
        ({"embedder": 3}, "'embedder'"),
        ({"lpsa_window": 3.7}, "'lpsa_window'"),
        ({"lpsa_window": float("inf")}, "'lpsa_window'"),
        ({"embedder": {"grid": 2.5}}, "'embedder.grid'"),
        ({"tau_pmpa": float("inf")}, "tau_pmpa"),  # written as the non-JSON token Infinity
        ({"lpsa_window": True}, "'lpsa_window'"),
        ({"tau_cpdm": True}, "'tau_cpdm'"),
        ({"embedder": {"source": True}}, "'embedder.source'"),
        ({"embedder": {"source": ["a", 1]}}, "config key 'embedder.source' cannot hold ['a', 1]"),
        ({"embedder": {"source": {"path": "a"}}}, "config key 'embedder.source' cannot hold {'path': 'a'}"),
        (DEEP_JSON, "JSON nested too deeply to decode"),
        ({"resample_steps": 100000000}, "resample_steps must be <= 4096"),
        ([1, 2], "config file must be a JSON object"),
        ({"embedder": {"grid": 0}}, "reference embedder grid must be >= 1"),
    ], ids=["tau_cmpd", "workers", "embedder.gird", "embedder-not-object", "fractional-int",
            "infinite-int", "fractional-grid", "infinite-float", "bool-int", "bool-float",
            "bool-source", "list-source", "object-source", "deep-file", "huge-resample-steps", "array-file",
            "zero-grid"])
    def test_unknown_config_key_exits_two(self, tmp_path, capsys, doc, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(_json_text(doc))
        assert main(["eval", "--gen", "a", "--gt", "b", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("eval: bad configuration:") and key in err[0]

    @pytest.mark.parametrize("doc, key, value", [
        ({"lpsa_window": 3.0}, "lpsa_window", 3),
        ({"lpsa_window": "4"}, "lpsa_window", 4),
    ], ids=["whole-float", "numeric-string"])
    def test_exact_config_value_is_cast(self, tmp_path, doc, key, value):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=603, size=32, t=4))
        path = str(save_manifest(traj, tmp_path / "traj" / "manifest.json"))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", path, "--gt", path, "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        config = _read_records(out)[0]["config"]
        assert config[key] == value and type(config[key]) is int

    @pytest.mark.parametrize("args, source", [
        (["--config", "{cfg}"], "5"),
        (["--embedder-source", "5"], "5"),
        (["--config", "{cfg}", "--embedder-source", "6"], "6"),
        (["--config", "{null_cfg}"], None),
    ], ids=["file-number", "flag", "flag-over-file", "file-null"])
    def test_source_key_is_a_string_like_its_flag(self, tmp_path, args, source):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=603, size=32, t=4))
        path = str(save_manifest(traj, tmp_path / "traj" / "manifest.json"))
        (tmp_path / "cfg.json").write_text(json.dumps({"embedder": {"source": 5}}))
        (tmp_path / "null.json").write_text(json.dumps({"embedder": {"source": None}}))
        args = [a.format(cfg=tmp_path / "cfg.json", null_cfg=tmp_path / "null.json") for a in args]
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", path, "--gt", path, "--out", str(out), *args]) == 0
        assert _read_records(out)[0]["config"]["embedder"]["source"] == source

    @pytest.mark.parametrize("flag, key", [(flag, key) for flag, key, _ in cli._config_flags()])
    def test_a_flag_string_and_a_file_value_give_one_config(self, tmp_path, flag, key):
        store = tmp_path / "store.json"
        features.EmbeddingStore.write(store, {})
        value = {"lpsa_window": 3, "fphs_window": 2, "tau_cpdm": 0.1, "tau_pmpa": 0.25, "resample_steps": 8,
                 "top_fraction": 0.5, "eps": 1e-05, "embedder.kind": "external-file", "embedder.grid": 4,
                 "embedder.source": str(store)}[key]
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text("[]")

        def config(doc: dict, *flags: str) -> dict:
            if key == "embedder.kind":  # an external embedder needs an index
                doc = {"embedder": {**doc.get("embedder", {}), "source": str(store)}}
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            out = tmp_path / "r.jsonl"
            assert main(["eval", "--pairs", str(pairs_file), "--config", str(tmp_path / "cfg.json"),
                         "--out", str(out), *flags]) == 0
            return _read_records(out)[0]["config"]

        *outer, last = key.split(".")
        in_file = {last: value}
        for name in reversed(outer):
            in_file = {name: in_file}
        from_file, from_flag = config(in_file), config({}, flag, str(value))
        held = from_file
        for name in outer:
            held = held[name]
        assert from_file == from_flag and held[last] == value and type(held[last]) is type(value)

    def test_metric_flags_follow_the_config_fields(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = [o for action in sub.choices["eval"]._actions for o in action.option_strings]
        assert options == [
            "-h", "--help", "--gen", "--gt", "--pairs", "--out", "--config", "--workers",
            "--lpsa-window", "--fphs-window", "--tau-cpdm", "--tau-pmpa", "--resample-steps",
            "--top-fraction", "--eps", "--embedder", "--embedder-grid", "--embedder-source",
        ]

    @pytest.mark.parametrize("flags, key", [
        (["--lpsa-window", "3.7"], "lpsa_window"),
        (["--lpsa-window", "0"], "lpsa_window"),
        (["--embedder", "bogus"], "embedder kind"),
        (["--tau-cpdm", "nan"], "tau_cpdm"),
        (["--tau-pmpa", "nan"], "tau_pmpa"),
        (["--eps", "nan"], "eps"),
        (["--tau-cpdm", "inf"], "tau_cpdm"),
        (["--resample-steps", "100000000"], "resample_steps must be <= 4096"),
        (["--top-fraction", "0"], "top_fraction must be in (0, 1], got 0.0"),
        (["--top-fraction", "1.5"], "top_fraction must be in (0, 1], got 1.5"),
    ], ids=["fractional-window", "zero-window", "unknown-embedder", "nan-tau-cpdm", "nan-tau-pmpa",
            "nan-eps", "infinite-tau-cpdm", "huge-resample-steps", "zero-top-fraction",
            "top-fraction-above-one"])
    def test_bad_metric_flag_exits_two(self, fixture_pair_dir, tmp_path, capsys, flags, key):
        out = tmp_path / "r.jsonl"
        assert main(_good_pair_args(*fixture_pair_dir) + flags + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("eval: bad configuration:") and key in err[0]
        assert not out.exists()

    def test_embedder_flag_overrides_one_file_key(self, fixture_pair_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"embedder": {"grid": 2, "source": "kept.idx"}}))
        out = tmp_path / "r.jsonl"
        assert main(_good_pair_args(*fixture_pair_dir) + ["--config", str(cfg_file),
                    "--embedder-grid", "4", "--out", str(out)]) == 0
        config = _read_records(out)[0]["config"]
        assert config["embedder"] == {"kind": "reference", "grid": 4, "source": "kept.idx"}

    def test_seed_flag_is_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--gen", "a", "--gt", "b", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_each_trajectory_is_validated_once(self, fixture_pair_dir, tmp_path, monkeypatch):
        _, pairs_file = fixture_pair_dir
        calls = []

        def counting(traj, *args):  # evaluate_all passes a per-chunk reducer
            calls.append(traj.id)
            return rollout.validate_trajectory(traj, *args)

        for module in (manifest, metrics):  # every module that binds the name
            if hasattr(module, "validate_trajectory"):
                monkeypatch.setattr(module, "validate_trajectory", counting)
        main(["eval", "--pairs", str(pairs_file), "--out", str(tmp_path / "r.jsonl")])
        assert len(calls) == 2 * len(json.loads(pairs_file.read_text()))

    @pytest.mark.parametrize("defect, message", [
        ("frame-above-one", "value outside [0, 1]"),
        ("flow-count", "flow count"),
        ("empty-frame", "records of zero size"),
        ("overlong-sidecar-name", "File name too long"),
    ])
    def test_invalid_content_becomes_error_record(self, tmp_path, defect, message):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=602, size=32, t=4))
        first = traj.chunks[0]
        if defect == "frame-above-one":
            frames = (Frame(data=first.frames[0].data + 1.0),) + first.frames[1:]
            first = Chunk(frames=frames, instruction=first.instruction, phase=first.phase,
                          flows=first.flows, masks=first.masks)
        elif defect == "flow-count":
            first = Chunk(frames=first.frames, instruction=first.instruction, phase=first.phase,
                          flows=first.flows[:-1], masks=first.masks)
        bad = Trajectory(id=traj.id, chunks=(first,) + traj.chunks[1:])
        gen = save_manifest(bad, tmp_path / "gen" / "manifest.json")
        if defect == "empty-frame":  # zero-size frames are a format error, which no writer makes
            header = formats.FRAME_MAGIC + struct.pack("<4I", 4, 0, 1, len(first.frames))
            (tmp_path / "gen" / "manifest_chunk0_frames.bin").write_bytes(header)
        elif defect == "overlong-sidecar-name":  # load_manifest passes the OSError (ENAMETOOLONG) on
            doc = json.loads(gen.read_text())
            doc["chunks"][0]["frames"] = "a" * 300
            gen.write_text(json.dumps(doc))
        gt = save_manifest(traj, tmp_path / "gt" / "manifest.json")
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", str(gen), "--gt", str(gt), "--out", str(out)]) == 2
        errors = [r["error"] for r in _read_records(out) if "error" in r]
        assert len(errors) == 1 and message in errors[0]["message"]

    @pytest.mark.parametrize("earlier", [False, True], ids=["alone", "after-frame-issue"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("chunk", [0, 1, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("side", ["gen", "gt"])
    def test_non_finite_flow_reads_as_validation_does(self, tmp_path, side, chunk, value, earlier):
        """The scoring pass finds a non-finite flow field by reducing it, and
        its error names the same issues, in the same order, as
        ``validate_trajectory`` does, with or without an earlier issue."""
        traj, _ = generate_trajectory(mixed_fixture_config(seed=606, size=32, t=4))
        chunks = list(traj.chunks)
        fi = chunk % 3  # one of the three fields
        u = chunks[chunk].flows[fi].u.copy()
        u[5, 7] = value
        flows = list(chunks[chunk].flows)
        flows[fi] = rollout.FlowField(u=u, v=chunks[chunk].flows[fi].v)
        chunks[chunk] = Chunk(frames=chunks[chunk].frames, instruction="", phase=chunks[chunk].phase,
                              flows=tuple(flows))
        if earlier:  # a frame outside [0, 1] in chunk 0, which validation reports first
            frames = list(chunks[0].frames)
            frames[1] = Frame(data=frames[1].data + 1.0)
            chunks[0] = Chunk(frames=tuple(frames), instruction="", phase=chunks[0].phase,
                              flows=chunks[0].flows)
        bad = Trajectory(id=traj.id, chunks=tuple(chunks))
        paths = {name: save_manifest(t, tmp_path / name / "manifest.json")
                 for name, t in (("bad", bad), ("good", traj))}
        gen, gt = (paths["bad"], paths["good"]) if side == "gen" else (paths["good"], paths["bad"])
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", str(gen), "--gt", str(gt), "--out", str(out)]) == 2
        issues = rollout.validate_trajectory(manifest.load_manifest(paths["bad"], masks=False)).issues
        assert f"chunk {chunk} flow {fi}: non-finite value" in issues and len(issues) == 1 + earlier
        message = [r["error"]["message"] for r in _read_records(out) if "error" in r]
        assert message == [f"{side} trajectory invalid: " + "; ".join(issues)]

    @pytest.mark.parametrize("defect", ["non-binary", "truncated", "missing"])
    def test_broken_mask_sidecar_changes_no_report_byte(self, tmp_path, defect):
        """No metric reads the world-ego masks, so ``eval`` does not load them;
        a library caller's ``load_manifest`` and ``validate_trajectory`` still
        reject the broken sidecar."""
        traj, _ = generate_trajectory(mixed_fixture_config(seed=604, size=32, t=4))
        gen = save_manifest(traj, tmp_path / "gen" / "manifest.json")
        gt = save_manifest(traj, tmp_path / "gt" / "manifest.json")

        def report(name: str) -> bytes:
            out = tmp_path / name
            assert main(["eval", "--gen", str(gen), "--gt", str(gt), "--out", str(out)]) == 0
            return out.read_bytes()

        intact = report("intact.jsonl")
        masks = next((tmp_path / "gen").glob("*_masks.bin"))
        data = masks.read_bytes()
        if defect == "non-binary":
            masks.write_bytes(data[:16] + b"\x02" + data[17:])  # the first payload value
        elif defect == "truncated":
            masks.write_bytes(data[:-1])
        else:
            masks.unlink()
        assert report("broken.jsonl") == intact
        if defect == "non-binary":
            issues = rollout.validate_trajectory(manifest.load_manifest(gen)).issues
            assert any("non-binary mask" in issue for issue in issues)
        else:
            message = "payload is" if defect == "truncated" else "asset missing"
            with pytest.raises(manifest.ManifestError, match=message):
                manifest.load_manifest(gen)

    def test_opens_no_mask_sidecar(self, tmp_path, monkeypatch):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=605, size=32, t=4))
        path = str(save_manifest(traj, tmp_path / "manifest.json"))
        opened, real_open = [], os.open

        def recording(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert main(["eval", "--gen", path, "--gt", path, "--out", str(tmp_path / "r.jsonl")]) == 0
        assert {p.rsplit("_", 1)[1] for p in opened if p.endswith(".bin")} == {"frames.bin", "flows.bin"}

    @pytest.mark.parametrize("doc", [[{"gen": "a"}], {"gen": 1}, DEEP_JSON],
                             ids=["missing-gt", "not-a-list", "deep-file"])
    def test_malformed_pairs_file_exits_two(self, tmp_path, capsys, doc):
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(_json_text(doc))
        assert main(["eval", "--pairs", str(pairs_file)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bad pairs file" in err[0]
        if isinstance(doc, list):
            assert "entry 0" in err[0]

    def test_missing_store_key_fails_only_that_pair(self, tmp_path, monkeypatch):
        paths, trajs = [], []
        for i in range(2):
            traj, _ = generate_trajectory(mixed_fixture_config(seed=610 + i, size=32, t=4))
            trajs.append(traj)
            paths.append(str(save_manifest(traj, tmp_path / f"t{i}" / "manifest.json")))
        vectors = _recorded_embeddings(trajs[0], trajs[0], monkeypatch)  # pair 0's keys only
        features.EmbeddingStore.write(tmp_path / "store.json", vectors)
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps([{"gen": p, "gt": p} for p in paths]))
        out = tmp_path / "r.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")])
        assert code == 1
        records = _read_records(out)
        assert "trajectory" in records[1]
        assert records[2]["error"]["pair"] == 1
        message = records[2]["error"]["message"]
        assert message.startswith("embedding key '") and "not found" in message

    def test_recorded_store_serves_every_lookup(self, tmp_path, monkeypatch):
        gt, truth = generate_trajectory(mixed_fixture_config(seed=630, size=32, t=6))
        gen = perturb_rollout(gt, truth, "frame-noise", 0.05, seed=1)
        reference = metrics.evaluate_all(gen, gt)
        features.EmbeddingStore.write(tmp_path / "store.json",
                                      _recorded_embeddings(gen, gt, monkeypatch))
        paths = [str(save_manifest(t, tmp_path / t.id / "manifest.json")) for t in (gen, gt)]
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", paths[0], "--gt", paths[1], "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")]) == 0
        scores = _read_records(out)[1]["scores"]
        for name, value in reference.scores.items():
            assert scores[name] == pytest.approx(value, abs=1e-5)

    @pytest.mark.parametrize("defect", ["list-index", "int-entry", "negative-offset", "deep-index"])
    def test_malformed_store_index_becomes_error_record(self, tmp_path, monkeypatch, capsys,
                                                        defect):
        traj, _ = generate_trajectory(mixed_fixture_config(seed=640, size=32, t=4))
        path = str(save_manifest(traj, tmp_path / "t" / "manifest.json"))
        index_path = tmp_path / "store.json"
        features.EmbeddingStore.write(index_path, _recorded_embeddings(traj, traj, monkeypatch))
        index = json.loads(index_path.read_text())
        if defect == "list-index":
            index = []
        for key, entry in index.items() if defect != "list-index" else ():
            index[key] = 5 if defect == "int-entry" else {**entry, "offset": -8 * entry["dim"]}
        index_path.write_text(_json_text(DEEP_JSON if defect == "deep-index" else index))
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--gen", path, "--gt", path, "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(index_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        message = _read_records(out)[1]["error"]["message"]
        assert message.startswith(f"embedding index {index_path}")
        if defect == "deep-index":
            assert message.endswith(": JSON nested too deeply to decode")
        elif defect == "list-index":
            assert message.endswith("must be a JSON object")
        else:
            assert any(f"entry for key '{key}' must be" in message for key in index)

    def test_missing_store_blob_fails_only_its_pair(self, tmp_path, monkeypatch):
        paths, index = [], {}
        for i in range(2):
            traj, _ = generate_trajectory(mixed_fixture_config(seed=620 + i, size=32, t=4))
            paths.append(str(save_manifest(traj, tmp_path / f"t{i}" / "manifest.json")))
            part = tmp_path / f"part{i}.json"  # blob part{i}.blob holds pair i's vectors
            features.EmbeddingStore.write(part, _recorded_embeddings(traj, traj, monkeypatch))
            index.update(json.loads(part.read_text()))
        (tmp_path / "store.json").write_text(json.dumps(index))
        (tmp_path / "part1.blob").unlink()
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps([{"gen": p, "gt": p} for p in paths]))
        out = tmp_path / "r.jsonl"
        code = main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--embedder",
                     "external-file", "--embedder-source", str(tmp_path / "store.json")])
        assert code == 1
        records = _read_records(out)
        assert "trajectory" in records[1]
        assert records[2]["error"]["pair"] == 1
        assert str(tmp_path / "part1.blob") in records[2]["error"]["message"]


class TestDecomposeFlow:
    def test_fixture_flow_decomposes_to_tiny_residual(self, tmp_path):
        traj, gt = generate_trajectory(mixed_fixture_config(seed=700, size=32, t=4))
        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, list(traj.chunks[0].flows))
        hom = gt.homographies[0][0]
        matches = matches_from_homography(hom, 32, 32, 24, seed=1)
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps(matches.tolist()))
        out_dir = tmp_path / "decomposed"
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        residual = formats.read_flow_file(out_dir / "residual_flow.bin")
        for field in residual:
            assert float(np.hypot(field.u, field.v).max()) <= 1e-4
        homs = json.loads((out_dir / "homographies.json").read_text())
        assert np.allclose(homs[0], hom.h, atol=1e-6)

    def test_identity_flow_leaves_residual_equal_to_input(self, tmp_path):
        from wemeval.camera import Homography
        from wemeval.rollout import FlowField

        rng = np.random.default_rng(0)
        field = FlowField(u=rng.normal(0, 0.01, (16, 16)), v=rng.normal(0, 0.01, (16, 16)))
        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [field])
        matches = matches_from_homography(Homography.identity(), 16, 16, 12, seed=2)
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps(matches.tolist()))
        out_dir = tmp_path / "out"
        assert main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(out_dir)]) == 0
        camera = formats.read_flow_file(out_dir / "camera_flow.bin")[0]
        residual = formats.read_flow_file(out_dir / "residual_flow.bin")[0]
        assert float(np.abs(camera.u).max()) <= 1e-6
        assert np.allclose(residual.u, field.u, atol=1e-6)

    def test_too_few_matches_exits_two(self, tmp_path, capsys):
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps([[0, 0, 1, 1], [2, 2, 3, 3], [4, 4, 5, 5]]))
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "at least 4" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2, 3, 4], [None], [[{}]], DEEP_JSON, []],
                             ids=["flat-numbers", "null-entry", "object-match", "deep-file", "empty"])
    def test_malformed_matches_exits_two(self, tmp_path, capsys, doc):
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(_json_text(doc))
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("decompose-flow: bad matches file: ")
        assert not (tmp_path / "out").exists()

    def test_match_set_of_both_forms_reads_as_one_array_or_not_at_all(self, tmp_path, capsys):
        """A set in one form, flat or nested, reads as the same (n, 2, 2) matches; a set that mixes
        the two forms is a bad matches file."""
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        flat = [[0, 0, 1, 0], [7, 0, 8, 0], [0, 7, 1, 7], [7, 7, 8, 7], [3, 5, 4, 5]]
        nested = [[m[:2], m[2:]] for m in flat]
        for name, doc in (("flat", flat), ("nested", nested), ("list", [nested])):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert main(["decompose-flow", "--flow", str(flow_path), "--matches", str(tmp_path / f"{name}.json"),
                         "--out-dir", str(tmp_path / name)]) == 0
        assert (tmp_path / "flat" / "homographies.json").read_bytes() == (
            tmp_path / "nested" / "homographies.json").read_bytes() == (
            tmp_path / "list" / "homographies.json").read_bytes()
        capsys.readouterr()
        (tmp_path / "mixed.json").write_text(json.dumps(flat[:3] + nested[3:]))
        assert main(["decompose-flow", "--flow", str(flow_path), "--matches", str(tmp_path / "mixed.json"),
                     "--out-dir", str(tmp_path / "mixed")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("decompose-flow: bad matches file: ")
        assert not (tmp_path / "mixed").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps([[0, 0, 0, 0], [7, 0, 7, 0], [0, 7, 0, 7], [7, 7, 7, 7]]))
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                  "--out-dir", str(tmp_path / "out"), "--seed", "-3"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["wemeval decompose-flow: error: argument --seed: must be >= 0, got -3"]
        assert not (tmp_path / "out").exists()

    def test_pixel_mapped_to_infinity_exits_two(self, tmp_path, capsys):
        """Matches fitted by a homography whose w = 1 - x/4 is 0 on pixel column 4."""
        from wemeval.rollout import FlowField

        flow_path = tmp_path / "flow.bin"
        formats.write_flow_file(flow_path, [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        matches = [[x, y, x / (1 - x / 4), y / (1 - x / 4)]
                   for x, y in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (3, 1), (0, 5))]
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps(matches))
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "decompose-flow: field 0: point at infinity at pixel (4, 0)\n"
        assert not (tmp_path / "out").exists()

    def test_flow_file_of_no_fields_exits_two(self, tmp_path, capsys):
        flow_path = tmp_path / "flow.bin"
        flow_path.write_bytes(formats.FLOW_MAGIC + struct.pack("<3I", 16, 16, 0))
        matches_path = tmp_path / "matches.json"
        matches_path.write_text(json.dumps([[0, 0, 0, 0], [15, 0, 15, 0], [0, 15, 0, 15], [15, 15, 15, 15]]))
        code = main(["decompose-flow", "--flow", str(flow_path), "--matches", str(matches_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"decompose-flow: {flow_path}: holds no flow fields\n"
        assert not (tmp_path / "out").exists()


class TestInputErrors:
    """Each bad input or output prints one ``<command>: ...`` line and exits 2."""

    @pytest.mark.parametrize("argv, message", [
        (["decompose-flow", "--flow", "missing.bin", "--matches", "ok.json", "--out-dir", "out"],
         "decompose-flow: [Errno 2] No such file or directory: 'missing.bin'"),
        (["decompose-flow", "--flow", "magic.bin", "--matches", "ok.json", "--out-dir", "out"],
         "decompose-flow: magic.bin: bad magic b'XXXX', expected b'WEMF'"),
        (["decompose-flow", "--flow", "flow.bin", "--matches", "bad.json", "--out-dir", "out"],
         "decompose-flow: bad matches file: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["decompose-flow", "--flow", "flow.bin", "--matches", "two.json", "--out-dir", "out"],
         "decompose-flow: 2 match sets for 1 flow fields"),
        (["decompose-flow", "--flow", "flow.bin", "--matches", "ok.json", "--out-dir", "out"],
         "decompose-flow: field 0: no non-degenerate 4-point hypothesis found in 500 iterations"),
        (["gen-fixtures", "--out-dir", "a-file/sub"],
         "gen-fixtures: cannot create a-file/sub: [Errno 20] Not a directory: 'a-file/sub'"),
        (["gen-fixtures", "--out-dir", "out", "--size", "8"],
         "gen-fixtures: --size 8 --frames 6: frame dims must be at least 16x16"),
        (["gen-fixtures", "--out-dir", "out", "--frames", "1"],
         "gen-fixtures: --size 64 --frames 1: chunks need steps >= 2"),
        (["gen-fixtures", "--out-dir", "out", "--size", "4096", "--frames", "4"],
         "gen-fixtures: --size 4096 --frames 4: width x height x frames is 268435456, more than 16777216"),
        (["decompose-flow", "--flow", "flow.bin", "--matches", "ok.json", "--out-dir", "out",
          "--threshold", "nan"],
         "decompose-flow: field 0: threshold must be positive"),
        (["eval", "--pairs", "missing.json", "--gen", "g.json", "--gt", "g.json", "--out", "out"],
         "eval: give --pairs or --gen/--gt, not both"),
        (["gen-fixtures", "--out-dir", "gf", "--size", "16", "--frames", "2"],
         "gen-fixtures: cannot write gf/mixed-00: File exists"),
        (["decompose-flow", "--flow", "flow.bin", "--matches", "identity.json", "--out-dir", "o"],
         "decompose-flow: cannot write o/camera_flow.bin: Is a directory"),
        (["eval", "--gen", "g.json", "--out", "out"], "eval: provide --gen/--gt or --pairs"),
    ], ids=["missing-flow", "bad-magic", "bad-matches-json", "match-set-count", "degenerate-matches",
            "uncreatable-out-dir", "small-size", "one-frame", "huge-size", "nan-threshold",
            "pairs-and-gen-gt", "fixture-dir-is-a-file", "flow-output-is-a-directory", "gen-without-gt"])
    def test_bad_input_prints_one_line_and_exits_two(self, tmp_path, monkeypatch, capsys, argv, message):
        from wemeval.rollout import FlowField

        monkeypatch.chdir(tmp_path)
        formats.write_flow_file("flow.bin", [FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))])
        Path("magic.bin").write_bytes(b"X" * 24)
        Path("ok.json").write_text(json.dumps([[0, 0, 1, 1]] * 4))  # one point: degenerate
        Path("two.json").write_text(json.dumps([[[0, 0, 1, 1]] * 4] * 2))
        Path("bad.json").write_text("{not json")
        Path("a-file").write_text("x")
        Path("identity.json").write_text(json.dumps([[0, 0, 0, 0], [7, 0, 7, 0], [0, 7, 0, 7], [7, 7, 7, 7],
                                                     [3, 5, 3, 5]]))
        Path("gf").mkdir()
        Path("gf/mixed-00").write_text("x")  # where gen-fixtures puts its first fixture's directory
        Path("o/camera_flow.bin").mkdir(parents=True)
        assert main(argv) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not Path("out").exists()
        assert not [*Path().rglob("*.tmp"), *Path().rglob("homographies.json")]


class TestVerifyMechanisms:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "verify.jsonl"
        code = main(["verify-mechanisms", "--trials", "50", "--out", str(out)])
        assert code == 0
        records = _read_records(out)
        assert len(records) == 7
        assert all(r["passed"] for r in records)

    def test_injected_fault_exits_one_with_counterexample(self, tmp_path, flipped_unroute):
        out = tmp_path / "verify.jsonl"
        code = main(["verify-mechanisms", "--trials", "50", "--out", str(out)])
        assert code == 1
        broken = [r for r in _read_records(out) if not r["passed"]]
        assert broken and broken[0]["invariant"] == "unroute_reconstruction"
        assert broken[0]["failures"][0]["base_mask"]

    def test_each_record_is_written_when_its_trials_end(self, capsys, monkeypatch):
        def interrupted(rng):  # an exception a trial records would not end the run
            raise KeyboardInterrupt

        monkeypatch.setitem(verify.CHECKS, "routing_partition", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify-mechanisms", "--trials", "5"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["invariant"], r["passed"]) for r in records] == [("rca_rule_agreement", True)]

    def test_records_name_their_seed_and_differ_only_in_it(self, tmp_path):
        runs = {}
        for seed in (0, 1):
            out = tmp_path / f"v{seed}.jsonl"
            assert main(["verify-mechanisms", "--seed", str(seed), "--trials", "20", "--out", str(out)]) == 0
            runs[seed] = _read_records(out)
        assert [r["seed"] for r in runs[0]] == [0] * 7 and [r["seed"] for r in runs[1]] == [1] * 7
        for a, b in zip(runs[0], runs[1]):
            assert list(a) == list(b)
            assert {k: v for k, v in a.items() if k != "seed"} == {k: v for k, v in b.items() if k != "seed"}

    def test_a_trial_that_raises_is_a_failed_record(self, tmp_path, lost_base_token):
        out = tmp_path / "verify.jsonl"
        assert main(["verify-mechanisms", "--seed", "15", "--trials", "200", "--out", str(out)]) == 1
        records = _read_records(out)
        assert len(records) == 7
        unrouted = next(r for r in records if r["invariant"] == "unroute_reconstruction")
        assert any(f.get("error", "").startswith("IndexError: ") for f in unrouted["failures"])

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-mechanisms", "--seed", "-1", "--out", str(tmp_path / "v.jsonl")])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["wemeval verify-mechanisms: error: argument --seed: must be >= 0, got -1"]
        assert not (tmp_path / "v.jsonl").exists()

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-mechanisms", "--trials", "0"])
        assert excinfo.value.code == 2

    def test_default_trials_is_1000(self):
        assert cli.build_parser().parse_args(["verify-mechanisms"]).trials == 1000


def _catalog(*names: str, chunk: dict | None = None, **fields) -> dict:
    """A catalog of one 32 px fixture per name (one unnamed "f" by default),
    with one chunk and ``fields`` replacing the fixture's own."""
    chunk = chunk or {"phase": "Manip", "steps": 4, "object_motion": [0, 1]}
    fixture = {"seed": 1, "width": 32, "height": 32, "chunks": [chunk],
               "objects": [{"shape": "disk", "size": 3, "intensity": 0.9, "position": [14, 12]}]}
    return {"fixtures": [{**fixture, "name": name, **fields} for name in names or ("f",)]}


class TestGenFixtures:
    def test_default_catalog_emits_at_least_twenty(self, tmp_path):
        out_dir = tmp_path / "fixtures"
        code = main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        assert code == 0
        catalog = json.loads((out_dir / "catalog.json").read_text())
        assert len(catalog["fixtures"]) >= 20
        assert all(f.keys() == {"name", "seed", "manifest", "phases", "frames_per_chunk", "dims"}
                   for f in catalog["fixtures"])
        phases = {tuple(f["phases"]) for f in catalog["fixtures"]}
        assert any(set(p) == {"Nav"} for p in phases)
        assert any(set(p) == {"Manip"} for p in phases)
        assert any(set(p) == {"Nav", "Manip"} for p in phases)
        from wemeval.manifest import load_manifest

        first = catalog["fixtures"][0]
        load_manifest(out_dir / first["manifest"])

    def test_rerun_is_bit_identical(self, tmp_path):
        out_dir = tmp_path / "fixtures"
        main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        snapshot = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        main(["gen-fixtures", "--out-dir", str(out_dir), "--size", "32", "--frames", "4"])
        for path, data in snapshot.items():
            assert path.read_bytes() == data, path

    def test_catalog_with_bad_fixture_continues_and_exits_one(self, tmp_path, capsys):
        catalog = {
            "fixtures": [
                {
                    "name": "ok", "seed": 1, "width": 32, "height": 32,
                    "objects": [{"shape": "disk", "size": 3, "intensity": 0.9,
                                 "position": [14, 12]}],
                    "chunks": [{"phase": "Manip", "steps": 4, "object_motion": [0, 1]}],
                },
                {
                    "name": "escapes", "seed": 2, "width": 32, "height": 32,
                    "objects": [{"shape": "disk", "size": 3, "intensity": 0.9,
                                 "position": [28, 12]}],
                    "chunks": [{"phase": "Manip", "steps": 9, "object_motion": [3, 0]}],
                },
            ]
        }
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(catalog))
        out_dir = tmp_path / "fixtures"
        code = main(["gen-fixtures", "--out-dir", str(out_dir), "--catalog", str(catalog_path)])
        assert code == 1
        assert "leaves frame bounds" in capsys.readouterr().err
        written = json.loads((out_dir / "catalog.json").read_text())
        assert [f["name"] for f in written["fixtures"]] == ["ok"]

    @pytest.mark.parametrize("doc", [
        {"fixtures": [1]},
        {"fixtures": [{"name": "a", "chunks": [1]}]},
        [1],
        {"fixtures": 5},
        DEEP_JSON,
        _catalog(seed=1e400),
        _catalog(seed=-1),
        _catalog(seed=True),
        _catalog(seed=2.5),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "zoom", "factor": 0}}),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "zoom", "factor": -1.5}}),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "translate", "dx": 1e400}}),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "rotate", "degrees": -1e400}}),
        _catalog(chunk={"phase": "Manip", "steps": 4, "object_motion": [0, 1e400]}),
        _catalog(chunk={"phase": "Manip", "steps": 4, "object_motion": [0, 1, 2]}),
        _catalog(width=1e400),
        _catalog(width=40000, height=40000),
        _catalog("catalog.json"),
        _catalog(width=16.9, height="16"),
        _catalog(chunk={"phase": "Manip", "steps": 2.7, "object_motion": [0, 1]}),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "none"}}, ego_object=True),
        _catalog(noise_sigma=True),
        _catalog(objects=[{"shape": "disk", "size": True, "intensity": 0.9, "position": [14, 12]}]),
        _catalog(objects=[{"shape": "disk", "size": 3, "intensity": True, "position": [14, 12]}]),
        _catalog(objects=[{"shape": "disk", "size": 3, "intensity": 0.9, "position": [8, True]}]),
        _catalog(chunk={"phase": "Manip", "steps": 4, "object_motion": [0, True]}),
        _catalog(chunk={"phase": "Nav", "steps": 4, "camera": {"kind": "translate", "dx": True}}),
    ], ids=["fixture-not-object", "chunk-not-object", "top-level-list", "fixtures-not-list",
            "deep-file", "infinite-seed", "negative-seed", "bool-seed", "fractional-seed",
            "zero-zoom", "negative-zoom", "infinite-dx", "infinite-degrees",
            "infinite-object-motion", "three-component-object-motion", "infinite-width",
            "huge-frames", "named-catalog-json", "fractional-width", "fractional-steps",
            "bool-ego-object", "bool-noise-sigma", "bool-size", "bool-intensity", "bool-position",
            "bool-object-motion", "bool-camera-dx"])
    def test_malformed_catalog_exits_two(self, tmp_path, capsys, doc):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(_json_text(doc))
        code = main(["gen-fixtures", "--out-dir", str(tmp_path / "fixtures"), "--catalog",
                     str(catalog_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("gen-fixtures: bad catalog: ")
        assert not (tmp_path / "fixtures").exists()

    @pytest.mark.parametrize("names", [
        ("../../escape",), ("..",), (".",), ("",), ("a/b",), ("/abs",), ("nul\0",), ("twin", "twin"),
    ], ids=["escape", "parent", "current", "empty", "two-components", "absolute", "nul", "duplicate"])
    def test_fixture_name_must_be_one_new_directory(self, tmp_path, capsys, names):
        out_dir = tmp_path / "a" / "b" / "fixtures"
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(_catalog(*names)))
        before = sorted(tmp_path.rglob("*"))
        assert main(["gen-fixtures", "--out-dir", str(out_dir), "--catalog", str(catalog_path)]) == 2
        assert capsys.readouterr().err.startswith("gen-fixtures: bad catalog: fixture name ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_catalog_ints_may_be_exact_floats_or_strings(self, tmp_path):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(_catalog(width="32", height=32.0, ego_object="0")))
        out_dir = tmp_path / "fixtures"
        assert main(["gen-fixtures", "--out-dir", str(out_dir), "--catalog", str(catalog_path)]) == 0
        assert json.loads((out_dir / "catalog.json").read_text())["fixtures"][0]["dims"] == [32, 32]

    def test_each_fixture_name_gets_its_own_directory(self, tmp_path):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(_catalog("one", "two.v2", "..three")))
        out_dir = tmp_path / "fixtures"
        assert main(["gen-fixtures", "--out-dir", str(out_dir), "--catalog", str(catalog_path)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["..three", "catalog.json", "one", "two.v2"]


class TestReport:
    def test_merge_recomputes_aggregate(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        part1 = tmp_path / "part1.jsonl"
        part2 = tmp_path / "part2.jsonl"
        pairs = json.loads(pairs_file.read_text())
        half1 = tmp_path / "half1.json"
        half2 = tmp_path / "half2.json"
        half1.write_text(json.dumps([{**p, "gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                     for p in pairs[:5]]))
        half2.write_text(json.dumps([{**p, "gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                     for p in pairs[5:]]))
        main(["eval", "--pairs", str(half1), "--out", str(part1)])
        main(["eval", "--pairs", str(half2), "--out", str(part2)])
        merged = tmp_path / "merged.jsonl"
        assert main(["report", str(part1), str(part2), "--out", str(merged)]) == 0
        records = _read_records(merged)
        assert records[-1]["aggregate"]["pairs"] == 10
        assert records[-1]["aggregate"]["failed"] == 1
        assert sum(1 for r in records if "trajectory" in r) == 9

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        "{not json",
        _trajectory_line(rcbd="a"),
        DEEP_JSON,
        _trajectory_line(rcbd=float("nan")),
        _trajectory_line(lpsa=True),
        _trajectory_line(rcbd=float("inf")),
        _trajectory_line(rcbd=float("-inf")),
        _trajectory_line(rcbd=10 ** 400),
        _trajectory_line(rcbd=1e308) + "\n" + _trajectory_line(rcbd=1e308),
        _trajectory_line(lpsa=-1.5),
    ], ids=["array", "bad-json", "string-score", "deep-line", "nan-score", "bool-score",
            "infinite-score", "negative-infinite-score", "huge-int-score", "overflowing-scores",
            "score-below-minus-one"])
    def test_malformed_line_exits_two(self, tmp_path, capsys, line):
        report = tmp_path / "r.jsonl"
        report.write_text('{"config": {}}\n' + line + "\n")
        assert main(["report", str(report)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{report}:2" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "{}",
        '{"x": 1}',
        '{"config": 3}',
        '{"error": 5}',
        '{"trajectory": 5, "scores": {}}',
        '{"error": {}}',
        '{"error": {"gen": "g", "gt": "t", "message": "m"}}',
        '{"error": {"gen": "g", "gt": "t", "message": 3, "pair": 0}}',
        '{"error": {"gen": "g", "gt": null, "message": "m", "pair": 0}}',
        '{"error": {"gen": "g", "gt": "t", "message": "m", "pair": -1}}',
        '{"error": {"gen": "g", "gt": "t", "message": "m", "pair": true}}',
        '{"error": {"gen": "g", "gt": "t", "message": "m", "pair": 1.0}}',
        '{"error": {"gen": "g", "gt": "t", "message": "m", "pair": 0, "x": 1}}',
        '{"config": {"bogus": 1}}',
        '{"config": {"lpsa_window": "four"}}',
        '{"config": {"lpsa_window": 3.7}}',
        '{"config": {"embedder": 3}}',
        '{"config": {"embedder": {"bogus": 1}}}',
        '{"config": {"embedder": {"grid": true}}}',
        '{"aggregate": {"x": 1}}',
        '{"trajectory": "t", "scores": {"bogus": 0.5}}',
        '{"trajectory": "t", "scores": ' + _scores_text(bogus=0.5) + "}",
        '{"trajectory": "t", "scores": {"rcbd": 0.5}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": 1}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": 1, "failed": 0, "x": 1}}',
        '{"aggregate": {"scores": {"rcbd": 0.5}, "pairs": 1, "failed": 0}}',
        '{"aggregate": {"scores": ' + _scores_text(rcbd=2.0) + ', "pairs": 1, "failed": 0}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": -1, "failed": 0}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": 1, "failed": 2}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": 1, "failed": -1}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": true, "failed": 0}}',
        '{"aggregate": {"scores": ' + _scores_text() + ', "pairs": 1.0, "failed": 0}}',
    ], ids=["empty-object", "unknown-key", "config-not-object", "error-not-object",
            "trajectory-id-not-string", "error-empty", "error-without-pair", "error-message-not-string",
            "error-gt-null", "error-negative-pair", "error-bool-pair", "error-float-pair",
            "error-extra-key", "config-unknown-key", "config-string-for-int", "config-inexact-int",
            "config-embedder-not-object", "config-embedder-unknown-key", "config-embedder-bool-grid",
            "aggregate-unknown-key", "trajectory-unknown-metric", "trajectory-seventh-metric",
            "trajectory-missing-metrics", "aggregate-without-failed", "aggregate-extra-key",
            "aggregate-missing-metrics", "aggregate-score-out-of-range", "aggregate-negative-pairs",
            "aggregate-more-failed-than-pairs", "aggregate-negative-failed", "aggregate-bool-pairs",
            "aggregate-float-pairs"])
    def test_object_of_no_record_kind_exits_two(self, tmp_path, capsys, line):
        report = tmp_path / "r.jsonl"
        report.write_text(line + "\n")
        assert main(["report", str(report)]) == 2
        assert capsys.readouterr().err == f"report: {report}:1: not a report record\n"

    def test_eval_report_merges_byte_for_byte(self, fixture_pair_dir, tmp_path):
        root, pairs_file = fixture_pair_dir
        for indices, code in (([0, 1, 2, 4], 0), (range(10), 1)):  # pair 3 fails
            pairs = tmp_path / "pairs.json"
            pairs.write_text(json.dumps(_absolute_pairs(root, pairs_file, indices)))
            report, merged = tmp_path / "r.jsonl", tmp_path / "m.jsonl"
            assert main(["eval", "--pairs", str(pairs), "--out", str(report)]) == code
            assert main(["report", str(report), "--out", str(merged)]) == 0
            assert merged.read_bytes() == report.read_bytes()

    def test_blank_lines_are_skipped(self, ten_pair_report, tmp_path):
        lines = ten_pair_report.read_text().splitlines()
        spaced, merged = tmp_path / "spaced.jsonl", tmp_path / "m.jsonl"
        spaced.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n\n")
        assert main(["report", str(spaced), "--out", str(merged)]) == 0
        assert merged.read_bytes() == ten_pair_report.read_bytes()

    def test_merge_keeps_error_records_in_merged_order(self, fixture_pair_dir, tmp_path):
        """Merged bytes are those of one ``eval`` over the inputs' pairs in
        order, and merging the merged report gives them back."""
        root, pairs_file = fixture_pair_dir
        reports = []
        for name, indices in (("a", [5, 6]), ("b", [0, 1, 2, 3, 4]), ("all", [5, 6, 0, 1, 2, 3, 4])):
            pairs = tmp_path / f"{name}.json"
            pairs.write_text(json.dumps(_absolute_pairs(root, pairs_file, indices)))
            reports.append(tmp_path / f"{name}.jsonl")
            main(["eval", "--pairs", str(pairs), "--out", str(reports[-1])])
        merged, again = tmp_path / "merged.jsonl", tmp_path / "again.jsonl"
        assert main(["report", str(reports[0]), str(reports[1]), "--out", str(merged)]) == 0
        records = _read_records(merged)
        assert records[6]["error"]["pair"] == 5  # pair 3 of b, after a's two
        assert (records[-1]["aggregate"]["pairs"], records[-1]["aggregate"]["failed"]) == (7, 1)
        assert merged.read_bytes() == reports[2].read_bytes()
        assert main(["report", str(merged), "--out", str(again)]) == 0
        assert again.read_bytes() == merged.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:3],  # `head -n 3`: the config and two of ten pairs
        lambda lines: lines[:-1],
        lambda lines: lines[:-1] + [lines[-1].replace('"pairs":10', '"pairs":11')],
        lambda lines: lines[:-1] + [lines[-1].replace('"failed":1', '"failed":0')],
        lambda lines: [line for line in lines if not line.startswith('{"error"')],  # an old merge
    ], ids=["cut-after-two-pairs", "no-aggregate", "pairs-miscounted", "failed-miscounted",
            "error-record-dropped"])
    def test_incomplete_input_exits_two(self, ten_pair_report, tmp_path, capsys, edit):
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(edit(ten_pair_report.read_text().splitlines())) + "\n")
        assert main(["report", str(ten_pair_report), str(cut)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report: {cut}: incomplete: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("tail", ["aggregate", "trajectory"])
    def test_record_after_the_aggregate_exits_two(self, ten_pair_report, tmp_path, capsys, tail):
        lines = ten_pair_report.read_text().splitlines()
        twice = tmp_path / "twice.jsonl"
        twice.write_text("\n".join(lines + [lines[-1] if tail == "aggregate" else lines[1]]) + "\n")
        assert main(["report", str(twice)]) == 2
        assert capsys.readouterr().err == f"report: {twice}:13: a record after the aggregate\n"

    def test_input_without_config_is_not_merged_with_one_that_has_it(self, ten_pair_report, tmp_path, capsys):
        bare = tmp_path / "bare.jsonl"
        bare.write_text("".join(ten_pair_report.read_text().splitlines(keepends=True)[1:]))
        for inputs in ([ten_pair_report, bare], [bare, ten_pair_report]):
            assert main(["report", *map(str, inputs), "--out", str(tmp_path / "m.jsonl")]) == 2
            assert capsys.readouterr().err == (f"report: {bare}: no config record, so it cannot be "
                                               f"merged with {ten_pair_report}\n")
        assert not (tmp_path / "m.jsonl").exists()

    def test_inputs_without_config_merge(self, ten_pair_report, tmp_path):
        bare, merged = tmp_path / "bare.jsonl", tmp_path / "m.jsonl"
        bare.write_text("".join(ten_pair_report.read_text().splitlines(keepends=True)[1:]))
        assert main(["report", str(bare), str(bare), "--out", str(merged)]) == 0
        records = _read_records(merged)
        assert "trajectory" in records[0] and len(records) == 21
        assert [r["error"]["pair"] for r in records if "error" in r] == [3, 13]
        assert (records[-1]["aggregate"]["pairs"], records[-1]["aggregate"]["failed"]) == (20, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_eval_record_has_a_record_kind(self, fixture_pair_dir, tmp_path, workers):
        _, pairs_file = fixture_pair_dir
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--pairs", str(pairs_file), "--out", str(out), "--workers", str(workers)]) == 1
        kinds = [commands._record_kind(record) for record in _read_records(out)]
        assert kinds == ["config"] + ["trajectory"] * 3 + ["error"] + ["trajectory"] * 6 + ["aggregate"]

    def test_missing_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["report", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_config_mismatch_exits_two(self, fixture_pair_dir, tmp_path, capsys):
        root, pairs_file = fixture_pair_dir
        pairs = json.loads(pairs_file.read_text())
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps([{"gen": str(root / p["gen"]), "gt": str(root / p["gt"])}
                                        for p in pairs[:2]]))
        default, tuned = tmp_path / "default.jsonl", tmp_path / "tuned.jsonl"
        main(["eval", "--pairs", str(absolute), "--out", str(default)])
        main(["eval", "--pairs", str(absolute), "--out", str(tuned), "--tau-cpdm", "0.3"])
        assert main(["report", str(default), str(tuned), "--out", str(tmp_path / "m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(tuned) in err and "config differs" in err


class TestOut:
    """``--out`` is opened before any work and replaced only by a whole report."""

    @pytest.mark.parametrize("command", [
        ["eval", "--gen", "g.json", "--gt", "g.json"],
        ["report", "r.jsonl"],
        ["verify-mechanisms", "--trials", "1"],
    ], ids=["eval", "report", "verify-mechanisms"])
    @pytest.mark.parametrize("out_name", ["missing/r.jsonl", "a-directory"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch, command, out_name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.jsonl").write_text('{"config": {}}\n')
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / out_name
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"{command[0]}: cannot write {out}")
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", [
        ["eval", "--gen", "g.json", "--gt", "g.json", "--config", "bad.json"],
        ["report", "bad.jsonl"],
    ], ids=["eval-bad-config", "report-bad-line"])
    def test_failed_run_leaves_existing_out_unchanged(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text('{"tau_cpdm": "x"}')
        (tmp_path / "bad.jsonl").write_text('{"config": {}}\n[1]\n')
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")
        assert main(command + ["--out", str(out)]) == 2
        assert out.read_text() == "previous report\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_out_is_replaced_once_complete(self, fixture_pair_dir, tmp_path, monkeypatch):
        _, pairs_file = fixture_pair_dir
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")
        seen = []
        score = cli._eval_pair

        def spying(task):
            seen.append(out.read_text())
            return score(task)

        monkeypatch.setattr(cli, "_eval_pair", spying)
        assert main(["eval", "--pairs", str(pairs_file), "--out", str(out)]) == 1
        assert seen == ["previous report\n"] * 10
        assert len(_read_records(out)) == 12 and not list(tmp_path.glob("*.tmp"))

    def test_replaced_out_keeps_its_mode(self, fixture_pair_dir, tmp_path):
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")
        out.chmod(0o640)
        assert main(_good_pair_args(*fixture_pair_dir) + ["--out", str(out)]) == 0
        assert len(_read_records(out)) == 3 and stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_symlinked_out_is_written_through_the_link(self, fixture_pair_dir, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("previous report\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert main(_good_pair_args(*fixture_pair_dir) + ["--out", str(link)]) == 0
        assert link.is_symlink() and len(_read_records(target)) == 3

    def test_devnull_out_stays_a_device(self, fixture_pair_dir):
        assert main(_good_pair_args(*fixture_pair_dir) + ["--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_failed_write_exits_two(self, fixture_pair_dir, tmp_path, capsys, command):
        report = tmp_path / "r.jsonl"
        assert main(_good_pair_args(*fixture_pair_dir) + ["--out", str(report)]) == 0
        args = _good_pair_args(*fixture_pair_dir) if command == "eval" else ["report", str(report)]
        capsys.readouterr()
        assert main(args + ["--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == f"{command}: cannot write /dev/full: No space left on device\n"

    def test_fork_failure_is_not_a_write_error(self, fixture_pair_dir, tmp_path, monkeypatch):
        _, pairs_file = fixture_pair_dir
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")

        def failing_fork():
            raise OSError(errno.EAGAIN, "injected fork failure")

        monkeypatch.setattr(os, "fork", failing_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(OSError, match="injected fork failure"):
            main(["eval", "--pairs", str(pairs_file), "--workers", "2", "--out", str(out)])
        assert out.read_text() == "previous report\n" and not list(tmp_path.glob("*.tmp"))

    def test_out_written_from_another_thread(self, fixture_pair_dir, tmp_path):
        out = tmp_path / "report.jsonl"
        codes = []
        thread = threading.Thread(target=lambda: codes.append(
            main(_good_pair_args(*fixture_pair_dir) + ["--out", str(out)])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0] and len(_read_records(out)) == 3

    def test_sigterm_in_a_weakref_callback_is_not_swallowed(self, tmp_path):
        # An exception raised in a weakref callback or a __del__ is only printed, so a
        # SIGTERM that lands in one must be recorded and raised by the next write.
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")
        held = np.ones(1)
        ref = weakref.ref(held, lambda _: os.kill(os.getpid(), signal.SIGTERM))
        with pytest.raises(cli._Terminated):
            with cli._report_writer(str(out)) as emit:
                emit({"config": {}})
                del held  # the callback runs here
                emit({"aggregate": {}})
        assert ref() is None and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert out.read_text() == "previous report\n" and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a process's children from /proc")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_removes_temp_file(self, fixture_pair_dir, tmp_path, workers):
        root, pairs_file = fixture_pair_dir
        absolute = tmp_path / "pairs.json"
        absolute.write_text(json.dumps(_absolute_pairs(root, pairs_file, [0, 1, 2]) * 80))
        out = tmp_path / "report.jsonl"
        out.write_text("previous report\n")
        env = {**os.environ, "PYTHONPATH": str(Path(wemeval.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "wemeval.cli", "eval", "--pairs", str(absolute),
                                 "--workers", str(workers), "--out", str(out)],
                                stderr=subprocess.PIPE, env=env)
        tmp = tmp_path / f"report.jsonl.{proc.pid}.tmp"
        try:
            deadline = time.monotonic() + 60
            while not (tmp.exists() and tmp.read_text().count("\n") >= 2):  # a pair record
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            pool = min(workers, len(os.sched_getaffinity(0)))
            helpers = _children(proc.pid, pool - 1)  # the caller scores pair 0 before it forks
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGTERM and b"Traceback" not in err
        assert out.read_text() == "previous report\n" and not list(tmp_path.glob("*.tmp"))
        assert len(helpers) == pool - 1
        deadline = time.monotonic() + 2
        while any(map(_running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in helpers if _running(pid)]
