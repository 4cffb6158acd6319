"""Golden report: ``eval`` on four perturbed mixed pairs reproduces a committed report.

``tests/data/golden_eval.jsonl`` was written by the metrics as they stood
before they were rewritten to share one embedding pass per pair. Ids, notes,
config and score presence must match it exactly, and every float within the
oracle tolerance. Regenerate it only for an intended report change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wemeval import features
from wemeval.cli import main
from wemeval.manifest import load_manifest, save_manifest
from wemeval.metrics import evaluate_all
from wemeval.microsim import generate_trajectory, mixed_fixture_config, perturb_rollout

GOLDEN = Path(__file__).parent / "data" / "golden_eval.jsonl"
TOLERANCE = 1e-9
PERTURBATIONS = (("frame-noise", 0.05), ("chunk-shuffle", 1.0), ("phase-swap", 1.0),
                 ("boundary-smooth", 0.5))


def _write_pairs(root: Path) -> list[dict[str, str]]:
    """Write the four pairs' manifests under ``root`` and ``root/pairs.json``; returns its entries."""
    pairs = []
    for i, (kind, magnitude) in enumerate(PERTURBATIONS):
        gt, truth = generate_trajectory(mixed_fixture_config(seed=700 + i, size=32, t=4))
        gen = perturb_rollout(gt, truth, kind, magnitude, seed=i)
        save_manifest(gt, root / f"p{i}" / "gt.json")
        save_manifest(gen, root / f"p{i}" / "gen.json")
        pairs.append({"gen": f"p{i}/gen.json", "gt": f"p{i}/gt.json"})
    (root / "pairs.json").write_text(json.dumps(pairs), encoding="utf-8")
    return pairs


def _write_report(root: Path) -> Path:
    """Score the four pairs with ``wemeval eval`` and return the report path."""
    _write_pairs(root)
    out = root / "report.jsonl"
    assert main(["eval", "--pairs", str(root / "pairs.json"), "--out", str(out)]) == 0
    return out


def _assert_close(got, want, where: str) -> None:
    """Equal structure, null-ness and non-float leaves; floats within TOLERANCE."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, abs=TOLERANCE), where
    else:
        assert got == want, where


def test_report_matches_golden(tmp_path):
    got = [json.loads(line) for line in _write_report(tmp_path).read_text().splitlines()]
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(got) == len(want) == len(PERTURBATIONS) + 2
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_close(g, w, f"line {i + 1}")


def test_warm_memo_scores_like_a_cold_one(tmp_path):
    # The second pass over the same loaded trajectories reuses every frame's
    # memoized cell statistics; its records must equal the first pass's.
    pairs = [(load_manifest(tmp_path / e["gen"]), load_manifest(tmp_path / e["gt"]))
             for e in _write_pairs(tmp_path)]
    cold = [evaluate_all(gen, gt).to_dict() for gen, gt in pairs]
    frames = [f for pair in pairs for traj in pair for c in traj.chunks for f in c.frames]
    assert all(f in features._stats_memo for f in frames)
    warm = [evaluate_all(gen, gt).to_dict() for gen, gt in pairs]
    assert warm == cold
    want = [json.loads(line) for line in GOLDEN.read_text().splitlines()][1:-1]
    assert len(want) == len(cold)
    for i, (c, w) in enumerate(zip(cold, want)):
        _assert_close(json.loads(json.dumps(c)), w, f"pair {i}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_bytes(_write_report(Path(tmp)).read_bytes())
