from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from wemeval import verify
from wemeval.verify import INVARIANT_NAMES, run_verification

# Records written by the verifier before its checkers shared one trial loop;
# the three sets must keep matching exactly (no tolerance).
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_verify.json").read_text())


def _as_json(records: list[dict]) -> list[dict]:
    return json.loads(json.dumps(records))


@pytest.fixture
def rca_last_row_flipped(monkeypatch):
    """Breaks one entry of the attention mask's last row, the row checked last."""
    build = verify.build_rca_mask

    def last_row_flipped(layout, k_window):
        allowed = build(layout, k_window).copy()
        allowed[-1, 0] = not allowed[-1, 0]
        return allowed

    monkeypatch.setattr(verify, "build_rca_mask", last_row_flipped)


def test_all_invariants_pass_on_random_trials():
    records = list(run_verification(seed=5, trials=100))
    assert {r["invariant"] for r in records} == set(INVARIANT_NAMES)
    for record in records:
        assert record["passed"], record["failures"]
        assert record["failures"] == []


def test_runs_are_deterministic_per_seed():
    a = list(run_verification(seed=9, trials=30))
    b = list(run_verification(seed=9, trials=30))
    assert a == b


def test_injected_unroute_fault_is_caught_with_counterexample(flipped_unroute):
    records = list(run_verification(seed=5, trials=100))
    by_name = {r["invariant"]: r for r in records}
    broken = by_name["unroute_reconstruction"]
    assert not broken["passed"]
    assert broken["failures"]
    assert "base_mask" in broken["failures"][0]
    for name in INVARIANT_NAMES:
        if name != "unroute_reconstruction":
            assert by_name[name]["passed"]


def test_injected_routing_fault_is_caught_with_counterexample(lost_base_token):
    by_name = {r["invariant"]: r for r in run_verification(seed=0, trials=50)}
    assert set(by_name) == set(INVARIANT_NAMES)
    broken = by_name["routing_partition"]
    assert not broken["passed"]
    assert "world expansion lost base tokens" in broken["failures"][0]["problems"]


def test_rca_checker_keeps_checking_every_row_after_a_failure(rca_last_row_flipped):
    record = verify.run_check("rca_rule_agreement", np.random.default_rng(0), 50)
    assert not record["passed"]
    failures = record["failures"]
    assert len(failures) == verify._MAX_FAILURE_DUMPS
    assert [f["trial"] for f in failures] == list(range(len(failures)))
    assert all(f["col"] == 0 and f["row"] > 0 for f in failures)


def test_zero_trials_rejected():
    with pytest.raises(ValueError, match="trials"):
        run_verification(seed=0, trials=0)


def test_records_match_golden():
    assert _as_json(list(run_verification(seed=0, trials=300))) == GOLDEN["seed0_trials300"]


def test_flipped_unroute_records_match_golden(flipped_unroute):
    records = list(run_verification(seed=5, trials=100))
    assert _as_json(records) == GOLDEN["flipped_unroute_seed5_trials100"]


def test_flipped_rca_row_record_matches_golden(rca_last_row_flipped):
    record = verify.run_check("rca_rule_agreement", np.random.default_rng(0), 50)
    assert _as_json([record]) == GOLDEN["rca_last_row_flipped_seed0_trials50"]
