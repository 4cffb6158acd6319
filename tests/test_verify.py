from __future__ import annotations

import numpy as np
import pytest

from wemeval import verify
from wemeval.mechanisms import AttentionMask
from wemeval.verify import INVARIANT_NAMES, run_verification


def test_all_invariants_pass_on_random_trials():
    records = run_verification(seed=5, trials=100)
    assert {r["invariant"] for r in records} == set(INVARIANT_NAMES)
    for record in records:
        assert record["passed"], record["failures"]
        assert record["failures"] == []


def test_runs_are_deterministic_per_seed():
    a = run_verification(seed=9, trials=30)
    b = run_verification(seed=9, trials=30)
    assert a == b


def test_injected_unroute_fault_is_caught_with_counterexample(flipped_unroute):
    records = run_verification(seed=5, trials=100)
    by_name = {r["invariant"]: r for r in records}
    broken = by_name["unroute_reconstruction"]
    assert not broken["passed"]
    assert broken["failures"]
    assert "base_mask" in broken["failures"][0]
    for name in INVARIANT_NAMES:
        if name != "unroute_reconstruction":
            assert by_name[name]["passed"]


def test_rca_checker_keeps_checking_every_row_after_a_failure(monkeypatch):
    build = verify.build_rca_mask

    def last_row_flipped(layout, k_window):
        allowed = build(layout, k_window).allowed.copy()
        allowed[-1, 0] = not allowed[-1, 0]
        return AttentionMask(allowed)

    monkeypatch.setattr(verify, "build_rca_mask", last_row_flipped)
    record = verify.check_rca_agreement(np.random.default_rng(0), 50)
    assert not record["passed"]
    failures = record["failures"]
    assert len(failures) == verify._MAX_FAILURE_DUMPS
    assert [f["trial"] for f in failures] == list(range(len(failures)))
    assert all(f["col"] == 0 and f["row"] > 0 for f in failures)


def test_zero_trials_rejected():
    with pytest.raises(ValueError, match="trials"):
        run_verification(seed=0, trials=0)
