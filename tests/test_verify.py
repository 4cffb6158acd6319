from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from wemeval import mechanisms, verify
from wemeval.mechanisms import LossBreakdown, StateVector, bce_dice_loss, gru_update_parts
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


def test_injected_routing_fault_that_raises_is_recorded_not_raised(lost_base_token):
    # Unrouting from a set that lost its base token indexes past its end at one trial.
    records = list(run_verification(seed=15, trials=200))
    assert [r["invariant"] for r in records] == list(INVARIANT_NAMES)
    failures = {r["invariant"]: r["failures"] for r in records if not r["passed"]}
    assert set(failures) == {"routing_partition", "unroute_reconstruction"}
    errors = [f for f in failures["unroute_reconstruction"] if "error" in f]
    assert errors and errors[0]["error"].startswith("IndexError: ")
    assert set(errors[0]) == {"trial", "error"}


def test_a_raising_trial_is_its_counterexample(monkeypatch):
    def sometimes_raises(rng):
        if rng.random() < 0.5:
            raise ZeroDivisionError("broken kernel")
        return None

    monkeypatch.setitem(verify.CHECKS, "loss_floor", sometimes_raises)
    record = verify.run_check("loss_floor", np.random.default_rng(0), 40)
    assert not record["passed"]
    assert len(record["failures"]) == verify._MAX_FAILURE_DUMPS
    assert all(f == {"trial": f["trial"], "error": "ZeroDivisionError: broken kernel"} for f in record["failures"])


# Each fault breaks one checker's mechanism so that every trial is a
# counterexample, which must hold the checker's documented keys.
def _fusion_outside(alpha, x_world, x_ego):
    return StateVector(np.maximum(x_world.values, x_ego.values) + 1.0)


def _gru_overshoot(prev, proposal, ego, params):
    parts = gru_update_parts(prev, proposal, ego, params)
    return parts._replace(output=np.maximum(prev.values, parts.candidate) + 1.0)


def _loss_negated(pred, gt):
    loss = bce_dice_loss(pred, gt)
    return LossBreakdown(-loss.bce, -loss.dice, -loss.total)


def _anneal_flat(step, total_steps, lambda0, shape="linear"):
    return lambda0


@pytest.mark.parametrize("name, target, fault, keys", [
    ("fusion_convexity", "soft_fuse", _fusion_outside, {"trial", "token", "channel", "alpha"}),
    ("gru_interpolation", "gru_update_parts", _gru_overshoot, {"trial", "token", "channel", "keep"}),
    ("loss_floor", "bce_dice_loss", _loss_negated, {"trial", "n", "floor", "perturbed_total"}),
    ("anneal_endpoints", "anneal_lambda", _anneal_flat, {"trial", "lambda0", "total", "shape", "problems"}),
], ids=["fusion", "gru", "loss", "anneal"])
def test_faulty_mechanism_gives_documented_counterexample(monkeypatch, name, target, fault, keys):
    monkeypatch.setattr(verify, target, fault)
    record = verify.run_check(name, np.random.default_rng(3), 20)
    assert not record["passed"]
    assert [f["trial"] for f in record["failures"]] == list(range(verify._MAX_FAILURE_DUMPS))
    for failure in record["failures"]:
        assert set(failure) == keys
    if name == "anneal_endpoints":
        assert "0.3 -> 0.06 endpoints violated" in record["failures"][0]["problems"]


@pytest.mark.parametrize("ego_tokens, problem", [
    (lambda plan: np.arange(plan.size), "base sets overlap"),
    (lambda plan: np.arange(0), "base sets do not cover the grid"),
], ids=["every-token-ego", "no-token-ego"])
def test_broken_base_partition_gives_its_problem(monkeypatch, ego_tokens, problem):
    monkeypatch.setattr(mechanisms.RoutePlan, "base_ego", ego_tokens)
    record = verify.run_check("routing_partition", np.random.default_rng(1), 20)
    assert not record["passed"]
    assert all(problem in f["problems"] for f in record["failures"])
