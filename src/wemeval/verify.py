"""Randomized verification of the mechanism-kernel invariants.

Each invariant in ``CHECKS`` is a function of one random trial that returns a
small, directly actionable counterexample dict, or None when the trial passes;
``run_check`` runs it over many trials into a JSON-friendly record. The
attention-mask check re-derives visibility per (row, column) pair from the
written rules, independently of the vectorized construction it verifies.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .mechanisms import (
    GateParams,
    RoutePlan,
    SegmentKind,
    SequenceLayout,
    StateVector,
    anneal_lambda,
    bce_dice_loss,
    build_rca_mask,
    gru_update_parts,
    route_tokens,
    soft_fuse,
    unroute,
)

_MAX_FAILURE_DUMPS = 3


def _random_layout(rng: np.random.Generator) -> tuple[SequenceLayout, int]:
    completed = int(rng.integers(0, 5))
    turn_lens = [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(completed)]
    layout = SequenceLayout(
        initial_len=int(rng.integers(1, 5)),
        turn_lens=turn_lens,
        current_instruction_len=int(rng.integers(1, 5)),
        world_query_len=int(rng.integers(1, 7)),
        ego_query_len=int(rng.integers(1, 5)),
    )
    k_window = int(rng.integers(1, 6))
    return layout, k_window


def _rule_allowed(layout: SequenceLayout, k_window: int, row_seg, col_seg, i: int, j: int) -> bool:
    """Direct per-pair transliteration of the role-conditioned attention rules."""
    current = layout.current_turn
    completed = layout.completed_turns
    if row_seg.kind is SegmentKind.WORLD_QUERY:
        if col_seg.kind is SegmentKind.EGO_QUERY:
            return False
        if col_seg.kind is SegmentKind.INSTRUCTION and col_seg.turn == current:
            return False
        return True  # initial frame, all chunks, past instructions, world queries
    if row_seg.kind is SegmentKind.EGO_QUERY:
        if col_seg.kind is SegmentKind.EGO_QUERY:
            return True
        if col_seg.kind is SegmentKind.INSTRUCTION and col_seg.turn == current:
            return True
        if col_seg.kind in (SegmentKind.INSTRUCTION, SegmentKind.VIDEO_CHUNK):
            return col_seg.turn > completed - k_window  # inside the recent-turn window
        if col_seg.kind is SegmentKind.INITIAL_FRAME:
            return k_window > completed
        return False  # world queries
    return j <= i  # plain causal history


def _rca_rule_agreement(rng: np.random.Generator) -> dict | None:
    layout, k_window = _random_layout(rng)
    mask = build_rca_mask(layout, k_window)
    seg_of = [seg for seg, start, end in layout.ranges() for _ in range(start, end)]
    n = layout.total_tokens
    for i in range(n):
        for j in range(n):
            expected = bool(_rule_allowed(layout, k_window, seg_of[i], seg_of[j], i, j))
            if mask[i, j] != expected:
                return {"k_window": k_window, "row": i, "col": j, "row_kind": seg_of[i].kind.value,
                        "col_kind": seg_of[j].kind.value, "got": bool(mask[i, j]), "expected": expected}
    return None


def _random_plan(rng: np.random.Generator) -> RoutePlan:
    t = int(rng.integers(1, 3))
    h = int(rng.integers(1, 8))
    w = int(rng.integers(1, 8))
    mask = (rng.random((t, h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    radius = int(rng.integers(0, 3))
    return route_tokens(mask, radius)


def _routing_partition(rng: np.random.Generator) -> dict | None:
    plan = _random_plan(rng)
    base_w, base_e = plan.base_world(), plan.base_ego()
    problems = []
    if np.intersect1d(base_w, base_e).size:
        problems.append("base sets overlap")
    if base_w.size + base_e.size != plan.size:
        problems.append("base sets do not cover the grid")
    if not np.isin(base_w, plan.world_expanded).all():
        problems.append("world expansion lost base tokens")
    if not np.isin(base_e, plan.ego_expanded).all():
        problems.append("ego expansion lost base tokens")
    if np.union1d(plan.world_expanded, plan.ego_expanded).size != plan.size:
        problems.append("expanded sets do not jointly cover the grid")
    if plan.radius == 0 and (
        plan.world_expanded.size != base_w.size or plan.ego_expanded.size != base_e.size
    ):
        problems.append("radius 0 did not keep the exact partition")
    return {"grid": plan.grid_shape, "radius": plan.radius, "problems": problems} if problems else None


def _unroute_reconstruction(rng: np.random.Generator) -> dict | None:
    plan = _random_plan(rng)
    d = int(rng.integers(1, 5))
    full = rng.normal(size=(plan.size, d))

    # Identity experts must reconstruct the input sequence exactly.
    world_out = StateVector(full[plan.world_expanded])
    ego_out = StateVector(full[plan.ego_expanded])
    identity_ok = np.array_equal(unroute(plan, world_out, ego_out).values, full)

    # Constant experts must broadcast the base mask over channels.
    zeros = StateVector(np.zeros((plan.world_expanded.size, d)))
    ones = StateVector(np.ones((plan.ego_expanded.size, d)))
    expected = np.repeat(plan.base_mask.ravel().astype(np.float64)[:, None], d, axis=1)
    broadcast_ok = np.array_equal(unroute(plan, zeros, ones).values, expected)

    if identity_ok and broadcast_ok:
        return None
    return {"grid": plan.grid_shape, "radius": plan.radius, "base_mask": plan.base_mask.tolist(),
            "identity_ok": identity_ok, "broadcast_ok": broadcast_ok}


def _first_outside(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[int, int] | None:
    """(token, channel) of the first entry of ``values`` outside [min(a, b), max(a, b)], or None."""
    inside = (values >= np.minimum(a, b) - 1e-12) & (values <= np.maximum(a, b) + 1e-12)
    bad = np.argwhere(~inside)
    return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None


def _fusion_convexity(rng: np.random.Generator) -> dict | None:
    n = int(rng.integers(1, 16))
    d = int(rng.integers(1, 6))
    alpha = rng.random(n)
    x_world = StateVector(rng.normal(size=(n, d)))
    x_ego = StateVector(rng.normal(size=(n, d)))
    fused = soft_fuse(alpha, x_world, x_ego).values
    if (bad := _first_outside(fused, x_world.values, x_ego.values)) is None:
        return None
    return {"token": bad[0], "channel": bad[1], "alpha": float(alpha[bad[0]])}


def _gru_interpolation(rng: np.random.Generator) -> dict | None:
    n = int(rng.integers(1, 8))
    d = int(rng.integers(1, 6))
    params = GateParams.random(d, seed=int(rng.integers(0, 2**31)))
    prev = StateVector(rng.normal(size=(n, d)))
    proposal = StateVector(rng.normal(size=(n, d)))
    ego = rng.normal(size=d)
    parts = gru_update_parts(prev, proposal, ego, params)
    if (bad := _first_outside(parts.output, prev.values, parts.candidate)) is None:
        return None
    return {"token": bad[0], "channel": bad[1], "keep": float(parts.keep[bad])}


def _loss_floor(rng: np.random.Generator) -> dict | None:
    n = int(rng.integers(4, 65))
    gt = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.float64)
    floor = bce_dice_loss(gt, gt).total
    for _ in range(50):
        perturbed = rng.random(n)
        if np.abs(perturbed - gt).sum() > 0.05 * n:
            break
    else:
        return None  # vanishingly unlikely; skip the trial rather than fake it
    if floor < (total := bce_dice_loss(perturbed, gt).total):
        return None
    return {"n": n, "floor": floor, "perturbed_total": total}


def _anneal_endpoints(rng: np.random.Generator) -> dict | None:
    lambda0 = float(rng.uniform(0.05, 1.0))
    total = int(rng.integers(1, 1000))
    shape = "linear" if rng.random() < 0.5 else "cosine"
    start = anneal_lambda(0, total, lambda0, shape)
    end = anneal_lambda(total, total, lambda0, shape)
    sweep = [anneal_lambda(s, total, lambda0, shape) for s in range(0, total + 1, max(1, total // 16))]
    problems = []
    if abs(start - lambda0) > 1e-12:
        problems.append(f"start {start} != {lambda0}")
    if abs(end - 0.2 * lambda0) > 1e-12:
        problems.append(f"end {end} != {0.2 * lambda0}")
    if any(b > a + 1e-12 for a, b in zip(sweep, sweep[1:])):
        problems.append("schedule is not non-increasing")
    # The published schedule endpoints: 0.3 decaying to 0.06.
    if abs(anneal_lambda(0, 100, 0.3) - 0.3) > 1e-12 or abs(anneal_lambda(100, 100, 0.3) - 0.06) > 1e-12:
        problems.append("0.3 -> 0.06 endpoints violated")
    if not problems:
        return None
    return {"lambda0": lambda0, "total": total, "shape": shape, "problems": problems}


# Invariant name -> one random trial, returning a counterexample or None. The
# order fixes each invariant's random stream and the order of the records.
CHECKS: dict[str, Callable[[np.random.Generator], dict | None]] = {
    "rca_rule_agreement": _rca_rule_agreement,
    "routing_partition": _routing_partition,
    "unroute_reconstruction": _unroute_reconstruction,
    "fusion_convexity": _fusion_convexity,
    "gru_interpolation": _gru_interpolation,
    "loss_floor": _loss_floor,
    "anneal_endpoints": _anneal_endpoints,
}
INVARIANT_NAMES = tuple(CHECKS)


def run_check(name: str, rng: np.random.Generator, trials: int) -> dict:
    """Run invariant ``name`` for ``trials`` trials; keeps the first few counterexamples."""
    failures = []
    for trial in range(trials):
        if (counterexample := CHECKS[name](rng)) is not None:
            failures.append({"trial": trial, **counterexample})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": name, "trials": trials, "passed": not failures, "failures": failures}


def run_verification(seed: int, trials: int) -> Iterator[dict]:
    """Run every invariant over ``trials`` random instances each, yielding
    each record as soon as its invariant's trials end."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return (run_check(name, np.random.default_rng([seed, i]), trials) for i, name in enumerate(CHECKS))
