"""Randomized verification of the mechanism-kernel invariants.

Each checker runs a number of random trials and returns a JSON-friendly
record; counterexamples are kept small so failures are directly actionable.
The attention-mask checker re-derives visibility per (row, column) pair from
the written rules, independently of the vectorized construction it verifies.
"""

from __future__ import annotations

from typing import Callable

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
    standard_layout,
    unroute,
)

INVARIANT_NAMES = (
    "rca_rule_agreement",
    "routing_partition",
    "unroute_reconstruction",
    "fusion_convexity",
    "gru_interpolation",
    "loss_floor",
    "anneal_endpoints",
)

_MAX_FAILURE_DUMPS = 3


def _random_layout(rng: np.random.Generator) -> tuple[SequenceLayout, int]:
    completed = int(rng.integers(0, 5))
    turn_lens = [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(completed)]
    layout = standard_layout(
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


def check_rca_agreement(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
        layout, k_window = _random_layout(rng)
        mask = build_rca_mask(layout, k_window).allowed
        seg_of = []
        for seg, start, end in layout.ranges():
            seg_of.extend([seg] * (end - start))
        n = layout.total_tokens
        for i in range(n):
            row_seg = seg_of[i]
            for j in range(n):
                expected = _rule_allowed(layout, k_window, row_seg, seg_of[j], i, j)
                if mask[i, j] != bool(expected):
                    failures.append(
                        {
                            "trial": trial,
                            "k_window": k_window,
                            "row": i,
                            "col": j,
                            "row_kind": row_seg.kind.value,
                            "col_kind": seg_of[j].kind.value,
                            "got": bool(mask[i, j]),
                            "expected": bool(expected),
                        }
                    )
                    break
            if failures and failures[-1]["trial"] == trial:
                break
        if len(failures) >= _MAX_FAILURE_DUMPS:
            break
    return {"invariant": "rca_rule_agreement", "trials": trials, "passed": not failures, "failures": failures}


def _random_plan(rng: np.random.Generator) -> RoutePlan:
    t = int(rng.integers(1, 3))
    h = int(rng.integers(1, 8))
    w = int(rng.integers(1, 8))
    mask = (rng.random((t, h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    radius = int(rng.integers(0, 3))
    return route_tokens(mask, radius)


def check_routing_partition(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
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
        if problems:
            failures.append({"trial": trial, "grid": plan.grid_shape, "radius": plan.radius,
                             "problems": problems})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": "routing_partition", "trials": trials, "passed": not failures, "failures": failures}


def check_unroute_reconstruction(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
        plan = _random_plan(rng)
        d = int(rng.integers(1, 5))
        full = rng.normal(size=(plan.size, d))

        # Identity experts must reconstruct the input sequence exactly.
        world_out = StateVector(full[plan.world_expanded])
        ego_out = StateVector(full[plan.ego_expanded])
        rebuilt = unroute(plan, world_out, ego_out)
        identity_ok = np.array_equal(rebuilt.values, full)

        # Constant experts must broadcast the base mask over channels.
        zeros = StateVector(np.zeros((plan.world_expanded.size, d)))
        ones = StateVector(np.ones((plan.ego_expanded.size, d)))
        broadcast = unroute(plan, zeros, ones)
        expected = np.repeat(plan.base_mask.ravel().astype(np.float64)[:, None], d, axis=1)
        broadcast_ok = np.array_equal(broadcast.values, expected)

        if not (identity_ok and broadcast_ok):
            failures.append(
                {
                    "trial": trial,
                    "grid": plan.grid_shape,
                    "radius": plan.radius,
                    "base_mask": plan.base_mask.tolist(),
                    "identity_ok": identity_ok,
                    "broadcast_ok": broadcast_ok,
                }
            )
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": "unroute_reconstruction", "trials": trials, "passed": not failures,
            "failures": failures}


def check_fusion_convexity(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
        n = int(rng.integers(1, 16))
        d = int(rng.integers(1, 6))
        alpha = rng.random(n)
        x_world = StateVector(rng.normal(size=(n, d)))
        x_ego = StateVector(rng.normal(size=(n, d)))
        fused = soft_fuse(alpha, x_world, x_ego).values
        lo = np.minimum(x_world.values, x_ego.values) - 1e-12
        hi = np.maximum(x_world.values, x_ego.values) + 1e-12
        if not ((fused >= lo) & (fused <= hi)).all():
            bad = np.argwhere((fused < lo) | (fused > hi))[0]
            failures.append({"trial": trial, "token": int(bad[0]), "channel": int(bad[1]),
                             "alpha": float(alpha[bad[0]])})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": "fusion_convexity", "trials": trials, "passed": not failures,
            "failures": failures}


def check_gru_interpolation(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 6))
        params = GateParams.random(d, seed=int(rng.integers(0, 2**31)))
        prev = StateVector(rng.normal(size=(n, d)))
        proposal = StateVector(rng.normal(size=(n, d)))
        ego = rng.normal(size=d)
        parts = gru_update_parts(prev, proposal, ego, params)
        lo = np.minimum(prev.values, parts.candidate) - 1e-12
        hi = np.maximum(prev.values, parts.candidate) + 1e-12
        if not ((parts.output >= lo) & (parts.output <= hi)).all():
            bad = np.argwhere((parts.output < lo) | (parts.output > hi))[0]
            failures.append({"trial": trial, "token": int(bad[0]), "channel": int(bad[1]),
                             "keep": float(parts.keep[bad[0], bad[1]])})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": "gru_interpolation", "trials": trials, "passed": not failures,
            "failures": failures}


def check_loss_floor(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
        n = int(rng.integers(4, 65))
        gt = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.float64)
        floor = bce_dice_loss(gt, gt).total
        perturbed = None
        for _ in range(50):
            candidate = rng.random(n)
            if np.abs(candidate - gt).sum() > 0.05 * n:
                perturbed = candidate
                break
        if perturbed is None:
            continue  # vanishingly unlikely; skip the trial rather than fake it
        if not floor < bce_dice_loss(perturbed, gt).total:
            failures.append({"trial": trial, "n": n, "floor": floor,
                             "perturbed_total": bce_dice_loss(perturbed, gt).total})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    return {"invariant": "loss_floor", "trials": trials, "passed": not failures, "failures": failures}


def check_anneal_endpoints(rng: np.random.Generator, trials: int) -> dict:
    failures = []
    for trial in range(trials):
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
        if problems:
            failures.append({"trial": trial, "lambda0": lambda0, "total": total, "shape": shape,
                             "problems": problems})
            if len(failures) >= _MAX_FAILURE_DUMPS:
                break
    # The published schedule endpoints: 0.3 decaying to 0.06.
    if abs(anneal_lambda(0, 100, 0.3) - 0.3) > 1e-12 or abs(anneal_lambda(100, 100, 0.3) - 0.06) > 1e-12:
        failures.append({"trial": -1, "problems": ["0.3 -> 0.06 endpoints violated"]})
    return {"invariant": "anneal_endpoints", "trials": trials, "passed": not failures,
            "failures": failures}


def run_verification(seed: int, trials: int) -> list[dict]:
    """Run every invariant checker over ``trials`` random instances each."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    checkers: list[tuple[str, Callable[[np.random.Generator, int], dict]]] = [
        ("rca_rule_agreement", check_rca_agreement),
        ("routing_partition", check_routing_partition),
        ("unroute_reconstruction", check_unroute_reconstruction),
        ("fusion_convexity", check_fusion_convexity),
        ("gru_interpolation", check_gru_interpolation),
        ("loss_floor", check_loss_floor),
        ("anneal_endpoints", check_anneal_endpoints),
    ]
    return [checker(np.random.default_rng([seed, INVARIANT_NAMES.index(name)]), trials)
            for name, checker in checkers]
