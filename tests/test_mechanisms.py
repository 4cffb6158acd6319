from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from wemeval.mechanisms import (
    GateParams,
    RoutePlan,
    Segment,
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


def _positions(layout, kind: SegmentKind) -> list[int]:
    out = []
    for seg, start, end in layout.ranges():
        if seg.kind is kind:
            out.extend(range(start, end))
    return out


def _turn_positions(layout, turn: int) -> list[int]:
    out = []
    for seg, start, end in layout.ranges():
        if seg.kind in (SegmentKind.INSTRUCTION, SegmentKind.VIDEO_CHUNK) and seg.turn == turn:
            out.extend(range(start, end))
    return out


class TestSequenceLayout:
    @pytest.mark.parametrize("turns", [0, 1, 3])
    def test_standard_layouts_are_accepted(self, turns):
        layout = SequenceLayout(1, [(1, 1)] * turns, 1, 1, 1)
        assert layout.completed_turns == turns and len(layout.segments) == 2 * turns + 4

    def test_segments_follow_the_lengths(self):
        layout = SequenceLayout(2, [(1, 2), (3, 4)], 5, 6, 7)
        assert layout.segments == (
            Segment(SegmentKind.INITIAL_FRAME, 0, 2),
            Segment(SegmentKind.INSTRUCTION, 1, 1),
            Segment(SegmentKind.VIDEO_CHUNK, 1, 2),
            Segment(SegmentKind.INSTRUCTION, 2, 3),
            Segment(SegmentKind.VIDEO_CHUNK, 2, 4),
            Segment(SegmentKind.INSTRUCTION, 3, 5),
            Segment(SegmentKind.WORLD_QUERY, 3, 6),
            Segment(SegmentKind.EGO_QUERY, 3, 7),
        )
        assert (layout.total_tokens, layout.completed_turns, layout.current_turn) == (30, 2, 3)

    @pytest.mark.parametrize("lengths", [
        (0, [(1, 2), (3, 4)], 1, 1, 1),
        (1, [(1, 2), (0, 4)], 1, 1, 1),
        (1, [(1, 2), (3, 0)], 1, 1, 1),
        (1, [(1, 2), (3, 4)], 0, 1, 1),
        (1, [(1, 2), (3, 4)], 1, 0, 1),
        (1, [(1, 2), (3, 4)], 1, 1, 0),
    ], ids=["zero-length-frame", "zero-length", "zero-length-chunk", "zero-length-current",
            "zero-length-world-query", "zero-length-query"])
    def test_bad_layout_raises_value_error(self, lengths):
        with pytest.raises(ValueError, match="non-positive length"):
            SequenceLayout(*lengths)


class TestRcaMask:
    def test_world_queries_blocked_from_current_instruction(self):
        layout = SequenceLayout(2, [(2, 3), (1, 2)], 2, 3, 2)
        mask = build_rca_mask(layout, k_window=2)
        current = [
            range(s, e) for seg, s, e in layout.ranges()
            if seg.kind is SegmentKind.INSTRUCTION and seg.turn == layout.current_turn
        ][0]
        for row in _positions(layout, SegmentKind.WORLD_QUERY):
            for col in current:
                assert not mask[row, col]

    def test_ego_queries_blocked_from_world_queries(self):
        layout = SequenceLayout(2, [(2, 2)], 1, 2, 2)
        mask = build_rca_mask(layout, k_window=1)
        for row in _positions(layout, SegmentKind.EGO_QUERY):
            for col in _positions(layout, SegmentKind.WORLD_QUERY):
                assert not mask[row, col]

    def test_ego_window_keeps_only_recent_turns(self):
        # Three completed turns, K = 1: only turn 3 stays visible to ego queries.
        layout = SequenceLayout(2, [(2, 2), (2, 2), (2, 2)], 2, 2, 2)
        mask = build_rca_mask(layout, k_window=1)
        ego_rows = _positions(layout, SegmentKind.EGO_QUERY)
        for col in _turn_positions(layout, 3):
            assert all(mask[r, col] for r in ego_rows)
        for turn in (1, 2):
            for col in _turn_positions(layout, turn):
                assert not any(mask[r, col] for r in ego_rows)

    def test_world_queries_see_history_and_each_other(self):
        layout = SequenceLayout(2, [(1, 2), (2, 1)], 1, 2, 1)
        mask = build_rca_mask(layout, k_window=4)
        world_rows = _positions(layout, SegmentKind.WORLD_QUERY)
        visible = (
            _positions(layout, SegmentKind.INITIAL_FRAME)
            + _positions(layout, SegmentKind.VIDEO_CHUNK)
            + _turn_positions(layout, 1)
            + _turn_positions(layout, 2)
            + world_rows
        )
        for row in world_rows:
            for col in set(visible):
                assert mask[row, col]

    def test_ego_sees_initial_frame_only_when_window_exceeds_history(self):
        layout = SequenceLayout(2, [(1, 1), (1, 1)], 1, 1, 1)
        initial = _positions(layout, SegmentKind.INITIAL_FRAME)
        ego_rows = _positions(layout, SegmentKind.EGO_QUERY)
        short = build_rca_mask(layout, k_window=2)
        assert not any(short[r, c] for r in ego_rows for c in initial)
        wide = build_rca_mask(layout, k_window=3)
        assert all(wide[r, c] for r in ego_rows for c in initial)

    def test_history_rows_are_causal(self):
        layout = SequenceLayout(2, [(2, 2)], 2, 1, 1)
        mask = build_rca_mask(layout, k_window=1)
        history_end = layout.total_tokens - 2
        for i in range(history_end):
            for j in range(layout.total_tokens):
                assert mask[i, j] == (j <= i)


class TestRouting:
    def test_all_world_mask_leaves_ego_empty(self):
        plan = route_tokens(np.zeros((4, 4), dtype=np.uint8), radius=1)
        assert plan.ego_expanded.size == 0
        assert plan.base_ego().size == 0
        assert plan.world_expanded.size == 16

    def test_single_center_token_expands_to_nine(self):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[2, 2] = 1
        plan = route_tokens(mask, radius=1)
        expected = {(r, c) for r in (1, 2, 3) for c in (1, 2, 3)}
        got = {(int(i) // 5, int(i) % 5) for i in plan.ego_expanded}
        assert got == expected

    def test_radius_zero_is_exact_partition(self):
        rng = np.random.default_rng(2)
        mask = (rng.random((3, 6, 6)) < 0.4).astype(np.uint8)
        plan = route_tokens(mask, radius=0)
        assert np.array_equal(plan.world_expanded, plan.base_world())
        assert np.array_equal(plan.ego_expanded, plan.base_ego())

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_expanded_sets_follow_the_chebyshev_rule(self, t, radius):
        rng = np.random.default_rng(10 * t + radius)
        mask = (rng.random((t, 5, 7)) < 0.3).astype(np.uint8)
        plan = route_tokens(mask, radius)
        expected = {0: [], 1: []}
        for index, (f, y, x) in enumerate(np.ndindex(mask.shape)):
            for value in (0, 1):
                near = mask[f, max(0, y - radius) : y + radius + 1, max(0, x - radius) : x + radius + 1]
                if (near == value).any():
                    expected[value].append(index)
        assert plan.world_expanded.tolist() == expected[0]
        assert plan.ego_expanded.tolist() == expected[1]

    def test_no_temporal_dilation(self):
        mask = np.zeros((2, 3, 3), dtype=np.uint8)
        mask[0, 1, 1] = 1
        plan = route_tokens(mask, radius=1)
        frame_size = 9
        assert all(i < frame_size for i in plan.ego_expanded)


class TestUnroute:
    def test_identity_experts_reconstruct_input(self):
        rng = np.random.default_rng(0)
        mask = (rng.random((2, 4, 4)) < 0.5).astype(np.uint8)
        plan = route_tokens(mask, radius=1)
        full = rng.normal(size=(plan.size, 3))
        out = unroute(plan, StateVector(full[plan.world_expanded]), StateVector(full[plan.ego_expanded]))
        assert np.array_equal(out.values, full)

    def test_constant_experts_broadcast_the_mask(self):
        mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        plan = route_tokens(mask, radius=1)
        zeros = StateVector(np.zeros((plan.world_expanded.size, 2)))
        ones = StateVector(np.ones((plan.ego_expanded.size, 2)))
        out = unroute(plan, zeros, ones)
        assert np.array_equal(out.values[:, 0].reshape(1, 2, 2), mask[None].astype(float))

    def test_all_ego_mask_returns_ego_output(self):
        mask = np.ones((3, 3), dtype=np.uint8)
        plan = route_tokens(mask, radius=1)
        ego_vals = np.arange(18, dtype=np.float64).reshape(9, 2)
        out = unroute(plan, StateVector(np.zeros((0, 2))), StateVector(ego_vals))
        assert np.array_equal(out.values, ego_vals)

    def test_missing_expert_token_rejected(self):
        plan = route_tokens(np.array([[0, 1]], dtype=np.uint8), radius=0)
        short = StateVector(np.zeros((0, 2)))  # world expert must cover one token
        with pytest.raises(ValueError, match="world expert"):
            unroute(plan, short, StateVector(np.ones((1, 2))))


class TestSoftFuse:
    def test_alpha_one_returns_world(self):
        w = StateVector(np.full((4, 2), 2.0))
        e = StateVector(np.full((4, 2), 4.0))
        assert np.array_equal(soft_fuse(np.ones(4), w, e).values, w.values)

    def test_alpha_zero_returns_ego(self):
        w = StateVector(np.full((4, 2), 2.0))
        e = StateVector(np.full((4, 2), 4.0))
        assert np.array_equal(soft_fuse(np.zeros(4), w, e).values, e.values)

    def test_midpoint(self):
        w = StateVector(np.full((4, 2), 2.0))
        e = StateVector(np.full((4, 2), 4.0))
        assert np.allclose(soft_fuse(np.full(4, 0.5), w, e).values, 3.0)


class TestGateParams:
    def test_equality_is_identity_and_hash_works(self):
        a, b = GateParams.zeros(2), GateParams.zeros(2)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_replace_freezes_its_fields(self):
        bias = np.ones(2)
        params = replace(GateParams.zeros(2), b_g=bias)
        bias[0] = 5.0
        assert np.array_equal(params.b_g, np.ones(2))
        for name in ("b_g", "w_r_prev"):
            assert not getattr(params, name).flags.writeable


class TestGruWorldUpdate:
    def test_saturated_keep_gate_freezes_state(self):
        d = 3
        params = replace(GateParams.zeros(d), b_g=np.full(d, 50.0))
        prev = StateVector(np.random.default_rng(1).normal(size=(5, d)))
        prop = StateVector(np.random.default_rng(2).normal(size=(5, d)))
        out = gru_update_parts(prev, prop, np.zeros(d), params).output
        assert np.allclose(out, prev.values, atol=1e-12)

    def test_open_gates_pass_candidate_through(self):
        d = 2
        rng = np.random.default_rng(3)
        w_c_prop = rng.normal(size=(d, d))
        params = replace(GateParams.zeros(d), b_g=np.full(d, -50.0), b_r=np.full(d, -50.0),
                         w_c_prop=w_c_prop)
        prev = StateVector(rng.normal(size=(4, d)))
        prop = StateVector(rng.normal(size=(4, d)))
        out = gru_update_parts(prev, prop, np.zeros(d), params).output
        assert np.allclose(out, np.tanh(prop.values @ w_c_prop), atol=1e-12)

    def test_zero_params_halve_previous_state(self):
        d = 3
        prev = StateVector(np.random.default_rng(5).normal(size=(6, d)))
        prop = StateVector(np.random.default_rng(6).normal(size=(6, d)))
        out = gru_update_parts(prev, prop, np.zeros(d), GateParams.zeros(d)).output
        assert np.allclose(out, 0.5 * prev.values, atol=1e-12)

    def test_output_interpolates_prev_and_candidate(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            params = GateParams.random(4, seed=seed)
            prev = StateVector(rng.normal(size=(3, 4)))
            prop = StateVector(rng.normal(size=(3, 4)))
            parts = gru_update_parts(prev, prop, rng.normal(size=4), params)
            lo = np.minimum(prev.values, parts.candidate)
            hi = np.maximum(prev.values, parts.candidate)
            assert ((parts.output >= lo - 1e-12) & (parts.output <= hi + 1e-12)).all()


class TestBceDiceLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.array([1.0, 1.0, 0.0, 0.0])
        loss = bce_dice_loss(gt, gt)
        assert loss.bce == pytest.approx(0.0, abs=1e-6)
        assert loss.dice == pytest.approx(0.0, abs=1e-6)

    def test_all_ones_prediction_on_half_ones_gt(self):
        n = 8
        gt = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
        loss = bce_dice_loss(np.ones(n), gt)
        assert loss.dice == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_empty_gt_with_eps_prediction(self):
        gt = np.zeros(10)
        loss = bce_dice_loss(np.full(10, 1e-7), gt)
        assert loss.dice == 0.0
        assert loss.bce == pytest.approx(0.0, abs=1e-6)
        assert loss.total == loss.bce + loss.dice

    def test_class_weights_balance_skewed_gt(self):
        gt = np.zeros(100)
        gt[:10] = 1.0
        miss_pos = gt.copy()
        miss_pos[0] = 0.0
        miss_neg = gt.copy()
        miss_neg[99] = 1.0
        # One missed positive must cost more than one missed negative (10 vs 90 pixels).
        assert bce_dice_loss(miss_pos, gt).bce > bce_dice_loss(miss_neg, gt).bce


class TestAnnealLambda:
    def test_published_endpoints(self):
        assert anneal_lambda(0, 1000, 0.3) == pytest.approx(0.3)
        assert anneal_lambda(1000, 1000, 0.3) == pytest.approx(0.06)

    def test_midpoint_is_linear(self):
        assert anneal_lambda(500, 1000, 0.3) == pytest.approx(0.18)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            anneal_lambda(11, 10, 0.3)

    def test_cosine_shape_shares_endpoints(self):
        assert anneal_lambda(0, 100, 0.3, shape="cosine") == pytest.approx(0.3)
        assert anneal_lambda(100, 100, 0.3, shape="cosine") == pytest.approx(0.06)
        values = [anneal_lambda(s, 100, 0.3, shape="cosine") for s in range(101)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _state(n: int, d: int) -> StateVector:
    return StateVector(np.zeros((n, d)))


_ONE_OF_EACH = route_tokens(np.array([[0, 1]], dtype=np.uint8), radius=0)  # one world, one ego token


@pytest.mark.parametrize("call, message", [
    (lambda: build_rca_mask(SequenceLayout(1, [], 1, 1, 1), 0), "k_window"),
    (lambda: RoutePlan(np.zeros((2, 2)), 0, np.arange(4), np.arange(0)), "base mask"),
    (lambda: route_tokens(np.zeros((0, 3)), 0), "non-empty"),
    (lambda: route_tokens(np.array([[0, 2]]), 0), "binary"),
    (lambda: route_tokens(np.zeros((2, 2)), -1), "radius"),
    (lambda: StateVector(np.zeros(3)), r"must be \(n, d\)"),
    (lambda: StateVector(np.array([[0.0, np.nan]])), "non-finite"),
    (lambda: unroute(_ONE_OF_EACH, _state(1, 2), _state(2, 2)), "ego expert"),
    (lambda: unroute(_ONE_OF_EACH, _state(1, 2), _state(1, 3)), "channel dim"),
    (lambda: soft_fuse(np.ones(2), _state(2, 2), _state(2, 3)), "share"),
    (lambda: soft_fuse(np.ones(3), _state(2, 2), _state(2, 2)), "alpha has 3"),
    (lambda: gru_update_parts(_state(2, 2), _state(3, 2), np.zeros(2), GateParams.zeros(2)), "share"),
    (lambda: gru_update_parts(_state(2, 2), _state(2, 2), np.zeros(3), GateParams.zeros(2)), "ego summary dim"),
    (lambda: bce_dice_loss(np.zeros(3), np.zeros(4)), "shape"),
    (lambda: bce_dice_loss(np.zeros(0), np.zeros(0)), "empty"),
    (lambda: bce_dice_loss(np.zeros(2), np.array([0.0, 0.5])), "binary"),
    (lambda: anneal_lambda(0, 0, 0.3), "total_steps"),
    (lambda: anneal_lambda(0, 10, 0.3, shape="step"), "unknown schedule shape"),
], ids=["rca-zero-window", "route-plan-2d-base", "route-empty-mask", "route-non-binary-mask",
        "route-negative-radius", "state-1d", "state-nan", "unroute-ego-size", "unroute-channels",
        "fuse-shapes", "fuse-alpha-size", "gru-shapes", "gru-ego-dim", "loss-shapes", "loss-empty",
        "loss-non-binary-gt", "anneal-zero-steps", "anneal-unknown-shape"])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
