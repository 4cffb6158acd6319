from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wemeval.flow import (
    DegenerateMatchesError,
    Homography,
    MotionProfile,
    estimate_homography,
    flow_stats,
    motion_profile,
    render_camera_flow,
    reprojection_errors,
    resample_profile,
    residual_object_flow,
)
from wemeval.microsim import matches_from_homography
from wemeval.rollout import Chunk, FlowField, Frame, PhaseLabel


def _uniform_flow(u: float, v: float, h: int = 8, w: int = 8) -> FlowField:
    return FlowField(u=np.full((h, w), u), v=np.full((h, w), v))


def _chunk_with_flows(flows, h: int = 8, w: int = 8) -> Chunk:
    frames = tuple(Frame(data=np.zeros((h, w, 1), dtype=np.float32)) for _ in range(len(flows) + 1))
    return Chunk(frames=frames, instruction="", phase=PhaseLabel.NAV, flows=tuple(flows))


class TestHomographyEstimation:
    def test_pure_translation_recovered_exactly(self):
        h_true = Homography.translation(2.0, 0.0)
        matches = matches_from_homography(h_true, 64, 64, 30, seed=1)
        h, inliers = estimate_homography(matches, threshold=1.0, iterations=200, seed=0)
        assert np.allclose(h.h, h_true.h, atol=1e-9)
        assert inliers.all()

    def test_projective_with_outliers_fits_inliers_within_threshold(self):
        h_true = Homography(np.array([[1.03, 0.02, 4.0], [-0.01, 0.98, -1.5], [1e-4, -8e-5, 1.0]]))
        matches = matches_from_homography(h_true, 64, 64, 50, seed=2, outlier_fraction=0.3)
        h, inliers = estimate_homography(matches, threshold=1.0, iterations=500, seed=3)
        errors = reprojection_errors(h, matches)
        assert inliers.sum() >= 35  # the 70% clean correspondences
        assert errors[inliers].max() <= 1.0

    def test_collinear_matches_are_degenerate(self):
        pts = np.array([[i, 2.0 * i] for i in range(4)])
        matches = np.stack([pts, pts + 1.0], axis=1)
        with pytest.raises(DegenerateMatchesError):
            estimate_homography(matches, threshold=1.0, iterations=50, seed=0)

    def test_fewer_than_four_matches_rejected(self):
        matches = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="at least 4"):
            estimate_homography(matches)

    def test_deterministic_for_fixed_seed(self):
        h_true = Homography(np.array([[1.0, 0.0, 3.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        matches = matches_from_homography(h_true, 32, 32, 40, seed=5, outlier_fraction=0.2)
        h1, m1 = estimate_homography(matches, seed=11)
        h2, m2 = estimate_homography(matches, seed=11)
        assert np.array_equal(h1.h, h2.h) and np.array_equal(m1, m2)


class TestRenderCameraFlow:
    def test_identity_gives_zero_flow(self):
        f = render_camera_flow(Homography.identity(), 6, 4)
        assert not f.u.any() and not f.v.any()

    def test_translation_gives_constant_flow(self):
        f = render_camera_flow(Homography.translation(2.0, 0.0), 6, 4)
        assert np.allclose(f.u, 2.0) and np.allclose(f.v, 0.0)

    def test_scaling_about_origin_gives_position_flow(self):
        f = render_camera_flow(Homography(np.diag([2.0, 2.0, 1.0])), 5, 5)
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        assert np.allclose(f.u, xs) and np.allclose(f.v, ys)

    def test_point_at_infinity_names_the_pixel(self):
        # w = 1 - x/2 vanishes at x = 2
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5, 0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"pixel \(2, 0\)"):
            render_camera_flow(h, 5, 3)


class TestResidualFlow:
    def test_identical_fields_cancel(self):
        f = _uniform_flow(1.0, -2.0)
        r = residual_object_flow(f, f)
        assert not r.u.any() and not r.v.any()

    def test_constant_offset_survives(self):
        f_cam = _uniform_flow(1.0, 1.0)
        f = _uniform_flow(2.0, 2.0)
        r = residual_object_flow(f, f_cam)
        assert np.allclose(r.u, 1.0) and np.allclose(r.v, 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            residual_object_flow(_uniform_flow(0, 0, 4, 4), _uniform_flow(0, 0, 4, 5))


class TestFlowStats:
    def test_uniform_magnitude(self):
        median, top, entropy = flow_stats(_uniform_flow(3.0, 4.0))
        assert (median, top, entropy) == (5.0, 5.0, 0.0)

    def test_zero_field(self):
        assert flow_stats(_uniform_flow(0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_two_level_histogram(self):
        u = np.concatenate([np.ones(32), np.full(32, 3.0)]).reshape(8, 8)
        median, top, entropy = flow_stats(FlowField(u=u, v=np.zeros((8, 8))))
        assert median == 2.0
        assert top == 3.0
        assert entropy == pytest.approx(math.log(2) / math.log(16), abs=1e-12)

    @pytest.mark.parametrize("u", [
        np.concatenate([np.full(40, 5.0), np.linspace(0.0, 5.0, 24, endpoint=False)]).reshape(8, 8),
        np.arange(17.0).reshape(1, 17),
        np.repeat(np.arange(0.0, 17.0, 0.5), 3).reshape(3, 34),
        np.zeros((4, 4)),
        np.full((1, 1), 3.0),
    ], ids=["tied-at-peak", "bin-edges", "half-bin-edges", "all-zero", "one-pixel"])
    def test_entropy_equals_bincount_histogram(self, u):
        f = FlowField(u=u, v=np.zeros_like(u))
        mag = f.magnitude().ravel()
        expected = 0.0
        if mag.max() > 0.0:
            idx = np.minimum((mag / mag.max() * 16).astype(np.int64), 15)
            counts = np.bincount(idx, minlength=16)
            p = counts[counts > 0] / mag.size
            expected = float(-(p * np.log(p)).sum() / math.log(16))
        assert flow_stats(f)[2] == expected

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_magnitude_rejected(self, bad):
        u = np.array([[1.0, bad], [0.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite magnitude"):
            flow_stats(FlowField(u=u, v=np.zeros_like(u)))

    def test_top_mean_at_least_median(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            f = FlowField(u=rng.normal(size=(6, 7)), v=rng.normal(size=(6, 7)))
            median, top, _ = flow_stats(f)
            assert top >= median


class TestMotionProfile:
    def test_uniform_steps(self):
        chunk = _chunk_with_flows([_uniform_flow(0.6, 0.8)] * 3)
        p = motion_profile(chunk)
        diag = math.hypot(8, 8)
        expected = [1.0 / diag, 1.0 / diag, math.log(2.0), 0.0]
        assert np.allclose(p.steps, [expected] * 3, atol=1e-12)

    def test_all_zero_flows_saturate_log_ratio(self):
        chunk = _chunk_with_flows([_uniform_flow(0.0, 0.0)] * 2)
        p = motion_profile(chunk)
        assert np.allclose(p.steps, [[0.0, 0.0, 20.0, 0.0]] * 2)

    def test_two_frame_chunk_gives_single_step(self):
        p = motion_profile(_chunk_with_flows([_uniform_flow(1.0, 0.0)]))
        assert len(p) == 1

    def test_requires_flows(self):
        frames = (Frame(data=np.zeros((8, 8, 1), dtype=np.float32)),)
        with pytest.raises(ValueError, match="T >= 2"):
            motion_profile(Chunk(frames=frames, instruction="", phase=PhaseLabel.NAV))


class TestResampleProfile:
    def test_length_16_is_identity(self):
        rng = np.random.default_rng(3)
        p = MotionProfile(steps=rng.random((16, 4)))
        out = resample_profile(p, 16)
        assert np.allclose(out.steps, p.steps, atol=1e-12)

    def test_two_steps_to_three_interpolates_midpoint(self):
        p = MotionProfile(steps=np.array([[0.0, 1.0, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0]]))
        out = resample_profile(p, 3)
        assert np.allclose(out.steps[1], [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(out.steps[0], p.steps[0]) and np.allclose(out.steps[2], p.steps[1])

    def test_single_step_replicates(self):
        p = MotionProfile(steps=np.array([[1.0, 2.0, 3.0, 0.5]]))
        out = resample_profile(p, 16)
        assert np.allclose(out.steps, np.tile(p.steps, (16, 1)))

    @given(
        steps=st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
            min_size=1,
            max_size=12,
        ),
        target=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_extrapolates_and_keeps_endpoints(self, steps, target):
        p = MotionProfile(steps=np.asarray(steps, dtype=np.float64))
        out = resample_profile(p, target)
        assert np.allclose(out.steps[0], p.steps[0], atol=1e-9)
        if target > 1:
            assert np.allclose(out.steps[-1], p.steps[-1], atol=1e-9)
        for c in range(4):
            assert out.steps[:, c].min() >= p.steps[:, c].min() - 1e-9
            assert out.steps[:, c].max() <= p.steps[:, c].max() + 1e-9


class TestRoundTripInvariants:
    def test_estimated_homography_reproduces_generating_flow(self):
        h_true = Homography(np.array([[1.01, 0.03, 2.0], [-0.02, 0.99, 1.0], [0.0, 0.0, 1.0]]))
        matches = matches_from_homography(h_true, 32, 32, 40, seed=8)
        h, _ = estimate_homography(matches, seed=1)
        rendered = render_camera_flow(h, 32, 32)
        reference = render_camera_flow(h_true, 32, 32)
        assert np.abs(rendered.u - reference.u).max() <= 1e-6
        assert np.abs(rendered.v - reference.v).max() <= 1e-6

    def test_residual_of_rendered_flow_is_zero(self):
        h = Homography(np.array([[1.0, 0.0, 1.5], [0.0, 1.0, -0.5], [0.0, 0.0, 1.0]]))
        f = render_camera_flow(h, 12, 9)
        r = residual_object_flow(f, render_camera_flow(h, 12, 9))
        assert np.abs(r.u).max() == 0.0 and np.abs(r.v).max() == 0.0
