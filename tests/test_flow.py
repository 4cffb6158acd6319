from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matches_from_homography
from wemeval import camera, flow
from wemeval.camera import (
    DegenerateMatchesError,
    Homography,
    estimate_homography,
    render_camera_flow,
    reprojection_errors,
    residual_object_flow,
)
from wemeval.flow import flow_stats, motion_profile
from wemeval.rollout import FlowField, Frame, _trusted


def _uniform_flow(u: float, v: float, h: int = 8, w: int = 8) -> FlowField:
    return FlowField(u=np.full((h, w), u), v=np.full((h, w), v))


_FRAME = Frame(data=np.zeros((8, 8, 1), dtype=np.float32))


def _rows(stats) -> np.ndarray:
    """The motion profile's rows before resampling, one per flow_stats triple of an 8x8 frame."""
    diag = math.hypot(8, 8)
    return np.array([[m / diag, t / diag, flow._log_ratio(m, t), e] for m, t, e in stats])


def _random_stats(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    return [tuple(row) for row in rng.random((n, 3)) * [10.0, 10.0, 1.0]]


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

    @pytest.mark.parametrize("call, message", [
        (lambda: Homography(np.eye(2)), "3x3"),
        (lambda: Homography(np.diag([1.0, 1.0, 0.0])), r"h\[2\]\[2\]"),
        (lambda: Homography(np.diag([1.0, 0.0, 1.0])), "singular"),
        (lambda: Homography(np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 1]])).apply(np.array([[-1.0, 0.0]])),
         "infinity"),
        (lambda: estimate_homography(np.zeros((4, 2))), r"shape \(n, 2, 2\)"),
        (lambda: estimate_homography(np.zeros((4, 2, 2)), iterations=0), "iterations"),
    ], ids=["not-3x3", "zero-h22", "singular", "point-at-infinity", "matches-shape", "zero-iterations"])
    def test_bad_input_raises_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("src, dst", [
        ([[0, 0], [1, 1], [2, 2], [3, 3]], [[0, 0], [1, 0], [0, 1], [1, 1]]),  # rank < 8
        ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 0], [1, 0], [2, 0], [0, 1]]),  # the fit is singular
    ], ids=["collinear-sources", "onto-three-collinear"])
    def test_dlt_without_a_homography_is_none(self, src, dst):
        assert camera._dlt(np.array(src, dtype=float), np.array(dst, dtype=float)) is None

    def test_refit_that_is_no_homography_keeps_the_best_hypothesis(self, monkeypatch):
        h_true = Homography(np.array([[1.03, 0.02, 4.0], [-0.01, 0.98, -1.5], [1e-4, -8e-5, 1.0]]))
        matches = matches_from_homography(h_true, 64, 64, 30, seed=2, outlier_fraction=0.3)
        real, hypotheses, refits = camera._dlt, [], []

        def no_refit(src, dst):
            if len(src) > 4:  # the refit on the consensus inliers
                refits.append(len(src))
                return None
            hypotheses.append(h := real(src, dst))
            return h

        monkeypatch.setattr(camera, "_dlt", no_refit)
        h, inliers = estimate_homography(matches, threshold=1.0, iterations=100, seed=3)
        fitted = [c for c in hypotheses if c is not None]
        counts = [int((reprojection_errors(c, matches) <= 1.0).sum()) for c in fitted]
        best = fitted[counts.index(max(counts))]  # the first of the most inliers
        assert refits == [max(counts)]
        assert np.array_equal(h.h, best.h)
        assert np.array_equal(inliers, reprojection_errors(best, matches) <= 1.0)
        monkeypatch.undo()
        assert not np.array_equal(estimate_homography(matches, threshold=1.0, iterations=100, seed=3)[0].h, h.h)

    def test_deterministic_for_fixed_seed(self):
        h_true = Homography(np.array([[1.0, 0.0, 3.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        matches = matches_from_homography(h_true, 32, 32, 40, seed=5, outlier_fraction=0.2)
        h1, m1 = estimate_homography(matches, seed=11)
        h2, m2 = estimate_homography(matches, seed=11)
        assert np.array_equal(h1.h, h2.h) and np.array_equal(m1, m2)

    def test_default_threshold_is_one_pixel(self):
        assert inspect.signature(estimate_homography).parameters["threshold"].default == 1.0

    def test_any_three_collinear(self):
        assert camera._any_three_collinear(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]))
        assert not camera._any_three_collinear(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


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

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError, match="width and height"):
            render_camera_flow(Homography.identity(), 0, 3)

    @pytest.mark.parametrize("width, height", [(1, 5), (5, 1)])
    def test_one_pixel_wide_or_high_field(self, width, height):
        f = render_camera_flow(Homography.translation(2.0, 0.0), width, height)
        assert f.data.shape == (height, width, 2)
        assert np.allclose(f.u, 2.0) and np.allclose(f.v, 0.0)


class TestOneProjectiveMap:
    """``Homography.apply`` and ``project_pixel_grid`` compute the same images and the same error."""

    def test_apply_on_every_pixel_equals_the_grid_images(self):
        h = Homography(np.array([[1.03, 0.02, 4.0], [-0.01, 0.98, -1.5], [1e-4, -8e-5, 1.0]]))
        xs, ys, xp, yp = camera.project_pixel_grid(h.h, 7, 5)
        applied = h.apply(np.column_stack([xs.ravel(), ys.ravel()]))
        assert applied.tobytes() == np.column_stack([xp.ravel(), yp.ravel()]).tobytes()

    def test_both_name_the_same_first_pixel_at_infinity(self):
        # w = 1 - x/4 vanishes on column 4; (4, 0) is its first pixel in C order
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.25, 0.0, 1.0]]))
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        message = r"^point at infinity at pixel \(4, 0\)$"
        with pytest.raises(ValueError, match=message):
            camera.project_pixel_grid(h.h, 8, 8)
        with pytest.raises(ValueError, match=message):
            h.apply(np.column_stack([xs.ravel(), ys.ravel()]))


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


def _flow_stats_descending(f: FlowField, top_fraction: float = 0.2) -> tuple[float, float, float]:
    """flow_stats as one descending sort with a clipped bin index: the reference
    that the in-place ascending version must equal bit for bit."""
    desc = np.sort(np.sqrt(np.square(f.u, dtype=np.float64) + np.square(f.v, dtype=np.float64)).ravel())[::-1]
    n = desc.size
    median = float(desc[n // 2] if n % 2 else (desc[n // 2 - 1] + desc[n // 2]) / 2)
    top = float(desc[: math.ceil(top_fraction * n)].mean())
    if desc[0] <= 0.0:
        return median, top, 0.0
    idx = np.minimum((desc / desc[0] * 16).astype(np.int64), 15)
    counts = np.bincount(idx, minlength=16)
    p = counts[counts > 0] / n
    return median, top, float(-(p * np.log(p)).sum() / math.log(16))


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
        mag = np.sqrt(f.squared_magnitude()).ravel()
        expected = 0.0
        if mag.max() > 0.0:
            idx = np.minimum((mag / mag.max() * 16).astype(np.int64), 15)
            counts = np.bincount(idx, minlength=16)
            p = counts[counts > 0] / mag.size
            expected = float(-(p * np.log(p)).sum() / math.log(16))
        assert flow_stats(f)[2] == expected

    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        peak=st.integers(0, 2**20),
        exponent=st.integers(-40, 40),
        seed=st.integers(0, 2**32 - 1),
        strided=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_descending_sort_on_bin_edges_ties_and_views(self, h, w, peak, exponent, seed, strided):
        # peak has at most 20 significant bits, so each edge peak * b / 16 is an
        # exact float32 and its magnitude divided by the peak is exactly b / 16.
        rng = np.random.default_rng(seed)
        scale = np.float32(peak * 2.0**exponent)
        kind = rng.integers(0, 3, size=(h, w))  # 0: on a bin edge, 1: tied at the peak, 2: inside
        edge = scale * rng.integers(0, 17, size=(h, w)) / np.float32(16)
        free_u, free_v = scale * (rng.random((2, h, w)) - 0.5)
        uv = np.empty((h, w, 2), dtype=np.float32)
        uv[:, :, 0] = np.where(kind == 0, edge, np.where(kind == 1, 0.0, free_u))
        uv[:, :, 1] = np.where(kind == 0, 0.0, np.where(kind == 1, -scale, free_v))
        uv[0, 0] = scale, 0.0
        if strided:  # a read-only block held as it is, as read_flow_file holds a record
            uv = np.frombuffer(uv.tobytes(), dtype=np.float32).reshape(h, w, 2)
            f = _trusted(FlowField, uv)
        else:
            f = FlowField(u=uv[:, :, 0], v=uv[:, :, 1])
        assert np.shares_memory(f.data, uv) == strided and f.u.strides == f.v.strides == (8 * w, 8)
        assert flow_stats(f) == _flow_stats_descending(f)
        spread = FlowField(u=free_u * 2.0 ** -rng.integers(0, 20, size=(h, w)), v=free_v)
        assert flow_stats(spread) == _flow_stats_descending(spread)  # the top mean's summation order shows

    @pytest.mark.parametrize("kind", ["ulp-off-edges", "on-edges", "just-below-edges"])
    @pytest.mark.parametrize("n_extra", [0, 1])
    @pytest.mark.parametrize("top_fraction", [0.2, 1.0])
    def test_squared_search_is_exact_around_every_bin_edge(self, kind, n_extra, top_fraction):
        # peak has 20 significant bits, so every edge b / 16 * peak is an exact
        # float32, and so are its neighbours one float32 ulp away.
        peak = np.float32(1234567 * 2.0**-17)
        edges = peak * np.arange(1, 16, dtype=np.float32) / np.float32(16)
        below, above = np.nextafter(edges, np.float32(0)), np.nextafter(edges, np.float32(np.inf))
        u, v = np.concatenate([below, above]), np.zeros(30)
        if kind == "on-edges":
            u, v = np.concatenate([u, edges]), np.zeros(45)
        elif kind == "just-below-edges":  # squares about 2**-45 (relative) under the edge's
            e = edges.astype(np.float64)
            rest = np.sqrt(e * e - below.astype(np.float64) ** 2 - e * e * 2.0**-45)
            u, v = np.concatenate([u, below]), np.concatenate([v, rest])
        u = np.concatenate([u, [peak, 0.0], np.full(n_extra, peak / 3)])  # odd and even n
        v = np.concatenate([v, np.zeros(2 + n_extra)])
        f = FlowField(u=u[None, :], v=v[None, :])
        squares = np.sort(f.squared_magnitude().ravel())
        lower, upper = flow._SQUARED_BRACKETS * squares[-1]
        inside = [((lo <= squares) & (squares <= hi)).any() for lo, hi in zip(lower, upper)]
        assert any(inside) == (kind != "ulp-off-edges")  # the search falls back to the ratios
        if kind == "just-below-edges":  # where the squares' brackets alone would misplace a field
            ratios = np.sqrt(squares) / np.sqrt(squares[-1])
            assert any(((lo <= squares) & (ratios < edge)).any() for lo, edge in zip(lower, flow._BIN_EDGES))
        assert flow_stats(f, top_fraction) == _flow_stats_descending(f, top_fraction)
        assert flow_stats(f.squared_magnitude(), top_fraction) == flow_stats(f, top_fraction)

    @pytest.mark.parametrize("value", [0.0, 3.5, 2.0**-140])
    def test_one_pixel_field(self, value):
        f = FlowField(u=np.full((1, 1), value), v=np.zeros((1, 1)))
        assert flow_stats(f, 1.0) == _flow_stats_descending(f, 1.0) == (value, value, 0.0)

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
        p = motion_profile([flow_stats(_uniform_flow(0.6, 0.8))] * 3, _FRAME, steps=3)
        diag = math.hypot(8, 8)
        expected = [1.0 / diag, 1.0 / diag, math.log(2.0), 0.0]
        assert np.allclose(p, [expected] * 3, atol=1e-12)

    def test_all_zero_flows_saturate_log_ratio(self):
        p = motion_profile([flow_stats(_uniform_flow(0.0, 0.0))] * 2, _FRAME, steps=2)
        assert np.allclose(p, [[0.0, 0.0, 20.0, 0.0]] * 2)

    def test_two_frame_chunk_gives_single_step(self):
        p = motion_profile([flow_stats(_uniform_flow(1.0, 0.0))], _FRAME, steps=1)
        assert p.shape == (1, 4) and p.dtype == np.float64

    def test_requires_flows(self):
        with pytest.raises(ValueError, match="at least one flow_stats triple"):
            motion_profile([], _FRAME)

    def test_requires_a_step(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            motion_profile([(1.0, 2.0, 0.5)], _FRAME, 0)


class TestResampleProfile:
    def test_length_16_is_identity(self):
        stats = _random_stats(np.random.default_rng(3), 16)
        assert np.allclose(motion_profile(stats, _FRAME, 16), _rows(stats), atol=1e-12)

    def test_two_steps_to_three_interpolates_midpoint(self):
        stats = [(0.0, 1.0, 0.25), (2.0, 3.0, 0.75)]
        rows, out = _rows(stats), motion_profile(stats, _FRAME, 3)
        assert np.allclose(out[1], (rows[0] + rows[1]) / 2)
        assert np.allclose(out[0], rows[0]) and np.allclose(out[2], rows[1])

    def test_single_step_replicates(self):
        stats = [(1.0, 2.0, 0.5)]
        assert np.allclose(motion_profile(stats, _FRAME, 16), np.tile(_rows(stats), (16, 1)))

    @given(
        stats=st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100), st.floats(0, 1)), min_size=1, max_size=12),
        target=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_extrapolates_and_keeps_endpoints(self, stats, target):
        rows, out = _rows(stats), motion_profile(stats, _FRAME, target)
        assert np.allclose(out[0], rows[0], atol=1e-9)
        if target > 1:
            assert np.allclose(out[-1], rows[-1], atol=1e-9)
        for c in range(4):
            assert out[:, c].min() >= rows[:, c].min() - 1e-9
            assert out[:, c].max() <= rows[:, c].max() + 1e-9

    def test_equals_the_stacked_interp_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 34):
            stats = _random_stats(rng, n)
            rows = _rows(stats)
            for target in range(1, 65):
                positions = np.linspace(0.0, float(n - 1), target)
                xp = np.arange(n, dtype=np.float64)
                expected = np.stack([np.interp(positions, xp, rows[:, c]) for c in range(4)], axis=1)
                assert np.array_equal(motion_profile(stats, _FRAME, target), expected), (n, target)


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
