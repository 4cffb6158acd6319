from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wemeval.rollout import (
    Chunk,
    FlowField,
    Frame,
    PhaseLabel,
    Trajectory,
    WorldEgoMask,
    phase_boundaries,
    validate_trajectory,
)


def _frame(value: float = 0.5, h: int = 16, w: int = 16) -> Frame:
    return Frame(data=np.full((h, w, 1), value, dtype=np.float32))


def _chunk(phase: PhaseLabel = PhaseLabel.NAV, t: int = 2, **kwargs) -> Chunk:
    return Chunk(frames=tuple(_frame() for _ in range(t)), instruction="go", phase=phase, **kwargs)


class TestFrame:
    def test_grayscale_promotes_to_three_dims(self):
        f = Frame(data=np.zeros((4, 6), dtype=np.float32))
        assert f.data.shape == (4, 6, 1)
        assert (f.height, f.width, f.channels) == (4, 6, 1)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError, match="c in \\(1, 3\\)"):
            Frame(data=np.zeros((4, 4, 2), dtype=np.float32))

    def test_data_is_immutable(self):
        f = _frame()
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1.0


_F32_MAX = float(np.finfo(np.float32).max)
_F32 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, _F32_MAX, -_F32_MAX]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


class TestFlowField:
    @given(st.lists(st.tuples(_F32, _F32), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_magnitude_within_one_ulp_of_hypot(self, uv):
        u, v = np.array(uv, dtype=np.float32).T[:, None, :]
        got = FlowField(u=u, v=v).magnitude()
        want = np.hypot(u.astype(np.float64), v.astype(np.float64))
        assert got.dtype == np.float64
        assert (np.abs(got - want) <= np.spacing(want)).all()


class TestWorldEgoMask:
    @pytest.mark.parametrize("values, dtype, expected", [
        ([True, False], np.bool_, True),
        ([0, 1], np.uint8, True),
        ([0, 1, 2], np.uint8, False),
        ([0, 1, 2], np.uint16, False),
        ([0, 1, -1], np.int8, False),
        ([0.0, 1.0, 0.5], np.float32, False),
        ([0.0, 1.0, np.nan], np.float32, False),
    ], ids=["bool", "uint8-binary", "uint8-two", "uint16-two", "int8-minus-one", "float32-half",
            "float32-nan"])
    def test_is_binary_across_dtypes(self, values, dtype, expected):
        mask = WorldEgoMask(data=np.array([values], dtype=dtype))
        assert mask.data.dtype == dtype
        assert mask.is_binary() is expected


class TestValidation:
    def test_well_formed_trajectory_yields_empty_report(self):
        traj = Trajectory(id="ok", chunks=(_chunk(), _chunk(PhaseLabel.MANIP), _chunk()))
        report = validate_trajectory(traj)
        assert report.is_valid()
        assert report.issues == []

    def test_empty_chunk_reported_at_index(self):
        traj = Trajectory(id="bad", chunks=(_chunk(), Chunk(frames=(), instruction="", phase=PhaseLabel.NAV)))
        report = validate_trajectory(traj)
        assert any("chunk 1: empty chunk" in issue for issue in report.issues)

    def test_non_binary_mask_reported(self):
        mask = WorldEgoMask(data=np.full((16, 16), 0.5))
        chunk = Chunk(frames=(_frame(), _frame()), instruction="", phase=PhaseLabel.NAV,
                      masks=(mask, mask))
        report = validate_trajectory(Trajectory(id="m", chunks=(chunk,)))
        assert any("non-binary mask" in issue for issue in report.issues)

    def test_non_finite_and_out_of_range_values(self):
        bad = np.full((16, 16, 1), np.nan, dtype=np.float32)
        high = np.full((16, 16, 1), 1.5, dtype=np.float32)
        chunk = Chunk(frames=(Frame(data=bad), Frame(data=high)), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="v", chunks=(chunk,)))
        assert any("non-finite" in issue for issue in report.issues)
        assert any("outside [0, 1]" in issue for issue in report.issues)

    @pytest.mark.parametrize("h, w", [(0, 4), (4, 0)])
    def test_empty_frame_reported_not_raised(self, h, w):
        chunk = Chunk(frames=(_frame(h=h, w=w),), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="e", chunks=(chunk,)))
        assert report.issues == ["chunk 0 frame 0: empty frame"]

    def test_cross_chunk_dim_mismatch(self):
        big = Chunk(frames=(_frame(h=32, w=32), _frame(h=32, w=32)), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="d", chunks=(_chunk(), big)))
        assert any("differ from trajectory dims" in issue for issue in report.issues)

    def test_flow_and_mask_count_mismatch(self):
        from wemeval.rollout import FlowField

        flow = FlowField(u=np.zeros((16, 16)), v=np.zeros((16, 16)))
        chunk = Chunk(frames=(_frame(), _frame(), _frame()), instruction="", phase=PhaseLabel.NAV,
                      flows=(flow,))
        report = validate_trajectory(Trajectory(id="f", chunks=(chunk,)))
        assert any("flow count 1 != T-1 (2)" in issue for issue in report.issues)


class TestPhaseBoundaries:
    def test_switches_are_one_based(self):
        phases = [PhaseLabel.NAV, PhaseLabel.NAV, PhaseLabel.MANIP, PhaseLabel.NAV]
        traj = Trajectory(id="p", chunks=tuple(_chunk(p) for p in phases))
        assert phase_boundaries(traj) == [2, 3]

    def test_uniform_phases_have_no_boundary(self):
        traj = Trajectory(id="p", chunks=tuple(_chunk(PhaseLabel.NAV) for _ in range(4)))
        assert phase_boundaries(traj) == []

    def test_single_chunk_has_no_boundary(self):
        assert phase_boundaries(Trajectory(id="p", chunks=(_chunk(),))) == []

    def test_agrees_with_adjacent_pair_enumeration_on_random_sequences(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            phases = [PhaseLabel.NAV if rng.random() < 0.5 else PhaseLabel.MANIP for _ in range(k)]
            traj = Trajectory(id="r", chunks=tuple(_chunk(p, t=2) for p in phases))
            got = phase_boundaries(traj)
            expected = [i + 1 for i in range(k - 1) if phases[i] != phases[i + 1]]
            assert got == expected
            assert got == sorted(got)
            for b in got:
                assert phases[b - 1] != phases[b]
