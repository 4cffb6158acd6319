from __future__ import annotations

import dataclasses
import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wemeval import formats
from wemeval.features import EmbedderSpec, embed_frames
from wemeval.flow import motion_profile
from wemeval.mechanisms import GateParams, RoutePlan, StateVector, build_rca_mask, standard_layout
from wemeval.metrics import ScoringPair
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
        squares = FlowField(u=u, v=v).squared_magnitude()
        u64, v64 = u.astype(np.float64), v.astype(np.float64)
        assert squares.dtype == np.float64 and np.array_equal(squares, u64 * u64 + v64 * v64)
        got, want = np.sqrt(squares), np.hypot(u64, v64)
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

    @pytest.mark.parametrize("values, issue", [
        ([np.nan], "non-finite value"),
        ([np.inf], "non-finite value"),
        ([-np.inf], "non-finite value"),
        ([1.5], "value outside [0, 1]"),
        ([-0.5], "value outside [0, 1]"),
        ([1.5, np.nan], "non-finite value"),
    ], ids=["nan", "inf", "minus-inf", "high", "low", "high-and-nan"])
    def test_bad_frame_value_gives_one_issue(self, values, issue):
        data = np.full((16, 16, 1), 0.5, dtype=np.float32)
        data[3, 4:4 + len(values), 0] = values
        chunk = Chunk(frames=(_frame(), Frame(data=data)), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="v", chunks=(chunk,)))
        assert report.issues == [f"chunk 0 frame 1: {issue}"]

    @pytest.mark.parametrize("h, w", [(0, 4), (4, 0)])
    def test_empty_frame_reported_not_raised(self, h, w):
        chunk = Chunk(frames=(_frame(h=h, w=w),), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="e", chunks=(chunk,)))
        assert report.issues == ["chunk 0 frame 0: empty frame"]

    def test_cross_chunk_dim_mismatch(self):
        big = Chunk(frames=(_frame(h=32, w=32), _frame(h=32, w=32)), instruction="", phase=PhaseLabel.NAV)
        report = validate_trajectory(Trajectory(id="d", chunks=(_chunk(), big)))
        assert any("differ from trajectory dims" in issue for issue in report.issues)

    @pytest.mark.parametrize("chunks, issue", [
        ((), "trajectory: no chunks"),
        ((Chunk(frames=(_frame(), _frame(h=8, w=8)), instruction="", phase=PhaseLabel.NAV),),
         "chunk 0 frame 1: dim mismatch within chunk"),
        ((_chunk(flows=(FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8))),)),),
         "chunk 0 flow 0: dim mismatch with frames"),
        ((_chunk(masks=(WorldEgoMask(data=np.zeros((16, 16))),)),), "chunk 0: mask count 1 != T (2)"),
        ((_chunk(masks=(WorldEgoMask(data=np.zeros((16, 16))), WorldEgoMask(data=np.zeros((8, 8))))),),
         "chunk 0 mask 1: dim mismatch with frames"),
    ], ids=["no-chunks", "frame-dims-within-chunk", "flow-dims", "mask-count", "mask-dims"])
    def test_shape_check_gives_one_issue(self, chunks, issue):
        assert validate_trajectory(Trajectory(id="s", chunks=chunks)).issues == [issue]

    def test_flow_and_mask_count_mismatch(self):
        from wemeval.rollout import FlowField

        flow = FlowField(u=np.zeros((16, 16)), v=np.zeros((16, 16)))
        chunk = Chunk(frames=(_frame(), _frame(), _frame()), instruction="", phase=PhaseLabel.NAV,
                      flows=(flow,))
        report = validate_trajectory(Trajectory(id="f", chunks=(chunk,)))
        assert any("flow count 1 != T-1 (2)" in issue for issue in report.issues)

    def test_one_frame_chunk_checks_its_flow_and_mask(self):
        # T = 1 is past every "t > 0" guard: the flow count, the flow dims and the mask dims.
        chunk = Chunk(frames=(_frame(h=8, w=8),), instruction="", phase=PhaseLabel.NAV,
                      flows=(FlowField(u=np.zeros((4, 4)), v=np.zeros((4, 4))),),
                      masks=(WorldEgoMask(data=np.zeros((4, 4))),))
        assert validate_trajectory(Trajectory(id="t1", chunks=(chunk,))).issues == [
            "chunk 0: flow count 1 != T-1 (0)",
            "chunk 0 flow 0: dim mismatch with frames",
            "chunk 0 mask 0: dim mismatch with frames",
        ]


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


def _owner(arr: np.ndarray) -> object:
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


_BUILDERS = {
    "frame": (lambda a: Frame(data=a), lambda x: [x.data], np.float32),
    "mask": (lambda a: WorldEgoMask(data=a[:, :, 0]), lambda x: [x.data], np.uint8),
    "flow": (lambda a: FlowField(u=a[:, :, 0], v=a[:, :, 0]), lambda x: [x.u, x.v], np.float32),
}

# Values of the other modules: the caller's arrays, the value built from them,
# and every array the value holds.
_VALUES = {
    "gate-params": (lambda: [np.ones((3, 3)) for _ in range(11)], GateParams,
                    lambda x: [getattr(x, f.name) for f in dataclasses.fields(x)]),
    "gate-params-zeros": (lambda: [], lambda: GateParams.zeros(3),
                          lambda x: [getattr(x, f.name) for f in dataclasses.fields(x)]),
    "route-plan": (lambda: [np.ones((2, 3, 3), dtype=np.uint8), np.arange(18), np.arange(18)],
                   lambda base, world, ego: RoutePlan(base, 1, world, ego),
                   lambda x: [x.base_mask, x.world_expanded, x.ego_expanded]),
    "scoring-pair-sims": (lambda: [np.ones((2, 2))], lambda sims: ScoringPair(None, None, sims),
                          lambda x: [x.sims]),
    "state-vector": (lambda: [np.ones((6, 5))], StateVector, lambda x: [x.values]),
}


class TestOwnedData:
    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_writes_to_the_callers_array_do_not_reach_it(self, kind):
        build, arrays, dtype = _BUILDERS[kind]
        base = np.ones((6, 5, 1), dtype=dtype)
        obj = build(base[:, :, :])
        writable_view = base[:, :, :]
        base.flags.writeable = False
        view_obj = build(writable_view)  # a writable view of a read-only base
        writable_view[:3] = 0
        own = np.ones((6, 5, 1), dtype=dtype)
        own.flags.writeable = False
        own_obj = build(own)
        own.flags.writeable = True  # the caller's own read-only array, made writable again
        own[:3] = 0
        for arr in arrays(obj) + arrays(view_obj) + arrays(own_obj):
            assert (arr == 1).all()
            assert not np.shares_memory(arr, base) and not np.shares_memory(arr, own)
            assert not arr.flags.writeable

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_callers_array_stays_writable(self, kind):
        build, _, dtype = _BUILDERS[kind]
        own = np.ones((6, 5, 1), dtype=dtype)
        build(own)
        assert own.flags.writeable
        own[0, 0, 0] = 0

    @pytest.mark.parametrize("kind", sorted(_VALUES))
    def test_every_held_array_is_a_read_only_copy(self, kind):
        make, build, held = _VALUES[kind]
        own = make()
        value = build(*own)
        before = [arr.copy() for arr in held(value)]
        for arr in own:
            assert arr.flags.writeable
            arr[...] = 0
        for arr, expected in zip(held(value), before, strict=True):
            assert not arr.flags.writeable
            assert np.array_equal(arr, expected)

    @pytest.mark.parametrize("build", [
        lambda: motion_profile([(1.0, 2.0, 0.5), (0.5, 1.5, 0.25)], _frame(), 4),
        lambda: build_rca_mask(standard_layout(2, [(2, 3)], 1, 2, 2), 1),
    ], ids=["motion-profile", "attention-mask"])
    def test_builders_return_fresh_read_only_arrays(self, build):
        first, second = build(), build()
        for arr in (first, second):
            assert _owner(arr) is arr and not arr.flags.writeable  # no view of a cache or of another call's
            with pytest.raises(ValueError):
                arr[0, 0] = 0
        assert np.array_equal(first, second) and not np.shares_memory(first, second)

    def test_memo_follows_the_frame_not_the_callers_array(self):
        base = np.random.default_rng(0).random((8, 8, 1)).astype(np.float32)
        f = Frame(data=base[:, :, :])
        before = embed_frames([f], EmbedderSpec(grid=4))
        base[:4] = 0
        assert np.array_equal(embed_frames([f], EmbedderSpec(grid=4)), before)
        assert not np.array_equal(embed_frames([Frame(data=base)], EmbedderSpec(grid=4)), before)
        own = np.random.default_rng(1).random((8, 8, 1)).astype(np.float32)
        own.flags.writeable = False
        g = Frame(data=own)
        before = embed_frames([g], EmbedderSpec(grid=4))
        own.flags.writeable = True  # the caller's own read-only array, made writable again
        own[:4] = 0
        assert np.array_equal(embed_frames([g], EmbedderSpec(grid=4)), before)
        assert np.array_equal(embed_frames([Frame(data=g.data)], EmbedderSpec(grid=4)), before)  # memo = data

    def test_sidecar_frames_and_masks_share_the_file_buffer(self, tmp_path, monkeypatch):
        formats.write_frame_file(tmp_path / "f.bin", [_frame(0.25), _frame(0.75)])
        formats.write_mask_file(tmp_path / "m.bin", [WorldEgoMask(data=np.eye(16, dtype=np.uint8))])
        for map_min_bytes, kind in ((formats.MAP_MIN_BYTES, bytes), (0, mmap.mmap)):
            monkeypatch.setattr(formats, "MAP_MIN_BYTES", map_min_bytes)
            frames = formats.read_frame_file(tmp_path / "f.bin")
            masks = formats.read_mask_file(tmp_path / "m.bin")
            buffers = [_buffer(x.data) for x in frames + masks]
            assert all(isinstance(b, kind) for b in buffers)  # a small file is read, a large one mapped
            assert len({id(b) for b in buffers}) == 2  # one buffer per file, viewed without a copy
            for x in frames + masks:
                with pytest.raises(ValueError):
                    x.data[0, 0] = 0
            assert [float(f.data.mean()) for f in frames] == [0.25, 0.75]

    def test_sidecar_flows_are_read_only_views_of_the_payload(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "MAP_MIN_BYTES", 0)
        rng = np.random.default_rng(3)
        written = [FlowField(u=rng.normal(size=(5, 7)), v=rng.normal(size=(5, 7))) for _ in range(3)]
        formats.write_flow_file(tmp_path / "flow.bin", written)
        fields = formats.read_flow_file(tmp_path / "flow.bin")
        payload = _buffer(fields[0].data)
        assert isinstance(payload, mmap.mmap)
        with pytest.raises(TypeError):
            payload[16] = 0  # the map itself is read-only
        for got, want in zip(fields, written):
            assert _buffer(got.data) is payload
            assert got.data.shape == (5, 7, 2) and got.data.flags.c_contiguous  # one interleaved block
            for arr, expected in ((got.data, want.data), (got.u, want.u), (got.v, want.v)):
                assert np.shares_memory(arr, got.data)
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0
                assert np.array_equal(arr, expected)


def _buffer(arr: np.ndarray) -> object:
    """The read-only buffer that ``arr`` views: ``bytes``, or a ``mmap`` through
    the ``memoryview`` numpy holds of it."""
    owner = _owner(arr)
    if isinstance(owner, memoryview):
        assert owner.readonly
        owner = owner.obj
    return owner
