import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthbrain as sb

from synthbrain import (
    DeformationField,
    DegenerateGrid,
    GeometryMismatch,
    LabelMap,
    NonFiniteField,
    Volume,
    VolumeStack,
    minmax_normalize,
    same_geometry,
    spatial_gradient,
)
from synthbrain import volume
from synthbrain.volume import _per_axis, sample_nearest, sample_trilinear

from reference_impls import (
    _parent_sample_trilinear,
    gather_trilinear,
    inline_paint_minmax,
    loop_nearest,
)


def test_volume_freezes_data(rng):
    v = Volume(rng.random((4, 4, 4)))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0
    assert v.data.dtype == np.float64
    assert v.dims == (4, 4, 4)


def test_default_affine_matches_spacing():
    v = Volume(np.zeros((2, 2, 2)), spacing=(1.0, 2.0, 3.5))
    assert np.allclose(np.diag(v.grid_to_world), [1.0, 2.0, 3.5, 1.0])


def test_volume_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Volume(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Volume(np.zeros((3, 3, 3)), spacing=(1, 0, 1))
    with pytest.raises(ValueError):
        Volume(np.zeros((3, 3, 3)), grid_to_world=np.zeros((4, 4)))


def test_labelmap_rejects_negative_and_fractional():
    with pytest.raises(ValueError):
        LabelMap(np.array([[[-1]]]))
    with pytest.raises(ValueError):
        LabelMap(np.array([[[0.5]]]))
    lm = LabelMap(np.array([[[2.0]]]))  # integral floats are fine
    assert lm.data.dtype == np.int32
    assert lm.label_set == (2,)


@pytest.mark.parametrize("data", [
    np.array([[[2**32 + 7]]], dtype=np.int64),  # would wrap to label 7
    np.array([[[2.0**32]]]),  # would overflow the cast
])
def test_labelmap_rejects_labels_beyond_int32(data):
    with pytest.raises(ValueError, match="2147483647"):
        LabelMap(data)


def test_labelmap_accepts_the_int32_maximum():
    lm = LabelMap(np.array([[[0, 2**31 - 1]]], dtype=np.int64))
    assert lm.label_set == (0, 2**31 - 1)


_GRID_TYPES = {
    "Volume": lambda data, **kw: Volume(data, **kw),
    "LabelMap": lambda data, **kw: LabelMap(data.astype(np.int32), **kw),
    "DeformationField": lambda data, **kw: DeformationField(np.stack([data] * 3, -1), **kw),
}

_BAD_GRIDS = {
    "zero spacing": {"spacing": (1.0, 0.0, 1.0)},
    "negative spacing": {"spacing": (1.0, 1.0, -2.0)},
    "singular affine": {"grid_to_world": np.diag([1.0, 2.0, 0.0, 1.0])},
    "non-homogeneous last row": {"grid_to_world": np.vstack([np.eye(4)[:3], [0.0, 0.0, 1.0, 1.0]])},
}


@pytest.mark.parametrize("grid", sorted(_BAD_GRIDS))
@pytest.mark.parametrize("kind", sorted(_GRID_TYPES))
def test_grid_types_share_validation(kind, grid):
    with pytest.raises(ValueError):
        _GRID_TYPES[kind](np.zeros((3, 3, 3)), **_BAD_GRIDS[grid])


_NON_FINITE_GRIDS = {
    "NaN spacing": ({"spacing": (np.nan, 1.0, 1.0)}, "spacing"),
    "infinite spacing": ({"spacing": (1.0, np.inf, 1.0)}, "spacing"),
    "infinite translation": ({"grid_to_world": np.array(
        [[1.0, 0, 0, np.inf], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])}, "finite"),
    "NaN linear entry": ({"grid_to_world": np.diag([1.0, np.nan, 1.0, 1.0])}, "finite"),
}


@pytest.mark.parametrize("grid", sorted(_NON_FINITE_GRIDS))
@pytest.mark.parametrize("kind", sorted(_GRID_TYPES))
def test_grid_types_reject_non_finite_geometry(kind, grid):
    kw, match = _NON_FINITE_GRIDS[grid]
    with pytest.raises(ValueError, match=match):
        _GRID_TYPES[kind](np.zeros((3, 3, 3)), **kw)


@pytest.mark.parametrize("kind", sorted(_GRID_TYPES))
def test_grid_types_own_a_frozen_copy(kind):
    data = np.arange(27.0).reshape(3, 3, 3)
    obj = _GRID_TYPES[kind](data, spacing=(1.0, 2.0, 3.5))
    stored = obj.displacement if kind == "DeformationField" else obj.data
    before = stored.copy()
    data[...] = -1.0
    assert np.array_equal(stored, before)
    assert not stored.flags.writeable and not obj.grid_to_world.flags.writeable
    assert np.array_equal(obj.grid_to_world, np.diag([1.0, 2.0, 3.5, 1.0]))


@pytest.mark.parametrize("make, shape", [(Volume, (3, 3, 3)), (DeformationField, (3, 3, 3, 3))])
def test_public_constructors_copy_c_ordered_float64_arrays(make, shape):
    # the layout the private adopting constructors take without a copy
    arr = np.arange(float(np.prod(shape))).reshape(shape)
    obj = make(arr)
    stored = obj.data if make is Volume else obj.displacement
    assert not np.shares_memory(stored, arr)
    arr[...] = -1.0
    assert stored.min() == 0.0
    assert arr.flags.writeable and not stored.flags.writeable


@pytest.mark.parametrize("kind, data, kw, error", [
    (DeformationField, np.full((3, 3, 3, 3), np.nan), {}, NonFiniteField),
    (LabelMap, np.full((3, 3, 3), -1, dtype=np.int32), {}, ValueError),
    (Volume, np.zeros((3, 3, 3)), {"grid_to_world": np.diag([1.0, 2.0, 0.0, 1.0])}, ValueError),
], ids=["NaN field", "negative label", "singular affine"])
def test_adopting_runs_every_check(kind, data, kw, error):
    with pytest.raises(error):
        kind(data, **kw)
    with pytest.raises(error):
        kind._adopt(data.copy(), **kw)


@pytest.mark.parametrize("kind", sorted(_GRID_TYPES))
def test_adopting_stores_the_array_itself_read_only(kind):
    built = _GRID_TYPES[kind](np.arange(27.0).reshape(3, 3, 3))
    data = np.array(built.displacement if kind == "DeformationField" else built.data)
    obj = type(built)._adopt(data, spacing=(1.0, 2.0, 3.5))
    assert (obj.displacement if kind == "DeformationField" else obj.data) is data
    assert not data.flags.writeable
    assert obj.dims == (3, 3, 3) and obj.spacing == (1.0, 2.0, 3.5)


def test_stack_requires_identical_geometry(rng):
    a = Volume(rng.random((4, 4, 4)))
    b = Volume(rng.random((4, 4, 4)), spacing=(2, 2, 2))
    with pytest.raises(GeometryMismatch):
        VolumeStack((a, b))
    stack = VolumeStack((a, a.with_data(rng.random((4, 4, 4)))))
    assert stack.channel_count == 2
    assert stack.as_array().shape == (4, 4, 4, 2)


def test_same_geometry_tolerant_to_tiny_affine_noise(rng):
    a = Volume(rng.random((4, 4, 4)))
    m = np.eye(4)
    m[0, 3] += 1e-7
    b = Volume(rng.random((4, 4, 4)), grid_to_world=m)
    assert same_geometry(a, b)


# -- sampling -------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_trilinear_exact_at_voxel_centers(i, j, k):
    data = np.arange(6 * 6 * 6, dtype=float).reshape(6, 6, 6)
    v = Volume(data)
    assert sample_trilinear(v.data, np.array([i, j, k])) == data[i, j, k]


def test_trilinear_midpoint_is_average():
    data = np.zeros((3, 3, 3))
    data[1, 1, 1] = 2.0
    data[2, 1, 1] = 4.0
    v = Volume(data)
    assert sample_trilinear(v.data, np.array([1.5, 1, 1])) == pytest.approx(3.0)


def test_trilinear_outside_is_zero(rng):
    v = Volume(rng.random((4, 4, 4)) + 1.0)
    assert sample_trilinear(v.data, np.array([-0.01, 1, 1])) == 0.0
    assert sample_trilinear(v.data, np.array([3.01, 1, 1])) == 0.0
    assert sample_trilinear(v.data, np.array([3.0, 3.0, 3.0])) != 0.0  # boundary itself is inside


@settings(max_examples=25, deadline=None)
@given(st.floats(0, 3), st.floats(0, 3), st.floats(0, 3))
def test_trilinear_stays_within_data_range(x, y, z):
    data = np.random.default_rng(0).random((4, 4, 4))
    out = sample_trilinear(data, np.array([x, y, z]))
    assert data.min() - 1e-12 <= out <= data.max() + 1e-12


_dims = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(_dims, st.integers(0, 3), st.integers(0, 2), st.integers(0, 10_000))
def test_trilinear_matches_corner_gather(dims, channels, batch_ndim, seed):
    # scalar (channels == 0) or channel-last data; 0-d, 1-d or 2-d batches of
    # points mixing random interior points, exact 0 / n-1 faces and points
    # a hair outside them
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(dims + ((channels,) if channels else ()))
    hi = np.asarray(dims, dtype=float) - 1.0
    shape = (4, 5)[:batch_ndim] + (3,)
    pts = rng.uniform(-1.0, hi + 1.0, shape)
    snap = rng.integers(0, 5, shape)
    pts = np.where(snap == 1, 0.0, pts)
    pts = np.where(snap == 2, hi, pts)
    pts = np.where(snap == 3, np.where(rng.random(shape) < 0.5, -1e-12, hi + 1e-12), pts)
    got = sample_trilinear(data, pts)
    want = gather_trilinear(data, pts)
    assert got.shape == want.shape == shape[:-1] + data.shape[3:]
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_trilinear_accepts_non_contiguous_inputs(rng):
    base = rng.standard_normal((9, 8, 7, 4))
    data = base[::2, :, ::-1, 1:3]  # strided, reversed channel-last view
    pts = rng.uniform(-0.5, 4.5, (6, 2, 3)).transpose(1, 0, 2)[..., ::-1]
    assert not data.flags.c_contiguous and not pts.flags.c_contiguous
    assert np.max(np.abs(sample_trilinear(data, pts) - gather_trilinear(data, pts))) <= 1e-12
    scalar = data[..., 0]
    assert np.max(np.abs(sample_trilinear(scalar, pts) - gather_trilinear(scalar, pts))) <= 1e-12


def test_trilinear_nan_point_is_zero():
    data = np.ones((3, 3, 3))
    out = sample_trilinear(data, np.array([[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    assert out.tolist() == [0.0, 1.0]


def test_nearest_ties_toward_lower_index():
    lm = LabelMap(np.arange(8, dtype=np.int32).reshape(2, 2, 2))
    assert sample_nearest(lm.data, np.array([0.5, 0.0, 0.0])) == lm.data[0, 0, 0]
    assert sample_nearest(lm.data, np.array([0.51, 0.0, 0.0])) == lm.data[1, 0, 0]
    assert sample_nearest(lm.data, np.array([-0.2, 0, 0])) == 0


def test_nearest_nan_point_is_background():
    lm = LabelMap(np.full((3, 3, 3), 7, dtype=np.int32))
    out = sample_nearest(lm.data, np.array([[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    assert out.tolist() == [0, 7]


def _layout(data, layout):
    """``data`` with the same values in C order, Fortran order or as a strided view."""
    if layout == "C":
        return np.ascontiguousarray(data)
    if layout == "F":
        return np.asfortranarray(data)
    every_other = (slice(None, None, 2),) * data.ndim
    base = np.zeros(tuple(2 * n for n in data.shape))
    base[every_other] = data
    return base[every_other]


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(1, 7)] * 3), st.sampled_from([None, 0, 1, 2, 3, 4]),
       st.sampled_from(["C", "F", "strided"]), st.sampled_from(["normal", "negative", "zeros"]),
       st.integers(0, 40), st.sampled_from([None, 1, 7]), st.integers(0, 2**32 - 1))
def test_trilinear_is_bitwise_map_coordinates(dims, channels, layout, fill, npts, chunk, seed):
    # scalar (channels None) or channel-last data with 0-4 channels, against
    # scipy's order-1 map_coordinates: equal values and equal sign bits, also
    # where the sum is of zeros; chunk sizes of 1 and 7 put points on both
    # sides of a chunk boundary
    rng = np.random.default_rng(seed)
    shape = dims + (() if channels is None else (channels,))
    data = rng.standard_normal(shape)
    data[rng.random(shape) < 0.2] = -0.0
    if fill == "negative":
        data = -np.abs(data)
    elif fill == "zeros":
        data = np.full(shape, -0.0)
    data = _layout(data, layout)
    hi = np.asarray(dims, dtype=float) - 1.0
    pts = rng.uniform(-1.0, hi + 1.0, (npts, 3))
    kind = rng.integers(0, 7, pts.shape)
    whole = np.floor(rng.uniform(0.0, hi + 1.0, pts.shape))
    tiny = 10.0 ** rng.uniform(-300.0, -9.0, pts.shape)  # 1 - (1 - t) is not t
    just_out = np.where(rng.random(pts.shape) < 0.5, -1e-12, hi + 1e-12)
    for k, value in enumerate((0.0, hi, whole, whole + tiny, np.nan, just_out), start=1):
        pts = np.where(kind == k, value, pts)
    with mock.patch.object(volume, "_CHUNK", chunk or volume._CHUNK):
        got = sample_trilinear(data, pts)
    want = _parent_sample_trilinear(data, pts)
    assert got.shape == want.shape == (npts,) + shape[3:]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("batch", [(3 * 8192 + 5,), (2, 8192 + 1)])
def test_sampling_spans_chunks_as_one_pass(rng, batch):
    # more points than one chunk, the last chunk partial
    data = rng.standard_normal((9, 8, 7, 2))
    labels = rng.integers(0, 9, (9, 8, 7)).astype(np.int32)
    pts = rng.uniform(-0.5, 8.5, batch + (3,))
    assert sample_trilinear(data, pts).tobytes() == _parent_sample_trilinear(data, pts).tobytes()
    assert sample_nearest(labels, pts).tobytes() == loop_nearest(labels, pts).tobytes()


@pytest.mark.parametrize("sample, data_shape, pts_shape, names", [
    (sample_trilinear, (4, 4), (3,), "(4, 4)"),
    (sample_trilinear, (2, 2, 2, 2, 2), (3,), "(2, 2, 2, 2, 2)"),
    (sample_trilinear, (4, 4, 4), (5, 2), "(5, 2)"),
    (sample_nearest, (4, 4), (3,), "(4, 4)"),
    (sample_nearest, (4, 4, 4, 2), (3,), "(4, 4, 4, 2)"),
    (sample_nearest, (4, 4, 4), (5, 2), "(5, 2)"),
], ids=["trilinear-2d", "trilinear-5d", "trilinear-points", "nearest-2d", "nearest-4d",
        "nearest-points"])
def test_sampling_names_a_wrong_rank(sample, data_shape, pts_shape, names):
    with pytest.raises(ValueError, match=re.escape(names)):
        sample(np.zeros(data_shape, dtype=np.int32), np.zeros(pts_shape))


def _traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates above what is held when it starts, at its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _held_bound(output_bytes):
    """What a sampling call may hold: its output and 28 per-point arrays of one
    chunk. The trilinear kernel holds 25: the clamped x, y and z rows, three
    lower weights, six corner offsets, eight corner offsets, two transients,
    the gathered corner and the running sum."""
    return output_bytes + 28 * volume._CHUNK * 8


def test_trilinear_holds_its_output_and_chunk_buffers_only(rng):
    # a 3-channel 48³ field at 48³ points: no copy of the positions, no
    # channel-first output
    n = 48
    field = rng.standard_normal((n, n, n, 3))
    pts = volume.world_coordinate_grid((n, n, n), np.eye(4)) + rng.uniform(-0.5, 0.5, (n, n, n, 3))
    assert _traced_peak(sample_trilinear, field, pts) <= _held_bound(field.nbytes)


@pytest.mark.parametrize("sample, dtype", [(sample_trilinear, np.float64), (sample_nearest, np.int32)],
                         ids=["trilinear", "nearest"])
def test_scattered_points_off_the_grid_hold_no_batch_mask(rng, sample, dtype):
    # 2**21 points, about a third of them off a 16³ grid: the outside points
    # are zeroed chunk by chunk, with no mask or index array over the batch
    data = rng.integers(0, 9, (16, 16, 16)).astype(dtype)
    pts = rng.uniform(-1.0, 16.0, (2 ** 21, 3))
    out_bytes = len(pts) * data.itemsize
    assert _traced_peak(sample, data, pts) <= _held_bound(out_bytes)


def test_warp_pull_holds_its_output_and_chunk_buffers_only(monkeypatch):
    # warp_volume at 48³, measured from when its positions are built
    n = 48
    v = Volume(np.random.default_rng(3).random((n, n, n)))
    rng = np.random.default_rng(4)
    cfg = sb.DeformationConfig()
    fld = sb.build_deformation(sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, v))
    held = []
    source_voxels = sb.deformation._source_voxels

    def from_here(*args):
        p = source_voxels(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return p

    monkeypatch.setattr(sb.deformation, "_source_voxels", from_here)
    tracemalloc.start()
    try:
        sb.warp_volume(v, fld)
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert peak <= _held_bound(v.data.nbytes)


# -- gradient / normalization ---------------------------------------------------

@pytest.mark.parametrize("kept", [(), (1,), (2,), (0,), (0, 1, 2)])
def test_per_axis_applies_each_matrix_along_its_axis(rng, kept):
    data = rng.random((5, 4, 6, 3))
    mats = [None if ax in kept else rng.random((n + 2, n)) for ax, n in enumerate(data.shape[:3])]
    want = np.einsum("ai,bj,ck,ijkd->abcd", *(np.eye(n) if m is None else m
                                              for m, n in zip(mats, data.shape)), data)
    got = _per_axis(data, mats)
    assert got.shape == want.shape and np.allclose(got, want, rtol=1e-13, atol=0.0)
    # C order whenever the first axis is resampled
    if 0 not in kept:
        assert got.flags.c_contiguous


def test_gradient_of_ramp_is_constant_slope():
    x = np.arange(5, dtype=float)
    data = np.broadcast_to(x[:, None, None], (5, 5, 5)).copy()
    v = Volume(3.0 * data, spacing=(2.0, 1.0, 1.0))
    g = spatial_gradient(v)
    assert np.allclose(g.channels[0].data, 1.5)  # 3 per voxel / 2 mm
    assert np.allclose(g.channels[1].data, 0.0)
    assert np.allclose(g.channels[2].data, 0.0)


def test_gradient_needs_two_voxels_per_axis():
    with pytest.raises(DegenerateGrid):
        spatial_gradient(Volume(np.zeros((1, 4, 4))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_minmax_lands_exactly_on_unit_interval(seed):
    data = np.random.default_rng(seed).standard_normal((4, 4, 4))
    out = minmax_normalize(Volume(data))
    assert out.data.min() == 0.0
    assert out.data.max() == 1.0


def test_minmax_constant_becomes_zero():
    out = minmax_normalize(Volume(np.full((3, 3, 3), 7.0)))
    assert (out.data == 0).all()


def test_minmax_gives_the_bytes_of_the_inline_paint_rule():
    rng = np.random.default_rng(0)
    for i in range(600):
        n = int(rng.integers(1, 200))
        scale = 10.0 ** rng.uniform(-12, 3)
        offset = rng.uniform(-2, 2)
        vals = offset + scale * rng.standard_normal(n)
        if i % 10 == 0:
            vals[:] = offset  # constant
        want = inline_paint_minmax(vals)
        got = volume._minmax(vals.copy(), vals.copy())
        assert got.tobytes() == want.tobytes()
        # in place, as paint calls it
        assert volume._minmax(vals, vals) is vals and vals.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [1e-9, 0.25, 7.0, -3.0, 1e6])
def test_minmax_flattens_a_spread_of_rounding(value):
    eps = np.finfo(np.float64).eps
    data = value * (1.0 + eps * np.array([0.0, 3.0, 7.0, 1.0]))
    assert np.unique(data).size > 1
    assert volume._minmax(data, np.empty(4)).tobytes() == np.zeros(4).tobytes()
    # a spread well above rounding is signal
    signal = value * (1.0 + 1e-12 * np.array([0.0, 3.0, 7.0, 1.0]))
    assert volume._minmax(signal, np.empty(4)).max() == 1.0


@pytest.mark.parametrize("value", [1e-9, 0.25, 7.0, -3.0, 1e6])
def test_float32_minmax_flattens_a_spread_of_float32_rounding(value):
    eps = float(np.finfo(np.float32).eps)
    data = (value * (1.0 + eps * np.array([0.0, 3.0, 7.0, 1.0]))).astype(np.float32)
    assert np.unique(data).size > 1
    out = volume._minmax(data, data.copy())
    assert out.dtype == np.float32 and out.tobytes() == np.zeros(4, np.float32).tobytes()
    # a spread well above float32 rounding is signal
    signal = (value * (1.0 + 1e-4 * np.array([0.0, 3.0, 7.0, 1.0]))).astype(np.float32)
    assert volume._minmax(signal, signal.copy()).max() == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3.0, 3.0), st.floats(-12.0, 3.0))
def test_float32_minmax_lands_exactly_on_unit_interval(seed, offset, log_scale):
    data = offset + 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(64)
    data = data.astype(np.float32)
    out = volume._minmax(data, data.copy())
    assert out.dtype == np.float32
    assert out.min() == 0.0 or not out.any()
    assert out.max() == 1.0 or not out.any()


def test_a_float32_volume_is_kept_only_when_the_library_adopts_it():
    data = np.random.default_rng(0).random((4, 5, 6)).astype(np.float32)
    assert Volume(data).data.dtype == np.float64
    assert Volume(data).with_data(data).data.dtype == np.float64
    adopted = Volume._adopt(data)
    assert adopted.data is data and not data.flags.writeable
    # minmax_normalize reads it as its float64 copy
    assert minmax_normalize(adopted).data.tobytes() == minmax_normalize(Volume(data)).data.tobytes()


def test_the_gradient_of_a_float32_volume_is_that_of_its_float64_copy():
    data = np.random.default_rng(1).random((6, 5, 4)).astype(np.float32)
    spacing = (1.0, 1.5, 0.7)
    got = spatial_gradient(Volume._adopt(data, spacing))
    want = spatial_gradient(Volume(data, spacing))
    for g, w in zip(got.channels, want.channels):
        assert g.data.dtype == np.float64 and g.data.tobytes() == w.data.tobytes()
