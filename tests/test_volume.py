import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from synthbrain.volume import _per_axis, _points, sample_nearest, sample_trilinear

from reference_impls import gather_trilinear


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


@pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 3, 2, 3)])
def test_prepared_points_sample_as_the_raw_points(rng, shape):
    data = rng.random((6, 5, 4))
    labels = rng.integers(0, 9, (6, 5, 4)).astype(np.int32)
    pts = rng.uniform(-1.0, 6.5, shape)
    at = _points(pts, data.shape)
    for sample, grid in ((sample_trilinear, data), (sample_nearest, labels),
                         (sample_trilinear, np.stack([data, 2 * data], axis=-1))):
        want = sample(grid, pts)
        got = sample(grid, at)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
