import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthbrain as sb
from synthbrain.deformation import DeformationConfig
from synthbrain.volume import _per_axis, sample_trilinear, voxel_to_world, world_coordinate_grid

from conftest import make_subject, smooth_volume
from reference_impls import deformation_world, index_grid, integrate_svf_full, source_voxels_world


def _mild_field(seed, n=32, cfg=None):
    cfg = cfg or DeformationConfig()
    like = smooth_volume(n, 0)
    rng = np.random.default_rng(seed)
    affine = sb.sample_affine(rng, cfg)
    svf = sb.sample_svf(rng, cfg, like)
    return sb.build_deformation(affine, svf)


def _translation_field(t, n=16, spacing=(1.0, 1.0, 1.0)):
    like = sb.Volume(np.zeros((n, n, n)), spacing)
    disp = np.zeros((n, n, n, 3))
    disp[...] = t
    return sb.DeformationField(disp, like.spacing, like.grid_to_world)


def _sheared_grid(dims):
    """Zero volume on an anisotropic grid whose voxel axes are sheared in world."""
    m = np.array([[1.0, 0.1, 0.0, -5.0], [0.0, 1.2, 0.05, 3.0], [0.0, 0.0, 0.9, 1.0], [0, 0, 0, 1]])
    return sb.Volume(np.zeros(dims), spacing=(1.0, 1.2, 0.9), grid_to_world=m)


def _offset_grid():
    """Zero volume on an axis-aligned 1.5 mm grid, offset from :func:`_sheared_grid`'s."""
    m = np.array([[1.5, 0, 0, -4.0], [0, 1.5, 0, 2.0], [0, 0, 1.5, 1.0], [0, 0, 0, 1]])
    return sb.Volume(np.zeros((14, 12, 12)), spacing=(1.5, 1.5, 1.5), grid_to_world=m)


def _interior(arr, margin):
    sl = tuple(slice(margin, s - margin) for s in arr.shape[:3])
    return arr[sl]


# -- affine sampling ------------------------------------------------------------

def test_all_off_config_samples_identity():
    params = sb.sample_affine(np.random.default_rng(0), DeformationConfig.all_off())
    assert params == sb.AffineParams.identity()
    assert np.array_equal(params.matrix((5.0, 5.0, 5.0)), np.eye(4))


def test_sampled_angles_respect_bounds():
    cfg = DeformationConfig()
    rng = np.random.default_rng(1)
    draws = np.array([sb.sample_affine(rng, cfg).rotation for _ in range(10_000)])
    assert np.abs(draws).max() <= 15.0
    assert np.abs(draws).max() > 14.0  # the range is actually exercised


def test_affine_sampling_deterministic():
    cfg = DeformationConfig()
    a = sb.sample_affine(np.random.default_rng(42), cfg)
    b = sb.sample_affine(np.random.default_rng(42), cfg)
    assert a == b


def test_singular_scaling_rejected():
    params = sb.AffineParams((0, 0, 0), (0.0, 1, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        params.matrix((0, 0, 0))


# -- velocity-field integration --------------------------------------------------

def test_zero_velocity_integrates_to_exact_identity():
    like = smooth_volume(12, 0)
    svf = sb.sample_svf(np.random.default_rng(0), DeformationConfig.all_off(), like)
    fld = sb.integrate_svf(svf)
    assert not fld.displacement.any()


@pytest.mark.parametrize("dims", [(1, 9, 10), (2, 9, 10), (3, 9, 10), (1, 2, 3)])
def test_short_axes_integrate(dims):
    like = sb.Volume(np.zeros(dims))
    fld = sb.integrate_svf(sb.sample_svf(np.random.default_rng(0), DeformationConfig(), like))
    assert fld.dims == dims
    off = sb.sample_svf(np.random.default_rng(0), DeformationConfig.all_off(), like)
    assert not sb.integrate_svf(off).displacement.any()


@pytest.mark.parametrize("sheared", [False, True], ids=["iso64", "sheared64x60x56"])
def test_half_grid_integration_matches_full_resolution(sheared):
    like = _sheared_grid((64, 60, 56)) if sheared else sb.Volume(np.zeros((64, 64, 64)))
    cfg = DeformationConfig()
    to_voxel = np.linalg.inv(like.grid_to_world[:3, :3]).T
    box = tuple(slice(n // 4, n - n // 4) for n in like.dims)
    for seed in range(10):
        svf = sb.sample_svf(np.random.default_rng(seed), cfg, like)
        full = integrate_svf_full(svf, cfg.squaring_steps)
        diff = (sb.integrate_svf(svf, cfg.squaring_steps).displacement - full) @ to_voxel
        mag = np.sqrt((diff ** 2).sum(-1))
        assert mag[box].max() <= 0.05
        assert mag.mean() <= 0.1


def test_constant_velocity_integrates_to_translation():
    like = smooth_volume(28, 0)
    svf = sb.sample_svf(np.random.default_rng(0), DeformationConfig.all_off(), like)
    c = np.array([1.5, -0.75, 0.5])
    svf = dataclasses.replace(svf, velocities=np.broadcast_to(c, svf.velocities.shape))
    fld = sb.integrate_svf(svf)
    # each squaring step can pull boundary identity one voxel further inward
    margin = DeformationConfig().squaring_steps + int(np.ceil(np.abs(c).max()))
    err = np.abs(_interior(fld.displacement, margin) - c)
    assert err.max() <= 1e-4 * np.linalg.norm(c)


def test_forward_and_negated_velocities_cancel():
    like = smooth_volume(24, 3)
    svf = sb.sample_svf(np.random.default_rng(7), DeformationConfig(), like)
    fwd = sb.integrate_svf(svf)
    bwd = sb.integrate_svf(svf.negated())
    residual = sb.compose(fwd, bwd)
    mag = np.sqrt((_interior(residual.displacement, 6) ** 2).sum(-1))
    assert mag.max() <= 0.5


def test_svf_requires_coarse_control_grid():
    with pytest.raises(ValueError, match="control spacing"):
        like = sb.Volume(np.zeros((8, 8, 8)), spacing=(20.0, 20.0, 20.0))
        svf = sb.sample_svf(np.random.default_rng(0), DeformationConfig(), like)


def test_nonfinite_velocities_rejected():
    like = smooth_volume(12, 0)
    svf = sb.sample_svf(np.random.default_rng(0), DeformationConfig(), like)
    bad = np.array(svf.velocities)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(sb.NonFiniteField):
        dataclasses.replace(svf, velocities=bad)


# -- composition -----------------------------------------------------------------

def test_identity_composed_with_field_is_field():
    fld = _mild_field(0, n=20)
    ident = sb.identity_field(fld)
    out = sb.compose(ident, fld)
    assert np.abs(out.displacement - fld.displacement).max() <= 1e-6


def test_translations_add():
    t1, t2 = np.array([1.0, 2.0, -1.0]), np.array([0.5, -1.0, 2.0])
    out = sb.compose(_translation_field(t1), _translation_field(t2))
    inner = _interior(out.displacement, 4)
    assert np.allclose(inner, t1 + t2, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(-2, 2) for _ in range(9)]))
def test_translation_composition_associative(vals):
    t1, t2, t3 = np.array(vals[:3]), np.array(vals[3:6]), np.array(vals[6:])
    a = sb.compose(sb.compose(_translation_field(t1), _translation_field(t2)), _translation_field(t3))
    b = sb.compose(_translation_field(t1), sb.compose(_translation_field(t2), _translation_field(t3)))
    assert np.abs(_interior(a.displacement, 7) - _interior(b.displacement, 7)).max() <= 1e-6


def _grid_center(like):
    return voxel_to_world(like.grid_to_world, (np.asarray(like.dims) - 1.0) / 2.0)


def test_build_deformation_matches_its_closed_form():
    like = _sheared_grid((20, 18, 16))
    g = like.grid_to_world
    rng = np.random.default_rng(3)
    affine = sb.sample_affine(rng, DeformationConfig())
    svf = sb.sample_svf(rng, DeformationConfig(), like)
    a = affine.matrix(_grid_center(like))
    a_inv = np.linalg.inv(a)
    steps = DeformationConfig().squaring_steps

    # on the half-grid nodes j, at full-grid voxels N(j), N = diag(s): T at N⁻¹G⁻¹AGN(j),
    # plus (A - I)GN(j); inverse: T⁻¹ through A⁻¹, plus (A⁻¹ - I)GN(j); then upsampled once
    t, s, upsample = sb.deformation._integrate(svf, steps)
    half = t.shape[:3]
    forward = _per_axis(
        sample_trilinear(t, world_coordinate_grid(half, (np.linalg.inv(g) @ a @ g) * s / s[:, None]))
        + world_coordinate_grid(half, (a - np.eye(4)) @ g * s), upsample)
    built = sb.build_deformation(affine, svf)
    assert built.displacement.tobytes() == forward.tobytes()

    t_inv, s, upsample = sb.deformation._integrate(svf.negated(), steps)
    inverse = _per_axis(t_inv @ a_inv[:3, :3].T + world_coordinate_grid(half, (a_inv - np.eye(4)) @ g * s),
                        upsample)
    built_inv = sb.build_deformation(affine, svf, inverted=True)
    assert built_inv.displacement.tobytes() == inverse.tobytes()


@pytest.mark.parametrize("sheared", [False, True], ids=["unit64", "sheared64x60x56"])
def test_half_grid_composition_matches_the_full_grid_route(sheared):
    # the oracle looks the upsampled T up at A(x) for every voxel; composing on
    # the nodes differs from it only by interpolation, and at the faces, where
    # A(x) leaves the grid and T reads as identity
    like = _sheared_grid((64, 60, 56)) if sheared else sb.Volume(np.zeros((64, 64, 64)))
    g = like.grid_to_world
    cfg = DeformationConfig()
    box = tuple(slice(n // 4, n - n // 4) for n in like.dims)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        affine, svf = sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, like)
        a = affine.matrix(_grid_center(like))
        t = sb.integrate_svf(svf)
        oracle = deformation_world(a, g, t.displacement)
        # the package's own full-grid route is compose with the affine's field
        assert np.abs(sb.compose(t, sb.affine_to_field(a, like)).displacement - oracle).max() <= 1e-12
        diff = sb.build_deformation(affine, svf).displacement - oracle
        assert np.sqrt((diff ** 2).sum(-1))[box].max() <= 0.05  # mm
        # linear upsampling reproduces the affine part: the inverse agrees up to rounding everywhere
        oracle_inv = deformation_world(a, g, sb.integrate_svf(svf.negated()).displacement, inverted=True)
        diff_inv = sb.build_deformation(affine, svf, inverted=True).displacement - oracle_inv
        assert np.abs(diff_inv).max() <= 1e-12  # mm


def test_identity_affine_leaves_the_integrated_field():
    # 20 and 46 voxels: node spacings s with fl(1/s) * s != 1
    like = sb.Volume(np.zeros((20, 46, 17)))
    svf = sb.sample_svf(np.random.default_rng(6), DeformationConfig(), like)
    built = sb.build_deformation(sb.AffineParams.identity(), svf)
    assert built.displacement.tobytes() == sb.integrate_svf(svf).displacement.tobytes()


def test_generated_fields_are_upsampled_in_c_order_and_adopted(monkeypatch):
    like = _sheared_grid((20, 18, 16))
    rng = np.random.default_rng(8)
    smooth_cfg = DeformationConfig(rot_max=0.0, scale_max=0.0, shear_max=0.0)
    affine, svf = sb.sample_affine(rng, smooth_cfg), sb.sample_svf(rng, smooth_cfg, like)
    phi = sb.build_deformation(affine, svf)
    stripped = sb.DeformationField(phi.displacement, phi.spacing, phi.grid_to_world)
    upsampled = []
    per_axis = sb.deformation._per_axis

    def capturing(data, matrices):
        upsampled.append(per_axis(data, matrices))
        return upsampled[-1]

    monkeypatch.setattr(sb.deformation, "_per_axis", capturing)
    calls = {
        "integrate_svf": lambda: sb.integrate_svf(svf),
        "build_deformation": lambda: sb.build_deformation(affine, svf),
        "build_deformation(inverted)": lambda: sb.build_deformation(affine, svf, inverted=True),
        "invert(fixed point)": lambda: sb.invert(stripped),
    }
    for name, call in calls.items():
        upsampled.clear()
        fld = call()
        assert len(upsampled) == 1 and upsampled[0].flags.c_contiguous, name
        assert np.shares_memory(fld.displacement, upsampled[0]), name


def test_build_deformation_constructs_one_field(monkeypatch):
    like = _sheared_grid((12, 10, 8))
    rng = np.random.default_rng(2)
    affine, svf = sb.sample_affine(rng, DeformationConfig()), sb.sample_svf(rng, DeformationConfig(), like)
    calls = []
    convert = sb.DeformationField._convert

    def counting(displacement, copy):
        calls.append(copy)
        return convert(displacement, copy)

    monkeypatch.setattr(sb.DeformationField, "_convert", staticmethod(counting))
    for inverted in (False, True):
        calls.clear()
        fld = sb.build_deformation(affine, svf, inverted=inverted)
        assert calls == [False], inverted  # one adopted field
        assert fld.provenance.inverted is inverted


def test_scale_then_translate_matches_hand_computed_map():
    n = 16
    like = sb.Volume(np.zeros((n, n, n)))
    t_field = _translation_field(np.array([1.0, 0.0, 0.0]), n)
    params = sb.AffineParams((0, 0, 0), (2.0, 2.0, 2.0), (0, 0, 0), (0, 0, 0))
    out = sb.compose(t_field, sb.affine_to_field(params.matrix(_grid_center(like)), like))
    center = (n - 1) / 2.0
    # x -> 2(x - c) + c + (1, 0, 0), checked pointwise in the region that
    # stays inside the grid after scaling
    for p in [(7, 7, 7), (6, 8, 7), (9, 6, 8)]:
        expected = 2.0 * (np.array(p, dtype=float) - center) + center + (1, 0, 0)
        got = np.array(p, dtype=float) + out.displacement[p]
        assert np.abs(got - expected).max() <= 1e-5


# -- inversion -------------------------------------------------------------------

def test_invert_identity_is_identity():
    ident = sb.identity_field(smooth_volume(10, 0))
    inv = sb.invert(ident)
    assert np.abs(inv.displacement).max() == 0.0


def test_invert_translation_flips_sign(monkeypatch):
    t = np.array([2.0, -1.0, 0.5])
    fld = _translation_field(t, n=20)
    # every voxel, faces included, whatever the parity of the iteration
    # count: an iterate past a face reads the face value
    for iterations in (19, 20):
        monkeypatch.setattr(sb.deformation, "_INVERSION_ITERATIONS", iterations)
        inv = sb.invert(fld)
        assert np.abs(inv.displacement - (-t)).max() <= 1e-9


def test_invert_translation_past_half_the_grid():
    # most iterates leave the grid; the ones that stay see the exact fixed point
    for n in (15, 20):
        t = np.array([12.0, 0.0, -0.4 * n])
        inv = sb.invert(_translation_field(t, n=n))
        assert np.abs(inv.displacement - (-t)).max() <= 1e-9
    # a one-voxel-thick slab, translated within its plane
    t = np.array([0.0, -1.0, 0.5])
    inv = sb.invert(sb.DeformationField(np.broadcast_to(t, (1, 12, 12, 3))))
    assert np.abs(inv.displacement - (-t)).max() <= 1e-9


def test_invert_translation_off_the_grid_raises():
    with pytest.raises(sb.NotInvertible):
        sb.invert(_translation_field(np.array([0.0, 25.0, 0.0]), n=20))


def test_provenance_inversion_round_trip():
    fld = _mild_field(11, n=32)
    residual = sb.compose(fld, sb.invert(fld))
    mag = np.sqrt((_interior(residual.displacement, 8) ** 2).sum(-1))
    assert mag.mean() <= 0.2
    assert mag.max() <= 1.0


def test_provenance_inverse_is_closed_form_on_every_voxel():
    # anisotropic, sheared grid; default ranges push some T^-1 images off the grid
    like = _sheared_grid((20, 18, 16))
    m = like.grid_to_world
    cfg = DeformationConfig()
    rng = np.random.default_rng(4)
    affine, svf = sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, like)
    inv = sb.invert(sb.build_deformation(affine, svf))

    t_inv = sb.integrate_svf(svf.negated())
    xs = np.indices(like.dims).reshape(3, -1).T @ m[:3, :3].T + m[:3, 3]
    ys = xs + t_inv.displacement.reshape(-1, 3)
    a_inv = np.linalg.inv(affine.matrix(_grid_center(like)))
    closed = ys @ a_inv[:3, :3].T + a_inv[:3, 3] - xs
    y_vox = (ys - m[:3, 3]) @ np.linalg.inv(m[:3, :3]).T
    assert ((y_vox < 0) | (y_vox > np.asarray(like.dims) - 1.0)).any()
    assert np.abs(inv.displacement.reshape(-1, 3) - closed).max() <= 1e-9


def test_double_inversion_returns_to_start():
    fld = _mild_field(5, n=24)
    twice = sb.invert(sb.invert(fld))
    assert np.array_equal(twice.displacement, fld.displacement)  # analytic rebuild

    # fixed-point fallback: smooth small-displacement field, no provenance
    smooth_cfg = DeformationConfig(rot_max=0.0, scale_max=0.0, shear_max=0.0)
    fld2 = _mild_field(5, n=24, cfg=smooth_cfg)
    stripped = dataclasses.replace(fld2, provenance=None)
    approx = sb.invert(sb.invert(stripped))
    err = np.sqrt(((_interior(approx.displacement, 6) - _interior(fld2.displacement, 6)) ** 2).sum(-1))
    assert err.mean() <= 0.3


@pytest.mark.parametrize("sheared", [False, True], ids=["iso64", "sheared64x60x56"])
def test_fixed_point_inverse_matches_closed_form(sheared):
    # float32 copies, as read back from deformation.nii: no provenance, so
    # invert takes the fixed point; the closed-form inverse is the oracle
    like = _sheared_grid((64, 60, 56)) if sheared else sb.Volume(np.zeros((64, 64, 64)))
    cfg = DeformationConfig()
    box = tuple(slice(n // 4, n - n // 4) for n in like.dims)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        affine, svf = sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, like)
        fld = sb.build_deformation(affine, svf)
        stored = sb.DeformationField(fld.displacement.astype(np.float32), fld.spacing,
                                     fld.grid_to_world)
        closed = sb.build_deformation(affine, svf, inverted=True).displacement
        err = np.sqrt(((sb.invert(stored).displacement - closed) ** 2).sum(-1))
        assert err[box].max() <= 0.05  # mm


@pytest.mark.parametrize("n", [15, 16, 17])
def test_uninvertible_field_raises(n):
    disp = np.zeros((n, n, n, 3))
    # displacement folds the volume onto itself: x -> -x around the center
    idx = np.indices((n, n, n)).astype(float)
    for ax in range(3):
        disp[..., ax] = (n - 1) - 2.0 * idx[ax]
    fld = sb.DeformationField(disp)
    with pytest.raises(sb.NotInvertible):
        sb.invert(fld)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_field_mirroring_one_axis_is_not_inverted(axis):
    # det(I + du/dx) = -1 at every node
    n = 16
    disp = np.zeros((n, n, n, 3))
    disp[..., axis] = (n - 1) - 2.0 * np.indices((n, n, n))[axis]
    with pytest.raises(sb.NotInvertible, match="orientation"):
        sb.invert(sb.DeformationField(disp))


# -- warping ---------------------------------------------------------------------

def test_identity_warp_returns_input_object(subject32):
    ident = sb.identity_field(subject32.mprage)
    assert sb.warp_volume(subject32.mprage, ident) is subject32.mprage
    assert sb.warp_labels(subject32.labels, ident) is subject32.labels


def test_one_voxel_translation_shifts_ramp():
    n = 12
    ramp = np.broadcast_to(np.arange(n, dtype=float)[:, None, None], (n, n, n)).copy()
    v = sb.Volume(ramp)
    out = sb.warp_volume(v, _translation_field(np.array([1.0, 0, 0]), n))
    assert np.allclose(out.data[: n - 1], ramp[1:], atol=1e-12)


def test_warp_round_trip_preserves_structure(subject32):
    fld = _mild_field(3, n=32)
    warped = sb.warp_volume(subject32.mprage, fld)
    recovered = sb.warp_volume(warped, sb.invert(fld))
    mask = sb.interior_mask(subject32.labels, erosion=3)
    assert sb.ssim(subject32.mprage, recovered, mask=mask) >= 0.95


def test_warp_labels_never_invents_labels(subject32):
    fld = _mild_field(9, n=32)
    out = sb.warp_labels(subject32.labels, fld)
    assert set(out.label_set) <= set(subject32.labels.label_set) | {0}


def test_label_warps_adopt_the_sampled_array(subject32, monkeypatch):
    sampled = []
    sample_nearest = sb.deformation.sample_nearest

    def capturing(data, pts):
        sampled.append(sample_nearest(data, pts))
        return sampled[-1]

    monkeypatch.setattr(sb.deformation, "sample_nearest", capturing)
    warped = sb.warp_labels(subject32.labels, _mild_field(9, n=32))
    assert np.shares_memory(warped.data, sampled[-1]) and not warped.data.flags.writeable
    # and the warped map that generate_batch paints
    painted = []
    paint = sb.generator.paint
    monkeypatch.setattr(sb.generator, "paint", lambda lm, *args: painted.append(lm) or paint(lm, *args))
    sb.generate_batch(subject32, 1, base_seed=3)
    assert np.shares_memory(painted[0].data, sampled[-1]) and not painted[0].data.flags.writeable
    # the public constructor still copies the caller's array
    arr = sampled[-1].copy()
    assert not np.shares_memory(sb.LabelMap(arr).data, arr)


def test_adopted_field_keeps_its_provenance():
    phi = _mild_field(2, n=16)
    again = sb.DeformationField._adopt(np.array(phi.displacement), phi.spacing,
                                       phi.grid_to_world, provenance=phi.provenance)
    assert again.provenance is phi.provenance
    assert sb.invert(again).displacement.tobytes() == sb.invert(phi).displacement.tobytes()


def test_warp_between_grids_uses_world_frame():
    # same world content, target grid twice as coarse
    fine = smooth_volume(24, 1)
    coarse_like = sb.Volume(np.zeros((12, 12, 12)), spacing=(2.0, 2.0, 2.0))
    out = sb.warp_volume(fine, sb.identity_field(coarse_like))
    assert out.dims == (12, 12, 12)
    assert np.allclose(out.data, fine.data[::2, ::2, ::2], atol=1e-12)


@pytest.mark.parametrize("field_grid", ["own", "other"])
def test_warp_stack_channels_equal_warp_volume(field_grid):
    like = _sheared_grid((20, 18, 16))
    rng = np.random.default_rng(4)
    stack = sb.VolumeStack(tuple(
        sb.Volume(rng.random(like.dims), like.spacing, like.grid_to_world) for _ in range(3)
    ))
    frame = like if field_grid == "own" else _offset_grid()
    fld = sb.build_deformation(sb.sample_affine(rng, DeformationConfig()),
                               sb.sample_svf(rng, DeformationConfig(), frame))
    out = sb.warp_stack(stack, fld)
    for ch, got in zip(stack.channels, out.channels):
        want = sb.warp_volume(ch, fld)
        assert np.array_equal(got.data, want.data)
        assert sb.same_geometry(got, want) and got.dims == frame.dims


def test_warp_stack_maps_points_once(monkeypatch):
    stack = sb.VolumeStack(tuple(smooth_volume(16, i) for i in range(4)))
    fld = _mild_field(2, n=16)
    calls = []
    source_voxels = sb.deformation._source_voxels

    def counting(*args):
        calls.append(args)
        return source_voxels(*args)

    monkeypatch.setattr(sb.deformation, "_source_voxels", counting)
    sb.warp_stack(stack, fld)
    assert len(calls) == 1


@pytest.mark.parametrize("warp", ["warp_volume", "warp_labels", "compose"])
def test_warps_and_compose_map_points_once(subject32, warp, monkeypatch):
    fld = _mild_field(2, n=32)
    first = {"warp_volume": subject32.mprage, "warp_labels": subject32.labels,
             "compose": _mild_field(3, n=32)}[warp]
    calls = []
    source_voxels = sb.deformation._source_voxels

    def counting(*args):
        calls.append(args)
        return source_voxels(*args)

    monkeypatch.setattr(sb.deformation, "_source_voxels", counting)
    getattr(sb, warp)(first, fld)
    assert len(calls) == 1 and calls[0][0] is fld


def test_composed_fields_are_c_ordered_and_adopted(monkeypatch):
    like = _sheared_grid((20, 18, 16))
    rng = np.random.default_rng(8)
    outer, inner = (sb.build_deformation(sb.sample_affine(rng, DeformationConfig()),
                                         sb.sample_svf(rng, DeformationConfig(), g))
                    for g in (_offset_grid(), like))
    converted = []
    convert = sb.DeformationField._convert

    def capturing(displacement, copy):
        converted.append((displacement, copy))
        return convert(displacement, copy)

    monkeypatch.setattr(sb.DeformationField, "_convert", staticmethod(capturing))
    out = sb.compose(outer, inner)
    (given, copy), = converted
    assert not copy and given.flags.c_contiguous
    assert out.displacement is given


def test_warp_subject_is_gone():
    assert not hasattr(sb.deformation, "_warp_subject")
    assert not hasattr(sb.generator, "_warp_subject")


def test_zero_field_passes_every_grid_through_on_a_sheared_grid():
    # on a sheared grid, inv(G) @ G is not exactly the identity, so sampling at
    # a zero field's positions puts a face a hair outside the grid
    like = _sheared_grid((20, 18, 16))
    rng = np.random.default_rng(1)
    v = like.with_data(rng.random(like.dims))
    stack = sb.VolumeStack((v, like.with_data(rng.random(like.dims))))
    outer = sb.build_deformation(sb.sample_affine(rng, DeformationConfig()),
                                 sb.sample_svf(rng, DeformationConfig(), like))
    zero = sb.identity_field(like)
    assert sb.warp_volume(v, zero) is v
    assert sb.warp_stack(stack, zero) is stack
    assert sb.compose(outer, zero) is outer


def test_a_field_zero_on_the_faces_keeps_a_sheared_grid_s_faces():
    # one interior voxel moves, so the warps sample every position
    like = _sheared_grid((20, 18, 16))
    u = np.zeros(like.dims + (3,))
    u[10, 9, 8] = (0.01, 0.0, 0.0)
    fld = sb.DeformationField(u, like.spacing, like.grid_to_world)
    rng = np.random.default_rng(2)
    v = like.with_data(rng.uniform(0.5, 1.5, like.dims))
    lm = sb.LabelMap(rng.integers(1, 5, like.dims), like.spacing, like.grid_to_world)
    warped, warped_labels = sb.warp_volume(v, fld), sb.warp_labels(lm, fld)
    moved = np.zeros(like.dims, dtype=bool)
    moved[10, 9, 8] = True
    assert np.array_equal(warped.data[~moved], v.data[~moved])
    assert np.array_equal(warped_labels.data, lm.data)


@pytest.mark.parametrize("frame", ["sheared", "other", "unit"])
@pytest.mark.parametrize("target", ["sheared", "other", "unit"])
def test_source_voxels_match_the_world_route(frame, target):
    grids = {"sheared": _sheared_grid((20, 18, 16)), "other": _offset_grid(),
             "unit": sb.Volume(np.zeros((16, 14, 12)))}
    rng = np.random.default_rng(5)
    fld = sb.build_deformation(sb.sample_affine(rng, DeformationConfig()),
                               sb.sample_svf(rng, DeformationConfig(), grids[frame]))
    g = grids[target].grid_to_world
    got, want = sb.deformation._source_voxels(fld, g), source_voxels_world(fld, g)
    assert np.abs(got - want).max() <= 1e-12
    if frame == target == "unit":
        assert got.tobytes() == want.tobytes()


# -- serialization ----------------------------------------------------------------

def test_field_round_trips_through_vector_nifti(tmp_path):
    fld = _mild_field(2, n=16)
    path = tmp_path / "field.nii"
    sb.write_nifti_file(path, fld.channels(), "float32")
    stack = sb.read_volume_stack_file(path)
    back = sb.DeformationField(stack.as_array(), stack.spacing, stack.grid_to_world)
    assert np.allclose(back.displacement, fld.displacement, atol=1e-5)
    assert sb.same_geometry(back, fld)


def test_generated_batches_share_one_deformation(subject32):
    batch = sb.generate_batch(subject32, 2, base_seed=1)
    assert batch.deformation.provenance is not None
    again = sb.generate_batch(subject32, 2, base_seed=1)
    assert np.array_equal(batch.deformation.displacement, again.deformation.displacement)


# -- fresh results are adopted, not copied -----------------------------------------

def test_world_coordinate_grid_matches_the_affine_map():

    dims = (7, 6, 5)
    for diag in ([1.0, 1.0, 1.0], [-1.5, 2.0, 0.7]):
        a = np.diag(diag + [1.0])
        a[:3, 3] = [90.0, -126.0, 0.0]
        ref = voxel_to_world(a, index_grid(dims))
        assert world_coordinate_grid(dims, a).tobytes() == ref.tobytes()
    sheared = _sheared_grid(dims).grid_to_world
    ref = voxel_to_world(sheared, index_grid(dims))
    got = world_coordinate_grid(dims, sheared)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_built_fields_are_read_only_and_own_their_data():
    like = smooth_volume(16, 0)
    rng = np.random.default_rng(4)
    cfg = DeformationConfig()
    affine, svf = sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, like)
    t = sb.integrate_svf(svf)
    phi = sb.build_deformation(affine, svf)
    # a provenance-free copy takes the fixed-point path
    fixed_point = sb.invert(sb.DeformationField(phi.displacement, phi.spacing, phi.grid_to_world))
    results = {
        "integrate_svf": t,
        "compose(field)": sb.compose(t, t),
        "build_deformation": phi,
        "invert(provenance)": sb.invert(sb.build_deformation(affine, svf)),
        "invert(fixed point)": fixed_point,
    }
    for name, fld in results.items():
        u = fld.displacement
        assert not u.flags.writeable, name
        assert u.flags.c_contiguous and u.dtype == np.float64, name
        assert not fld.grid_to_world.flags.writeable, name
    assert not np.shares_memory(results["compose(field)"].displacement, t.displacement)
    assert not np.shares_memory(fixed_point.displacement, phi.displacement)
