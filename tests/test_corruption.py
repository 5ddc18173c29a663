import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import synthbrain as sb
from synthbrain.corruption import SEVERITY_LEVELS, SeverityConfig, sample_corruption_record

from conftest import smooth_volume, sphere_labels
from reference_impls import apply_bias, bias_from_coarse, gather_trilinear


def _draw_stage(stage, v, rng, cfg):
    """Draw a record and replay only ``stage`` (no renormalization)."""
    params = getattr(sample_corruption_record(rng, cfg, v), stage)
    return sb.apply_corruption(v, sb.CorruptionRecord(cfg.level, **{stage: params})), params


def _painted(n=32, seed=0):
    lm = sphere_labels(n, (0.42 * n, 0.3 * n, 0.17 * n))
    rng = np.random.default_rng(seed)
    params = sb.sample_contrast_params(rng, lm.label_set)
    return sb.paint(lm, params, rng)


# -- presets ----------------------------------------------------------------------

def test_preset_values():
    mild, medium, severe = SeverityConfig.mild(), SeverityConfig.medium(), SeverityConfig.severe()
    assert (mild.p_low_field, mild.p_anisotropic) == (0.1, 0.0)
    assert (medium.p_low_field, medium.p_anisotropic) == (0.3, 0.1)
    assert (severe.p_low_field, severe.p_anisotropic) == (0.5, 0.25)
    assert mild.bias_mu == (0.01, 0.02) and mild.bias_sigma == (0.01, 0.05)
    assert medium.bias_mu == (0.02, 0.03) and medium.bias_sigma == (0.05, 0.3)
    assert severe.bias_mu == (0.02, 0.04) and severe.bias_sigma == (0.1, 0.6)
    assert mild.noise_sigma == (0.01, 1.0)
    assert medium.noise_sigma == (0.5, 5.0)
    assert severe.noise_sigma == (5.0, 15.0)
    # geometric perturbation does not escalate with severity
    assert mild.deformation == medium.deformation == severe.deformation


def test_preset_lookup_by_name():
    assert SeverityConfig.by_name("medium") == SeverityConfig.medium()
    with pytest.raises(ValueError):
        SeverityConfig.by_name("extreme")


def test_invalid_probabilities_rejected():
    with pytest.raises(ValueError):
        SeverityConfig("bad", p_low_field=0.9, p_anisotropic=0.2,
                       bias_mu=(0, 0), bias_sigma=(0, 0), noise_sigma=(0, 0))


# -- multiplicative bias ------------------------------------------------------------

def _bias_record(coarse):
    return sb.CorruptionRecord("custom", bias={"coarse": np.asarray(coarse).tolist()})


def test_bias_field_positive_and_smooth():
    v = smooth_volume(24, 0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        record = sample_corruption_record(rng, SeverityConfig.severe(), v)
        b = record.bias_field(v)
        assert isinstance(b, sb.Volume) and sb.same_geometry(b, v)
        assert b.data.min() > 0.0
    assert np.shape(record.bias["coarse"]) == (4, 4, 4)


def test_bias_log_spread_matches_request():
    # pool log-field values over many draws with a pinned (mu, sigma)
    cfg = SeverityConfig(
        "mild", p_low_field=0.0, p_anisotropic=0.0,
        bias_mu=(0.1, 0.1), bias_sigma=(0.3, 0.3), noise_sigma=(0.0, 0.0),
    )
    v = smooth_volume(8, 0)
    rng = np.random.default_rng(42)
    logs = np.concatenate(
        [np.ravel(sample_corruption_record(rng, cfg, v).bias["coarse"]) for _ in range(400)]
    )
    assert abs(logs.mean() - 0.1) < 0.01
    assert abs(logs.std() - 0.3) < 0.01


_ORACLE_GRIDS = [
    ((4, 4, 4), (7, 5, 9)),
    ((2, 3, 4), (1, 6, 4)),
    # (n-1) * ((c-1)/(n-1)) rounds just past c-1 for c=8, n=26 and c=4, n=188;
    # the end face must still take the end coarse value
    ((8, 3, 4), (26, 5, 188)),
]


@pytest.mark.parametrize("coarse_shape, dims", _ORACLE_GRIDS)
def test_bias_field_matches_trilinear_oracle(coarse_shape, dims):
    coarse = np.random.default_rng(7).normal(0.0, 0.4, coarse_shape)
    b = _bias_record(coarse).bias_field(sb.Volume(np.zeros(dims)))
    idx = np.stack(np.meshgrid(*[np.arange(n, dtype=float) for n in dims], indexing="ij"), -1)
    scale = [(c - 1) / max(n - 1, 1) for c, n in zip(coarse_shape, dims)]
    pts = np.minimum(idx * scale, np.asarray(coarse_shape, dtype=float) - 1.0)
    assert np.max(np.abs(b.data - np.exp(gather_trilinear(coarse, pts)))) <= 1e-12
    corner = tuple(-1 if n > 1 else 0 for n in dims)
    assert np.allclose(np.log(b.data[-1, -1, -1]), coarse[corner], atol=1e-12)


@pytest.mark.parametrize("coarse_shape, dims", _ORACLE_GRIDS)
def test_bias_matches_the_first_arithmetic_bit_for_bit(coarse_shape, dims):
    v = sb.Volume(np.random.default_rng(3).random(dims), spacing=(1.0, 1.2, 0.9))
    records = [_bias_record(np.random.default_rng(seed).normal(0.0, 0.4, coarse_shape))
               for seed in range(3)]
    for level in SEVERITY_LEVELS:
        rng = np.random.default_rng(len(level))
        for _ in range(4):
            drawn = sample_corruption_record(rng, SeverityConfig.by_name(level), v)
            records.append(sb.CorruptionRecord(level, bias=drawn.bias))
    for record in records:
        coarse = record.bias["coarse"]
        assert np.array_equal(record.bias_field(v).data, bias_from_coarse(coarse, dims))
        assert np.array_equal(sb.apply_corruption(v, record).data, apply_bias(v.data, coarse))


@pytest.mark.parametrize("coarse, message", [
    (np.full((4, 4, 4), np.nan), "contains NaN/Inf"),
    (np.zeros((4, 4)), "must be 3D"),
    (np.zeros((9, 4, 4)), "<= 8 points per axis"),
    (np.full((4, 4, 4), -1000.0), "strictly positive"),
])
def test_an_outside_record_with_a_bad_coarse_grid_is_rejected(coarse, message):
    v = smooth_volume(8, 0)
    wire = json.loads(json.dumps(_bias_record(coarse).to_json_dict()))
    record = sb.CorruptionRecord.from_json_dict(wire)
    with pytest.raises(ValueError, match=message):
        record.bias_field(v)
    with pytest.raises(ValueError, match=message):
        sb.apply_corruption(v, record)


def test_bias_replay_holds_one_field_beyond_its_input():
    v = _painted(64)
    record = sb.CorruptionRecord("severe", bias=sample_corruption_record(
        np.random.default_rng(0), SeverityConfig.severe(), v).bias)
    volume = v.data.nbytes
    tracemalloc.start()
    try:
        out = sb.apply_corruption(v, record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one volume: the field, with the input multiplied into it
    assert peak <= 1.25 * volume
    assert np.array_equal(out.data, apply_bias(v.data, record.bias["coarse"]))


# sha256 of four successive records' JSON, as drawn by the earlier path that
# built (and discarded) the full-resolution bias field at record time
_RECORD_DIGESTS = {
    ("mild", 0): "16c9028b80f59a5c149a69fc1852a6b3cad2c47de31ce9e85792f01cb9e004e3",
    ("mild", 1): "485498e43e34be845d0d2a326e0b22fa210aba2b4d345b6f9eadda9d184161aa",
    ("medium", 0): "5f71d2a5a0189cab4bdb9f41288d5b7141800d9677b6bbd15299a35eae328ed1",
    ("medium", 1): "49cc7aac5ffd6b40abdf208f09690545bc60ed9809e527896632b84fba44b965",
    ("severe", 0): "cf1d58109b5f35bf7f5534bbe23cade3cb70493f91781bc2508e5c6fc8020e25",
    ("severe", 1): "e4d31b661277cfd57267ee34b12de46f1ec52947fc67383a7fdec94528712abe",
}


@pytest.mark.parametrize("level, seed", sorted(_RECORD_DIGESTS))
def test_corruption_records_are_byte_stable(level, seed):
    like = sb.Volume(np.zeros((20, 18, 16)), spacing=(1.0, 1.2, 0.9))
    rng = np.random.default_rng(seed)
    text = "".join(
        sample_corruption_record(rng, SeverityConfig.by_name(level), like).to_json()
        for _ in range(4)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == _RECORD_DIGESTS[level, seed]


# -- resolution degradation ----------------------------------------------------------

def _oracle_resolution(data, spacing, target):
    """Blur, then clamped 3D gathers down to the target grid and back up."""
    ratios = np.array([t / c if t > c else 1.0 for t, c in zip(target, spacing)])
    blurred = gaussian_filter(data, [r / 2.354820045030949 if r > 1 else 0.0 for r in ratios],
                              mode="nearest")

    def grid(dims, scale):
        idx = np.stack(np.meshgrid(*[np.arange(n, dtype=float) for n in dims], indexing="ij"), -1)
        return idx * scale

    def clamped(vol, pts):
        return gather_trilinear(vol, np.clip(pts, 0.0, np.asarray(vol.shape, dtype=float) - 1.0))

    coarse = tuple(int(np.floor((n - 1) / r)) + 1 for n, r in zip(data.shape, ratios))
    down = clamped(blurred, grid(coarse, ratios))
    return clamped(down, grid(data.shape, 1.0 / ratios))


@pytest.mark.parametrize("target, kind", [
    ((3.3, 3.3, 3.3), "low-field"),
    ((1.0, 5.5, 0.9), "anisotropic"),
    ((2.0, 1.2, 0.9), "anisotropic"),
])
def test_resolution_matches_3d_gather_oracle(target, kind):
    v = sb.Volume(smooth_volume(17, 4).data[:, :15, :13], spacing=(1.0, 1.2, 0.9))
    rec = sb.CorruptionRecord("custom", resolution={"target_spacing": list(target), "kind": kind})
    got = sb.apply_corruption(v, rec).data
    assert np.max(np.abs(got - _oracle_resolution(v.data, v.spacing, target))) <= 1e-12


def _res_cfg(p_low=0.0, p_aniso=0.0, low=(1.5, 4.0), thick=(2.5, 7.0)):
    return SeverityConfig(
        "custom", p_low_field=p_low, p_anisotropic=p_aniso,
        bias_mu=(0, 0), bias_sigma=(0, 0), noise_sigma=(0, 0),
        low_field_spacing=low, anisotropic_spacing=thick,
    )


def test_native_resolution_is_identity():
    v = smooth_volume(16, 2)
    rng = np.random.default_rng(0)
    record = sample_corruption_record(rng, _res_cfg(), v)
    assert record.resolution is None and record.empty
    assert sb.apply_corruption(v, record) is v
    # both probabilities 0: the resolution stage draws nothing
    assert rng.uniform() == np.random.default_rng(0).uniform()


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_resolution_record_at_or_below_native_spacing_is_identity(scale):
    v = smooth_volume(16, 2, spacing=(1.0, 1.5, 2.0))
    target = [scale * s for s in v.spacing]
    record = sb.CorruptionRecord("mild", resolution={"target_spacing": target, "kind": "low-field"})
    assert sb.apply_corruption(v, record) is v


def test_resolution_keeps_grid():
    v = smooth_volume(24, 2)
    cfg = _res_cfg(p_low=1.0, low=(3.0, 3.0))  # always 3 mm isotropic
    out, res = _draw_stage("resolution", v, np.random.default_rng(0), cfg)
    assert out.dims == v.dims
    assert sb.same_geometry(out, v)
    assert res == {"target_spacing": [3.0, 3.0, 3.0], "kind": "low-field"}
    # detail is lost: high-frequency residual shrinks
    assert out.data.std() < v.data.std()


def test_thicker_slices_destroy_more_detail():
    worse = []
    for seed in range(20):
        v = smooth_volume(32, seed)
        a, _ = _draw_stage("resolution", v, np.random.default_rng(0), _res_cfg(p_low=1.0, low=(3.0, 3.0)))
        b, _ = _draw_stage("resolution", v, np.random.default_rng(0), _res_cfg(p_low=1.0, low=(7.0, 7.0)))
        worse.append(sb.psnr(v, b) < sb.psnr(v, a))
    assert all(worse)


def test_anisotropic_thickens_exactly_one_axis():
    v = smooth_volume(32, 5)
    cfg = _res_cfg(p_aniso=1.0, thick=(6.0, 6.0))
    out, res = _draw_stage("resolution", v, np.random.default_rng(4), cfg)
    assert res["kind"] == "anisotropic"
    target = res["target_spacing"]
    thick_axes = [i for i, t in enumerate(target) if t != v.spacing[i]]
    assert len(thick_axes) == 1
    assert target[thick_axes[0]] == 6.0
    # detail along the untouched axes survives better than along the thick one
    axis = thick_axes[0]
    keep = [a for a in range(3) if a != axis]
    d_thick = np.abs(np.diff(out.data, axis=axis)).mean()
    d_orig = np.abs(np.diff(v.data, axis=axis)).mean()
    d_keep = np.mean([
        np.abs(np.diff(out.data, axis=a)).mean() / np.abs(np.diff(v.data, axis=a)).mean()
        for a in keep
    ])
    assert d_thick / d_orig < d_keep


# -- additive noise -------------------------------------------------------------------

def _noise_cfg(lo, hi):
    return SeverityConfig(
        "custom", p_low_field=0.0, p_anisotropic=0.0,
        bias_mu=(0, 0), bias_sigma=(0, 0), noise_sigma=(lo, hi),
    )


def test_zero_sigma_noise_is_identity():
    v = smooth_volume(12, 0)
    rng = np.random.default_rng(3)
    record = sample_corruption_record(rng, _noise_cfg(0.0, 0.0), v)
    assert record.noise is None and record.empty
    assert sb.apply_corruption(v, record) is v
    # a (0, 0) noise range draws nothing
    assert rng.uniform() == np.random.default_rng(3).uniform()


def test_mild_noise_is_small():
    v = smooth_volume(24, 0)
    out, _ = _draw_stage("noise", v, np.random.default_rng(0), _noise_cfg(1.0, 1.0))
    delta = np.abs(out.data - v.data)
    assert delta.max() <= 6.0 / 255.0  # ~5 sigma of 1/255
    assert delta.max() > 0.0


def test_noise_spread_matches_sigma():
    flat = sb.Volume(np.full((32, 32, 32), 0.5))
    out, noise = _draw_stage("noise", flat, np.random.default_rng(11), _noise_cfg(10.0, 10.0))
    assert noise["sigma"] == 10.0 / 255.0
    assert abs(out.data.std() - 10.0 / 255.0) < 0.001
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_noise_reproducible_by_seed():
    v = smooth_volume(16, 4)
    a, _ = _draw_stage("noise", v, np.random.default_rng(123), _noise_cfg(5.0, 5.0))
    b, _ = _draw_stage("noise", v, np.random.default_rng(123), _noise_cfg(5.0, 5.0))
    c, _ = _draw_stage("noise", v, np.random.default_rng(124), _noise_cfg(5.0, 5.0))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


# -- pipeline -------------------------------------------------------------------------

def test_all_off_corruption_is_identity():
    v = _painted()
    out, record = sb.corrupt(v, np.random.default_rng(0), SeverityConfig.all_off())
    assert out is v
    assert record.empty
    assert not record.renormalized


def test_record_replays_byte_identical():
    v = _painted()
    for seed in range(10):
        out, record = sb.corrupt(v, np.random.default_rng(seed), SeverityConfig.severe())
        replay = sb.apply_corruption(v, record)
        assert np.array_equal(out.data, replay.data)


def test_record_survives_json():
    v = _painted()
    out, record = sb.corrupt(v, np.random.default_rng(5), SeverityConfig.medium())
    wire = json.dumps(record.to_json_dict())
    back = sb.CorruptionRecord.from_json_dict(json.loads(wire))
    assert np.array_equal(sb.apply_corruption(v, back).data, out.data)


def test_corrupted_output_stays_unit_range():
    v = _painted()
    for seed in range(25):
        out, record = sb.corrupt(v, np.random.default_rng(seed), SeverityConfig.severe())
        assert record.renormalized
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        assert np.isfinite(out.data).all()


def test_nan_input_rejected():
    bad = sb.Volume(np.full((8, 8, 8), np.nan))
    with pytest.raises(ValueError):
        sb.corrupt(bad, np.random.default_rng(0), SeverityConfig.mild())


def test_severity_orders_image_fidelity():
    v = _painted(n=32)
    hits = 0
    trials = 50
    for seed in range(trials):
        mild, _ = sb.corrupt(v, np.random.default_rng(seed), SeverityConfig.mild())
        severe, _ = sb.corrupt(v, np.random.default_rng(seed), SeverityConfig.severe())
        if sb.ssim(v, severe) < sb.ssim(v, mild):
            hits += 1
    assert hits >= int(0.9 * trials)


def test_corruption_results_are_read_only_and_own_their_data():
    v = _painted(16)
    cfg = SeverityConfig("severe", 1.0, 0.0, (0.02, 0.04), (0.1, 0.6), (5.0, 15.0))
    record = sample_corruption_record(np.random.default_rng(2), cfg, v)
    assert record.bias and record.resolution and record.noise
    stages = {"bias": record.bias, "resolution": record.resolution, "noise": record.noise}
    for name, params in stages.items():
        out = sb.apply_corruption(v, sb.CorruptionRecord("severe", **{name: params}))
        assert not out.data.flags.writeable, name
        assert not np.shares_memory(out.data, v.data), name
    full = sb.apply_corruption(v, record)
    assert not full.data.flags.writeable
    assert not np.shares_memory(full.data, v.data)
    assert not v.data.flags.writeable and not record.bias_field(v).data.flags.writeable
