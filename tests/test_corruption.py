import copy
import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

import synthbrain as sb
from synthbrain.corruption import (
    SEVERITY_LEVELS,
    SeverityConfig,
    _apply_resolution,
    sample_corruption_record,
)

from conftest import smooth_volume, sphere_labels
from reference_impls import apply_bias, bias_from_coarse, full_grid_resolution, gather_trilinear


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
    assert SeverityConfig.by_name("OFF") == SeverityConfig.all_off()
    with pytest.raises(ValueError, match=r"expected one of off, mild, medium, severe\)"):
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
    # the record is refused when it is built, before any stage reads it
    with pytest.raises(ValueError, match=message):
        _from_wire(bias={"mu": 0.0, "sigma": 0.0, "coarse": np.asarray(coarse).tolist()})


def _from_wire(**stages) -> sb.CorruptionRecord:
    """A record with the given stage entries, as read back from its JSON."""
    wire = json.loads(json.dumps({"level": "severe", **stages}))
    return sb.CorruptionRecord.from_json_dict(wire)


@pytest.mark.parametrize("stages, message", [
    ({"resolution": {"target_spacing": [2.0, 2.0, 2.0, 9.0]}}, "target_spacing"),
    ({"resolution": {"target_spacing": [4.0]}}, "target_spacing"),
    ({"resolution": {"target_spacing": [2.0, np.nan, 2.0]}}, "target_spacing"),
    ({"resolution": {"target_spacing": [2.0, 0.0, 2.0]}}, "target_spacing"),
    ({"resolution": {"target_spacing": [-2.0, 2.0, 2.0]}}, "target_spacing"),
    ({"resolution": {"target_spacing": [2.0, 2.0, np.inf]}}, "target_spacing"),
    ({"noise": {"sigma": np.nan, "seed": 1}}, "sigma"),
    ({"noise": {"sigma": -0.1, "seed": 1}}, "sigma"),
    ({"noise": {"sigma": 0.1, "seed": 1.5}}, "seed"),
    ({"noise": {"sigma": 0.1, "seed": -1}}, "seed"),
    ({"noise": {"sigma": 0.1, "seed": 2 ** 63}}, "seed"),
    # JSON values of the wrong type, and a missing entry
    ({"noise": {"sigma": 0.1, "seed": "5"}}, "seed"),
    ({"noise": {"sigma": 0.1, "seed": None}}, "seed"),
    ({"noise": {"sigma": 0.1}}, "seed"),
    ({"resolution": {"target_spacing": ["3", 3, 3]}}, "target_spacing"),
    ({"resolution": {"target_spacing": None}}, "target_spacing"),
])
def test_an_outside_record_with_a_bad_stage_entry_is_rejected(stages, message):
    with pytest.raises(ValueError, match=message):
        sb.apply_corruption(smooth_volume(8, 0), _from_wire(**stages))


@pytest.mark.parametrize("entry, name", [
    ({"bias": {"mu": 0.0}}, "'bias'"),
    ({"noise": [0.1, 5]}, "'noise'"),
    ({"resolution": "2"}, "'resolution'"),
    ({"renormalized": "no"}, "'renormalized'"),
])
def test_an_outside_record_with_a_misshapen_entry_is_rejected_naming_it(entry, name):
    wire = sb.CorruptionRecord("severe").to_json_dict()
    wire.update(entry)
    with pytest.raises(ValueError, match=f"record entry {name}"):
        sb.apply_corruption(smooth_volume(8, 0), sb.CorruptionRecord.from_json_dict(wire))


@pytest.mark.parametrize("stages, message", [
    ({"noise": {"sigma": True, "seed": 1}}, "'noise': sigma"),
    ({"noise": {"sigma": 0.1, "seed": True}}, "'noise': seed"),
    ({"resolution": {"target_spacing": [True, 2, 2]}}, "'resolution': target_spacing"),
    ({"bias": {"coarse": [[[True]]]}}, "'bias': coarse log-field"),
    ({"bias": {"coarse": [[[0.1, False]]]}}, "'bias': coarse log-field"),
    ({"bias": {"coarse": [[[]]]}}, "'bias': coarse grid must be 3D"),
    ({"bias": {"coarse": [[[0.1], [0.1, 0.2]]]}}, "'bias': coarse grid must be 3D"),
    ({"level": 3}, "'level'"),
    # JSON integers are unbounded; one no float holds is not a number either
    ({"noise": {"sigma": 10 ** 400, "seed": 1}}, "'noise': sigma"),
    ({"resolution": {"target_spacing": [10 ** 400, 2, 2]}}, "'resolution': target_spacing"),
    ({"bias": {"coarse": [[[10 ** 400]]]}}, "'bias': coarse log-field"),
])
def test_json_true_and_other_non_numbers_are_refused_naming_the_entry(stages, message):
    # JSON true parses as a bool, which Python counts as an int; a record refuses it
    with pytest.raises(ValueError, match=f"record entry {message}"):
        _from_wire(**stages)


def test_a_record_document_that_is_not_an_object_or_has_no_level_is_refused():
    with pytest.raises(ValueError, match="a record must be an object"):
        sb.CorruptionRecord.from_json_dict([1, 2])
    with pytest.raises(ValueError, match="record entry 'level'"):
        sb.CorruptionRecord.from_json_dict({"bias": None})


@pytest.mark.parametrize("key", ["noize", "renormalised"])
def test_a_record_document_with_an_unknown_key_is_refused_naming_it(key):
    wire = sb.CorruptionRecord("severe").to_json_dict()
    wire[key] = None
    with pytest.raises(ValueError, match=f"unknown record entries: '{key}'"):
        sb.CorruptionRecord.from_json_dict(wire)


def test_a_checked_record_cannot_be_written():
    record = _all_stages_record(smooth_volume(8, 0))
    # sigma True used to replay as sigma 1, and seed -5 to fail inside numpy
    for stage, key, value in [("noise", "sigma", True), ("noise", "seed", -5), ("bias", "mu", 0.0),
                              ("resolution", "target_spacing", (1.0, 1.0, 1.0))]:
        with pytest.raises(TypeError):
            getattr(record, stage)[key] = value
    # nor can the arrays inside an entry
    with pytest.raises(TypeError):
        record.resolution["target_spacing"][0] = 1.0
    with pytest.raises(TypeError):
        record.bias["coarse"][0][0][0] = 0.0
    # the record holds a copy: the caller's dict, changed afterwards, is not read
    noise = {"sigma": 0.1, "seed": 1}
    built = sb.CorruptionRecord("severe", noise=noise)
    noise["sigma"] = True
    assert built.noise["sigma"] == 0.1


def test_a_record_pickles_and_deep_copies_to_an_equal_one():
    v = smooth_volume(8, 0)
    record = _all_stages_record(v)
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert back == record and back is not record
        assert back.to_json_dict() == record.to_json_dict()
        replayed = sb.apply_corruption(v, back).data
        assert replayed.tobytes() == sb.apply_corruption(v, record).data.tobytes()
    assert copy.deepcopy(sb.CorruptionRecord("off")) == sb.CorruptionRecord("off")


def test_a_record_builds_from_another_records_entries():
    v = smooth_volume(8, 0)
    record = _all_stages_record(v)
    bias_only = sb.CorruptionRecord("severe", bias=record.bias)
    assert bias_only.bias == record.bias and bias_only.noise is None
    every = sb.CorruptionRecord(record.level, record.bias, record.resolution, record.noise, True)
    assert every == record
    # the checked entries read back as JSON values
    wire = record.to_json_dict()
    assert type(wire["bias"]) is dict and type(wire["bias"]["coarse"][0][0]) is list
    assert type(wire["resolution"]["target_spacing"]) is list
    assert json.loads(json.dumps(wire)) == wire


def test_numpy_values_in_a_record_are_held_as_plain_python():
    coarse = np.random.default_rng(0).normal(0.0, 0.1, (4, 4, 4))
    record = sb.CorruptionRecord("severe", bias={"coarse": coarse},
                                 noise={"sigma": np.float64(0.1), "seed": np.int64(5)})
    assert record.bias["coarse"] == _bias_record(coarse).bias["coarse"]
    assert type(record.noise["seed"]) is int
    coarse[0, 0, 0] = np.nan  # the caller's array is not read again
    assert json.loads(json.dumps(record.to_json_dict())) == record.to_json_dict()
    assert sb.CorruptionRecord.from_json_dict(record.to_json_dict()) == record


def test_an_integer_valued_float_seed_is_that_integer():
    v = smooth_volume(12, 0)
    records = [_from_wire(noise={"sigma": 0.1, "seed": seed}) for seed in (7, 7.0)]
    assert np.array_equal(*(sb.apply_corruption(v, r).data for r in records))


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
        json.dumps(sample_corruption_record(rng, SeverityConfig.by_name(level), like).to_json_dict(),
                   indent=2, sort_keys=True)
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


@pytest.mark.parametrize("dims, target", [
    ((64, 60, 56), (1.5, 1.5, 1.5)),
    ((64, 60, 56), (3.0, 3.0, 3.0)),
    ((64, 60, 56), (4.0, 4.0, 4.0)),
    ((64, 60, 56), (6.0, 1.2, 0.9)),
    ((64, 60, 56), (1.0, 5.5, 0.9)),
    ((64, 60, 56), (1.0, 1.2, 7.0)),
    ((64, 1, 56), (3.0, 3.0, 3.0)),
])
def test_resolution_matches_the_full_grid_route(dims, target):
    # the acquisition on its own coarse grid is the same linear map as the
    # full-grid blur and (n, n) down-then-up matrices, up to rounding
    data = np.random.default_rng(len(dims) + int(10 * sum(target))).random(dims)
    v = sb.Volume(data, spacing=(1.0, 1.2, 0.9))
    rec = sb.CorruptionRecord("custom", resolution={"target_spacing": list(target), "kind": "x"})
    got = sb.apply_corruption(v, rec)
    assert got.dims == v.dims
    assert np.max(np.abs(got.data - full_grid_resolution(data, v.spacing, target))) <= 1e-14


@pytest.mark.parametrize("r", [1.5, 3.0, 4.0])
def test_low_field_resolution_holds_at_most_two_grids(r):
    data = np.random.default_rng(0).random((96, 96, 96))
    tracemalloc.start()
    try:
        out = _apply_resolution(data, (1.0, 1.0, 1.0), (r, r, r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and its last per-axis input; the full-grid blur and (n, n)
    # matrices took 3.03 grids
    assert peak <= 2 * data.nbytes
    assert out.shape == data.shape


def _res_cfg(p_low=0.0, p_aniso=0.0):
    return SeverityConfig(
        "custom", p_low_field=p_low, p_anisotropic=p_aniso,
        bias_mu=(0, 0), bias_sigma=(0, 0), noise_sigma=(0, 0),
    )


def _resolution(target, kind="low-field"):
    return sb.CorruptionRecord("custom", resolution={"target_spacing": list(target), "kind": kind})


def test_drawn_spacings_stay_in_the_fixed_ranges():
    v = smooth_volume(8, 0, spacing=(1.0, 1.2, 0.9))
    kinds = {"low-field": [], "anisotropic": []}
    for seed in range(400):
        rng = np.random.default_rng(seed)
        res = sample_corruption_record(rng, _res_cfg(0.5, 0.5), v).resolution
        target = res["target_spacing"]
        if res["kind"] == "low-field":
            assert target[0] == target[1] == target[2]
            kinds["low-field"].append(target[0])
        else:
            (axis,) = [i for i in range(3) if target[i] != v.spacing[i]]
            kinds["anisotropic"].append(target[axis])
    for kind, (lo, hi) in (("low-field", (1.5, 4.0)), ("anisotropic", (2.5, 7.0))):
        drawn = np.array(kinds[kind])
        assert drawn.size > 150 and lo <= drawn.min() and drawn.max() <= hi
        # the draws fill the range, not some part of it
        assert drawn.min() < lo + 0.1 * (hi - lo) and drawn.max() > hi - 0.1 * (hi - lo)


@settings(max_examples=40, deadline=None)
@example(dims=(20, 18, 16), value=0.25, target=(3.0, 3.0, 3.0))  # 13.5% speckle before
@given(dims=st.tuples(*[st.integers(1, 24)] * 3),
       value=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
       target=st.tuples(*[st.floats(0.5, 8.0)] * 3))
def test_a_constant_image_renormalizes_to_zeros_after_any_resolution(dims, value, target):
    v = sb.Volume(np.full(dims, value))
    rec = sb.CorruptionRecord("custom", resolution={"target_spacing": list(target), "kind": "x"},
                              renormalized=True)
    out = sb.apply_corruption(v, rec).data
    # the resolution stage spreads a constant by rounding; none of it is signal
    assert out.tobytes() == np.zeros(dims).tobytes()


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 24)] * 3),
       value=st.floats(1e-9, 123.0),
       log=st.floats(-1.0, 1.0),
       coarse=st.tuples(*[st.integers(1, 8)] * 3),
       target=st.one_of(st.none(), st.just((3.0, 3.0, 3.0)), st.just((1.0, 1.0, 5.5))))
def test_a_constant_image_renormalizes_to_zeros_after_a_constant_bias(dims, value, log, coarse,
                                                                      target):
    # a constant log grid is a constant field, so the biased image is constant too
    v = sb.Volume(np.full(dims, value))
    bias = {"mu": log, "sigma": 0.0, "coarse": np.full(coarse, log).tolist()}
    resolution = None if target is None else {"target_spacing": list(target), "kind": "x"}
    rec = sb.CorruptionRecord("custom", bias=bias, resolution=resolution, renormalized=True)
    out = sb.apply_corruption(v, rec).data
    assert out.tobytes() == np.zeros(dims).tobytes()


def test_native_resolution_is_identity():
    v = smooth_volume(16, 2)
    rng = np.random.default_rng(0)
    record = sample_corruption_record(rng, _res_cfg(), v)
    assert record.bias is record.resolution is record.noise is None
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
    out = sb.apply_corruption(v, _resolution((3.0, 3.0, 3.0)))
    assert out.dims == v.dims
    assert sb.same_geometry(out, v)
    # detail is lost: high-frequency residual shrinks
    assert out.data.std() < v.data.std()


def test_thicker_slices_destroy_more_detail():
    worse = []
    for seed in range(20):
        v = smooth_volume(32, seed)
        a = sb.apply_corruption(v, _resolution((3.0, 3.0, 3.0)))
        b = sb.apply_corruption(v, _resolution((7.0, 7.0, 7.0)))
        worse.append(sb.psnr(v, b) < sb.psnr(v, a))
    assert all(worse)


def test_anisotropic_thickens_exactly_one_axis():
    v = smooth_volume(16, 5, spacing=(1.0, 1.2, 0.9))
    for seed in range(20):
        _, res = _draw_stage("resolution", v, np.random.default_rng(seed), _res_cfg(p_aniso=1.0))
        assert res["kind"] == "anisotropic"
        thick_axes = [i for i, t in enumerate(res["target_spacing"]) if t != v.spacing[i]]
        assert len(thick_axes) == 1


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_thick_axis_loses_more_detail_than_the_others(axis):
    v = smooth_volume(32, 5)
    target = [1.0, 1.0, 1.0]
    target[axis] = 6.0
    out = sb.apply_corruption(v, _resolution(target, "anisotropic"))
    # detail along the untouched axes survives better than along the thick one
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
    assert record.bias is record.resolution is record.noise is None
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


@pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-9, 0.01, 0.2])
def test_noise_replays_the_bytes_of_a_normal_draw(sigma):
    dims = (12, 10, 8)
    images = [np.full(dims, 0.5), np.full(dims, -0.0), np.zeros(dims), smooth_volume(12, 1).data[:, :10, :8]]
    for seed in (0, 1, 7, 2 ** 40):
        record = _from_wire(noise={"sigma": sigma, "seed": seed})
        for data in images:
            got = sb.apply_corruption(sb.Volume(data), record).data
            want = np.clip(np.random.default_rng(seed).normal(0.0, sigma, dims) + data, 0.0, 1.0)
            # tobytes, unlike ==, tells -0.0 from +0.0
            assert got.tobytes() == want.tobytes()


# -- pipeline -------------------------------------------------------------------------

def test_all_off_corruption_is_identity():
    v = _painted()
    out, record = sb.corrupt(v, np.random.default_rng(0), SeverityConfig.all_off())
    assert out is v
    assert record.bias is record.resolution is record.noise is None
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


def _all_stages_record(v, seed=2):
    cfg = SeverityConfig("severe", 1.0, 0.0, (0.02, 0.04), (0.1, 0.6), (5.0, 15.0))
    record = sample_corruption_record(np.random.default_rng(seed), cfg, v)
    assert record.bias and record.resolution and record.noise and record.renormalized
    return record


@pytest.mark.parametrize("stages", [(), ("bias",), ("resolution",), ("noise",),
                                    ("bias", "resolution", "noise")])
def test_renormalizing_in_the_pipeline_buffer_gives_minmax_normalize_bytes(stages):
    v = _painted(16)
    full = _all_stages_record(v)
    before = v.data.tobytes()
    params = {name: getattr(full, name) for name in stages}
    out = sb.apply_corruption(v, sb.CorruptionRecord("severe", renormalized=True, **params))
    raw = sb.apply_corruption(v, sb.CorruptionRecord("severe", **params))
    assert (raw is v) == (not stages)
    assert out.data.tobytes() == sb.minmax_normalize(raw).data.tobytes()
    # the argument is never written, even when no stage runs and it comes back
    assert v.data.tobytes() == before and not v.data.flags.writeable
    assert not out.data.flags.writeable and not np.shares_memory(out.data, v.data)


def test_a_constant_result_renormalizes_to_positive_zeros():
    v = sb.Volume(np.full((6, 5, 4), 0.25))
    # a zero log grid: a field of exactly 1, so the biased image stays constant
    bias = {"mu": 0.0, "sigma": 0.0, "coarse": np.zeros((4, 4, 4)).tolist()}
    rec = sb.CorruptionRecord("custom", bias=bias, renormalized=True)
    out = sb.apply_corruption(v, rec)
    assert out.data.tobytes() == np.zeros(v.dims).tobytes()
    assert v.data.tobytes() == np.full((6, 5, 4), 0.25).tobytes()


def test_corruption_results_are_read_only_and_own_their_data():
    v = _painted(16)
    record = _all_stages_record(v)
    stages = {"bias": record.bias, "resolution": record.resolution, "noise": record.noise}
    for name, params in stages.items():
        out = sb.apply_corruption(v, sb.CorruptionRecord("severe", **{name: params}))
        assert not out.data.flags.writeable, name
        assert not np.shares_memory(out.data, v.data), name
    full = sb.apply_corruption(v, record)
    assert not full.data.flags.writeable
    assert not np.shares_memory(full.data, v.data)
    assert not v.data.flags.writeable and not record.bias_field(v).data.flags.writeable
