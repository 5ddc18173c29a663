import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import synthbrain as sb

from conftest import smooth_volume, sphere_labels
from reference_impls import full_matrix_apply, full_matrix_fit, full_matrix_residual


def _stack(n, channels, seed=0):
    return sb.VolumeStack(tuple(smooth_volume(n, seed + i) for i in range(channels)))


def _apply_plant(features, w, b):
    x = np.stack([c.data.ravel() for c in features.channels], axis=1)
    return sb.Volume((x @ w + b).reshape(features.dims))


def test_planted_map_recovered_exactly():
    feats = _stack(16, 5, seed=3)
    w = np.array([0.4, -1.2, 0.05, 2.0, -0.3])
    target = _apply_plant(feats, w, 0.7)
    adapter = sb.fit_adapter(feats, target, ridge=0.0)
    assert np.abs(adapter.weights[:, 0] - w).max() < 1e-8
    assert abs(adapter.bias[0] - 0.7) < 1e-8
    res = sb.fit_residual(adapter, feats, target)
    assert res["residual_l1"] < 1e-9
    assert res["residual_l2"] < 1e-15


def test_memory_layout_does_not_change_the_fit():
    # NIfTI data arrives Fortran-ordered; a target or input image may not
    feats = _stack(12, 3, seed=2)
    target = _apply_plant(feats, np.array([0.5, -1.0, 2.0]), 0.3)
    target = target.with_data(target.data + 0.1 * smooth_volume(12, 50).data)
    image = smooth_volume(12, 60)
    fortran = sb.VolumeStack(tuple(c.with_data(np.asfortranarray(c.data)) for c in feats.channels))
    assert fortran.channels[0].data.flags.f_contiguous and image.data.flags.c_contiguous
    ref = sb.fit_adapter(feats, target, concat_input=image)
    got = sb.fit_adapter(fortran, target, concat_input=image)
    assert np.abs(got.weights - ref.weights).max() < 1e-9
    assert np.abs(got.bias - ref.bias).max() < 1e-9
    pred_ref = sb.apply_adapter(ref, feats, image).channels[0].data
    pred = sb.apply_adapter(got, fortran, image).channels[0].data
    assert np.abs(pred - pred_ref).max() < 1e-9
    assert sb.fit_residual(got, fortran, target, image) == pytest.approx(
        sb.fit_residual(ref, feats, target, image), rel=1e-9)


def test_single_channel_identity_fit():
    v = smooth_volume(12, 1)
    adapter = sb.fit_adapter(sb.VolumeStack((v,)), v, ridge=0.0)
    assert adapter.weights[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert adapter.bias[0] == pytest.approx(0.0, abs=1e-10)


def test_constant_target_lands_in_bias():
    feats = _stack(12, 3, seed=9)
    # zero-mean the features so the intercept must absorb the constant
    centered = sb.VolumeStack(tuple(
        c.with_data(c.data - c.data.mean()) for c in feats.channels
    ))
    target = sb.Volume(np.full(centered.dims, 0.42))
    adapter = sb.fit_adapter(centered, target, ridge=0.0)
    assert abs(adapter.bias[0] - 0.42) < 1e-9
    assert np.abs(adapter.weights).max() < 1e-9


def test_concat_mode_recovers_input_coefficient():
    feats = _stack(16, 3, seed=5)
    image = smooth_volume(16, 77)
    w = np.array([0.25, -0.5, 1.5])
    target = sb.Volume(_apply_plant(feats, w, 0.1).data + 0.8 * image.data)
    adapter = sb.fit_adapter(feats, target, concat_input=image, ridge=0.0)
    assert adapter.uses_input
    # the concatenated image takes the last weight row
    assert adapter.weights[-1, 0] == pytest.approx(0.8, abs=1e-6)
    assert np.abs(adapter.weights[:3, 0] - w).max() < 1e-6
    out = sb.apply_adapter(adapter, feats, concat_input=image)
    assert np.abs(out.channels[0].data - target.data).max() < 1e-6


def test_ridge_shrinks_weights_monotonically():
    feats = _stack(12, 4, seed=2)
    target = smooth_volume(12, 50)
    norms = [
        float(np.linalg.norm(sb.fit_adapter(feats, target, ridge=r).weights))
        for r in (0.0, 1.0, 100.0, 10_000.0)
    ]
    assert norms == sorted(norms, reverse=True)


def test_apply_is_linear_in_features():
    feats = _stack(10, 2, seed=4)
    doubled = sb.VolumeStack(tuple(c.with_data(2 * c.data) for c in feats.channels))
    adapter = sb.fit_adapter(feats, smooth_volume(10, 8))
    a = sb.apply_adapter(adapter, feats).channels[0].data
    b = sb.apply_adapter(adapter, doubled).channels[0].data
    bias = adapter.bias[0]
    assert np.allclose(b - bias, 2 * (a - bias), atol=1e-9)


def test_softmax_head_outputs_probabilities():
    feats = _stack(10, 3, seed=6)
    targets = sb.VolumeStack(tuple(smooth_volume(10, 60 + i) for i in range(4)))
    adapter = sb.fit_adapter(feats, targets, softmax=True)
    probs = sb.apply_adapter(adapter, feats)
    arr = probs.as_array()
    assert arr.min() >= 0.0
    assert np.allclose(arr.sum(axis=-1) if arr.shape[-1] == 4 else arr.sum(axis=0), 1.0, atol=1e-9)


def test_rank_deficient_without_ridge_raises():
    v = smooth_volume(10, 0)
    dup = sb.VolumeStack((v, v))  # identical channels
    with pytest.raises(sb.SingularSystem):
        sb.fit_adapter(dup, smooth_volume(10, 1), ridge=0.0)
    # a small ridge regularizes the same system
    adapter = sb.fit_adapter(dup, smooth_volume(10, 1), ridge=1e-6)
    assert np.isfinite(adapter.weights).all()


def test_too_few_voxels_rejected():
    feats = sb.VolumeStack(tuple(
        sb.Volume(np.random.default_rng(i).random((1, 2, 2))) for i in range(7)
    ))
    target = sb.Volume(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="voxels"):
        sb.fit_adapter(feats, target)


def test_apply_channel_checks():
    feats = _stack(10, 3, seed=1)
    adapter = sb.fit_adapter(feats, smooth_volume(10, 2))
    with pytest.raises(sb.ChannelMismatch):
        sb.apply_adapter(adapter, _stack(10, 2, seed=1))
    with pytest.raises(sb.ChannelMismatch):
        sb.apply_adapter(adapter, feats, concat_input=smooth_volume(10, 3))
    for call in (sb.fit_residual, lambda *a: sb.apply_adapter(*a[:2])):
        with pytest.raises(sb.ChannelMismatch):
            call(adapter, _stack(10, 2, seed=1), smooth_volume(10, 2))
    # residuals against a target with another channel count than the head's outputs
    with pytest.raises(sb.ChannelMismatch, match="outputs"):
        sb.fit_residual(adapter, feats, _stack(10, 2, seed=7))


# -- slab sums against one full design matrix -------------------------------------

def _layout(stack, layout):
    return sb.VolumeStack(tuple(
        c.with_data(np.asfortranarray(c.data) if layout == "F" else c.data) for c in stack.channels
    ))


def _arrays(stack):
    return [c.data for c in stack.channels]


# 36³ cuts into a full 32 768-voxel slab and a partial one
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("case", ["one output", "three outputs", "concat"])
def test_slab_fit_matches_the_full_matrix_fit_on_planted_maps(layout, case):
    feats = _layout(_stack(36, 5, seed=3), layout)
    rng = np.random.default_rng(4)
    outputs = 3 if case == "three outputs" else 1
    w, b = rng.normal(0.0, 1.0, (5, outputs)), rng.normal(0.0, 1.0, outputs)
    x = np.stack([c.data.ravel() for c in feats.channels], axis=1)
    image = smooth_volume(36, 77) if case == "concat" else None
    y = x @ w + b + (0.8 * image.data.reshape(-1, 1) if image is not None else 0.0)
    target = sb.VolumeStack(tuple(sb.Volume(col.reshape(feats.dims)) for col in y.T))
    got = sb.fit_adapter(feats, target, concat_input=image, ridge=0.0)
    ref_w, ref_b = full_matrix_fit(
        _arrays(feats), _arrays(target), None if image is None else image.data, ridge=0.0)
    assert np.abs(got.weights - ref_w).max() <= 1e-10
    assert np.abs(got.bias - ref_b).max() <= 1e-10


def _tanh_stack(n, layout):
    """A perfbench-like feature stack: tanh of one noisy image smoothed at 8
    widths and 4 gains, so its 32 channels are strongly collinear."""
    image = np.random.default_rng(11).random((n, n, n))
    chans = []
    for c in range(32):
        smooth = gaussian_filter(image, 0.5 + 0.5 * (c % 8))
        chans.append(sb.Volume(np.tanh((1 + c // 8) * 2.0 * (smooth - 0.5))))
    return _layout(sb.VolumeStack(tuple(chans)), layout), image


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("head", ["linear", "softmax", "concat"])
def test_slab_fit_matches_the_full_matrix_fit_on_a_collinear_stack(layout, head):
    feats, image = _tanh_stack(36, layout)
    softmax = head == "softmax"
    concat = sb.Volume(gaussian_filter(image, 1.0)) if head == "concat" else None
    outputs = 3 if softmax else 1
    target = sb.VolumeStack(tuple(
        sb.Volume(gaussian_filter(image, 1.0 + i)) for i in range(outputs)))
    concat_data = None if concat is None else concat.data
    adapter = sb.fit_adapter(feats, target, concat_input=concat, softmax=softmax)
    ref_w, ref_b = full_matrix_fit(_arrays(feats), _arrays(target), concat_data)
    got = sb.fit_residual(adapter, feats, target, concat)
    ref = full_matrix_residual(ref_w, ref_b, _arrays(feats), _arrays(target), concat_data, softmax)
    for name in ("residual_l1", "residual_l2"):
        assert got[name] == pytest.approx(ref[name], rel=1e-6)
    # the same head applied slab by slab and in one product
    out = sb.apply_adapter(adapter, feats, concat)
    want = full_matrix_apply(adapter.weights, adapter.bias, _arrays(feats), concat_data, softmax)
    assert np.abs(np.stack([c.data.ravel() for c in out.channels]) - want).max() <= 1e-9


def test_fit_holds_one_design_block_beyond_its_inputs():
    feats, image = _tanh_stack(48, "F")
    target = sb.Volume(np.asfortranarray(image))
    tracemalloc.start()
    try:
        adapter = sb.fit_adapter(feats, target)
        sb.fit_residual(adapter, feats, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 design block of 33 rows by a 32 768-voxel slab and the
    # target's size; a full (33, 48³) matrix is 29 MB
    block = 33 * 32_768 * 8
    assert peak <= block + target.data.nbytes


# -- task losses -----------------------------------------------------------------

def _one_hot_stack(lm, labels):
    chans = tuple(
        sb.Volume((lm.data == lab).astype(np.float64), lm.spacing, lm.grid_to_world)
        for lab in labels
    )
    return sb.VolumeStack(chans)


def test_soft_dice_ce_zero_for_perfect_one_hot():
    lm = sphere_labels(12, (5.0, 3.0))
    labels = sorted(set(np.unique(lm.data)))
    probs = _one_hot_stack(lm, labels)
    loss = sb.soft_dice_ce_loss(probs, lm, labels=labels)
    # dice term hits 0 exactly; CE pays only the log-eps clamp
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_soft_dice_ce_uniform_probs_closed_form():
    lm = sphere_labels(12, (5.0, 3.0))
    labels = sorted(set(np.unique(lm.data)))
    k = len(labels)
    flat = sb.VolumeStack(tuple(
        sb.Volume(np.full(lm.dims, 1.0 / k), lm.spacing, lm.grid_to_world)
        for _ in labels
    ))
    loss = sb.soft_dice_ce_loss(flat, lm, labels=labels)
    # CE of the uniform predictor is ln k; soft dice of p=1/k against a
    # one-hot reference is 2·(s_l/k)/(n/k + s_l) per label
    n = lm.data.size
    dice_terms = [2 * (lm.data == lab).sum() / k / (n / k + (lm.data == lab).sum())
                  for lab in labels]
    want = (1 - np.mean(dice_terms)) + math.log(k)
    assert loss == pytest.approx(want, rel=1e-9)


def test_soft_dice_ce_brute_force_agreement(rng):
    lm = sphere_labels(10, (4.0, 2.0))
    labels = sorted(set(np.unique(lm.data)))
    k = len(labels)
    raw = rng.random((*lm.dims, k)) + 0.05
    raw /= raw.sum(axis=-1, keepdims=True)
    probs = sb.VolumeStack(tuple(
        sb.Volume(raw[..., c], lm.spacing, lm.grid_to_world) for c in range(k)
    ))
    got = sb.soft_dice_ce_loss(probs, lm, labels=labels)

    eps = 1e-12
    dice_sum = 0.0
    for c, lab in enumerate(labels):
        ref_mask = (lm.data == lab).astype(float)
        inter = float((raw[..., c] * ref_mask).sum())
        sizes = float(raw[..., c].sum() + ref_mask.sum())
        dice_sum += (2 * inter + eps) / (sizes + eps)
    index = {lab: c for c, lab in enumerate(labels)}
    ce = -np.mean([
        math.log(max(raw[i, j, kk, index[lm.data[i, j, kk]]], 1e-12))
        for i in range(10) for j in range(10) for kk in range(10)
    ])
    want = (1 - dice_sum / k) + ce
    assert got == pytest.approx(want, rel=1e-9)


def test_soft_dice_ce_rejects_non_simplex():
    lm = sphere_labels(8, (3.0,))
    bad = sb.VolumeStack((
        sb.Volume(np.full(lm.dims, 0.7), lm.spacing, lm.grid_to_world),
        sb.Volume(np.full(lm.dims, 0.7), lm.spacing, lm.grid_to_world),
    ))
    with pytest.raises(sb.NotASimplex):
        sb.soft_dice_ce_loss(bad, lm, labels=(0, 1))


# -- persistence -------------------------------------------------------------------

def test_adapter_round_trips_through_json(tmp_path):
    feats = _stack(12, 4, seed=11)
    adapter = sb.fit_adapter(feats, smooth_volume(12, 30))
    sb.save_adapter(tmp_path / "head.json", adapter)
    back = sb.load_adapter(tmp_path / "head.json")
    assert np.array_equal(back.weights, adapter.weights)
    assert np.array_equal(back.bias, adapter.bias)
    assert back.uses_input == adapter.uses_input
    assert back.softmax == adapter.softmax
    a = sb.apply_adapter(adapter, feats).channels[0].data
    b = sb.apply_adapter(back, feats).channels[0].data
    assert np.array_equal(a, b)


def test_adapter_file_round_trip_with_extras(tmp_path):
    feats = _stack(10, 2, seed=7)
    target = smooth_volume(10, 70)
    adapter = sb.fit_adapter(feats, target)
    res = sb.fit_residual(adapter, feats, target)
    path = tmp_path / "head.json"
    sb.save_adapter(path, adapter, extra=res)
    back = sb.load_adapter(path)
    assert np.array_equal(back.weights, adapter.weights)
    payload = json.loads(path.read_text())
    assert payload["residual_l1"] == res["residual_l1"]


def test_saved_adapter_is_its_json_text(tmp_path):
    feats = _stack(10, 2, seed=8)
    target = smooth_volume(10, 71)
    adapter = sb.fit_adapter(feats, target)
    path = tmp_path / "head.json"
    sb.save_adapter(path, adapter)
    doc = {
        "bias": adapter.bias.tolist(),
        "shape": [2, 1],
        "softmax": False,
        "uses_input": False,
        "weights": adapter.weights.ravel().tolist(),
    }
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # with extras: the adapter's keys and the extras, in one sorted document
    extra = sb.fit_residual(adapter, feats, target)
    sb.save_adapter(path, adapter, extra=extra)
    doc = {**doc, **extra}
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_a_concat_softmax_head_round_trips_through_its_file(tmp_path):
    adapter = sb.LinearAdapter(np.arange(6.0).reshape(3, 2), np.array([0.5, -1.0]),
                               uses_input=True, softmax=True)
    sb.save_adapter(tmp_path / "head.json", adapter, extra={"residuals": {"residual_l1": 0.1}})
    back = sb.load_adapter(tmp_path / "head.json")
    assert back.weights.tobytes() == adapter.weights.tobytes()
    assert back.bias.tobytes() == adapter.bias.tobytes()
    assert back.uses_input is True and back.softmax is True


_MISSING = object()


@pytest.mark.parametrize("entry, value, named", [
    ("uses_input", "no", "uses_input"),
    ("softmax", "false", "softmax"),
    ("softmax", 1, "softmax"),
    ("shape", [2.5, 1], "shape"),
    ("shape", [2, True], "shape"),
    ("shape", [0, 1], "shape"),
    ("shape", [2, 1, 1], "shape"),
    ("shape", _MISSING, "shape"),
    ("shape", [3, 1], "weights"),
    ("weights", [1.0, True], "weights"),
    ("weights", [1.0, "2"], "weights"),
    ("weights", [[1.0], [2.0]], "weights"),
    ("weights", [1.0, float("nan")], "weights"),
    ("weights", [1.0, 10 ** 400], "weights"),
    ("bias", _MISSING, "bias"),
    ("bias", [0.0, 0.0], "bias"),
    ("bias", 0.0, "bias"),
])
def test_load_adapter_refuses_a_misread_entry_naming_it(tmp_path, entry, value, named):
    doc = {"shape": [2, 1], "weights": [1.0, 2.0], "bias": [0.5],
           "uses_input": False, "softmax": False}
    if value is _MISSING:
        del doc[entry]
    else:
        doc[entry] = value
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"head.json: adapter entry '{named}'"):
        sb.load_adapter(path)


def test_load_adapter_refuses_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "head.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="head.json: an adapter must be a JSON object"):
        sb.load_adapter(path)


def test_a_nan_residual_is_refused_before_the_file_is_written(tmp_path):
    adapter = sb.LinearAdapter(np.eye(2), np.zeros(2))
    path = tmp_path / "a.json"
    with pytest.raises(ValueError):
        sb.save_adapter(path, adapter, extra={"residuals": {"residual_l1": math.nan}})
    assert not path.exists()


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_stack_reader_fits_as_its_decoded_stack(tmp_path, order):
    feats = sb.VolumeStack(tuple(smooth_volume(36, i) for i in range(4)))
    target = smooth_volume(36, 9)
    path = tmp_path / "f.nii"
    sb.write_nifti_file(path, feats, "float32")
    decoded = sb.read_volume_stack_file(path)
    # a target in the other layout, or a stack file next to in-memory features
    target = target.with_data(np.asarray(target.data, order=order))
    reader = sb.StackReader.open(path)
    got = sb.fit_adapter(reader, target)
    want = sb.fit_adapter(decoded, target)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert sb.fit_residual(got, reader, target) == sb.fit_residual(want, decoded, target)
    c_ordered = sb.VolumeStack(tuple(ch.with_data(np.ascontiguousarray(ch.data))
                                     for ch in decoded.channels))
    on_file = sb.fit_adapter(c_ordered, reader)
    assert on_file.weights.tobytes() == sb.fit_adapter(c_ordered, decoded).weights.tobytes()
