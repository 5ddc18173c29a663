import json
import math

import numpy as np
import pytest

import synthbrain as sb

from conftest import smooth_volume, sphere_labels


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


def test_l2_loss_closed_form(rng):
    a = sb.Volume(rng.random((6, 6, 6)))
    b = sb.Volume(rng.random((6, 6, 6)))
    want = np.mean([(a.data[i, j, k] - b.data[i, j, k]) ** 2
                    for i in range(6) for j in range(6) for k in range(6)])
    assert sb.l2_loss(a, b) == pytest.approx(want, abs=1e-15)
    assert sb.l2_loss(a, a) == 0.0


# -- persistence -------------------------------------------------------------------

def test_adapter_round_trips_through_json():
    feats = _stack(12, 4, seed=11)
    adapter = sb.fit_adapter(feats, smooth_volume(12, 30))
    back = sb.adapter_from_json(sb.adapter_to_json(adapter))
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
    assert path.read_text() == sb.adapter_to_json(adapter) + "\n"
    # with extras: the adapter's keys and the extras, in one sorted document
    extra = sb.fit_residual(adapter, feats, target)
    sb.save_adapter(path, adapter, extra=extra)
    doc = {**json.loads(sb.adapter_to_json(adapter)), **extra}
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
