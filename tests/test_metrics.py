import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthbrain as sb
from synthbrain import metrics
from synthbrain.deformation import DeformationConfig

from conftest import make_subject, smooth_volume, sphere_labels

import reference_impls as ref


def _vol(arr, **kw):
    return sb.Volume(np.asarray(arr, dtype=np.float64), **kw)


# -- voxelwise metrics -----------------------------------------------------------

def test_l1_closed_form():
    a = _vol(np.zeros((4, 4, 4)))
    b = _vol(np.full((4, 4, 4), 0.25))
    assert sb.l1(a, b) == 0.25
    assert sb.l1(a, a) == 0.0


def test_l1_respects_mask():
    a = _vol(np.zeros((4, 4, 4)))
    data = np.zeros((4, 4, 4))
    data[0] = 1.0
    b = _vol(data)
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[0] = True
    assert sb.l1(a, b, mask=mask) == 1.0
    assert sb.l1(a, b, mask=~mask) == 0.0


def test_l1_loop_oracle(rng):
    a = _vol(rng.random((5, 5, 5)))
    b = _vol(rng.random((5, 5, 5)))
    want = np.mean([abs(a.data[i, j, k] - b.data[i, j, k])
                    for i in range(5) for j in range(5) for k in range(5)])
    assert sb.l1(a, b) == pytest.approx(want, abs=1e-15)


def test_psnr_closed_form():
    a = _vol(np.zeros((4, 4, 4)))
    b = _vol(np.full((4, 4, 4), 0.5))
    # mse = 0.25 → 10 log10(1 / 0.25)
    assert sb.psnr(a, b) == pytest.approx(10 * math.log10(4.0))
    assert sb.psnr(a, b, peak=2.0) == pytest.approx(10 * math.log10(16.0))
    assert sb.psnr(a, a) == math.inf


@pytest.mark.parametrize("peak", [0.0, -1.0, math.nan])
def test_psnr_rejects_a_peak_that_is_not_positive(peak):
    a = _vol(np.zeros((4, 4, 4)))
    with pytest.raises(ValueError, match="peak"):
        sb.psnr(a, _vol(np.full((4, 4, 4), 0.5)), peak=peak)


def test_masked_psnr_uses_only_masked_voxels(rng):
    a = _vol(rng.random((6, 6, 6)))
    b = _vol(rng.random((6, 6, 6)))
    m = rng.random((6, 6, 6)) < 0.3
    mse = np.mean((a.data[m] - b.data[m]) ** 2)
    assert sb.psnr(a, b, peak=2.0, mask=m) == pytest.approx(10 * math.log10(4.0 / mse), rel=1e-12)


def test_empty_mask_rejected():
    a = _vol(np.zeros((4, 4, 4)))
    with pytest.raises(sb.EmptyMask):
        sb.l1(a, a, mask=np.zeros((4, 4, 4), dtype=bool))


# -- structural similarity ---------------------------------------------------------

def test_mask_vanishing_at_a_coarser_scale_raises():
    a, b = smooth_volume(16, 0), smooth_volume(16, 1)
    m = np.zeros((16, 16, 16), dtype=bool)
    m[7, 7, 7] = True  # a valid window center, but 1/8 of its 2x2x2 block
    assert math.isfinite(sb.ms_ssim(a, b, scales=1, window=3, mask=m))
    with pytest.raises(sb.EmptyMask, match="scale 1"):
        sb.ms_ssim(a, b, scales=2, window=3, mask=m)

def test_ssim_identical_is_exactly_one():
    v = smooth_volume(16, 3)
    assert sb.ssim(v, v) == 1.0


def test_ssim_matches_bruteforce():
    rng = np.random.default_rng(0)
    a = _vol(rng.random((8, 8, 8)))
    b = _vol(rng.random((8, 8, 8)))
    got = sb.ssim(a, b, window=3)
    want = np.mean(ref.brute_ssim(a.data, b.data, window=3))
    assert got == pytest.approx(want, abs=1e-6)


def test_ssim_penalizes_noise():
    v = smooth_volume(16, 1)
    noisy = v.with_data(np.clip(v.data + np.random.default_rng(0).normal(0, 0.1, v.dims), 0, 1))
    assert sb.ssim(v, noisy) < 0.9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ssim_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = _vol(rng.random((7, 7, 7)))
    b = _vol(rng.random((7, 7, 7)))
    assert sb.ssim(a, b) == pytest.approx(sb.ssim(b, a), abs=1e-12)


def test_ssim_window_too_large():
    v = smooth_volume(4, 0)
    with pytest.raises(sb.TooSmallForScales):
        sb.ssim(v, v, window=7)


@pytest.mark.parametrize("window", [0, -1])
def test_ssim_window_must_be_positive(window):
    v = smooth_volume(8, 0)
    with pytest.raises(sb.TooSmallForScales, match="window"):
        sb.ssim(v, v, window=window)


def test_ms_ssim_single_scale_equals_ssim():
    rng = np.random.default_rng(5)
    a = _vol(rng.random((12, 12, 12)))
    b = _vol(rng.random((12, 12, 12)))
    assert sb.ms_ssim(a, b, scales=1) == sb.ssim(a, b)


def test_ms_ssim_matches_bruteforce_two_scales():
    rng = np.random.default_rng(2)
    a = _vol(rng.random((16, 16, 16)))
    b = _vol(rng.random((16, 16, 16)))
    got = sb.ms_ssim(a, b, scales=2, window=3)
    want = ref.brute_ms_ssim(a.data, b.data, scales=2, window=3)
    assert got == pytest.approx(want, abs=1e-6)


def test_ms_ssim_identical_is_one():
    v = smooth_volume(32, 2)
    assert sb.ms_ssim(v, v, scales=3) == pytest.approx(1.0, abs=1e-12)


def test_ms_ssim_needs_room_for_scales():
    v = smooth_volume(16, 0)
    with pytest.raises(sb.TooSmallForScales):
        sb.ms_ssim(v, v, scales=3, window=7)  # 16 / 4 = 4 < 7


def test_masked_ssim_ignores_outside_damage():
    v = smooth_volume(24, 4)
    damaged = np.array(v.data)
    damaged[:4] = 0.0  # wreck a region the mask excludes
    mask = np.zeros(v.dims, dtype=bool)
    mask[8:16, 8:16, 8:16] = True
    # scipy's running-sum filter leaks ~1e-16 rounding downstream, so the
    # masked score is 1 only to precision, not bitwise
    assert sb.ssim(v, v.with_data(damaged), mask=mask) == pytest.approx(1.0, abs=1e-12)
    assert sb.ssim(v, v.with_data(damaged)) < 0.95


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("scales", [1, 2, 3])
@pytest.mark.parametrize("window", [3, 7])
def test_one_pass_gives_ssim_and_ms_ssim_exactly(window, scales, masked):
    a, b = smooth_volume(28, 0), smooth_volume(28, 1)
    mask = sphere_labels(28, (11.0,)).data > 0 if masked else None
    got = metrics._ssim_and_ms_ssim(a, b, scales, window, mask=mask)
    want = (sb.ssim(a, b, window=window, mask=mask),
            sb.ms_ssim(a, b, scales=scales, window=window, mask=mask))
    assert got == want


# -- label overlap -------------------------------------------------------------------

def _lm(arr):
    return sb.LabelMap(np.asarray(arr, dtype=np.int16))


def test_dice_perfect_and_disjoint():
    a = np.zeros((4, 4, 4), dtype=np.int16)
    a[:2] = 1
    b = np.zeros((4, 4, 4), dtype=np.int16)
    b[2:] = 1
    assert sb.dice(_lm(a), _lm(a)).mean == 1.0
    assert sb.dice(_lm(a), _lm(b)).mean == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4, 4), dtype=np.int16)
    a[:2] = 1          # 32 voxels
    b = np.zeros((4, 4, 4), dtype=np.int16)
    b[1:3] = 1         # 32 voxels, 16 shared
    scores = sb.dice(_lm(a), _lm(b))
    assert scores.per_label[1] == pytest.approx(0.5)


def test_dice_skips_absent_labels():
    a = np.zeros((4, 4, 4), dtype=np.int16)
    a[0] = 1
    scores = sb.dice(_lm(a), _lm(a), labels=(1, 7))
    assert set(scores.per_label) == {1}


def test_dice_background_excluded_by_default():
    a = np.zeros((4, 4, 4), dtype=np.int16)
    a[0] = 1
    scores = sb.dice(_lm(a), _lm(a))
    assert 0 not in scores.per_label


def test_dice_no_labels_is_an_error():
    a = np.zeros((4, 4, 4), dtype=np.int16)
    with pytest.raises(sb.EmptyLabelSet):
        sb.dice(_lm(a), _lm(a))


# -- bias-field recovery ---------------------------------------------------------------

def test_norm_l2_bias_perfect_estimate_scores_zero(rng):
    field = _vol(np.exp(rng.normal(0, 0.1, (6, 6, 6))))
    assert sb.norm_l2_bias(field, field) == pytest.approx(0.0, abs=1e-12)
    # scale invariance: the optimal global rescale absorbs constant factors
    assert sb.norm_l2_bias(field.with_data(field.data * 3.0), field) == pytest.approx(0.0, abs=1e-12)


def test_norm_l2_bias_matches_bruteforce(rng):
    est = _vol(np.exp(rng.normal(0, 0.2, (5, 5, 5))))
    true = _vol(np.exp(rng.normal(0, 0.2, (5, 5, 5))))
    assert sb.norm_l2_bias(est, true) == pytest.approx(
        ref.brute_norm_l2(est.data, true.data), abs=1e-12
    )


def test_masked_norm_l2_bias_uses_only_masked_voxels(rng):
    est = _vol(np.exp(rng.normal(0, 0.2, (5, 5, 5))))
    true = _vol(np.exp(rng.normal(0, 0.2, (5, 5, 5))))
    m = rng.random((5, 5, 5)) < 0.4
    e, t = est.data[m], true.data[m]
    w = (t * e).sum() / (e * e).sum()
    want = np.sqrt(((w * e - t) ** 2).sum() / (t * t).sum())
    assert sb.norm_l2_bias(est, true, mask=m) == pytest.approx(want, rel=1e-12)
    assert sb.norm_l2_bias(est, true, mask=m) != pytest.approx(sb.norm_l2_bias(est, true))


def test_norm_l2_bias_zero_estimate_rejected():
    z = _vol(np.zeros((4, 4, 4)))
    t = _vol(np.ones((4, 4, 4)))
    with pytest.raises(sb.ZeroEstimate):
        sb.norm_l2_bias(z, t)
    with pytest.raises(ValueError):
        sb.norm_l2_bias(t, z)


# -- feature alignment -----------------------------------------------------------------

def _feature_stack(n=32, seed=0, channels=2):
    vols = [smooth_volume(n, seed + i) for i in range(channels)]
    return sb.VolumeStack(tuple(vols))


def test_warp_stack_through_inverse_of_identity_is_noop():
    f = _feature_stack(16, 0)
    ident = sb.identity_field(f.channels[0])
    out = sb.warp_stack(f, sb.invert(ident))
    for a, b in zip(out.channels, f.channels):
        assert np.array_equal(a.data, b.data)


def test_warp_stack_applies_forward_map():
    f = _feature_stack(16, 3)
    ident = sb.identity_field(f.channels[0])
    out = sb.warp_stack(f, ident)
    for a, b in zip(out.channels, f.channels):
        assert np.array_equal(a.data, b.data)


def test_warp_stack_through_inverse_undoes_deformation():
    subject = make_subject(n=32, seed=6)
    rng = np.random.default_rng(8)
    affine = sb.sample_affine(rng, DeformationConfig())
    svf = sb.sample_svf(rng, DeformationConfig(), subject.mprage)
    fld = sb.build_deformation(affine, svf)
    moved = sb.warp_stack(sb.VolumeStack((subject.mprage,)), fld)
    back = sb.warp_stack(moved, sb.invert(fld))
    mask = sb.interior_mask(subject.labels, erosion=3)
    # two resampling passes on a 32-wide grid cost a little structure; the
    # acceptance-scale bound (0.95 at 64³) is checked elsewhere
    assert sb.ssim(subject.mprage, back.channels[0], mask=mask) >= 0.9


def test_feature_warp_aliases_are_gone():
    for name in ("canonical_features", "atlas_features"):
        assert not hasattr(sb, name)
        assert not hasattr(metrics, name)


def test_interior_mask_erodes():
    lm = sphere_labels(16, (6.0,))
    m0 = sb.interior_mask(lm, erosion=0)
    m2 = sb.interior_mask(lm, erosion=2)
    assert m0.dtype == bool
    assert m2.sum() < m0.sum()
    assert np.array_equal(m0, lm.data > 0)
    assert not m2[~(lm.data > 0)].any()
    with pytest.raises(ValueError, match="erosion"):
        sb.interior_mask(lm, erosion=-1)


# -- protocol report --------------------------------------------------------------------

def _protocol_setup(seed):
    subject = make_subject(n=32, seed=seed)
    f = sb.VolumeStack((subject.mprage, smooth_volume(32, seed + 50)))
    rng = np.random.default_rng(seed)
    fld = sb.build_deformation(
        sb.sample_affine(rng, DeformationConfig()),
        sb.sample_svf(rng, DeformationConfig(), subject.mprage),
    )
    return subject, f, fld


def test_robustness_protocol_intra_report_shape():
    subject, f, fld = _protocol_setup(3)
    moved = sb.warp_stack(f, fld)
    report = sb.robustness_protocol(f, [(moved, fld)], mode="intra",
                                    mask=sb.interior_mask(subject.labels, erosion=3))
    assert set(report.values) == {"l1", "ssim", "ms_ssim"}
    assert all(len(v) == 2 for v in report.values.values())  # 2 channels x 1 candidate
    assert report.masked
    assert report.mean("ssim") > 0.9
    assert report.mean("l1") < 0.05
    payload = report.to_json_dict()
    assert payload["masked"] is True
    assert payload["metrics"]["ssim"]["mean"] == report.mean("ssim")
    text = report.to_text()
    assert "ssim" in text and "ms_ssim" in text


def test_robustness_protocol_perfect_candidate():
    _, f, _ = _protocol_setup(1)
    ident = sb.identity_field(f.channels[0])
    report = sb.robustness_protocol(f, [(f, ident)], mode="intra")
    assert report.mean("l1") == 0.0
    assert report.mean("ssim") == 1.0
    assert report.std("ssim") == 0.0


def test_robustness_protocol_inter_uses_atlas_map():
    _, f, fld = _protocol_setup(2)
    moved = sb.warp_stack(f, fld)
    # in inter mode the candidate's own deformation is unknown; the supplied
    # map plays the role of the registration output
    inv = sb.invert(fld)
    report = sb.robustness_protocol(f, [(moved, inv)], mode="inter")
    assert report.mean("ssim") > 0.7


def test_robustness_protocol_channel_mismatch():
    _, f, fld = _protocol_setup(4)
    single = sb.VolumeStack(f.channels[:1])
    with pytest.raises(sb.ChannelMismatch):
        sb.robustness_protocol(f, [(single, fld)], mode="intra")


def test_robustness_protocol_requires_candidates():
    _, f, _ = _protocol_setup(5)
    with pytest.raises(ValueError):
        sb.robustness_protocol(f, [], mode="intra")
    with pytest.raises(ValueError):
        sb.robustness_protocol(f, [], mode="sideways")


def test_robustness_protocol_values_are_the_scalar_metrics():
    subject, f, fld = _protocol_setup(7)
    moved = sb.warp_stack(f, fld)
    mask = sb.interior_mask(subject.labels, erosion=3)
    report = sb.robustness_protocol(f, [(moved, fld)], mode="intra", mask=mask,
                                    window=5, scales=2)
    back = sb.warp_stack(moved, sb.invert(fld))
    pairs = list(zip(f.channels, back.channels))
    assert report.values == {
        "l1": tuple(sb.l1(r, c, mask) for r, c in pairs),
        "ssim": tuple(sb.ssim(r, c, window=5, mask=mask) for r, c in pairs),
        "ms_ssim": tuple(sb.ms_ssim(r, c, scales=2, window=5, mask=mask) for r, c in pairs),
    }


@pytest.mark.parametrize("mode, inverts", [("intra", 1), ("inter", 0)])
def test_robustness_protocol_inverts_a_shared_field_once(monkeypatch, mode, inverts):
    _, f, fld = _protocol_setup(8)
    moved = sb.warp_stack(f, fld)
    calls = []

    def counting_invert(x):
        calls.append(x)
        return sb.invert(x)

    monkeypatch.setattr(metrics, "invert", counting_invert)
    report = sb.robustness_protocol(f, [(moved, fld)] * 3, mode=mode)
    assert len(calls) == inverts
    assert len(report.values["l1"]) == 3 * f.channel_count


# -- one channel at a time, bit for bit against the protocol as first built -----------

def _evaluation_inputs():
    """A 4-channel reference, two fields (one with provenance, one as read from a
    file) and candidates: c0 and c2 through the first field, c1 through the
    second, and c3, c2's channels on a shifted grid, through the first."""
    subject = make_subject(n=32, seed=11)
    reference = sb.VolumeStack((subject.mprage,) + tuple(smooth_volume(32, 60 + c)
                                                          for c in range(3)))
    rng = np.random.default_rng(11)
    cfg = DeformationConfig(rot_max=5.0, scale_max=0.05, shear_max=0.05)
    fields = [sb.build_deformation(sb.sample_affine(rng, cfg),
                                   sb.sample_svf(rng, cfg, subject.mprage)) for _ in range(2)]
    fields[1] = sb.DeformationField(fields[1].displacement)
    noisy = sb.VolumeStack(tuple(
        ch.with_data(ch.data + rng.normal(0.0, 0.02, ch.dims)) for ch in reference.channels))
    c0, c1, c2 = (sb.warp_stack(s, f) for s, f in ((reference, fields[0]), (noisy, fields[1]),
                                                   (noisy, fields[0])))
    shifted = np.eye(4)
    shifted[0, 3] = 1.5
    c3 = sb.VolumeStack(tuple(sb.Volume(ch.data, grid_to_world=shifted) for ch in c2.channels))
    candidates = [(c0, fields[0]), (c1, fields[1]), (c2, fields[0]), (c3, fields[0])]
    return subject, reference, candidates


@pytest.mark.parametrize("storage", ["memory", ".nii", ".nii.gz"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("case", ["intra, one field", "intra, two fields", "inter, two fields"])
def test_protocol_matches_the_first_protocol_bit_for_bit(tmp_path, storage, masked, case):
    subject, reference, candidates = _evaluation_inputs()
    mode = case.split(",")[0]
    if case == "intra, one field":
        candidates = [candidates[0], candidates[2]]
    mask = sb.interior_mask(subject.labels, erosion=2) if masked else None
    if storage != "memory":
        paths = [tmp_path / f"s{i}{storage}" for i in range(len(candidates) + 1)]
        for path, stack in zip(paths, [reference] + [s for s, _ in candidates]):
            sb.write_nifti_file(path, stack, "float32")
        stacks = [sb.read_volume_stack_file(p) for p in paths]
        want = ref.parent_robustness_protocol(
            stacks[0], [(s, f) for s, (_, f) in zip(stacks[1:], candidates)], mode, mask)
        readers = [sb.StackReader.open(p) for p in paths]
        report = sb.robustness_protocol(
            readers[0], [(r, f) for r, (_, f) in zip(readers[1:], candidates)], mode, mask)
    else:
        want = ref.parent_robustness_protocol(reference, candidates, mode, mask)
        report = sb.robustness_protocol(reference, candidates, mode, mask)
    assert report.values == want
    assert len(want["l1"]) == 4 * len(candidates)
    assert report.to_json() == sb.MetricReport(want, masked=masked).to_json()


def test_ssim_and_ms_ssim_match_the_first_pass_bit_for_bit():
    subject, reference, candidates = _evaluation_inputs()
    mask = sb.interior_mask(subject.labels, erosion=2)
    for (a, b), (window, scales) in zip(zip(reference.channels, candidates[1][0].channels),
                                        [(7, 3), (5, 2), (3, 1), (7, 2)]):
        for m in (None, mask):
            want = ref.parent_ssim_and_ms_ssim(a, b, scales, window, m)
            assert sb.ssim(a, b, window=window, mask=m) == want[0]
            assert sb.ms_ssim(a, b, scales=scales, window=window, mask=m) == want[1]


def test_stacks_are_decoded_by_field_group_then_channel():
    _, reference, candidates = _evaluation_inputs()
    decoded = []

    class Counting:
        def __init__(self, stack, name):
            self.stack, self.name = stack, name
            self.channel_count, self.dims = stack.channel_count, stack.dims
            self.spacing, self.grid_to_world = stack.spacing, stack.grid_to_world

        def channel(self, c):
            decoded.append((self.name, c))
            return self.stack.channel(c)

    pairs = [(Counting(s, f"c{i}"), f) for i, (s, f) in enumerate(candidates)]
    report = sb.robustness_protocol(Counting(reference, "ref"), pairs)
    # each candidate channel once, the reference's once per field and grid:
    # c0 and c2 share the first field and a grid, c3 has its own grid
    groups = [("c0", "c2"), ("c3",), ("c1",)]
    assert decoded == [(name, c) for group in groups for c in range(4)
                       for name in ("ref",) + group]
    assert report.values == sb.robustness_protocol(reference, candidates).values


def test_a_nan_in_a_report_is_refused_as_json():
    report = sb.MetricReport({"l1": (0.5, math.nan)})
    with pytest.raises(ValueError):
        report.to_json()
