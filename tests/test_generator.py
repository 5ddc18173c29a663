import json

import numpy as np
import pytest

import synthbrain as sb
from synthbrain import generator
from synthbrain.corruption import SeverityConfig
from synthbrain.deformation import DeformationConfig

from conftest import make_subject

import reference_impls as ref


def _all_off_schedule(n):
    return [SeverityConfig.all_off()] * n


def test_severity_ladder_spacing():
    assert sb.severity_ladder(1) == ["mild"]
    assert sb.severity_ladder(2) == ["mild", "severe"]
    assert sb.severity_ladder(3) == ["mild", "medium", "severe"]
    assert sb.severity_ladder(4) == ["mild", "medium", "medium", "severe"]
    assert sb.severity_ladder(7) == ["mild", "mild", "medium", "medium", "medium", "severe", "severe"]


def test_batch_is_deterministic(subject32):
    a = sb.generate_batch(subject32, 3, base_seed=7)
    b = sb.generate_batch(subject32, 3, base_seed=7)
    assert np.array_equal(a.target.data, b.target.data)
    for sa, sbatch in zip(a.samples, b.samples):
        assert np.array_equal(sa.image.data, sbatch.image.data)
        assert sa.level == sbatch.level
    c = sb.generate_batch(subject32, 3, base_seed=8)
    assert not np.array_equal(a.samples[0].image.data, c.samples[0].image.data)


def test_default_schedule_is_the_ladder(subject32):
    batch = sb.generate_batch(subject32, 4, base_seed=0)
    assert [s.level for s in batch.samples] == ["mild", "medium", "medium", "severe"]


def test_thread_count_never_changes_output(subject32):
    seq = sb.generate_batch(subject32, 4, base_seed=3, threads=1)
    par = sb.generate_batch(subject32, 4, base_seed=3, threads=8)
    for a, b in zip(seq.samples, par.samples):
        assert np.array_equal(a.image.data, b.image.data)


def test_batch_indexes_the_warped_labels_once(monkeypatch):
    subject = make_subject(24, seed=3)
    unique_args = []
    unique = np.unique

    def counting_unique(ar, *args, **kwargs):
        unique_args.append(ar)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    sb.generate_batch(subject, 4, base_seed=2, threads=2)
    # the input map is only checked for emptiness; the warped map is indexed once
    assert [a is subject.labels.data for a in unique_args] == [True, False]
    assert "_label_index" not in vars(subject.labels)


def test_batch_computes_the_warp_positions_once(subject32, monkeypatch):
    calls = []
    source_voxels = sb.deformation._source_voxels

    def counting(fld, grid_to_world):
        calls.append(fld)
        return source_voxels(fld, grid_to_world)

    monkeypatch.setattr(sb.deformation, "_source_voxels", counting)
    batch = sb.generate_batch(subject32, 2, base_seed=5)
    assert len(calls) == 1 and calls[0] is batch.deformation
    # the labels and the target still match their own warps
    target = sb.minmax_normalize(sb.warp_volume(subject32.mprage, batch.deformation))
    assert target.data.tobytes() == batch.target.data.tobytes()


def test_all_off_sample_reproducible_from_first_principles(subject32):
    """With corruption off, a sample is exactly paint(warp(labels))."""
    batch = sb.generate_batch(
        subject32, 1, base_seed=11,
        schedule=_all_off_schedule(1),
        deform_cfg=DeformationConfig.all_off(),
    )
    rng = sb.make_rng(11, subject32.id, 0)
    params = sb.sample_contrast_params(rng, subject32.labels.label_set)
    expected = sb.paint(subject32.labels, params, rng)
    assert np.array_equal(batch.samples[0].image.data, expected.data)
    # and the target is the normalized anatomy itself (identity warp)
    assert np.array_equal(batch.target.data, sb.minmax_normalize(subject32.mprage).data)


def test_every_sample_shares_the_batch_deformation(subject32):
    batch = sb.generate_batch(subject32, 3, base_seed=5)
    # replaying each record against the shared warped labels reproduces the image
    warped = sb.warp_labels(subject32.labels, batch.deformation)
    for i, s in enumerate(batch.samples):
        rng = sb.make_rng(5, subject32.id, i)
        params = sb.sample_contrast_params(rng, subject32.labels.label_set)
        painted = sb.paint(warped, params, rng)
        replay = sb.apply_corruption(painted, s.record)
        assert np.array_equal(replay.data, s.image.data)


def test_schedule_must_not_decrease(subject32, monkeypatch):
    def no_deformation(*args, **kwargs):
        raise AssertionError("build_deformation called for a rejected schedule")

    # rejected before any work is done
    monkeypatch.setattr(generator, "build_deformation", no_deformation)
    bad = [SeverityConfig.severe(), SeverityConfig.mild()]
    with pytest.raises(ValueError, match="non-decreasing"):
        sb.generate_batch(subject32, 2, base_seed=0, schedule=bad)
    with pytest.raises(ValueError, match="non-decreasing"):
        sb.generate_batch(subject32, 2, base_seed=0, schedule=["severe", "mild"])


def test_schedule_length_checked(subject32):
    with pytest.raises(ValueError):
        sb.generate_batch(subject32, 3, base_seed=0, schedule=[SeverityConfig.mild()])


def test_empty_label_set_rejected():
    lm = sb.LabelMap(np.zeros((8, 8, 8), dtype=np.int16))
    v = sb.Volume(np.zeros((8, 8, 8)))
    subject = sb.SubjectRecord("empty", lm, v)
    with pytest.raises(sb.EmptyLabelSet):
        sb.generate_batch(subject, 1, base_seed=0)


def test_intra_subject_identity_property():
    """Same subject, same seed, different day: identical bytes."""
    for sid in ("alpha", "beta", "gamma"):
        subject = make_subject(n=24, seed=hash(sid) % 100, sid=sid)
        x = sb.generate_batch(subject, 2, base_seed=13)
        y = sb.generate_batch(subject, 2, base_seed=13)
        assert np.array_equal(x.samples[1].image.data, y.samples[1].image.data)
    # different subject ids decorrelate the streams even at equal seeds
    s1 = make_subject(n=24, seed=1, sid="one")
    s2 = make_subject(n=24, seed=1, sid="two")
    a = sb.generate_batch(s1, 1, base_seed=13)
    b = sb.generate_batch(s2, 1, base_seed=13)
    assert not np.array_equal(a.deformation.displacement, b.deformation.displacement)


# -- regression target loss ----------------------------------------------------------

def test_batch_loss_zero_for_perfect_predictions(subject32):
    batch = sb.generate_batch(subject32, 2, base_seed=1)
    assert sb.batch_loss(batch, [batch.target] * 2, lam=1.0) == 0.0


def test_batch_loss_constant_offset_closed_form(subject32):
    batch = sb.generate_batch(subject32, 2, base_seed=1)
    shifted = batch.target.with_data(batch.target.data + 0.25)
    # constant shift: L1 term is 0.25 per sample, gradient term vanishes
    assert sb.batch_loss(batch, [shifted, shifted], lam=5.0) == pytest.approx(0.5)


def test_batch_loss_matches_bruteforce(subject32):
    batch = sb.generate_batch(subject32, 3, base_seed=2)
    preds = [s.image for s in batch.samples]
    got = sb.batch_loss(batch, preds, lam=0.7)
    want = ref.brute_batch_loss(
        [p.data for p in preds], batch.target.data, 0.7, subject32.mprage.spacing
    )
    assert got == pytest.approx(want, rel=1e-6)


def test_batch_loss_rejects_bad_lambda(subject32):
    batch = sb.generate_batch(subject32, 1, base_seed=1)
    with pytest.raises(sb.NonPositiveLambda):
        sb.batch_loss(batch, [batch.target], lam=0.0)


def test_batch_loss_checks_geometry(subject32):
    batch = sb.generate_batch(subject32, 1, base_seed=1)
    small = sb.Volume(np.zeros((8, 8, 8)))
    with pytest.raises(sb.GeometryMismatch):
        sb.batch_loss(batch, [small], lam=1.0)


# -- export ---------------------------------------------------------------------------

def test_export_writes_complete_manifest(tmp_path, subject32):
    batch = sb.generate_batch(subject32, 2, base_seed=9)
    manifest_path = sb.export_batch(batch, tmp_path, seed=9)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subject"] == subject32.id
    assert manifest["seed"] == 9
    assert manifest["n"] == 2
    assert manifest["schedule"] == ["mild", "severe"]
    assert len(manifest["samples"]) == 2
    for i, entry in enumerate(manifest["samples"]):
        assert (tmp_path / entry["file"]).is_file()
        assert entry["level"] == batch.samples[i].level
        record = sb.CorruptionRecord.from_json_dict(entry["record"])
        assert record.level == batch.samples[i].level
    # images and geometry round trip through the files
    img = sb.read_nifti_file(tmp_path / manifest["samples"][0]["file"])
    assert np.allclose(img.data, batch.samples[0].image.data, atol=1e-7)
    target = sb.read_nifti_file(tmp_path / manifest["target"])
    assert np.allclose(target.data, batch.target.data, atol=1e-7)
    stack = sb.read_volume_stack_file(tmp_path / manifest["deformation"])
    assert len(stack.channels) == 3
    assert np.allclose(stack.as_array(), batch.deformation.displacement, atol=1e-4)
