import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import synthbrain as sb
from synthbrain import generator
from synthbrain.corruption import SeverityConfig

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
    # the input map is only checked for emptiness, without np.unique or its
    # label set; the warped map is indexed once
    assert [a is subject.labels.data for a in unique_args] == [False]
    assert "label_set" not in vars(subject.labels)
    assert "_foreground_index" not in vars(subject.labels)
    assert "_foreground" not in vars(subject.labels)


def test_batch_gathers_the_foreground_label_index_before_painting(subject32, monkeypatch):
    from synthbrain import generator

    seen = []
    paint = generator.paint

    def checking_paint(lm, *args, **kwargs):
        seen.append("_foreground_index" in vars(lm))
        return paint(lm, *args, **kwargs)

    monkeypatch.setattr(generator, "paint", checking_paint)
    sb.generate_batch(subject32, 3, base_seed=4, threads=2)
    assert seen == [True] * 3


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


def test_near_equal_grids_share_the_warp_positions(monkeypatch):
    subject = make_subject(24, seed=3)
    g2w = np.array(subject.mprage.grid_to_world)
    g2w[:3, 3] += 1e-7  # within same_geometry's tolerance, so a valid subject
    mprage = sb.Volume(subject.mprage.data, subject.mprage.spacing, g2w)
    shifted = sb.SubjectRecord(subject.id, subject.labels, mprage)
    calls = []
    source_voxels = sb.deformation._source_voxels

    def counting(fld, grid_to_world):
        calls.append(fld)
        return source_voxels(fld, grid_to_world)

    monkeypatch.setattr(sb.deformation, "_source_voxels", counting)
    batch = sb.generate_batch(shifted, 1, base_seed=5)
    assert len(calls) == 1
    target = sb.minmax_normalize(sb.warp_volume(mprage, batch.deformation))
    np.testing.assert_allclose(batch.target.data, target.data, rtol=0.0, atol=1e-6)


def test_sample_level_is_its_record_level(subject32):
    image = subject32.mprage
    for level in ("off", "mild", "severe"):
        record = sb.CorruptionRecord(level)
        assert sb.Sample(image, record).level == record.level == level


def test_threads_come_only_from_the_argument(subject32, monkeypatch):
    monkeypatch.setenv("SYNTHBRAIN_THREADS", "abc")
    batch = sb.generate_batch(subject32, 2, base_seed=1)
    assert batch.batch_size == 2


@pytest.mark.parametrize("threads", [0, -3])
def test_fewer_than_one_thread_is_rejected(subject32, threads):
    with pytest.raises(ValueError, match="threads"):
        sb.generate_batch(subject32, 2, base_seed=1, threads=threads)


def test_all_off_sample_reproducible_from_first_principles(subject32):
    """With corruption off, a sample is exactly paint(warp(labels))."""
    batch = sb.generate_batch(
        subject32, 1, base_seed=11,
        schedule=_all_off_schedule(1),
    )
    rng = sb.make_rng(11, subject32.id, 0)
    params = sb.sample_contrast_params(rng, subject32.labels.label_set)
    expected = sb.paint(subject32.labels, params, rng)
    assert np.array_equal(batch.samples[0].image.data, expected.data)
    # and the target is the normalized anatomy itself (identity warp)
    assert np.array_equal(batch.target.data, sb.minmax_normalize(subject32.mprage).data)


def test_a_zero_deformation_leaves_a_sheared_subject_untouched(monkeypatch):
    # "off" first: the batch's deformation is exactly zero
    subject = make_subject(20, seed=2)
    m = np.array([[1.0, 0.1, 0.0, -5.0], [0.0, 1.2, 0.05, 3.0], [0.0, 0.0, 0.9, 1.0], [0, 0, 0, 1]])
    sheared = sb.SubjectRecord(subject.id, sb.LabelMap(subject.labels.data, (1.0, 1.2, 0.9), m),
                               sb.Volume(subject.mprage.data, (1.0, 1.2, 0.9), m))
    painted = []
    paint = sb.generator.paint
    monkeypatch.setattr(sb.generator, "paint", lambda lm, *args: painted.append(lm) or paint(lm, *args))
    batch = sb.generate_batch(sheared, 2, base_seed=4, schedule=["off", "mild"])
    assert not batch.deformation.displacement.any()
    assert all(lm is sheared.labels for lm in painted)
    assert batch.target.data.tobytes() == sb.minmax_normalize(sheared.mprage).data.tobytes()


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
    with pytest.raises(ValueError, match="non-decreasing, got severe, mild$"):
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


@pytest.mark.parametrize("threads, labels", [(0, 1), (1, 0)])
def test_a_rejected_write_batch_creates_nothing(tmp_path, threads, labels):
    subject = sb.SubjectRecord("s", sb.LabelMap(np.full((8, 8, 8), labels, dtype=np.int16)),
                               sb.Volume(np.zeros((8, 8, 8))))
    out = tmp_path / "batch"
    with pytest.raises(sb.EmptyLabelSet if labels == 0 else ValueError):
        sb.write_batch(subject, 1, 0, out, threads=threads)
    assert not out.exists()


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
    manifest_path = sb.write_batch(subject32, 2, 9, tmp_path)
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


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _sheared(subject):
    m = np.array([[1.0, 0.1, 0.0, -5.0], [0.0, 1.2, 0.05, 3.0], [0.0, 0.0, 0.9, 1.0], [0, 0, 0, 1]])
    return sb.SubjectRecord(subject.id, sb.LabelMap(subject.labels.data, (1.0, 1.2, 0.9), m),
                            sb.Volume(subject.mprage.data, (1.0, 1.2, 0.9), m))


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("case", ["ladder", "sheared", "sheared-off-first"])
def test_write_batch_writes_the_exported_tree(tmp_path, threads, case):
    subject = make_subject(20, seed=4)
    schedule = None
    if case != "ladder":
        subject = _sheared(subject)
    if case == "sheared-off-first":
        schedule = ["off", "mild", "mild", "medium", "severe"]
    batch = sb.generate_batch(subject, 5, base_seed=6, schedule=schedule, threads=threads)
    written = sb.write_batch(subject, 5, 6, tmp_path, schedule=schedule, threads=threads)
    assert written == tmp_path / "manifest.json"
    files = _tree_bytes(tmp_path)
    manifest = json.loads(files.pop("manifest.json"))
    expected = {"target.nii": sb.write_nifti(batch.target),
                "deformation.nii": sb.write_nifti(batch.deformation.channels())}
    expected.update((f"sample_{i:03d}.nii", sb.write_nifti(s.image)) for i, s in enumerate(batch.samples))
    assert files == expected
    assert {k: manifest[k] for k in ("subject", "seed", "n", "schedule")} == {
        "subject": subject.id, "seed": 6, "n": 5, "schedule": [s.level for s in batch.samples]}
    entries = [{"file": f"sample_{i:03d}.nii", "level": s.level, "record": s.record.to_json_dict()}
               for i, s in enumerate(batch.samples)]
    assert manifest["samples"] == json.loads(json.dumps(entries))


def test_write_batch_memory_does_not_grow_with_the_batch(tmp_path):
    subject = make_subject(32, seed=1)
    volume = 32 ** 3 * 8  # one float64 grid, two float32 samples

    def peak(fn, n):
        tracemalloc.start()
        try:
            fn(n, tmp_path / f"{fn.__name__}{n}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def streamed(n, out):
        sb.write_batch(subject, n, 3, out, threads=2)

    def in_memory(n, out):
        sb.generate_batch(subject, n, 3, threads=2)

    # 50 more float32 samples: the in-memory route holds each of them until it returns
    assert peak(in_memory, 54) - peak(in_memory, 4) > 15 * volume
    assert peak(streamed, 54) - peak(streamed, 4) < 3 * volume


# -- float32 samples ------------------------------------------------------------------

def test_samples_are_float32_and_the_target_float64(subject32):
    batch = sb.generate_batch(subject32, 3, base_seed=2)
    assert batch.target.data.dtype == np.float64
    for s in batch.samples:
        assert s.image.data.dtype == np.float32 and not s.image.data.flags.writeable
        assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0


def test_batch_loss_on_float32_samples_is_the_loss_on_their_float64_copies(subject32):
    batch = sb.generate_batch(subject32, 3, base_seed=2)
    preds = [s.image for s in batch.samples]
    copies = [sb.Volume(p.data) for p in preds]
    assert sb.batch_loss(batch, preds, lam=0.7) == sb.batch_loss(batch, copies, lam=0.7)
    # a float32 target too: the loss is summed in float64 either way
    as32 = dataclasses.replace(batch, target=preds[0])
    as64 = dataclasses.replace(batch, target=copies[0])
    assert sb.batch_loss(as32, preds, lam=0.7) == sb.batch_loss(as64, copies, lam=0.7)


def test_one_sample_at_96_traces_at_most_two_and_a_quarter_float64_grids():
    subject = make_subject(96, seed=0)
    # each level with every stage drawn: low-field, then anisotropic, resolution
    cfgs = [dataclasses.replace(SeverityConfig.by_name(level), p_low_field=p, p_anisotropic=1.0 - p)
            for level in ("mild", "medium", "severe") for p in (1.0, 0.0)]
    _, _, make_sample = generator._prepare(subject, 5, cfgs)
    grid = 96 ** 3 * 8
    for i, cfg in enumerate(cfgs):
        tracemalloc.start()
        try:
            sample = make_sample(i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = sample.record
        assert record.bias and record.resolution and record.noise, cfg
        # these samples trace 1.59-1.78 grids (3.17-3.55 with float64 stages)
        assert peak <= 2.25 * grid, (cfg.level, record.resolution["kind"], peak / grid)


def test_a_sample_replays_bit_exactly_from_its_manifest_record(tmp_path, subject32):
    manifest = json.loads(sb.write_batch(subject32, 4, 8, tmp_path, threads=2).read_text())
    warped = sb.warp_labels(subject32.labels, sb.generate_batch(subject32, 1, 8).deformation)
    for i, entry in enumerate(manifest["samples"]):
        rng = sb.make_rng(manifest["seed"], manifest["subject"], i)
        painted = sb.paint(warped, sb.sample_contrast_params(rng, warped.label_set), rng)
        record = sb.CorruptionRecord.from_json_dict(entry["record"])
        image = sb.apply_corruption(painted, record)
        assert sb.write_nifti(image) == (tmp_path / entry["file"]).read_bytes()


@pytest.mark.parametrize("seed", [2 ** 127, -(2 ** 127) - 1])
def test_a_seed_outside_128_bits_is_rejected_before_anything_is_written(tmp_path, subject32, seed):
    out = tmp_path / "batch"
    with pytest.raises(ValueError, match="signed 128-bit"):
        sb.write_batch(subject32, 1, seed, out)
    assert not out.exists()
    with pytest.raises(ValueError, match="signed 128-bit"):
        sb.generate_batch(subject32, 1, seed)
