import json
import struct

import numpy as np
import pytest

import synthbrain as sb
from synthbrain.cli import main

from conftest import make_subject, smooth_volume


@pytest.fixture
def subject_files(tmp_path):
    subject = make_subject(n=24, seed=0)
    labels = tmp_path / "labels.nii"
    mprage = tmp_path / "anatomy.nii"
    sb.write_nifti_file(labels, subject.labels, "int16")
    sb.write_nifti_file(mprage, subject.mprage, "float32")
    return subject, labels, mprage


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# -- exit codes -----------------------------------------------------------------

def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["generate", str(tmp_path / "nope.nii"), str(tmp_path / "nope2.nii"),
               "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.nii" in capsys.readouterr().err


def test_non_finite_intercept_exits_2(tmp_path, capsys):
    blob = bytearray(sb.write_nifti(make_subject(n=8).mprage, "int16"))
    struct.pack_into("<2f", blob, 112, 2.0, float("nan"))  # scl_slope, scl_inter
    path = tmp_path / "scaled.nii"
    path.write_bytes(bytes(blob))
    rc = main(["metrics", "--pred", str(path), "--ref", str(path), "--metric", "l1"])
    assert rc == 2
    assert "scaled.nii" in capsys.readouterr().err


def test_geometry_mismatch_exits_3(tmp_path, capsys):
    subject = make_subject(n=16, seed=0)
    other = smooth_volume(12, 1)
    labels = tmp_path / "labels.nii"
    wrong = tmp_path / "anatomy.nii"
    sb.write_nifti_file(labels, subject.labels, "int16")
    sb.write_nifti_file(wrong, other, "float32")
    rc = main(["generate", str(labels), str(wrong), "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 3


def test_channel_mismatch_exits_4(tmp_path):
    ref = sb.VolumeStack((smooth_volume(16, 0), smooth_volume(16, 1)))
    cand = sb.VolumeStack((smooth_volume(16, 2),))
    ident = sb.identity_field(ref.channels[0])
    ref_path = tmp_path / "ref.nii"
    cand_path = tmp_path / "cand.nii"
    fld_path = tmp_path / "fld.nii"
    sb.write_nifti_file(ref_path, ref, "float32")
    sb.write_nifti_file(cand_path, cand, "float32")
    sb.write_nifti_file(fld_path, ident.channels(), "float32")
    manifest = tmp_path / "cands.json"
    manifest.write_text(json.dumps(
        {"candidates": [{"features": "cand.nii", "deformation": "fld.nii"}]}
    ))
    rc = main(["evaluate", "--reference", str(ref_path), "--candidates", str(manifest),
               "--out", str(tmp_path / "r.json")])
    assert rc == 4


def test_singular_fit_exits_5(tmp_path):
    v = smooth_volume(12, 0)
    feats = sb.VolumeStack((v, v))
    f_path = tmp_path / "f.nii"
    t_path = tmp_path / "t.nii"
    sb.write_nifti_file(f_path, feats, "float32")
    sb.write_nifti_file(t_path, smooth_volume(12, 1), "float32")
    rc = main(["fit-adapter", "--features", str(f_path), "--target", str(t_path),
               "--ridge", "0", "--out", str(tmp_path / "a.json")])
    assert rc == 5


def test_bad_usage_exits_64(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    assert main(["generate", str(labels), str(mprage), "--out", str(tmp_path / "o")]) == 64  # no --seed
    assert main(["evaluate", "--mode", "inter", "--reference", str(labels),
                 "--candidates", str(tmp_path / "x.json")]) == 64  # no --atlas-map
    assert main(["metrics", "--pred", str(labels), "--ref", str(labels),
                 "--metric", "bogus"]) == 64
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("doc, entry", [
    ({"candidates": [{"features": "r.nii", "deformation": "d.nii"}, {"deformation": "d.nii"}]},
     "candidates[1] has no 'features'"),
    ({"samples": [{"level": "mild"}], "deformation": "d.nii"}, "samples[0] has no 'file'"),
])
def test_manifest_entry_without_a_file_exits_64(tmp_path, capsys, doc, entry):
    ref_path = tmp_path / "r.nii"
    sb.write_nifti_file(ref_path, sb.VolumeStack((smooth_volume(8, 0),)), "float32")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["evaluate", "--reference", str(ref_path), "--candidates", str(manifest),
               "--out", str(tmp_path / "rep.json")])
    assert rc == 64
    assert entry in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--schedule", "severe,mild"], "non-decreasing"),
    (["--schedule", "mild,severe", "--n", "3"], "schedule length 2"),
])
def test_bad_schedule_is_a_usage_error(tmp_path, subject_files, capsys, flags, message):
    _, labels, mprage = subject_files
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--seed", "1", "--out", str(out), *flags])
    assert rc == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


# -- generate --------------------------------------------------------------------

def test_generate_writes_expected_tree(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    out = tmp_path / "batch"
    rc = main(["generate", str(labels), str(mprage), "--n", "3",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("manifest.json")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["deformation.nii", "manifest.json", "sample_000.nii",
                     "sample_001.nii", "sample_002.nii", "target.nii"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subject"] == "labels"
    assert manifest["seed"] == 11
    assert manifest["schedule"] == ["mild", "medium", "severe"]


def test_generate_reruns_identical(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", str(labels), str(mprage), "--n", "2",
                     "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _tree_bytes(a) == _tree_bytes(b)


def test_generate_schedule_flag_recorded(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--seed", "2",
               "--schedule", "mild,mild,severe", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schedule"] == ["mild", "mild", "severe"]
    assert manifest["n"] == 3  # schedule length wins when --n is absent


def test_generate_config_file_fills_defaults(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run settings\nn = 2\nseed = 9\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["n"] == 2


def test_generate_flag_beats_config(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nn = 4\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "1", "--n", "1", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["n"] == 1


def test_generate_severity_override_via_config(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mild.noise_sigma_min = 0\nmild.noise_sigma_max = 0\n"
                   "mild.p_low_field = 0\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--schedule", "mild", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    record = manifest["samples"][0]["record"]
    assert record["noise"] is None
    assert record["resolution"] is None


def test_generate_integer_deformation_key_via_config(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("deformation.squaring_steps = 5\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--n", "1", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    deform_cfg = sb.DeformationConfig(squaring_steps=5)
    lm = sb.read_nifti_file(labels, as_labels=True)
    rng = sb.make_rng(3, "labels", "deformation")
    affine = sb.sample_affine(rng, deform_cfg)
    expected = sb.build_deformation(affine, sb.sample_svf(rng, deform_cfg, lm), steps=5)
    written = sb.read_volume_stack_file(out / "deformation.nii").as_array()
    assert np.array_equal(written, expected.displacement.astype(np.float32))


@pytest.mark.parametrize("line", ["deformation.rot_max = abc",
                                  "severe.noise_sigma_max = abc"])
def test_malformed_dotted_config_value_exits_64(tmp_path, subject_files, capsys, line):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 64
    assert line.split(" = ")[0] in capsys.readouterr().err


@pytest.mark.parametrize("line,field", [("mild.p_low_field = 2", "p_low_field"),
                                        ("severe.noise_sigma_min = 20", "noise_sigma"),
                                        ("deformation.squaring_steps = 0", "squaring_steps"),
                                        ("deformation.svf_control_spacing = 0",
                                         "svf_control_spacing")])
def test_out_of_range_dotted_config_value_exits_64(tmp_path, subject_files, capsys, line, field):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 64
    assert field in capsys.readouterr().err


def test_range_overrides_apply_together(tmp_path, subject_files, capsys):
    # the new min exceeds mild's preset max (1.0) until the max line is read
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mild.noise_sigma_min = 2\nmild.noise_sigma_max = 3\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--schedule", "mild", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    record = json.loads((out / "manifest.json").read_text())["samples"][0]["record"]
    assert 2.0 / 255.0 <= record["noise"]["sigma"] <= 3.0 / 255.0


@pytest.mark.parametrize("command,line", [
    ("metrics", "windw = 9"),
    ("metrics", "severe.bogus = 1"),
    ("metrics", "severe.noise_sigma_max = 20"),  # a generate-only key
    ("generate", "windw = 9"),
])
def test_unknown_config_key_exits_64(tmp_path, subject_files, capsys, command, line):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    if command == "metrics":
        argv = ["metrics", "--pred", str(mprage), "--ref", str(mprage), "--metric", "l1"]
    else:
        argv = ["generate", str(labels), str(mprage), "--seed", "3", "--out", str(tmp_path / "o")]
    assert main(argv + ["--config", str(cfg)]) == 64
    assert line.split(" = ")[0] in capsys.readouterr().err


def test_directory_as_input_exits_2_naming_it(tmp_path, subject_files, capsys):
    _, _, mprage = subject_files
    folder = tmp_path / "inputs"
    folder.mkdir()
    rc = main(["generate", str(folder), str(mprage), "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(folder) in err
    assert "directory" in err.replace(str(folder), "").lower()  # not "no such file"


# -- metrics ---------------------------------------------------------------------

def test_metrics_self_ssim_prints_one(tmp_path, capsys):
    v = smooth_volume(16, 3)
    p = tmp_path / "v.nii"
    sb.write_nifti_file(p, v, "float32")
    rc = main(["metrics", "--pred", str(p), "--ref", str(p), "--metric", "ssim"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_metrics_dice_output_format(tmp_path, capsys):
    subject = make_subject(n=16, seed=1)
    p = tmp_path / "l.nii"
    sb.write_nifti_file(p, subject.labels, "int16")
    rc = main(["metrics", "--pred", str(p), "--ref", str(p), "--metric", "dice"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1.000000"
    assert lines[1].split() == ["label", "1", "1.000000"]


def test_metrics_norml2_scale_invariant(tmp_path, capsys):
    v = smooth_volume(12, 2)
    doubled = v.with_data(v.data * 2.0)
    a, b = tmp_path / "a.nii", tmp_path / "b.nii"
    sb.write_nifti_file(a, doubled, "float32")
    sb.write_nifti_file(b, v, "float32")
    rc = main(["metrics", "--pred", str(a), "--ref", str(b), "--metric", "norml2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_metrics_l1_value(tmp_path, capsys):
    a = sb.Volume(np.zeros((8, 8, 8)))
    b = sb.Volume(np.full((8, 8, 8), 0.5))
    pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
    sb.write_nifti_file(pa, a, "float32")
    sb.write_nifti_file(pb, b, "float32")
    rc = main(["metrics", "--pred", str(pa), "--ref", str(pb), "--metric", "l1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.500000"


def test_metrics_config_file_fills_defaults(tmp_path, capsys):
    a = sb.Volume(np.zeros((8, 8, 8)))
    b = sb.Volume(np.full((8, 8, 8), 0.5))
    pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
    sb.write_nifti_file(pa, a, "float32")
    sb.write_nifti_file(pb, b, "float32")
    cfg = tmp_path / "m.cfg"
    cfg.write_text("peak = 2.0\n")
    base = ["metrics", "--pred", str(pa), "--ref", str(pb), "--metric", "psnr"]
    assert main(base + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == f"{10 * np.log10(4.0 / 0.25):.6f}"
    assert main(base + ["--config", str(cfg), "--peak", "1"]) == 0  # flag beats config
    assert capsys.readouterr().out.strip() == f"{10 * np.log10(1.0 / 0.25):.6f}"
    cfg.write_text("window = 9\n")  # 8^3 volume cannot host a 9-voxel window
    ssim_args = ["metrics", "--pred", str(pa), "--ref", str(pb), "--metric", "ssim"]
    assert main(ssim_args + ["--config", str(cfg)]) == 2
    assert main(ssim_args + ["--config", str(tmp_path / "missing.cfg")]) == 2
    cfg.write_text("window = abc\n")
    assert main(ssim_args + ["--config", str(cfg)]) == 64
    assert main(ssim_args + ["--config", str(cfg), "--window", "7"]) == 0  # flag beats config


# -- evaluate ---------------------------------------------------------------------

def test_evaluate_consumes_generate_manifest(tmp_path, subject_files, capsys):
    subject, labels, mprage = subject_files
    out = tmp_path / "batch"
    assert main(["generate", str(labels), str(mprage), "--n", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--reference", str(out / "target.nii"),
               "--candidates", str(out / "manifest.json"),
               "--mask", str(labels), "--erosion", "2", "--scales", "2",
               "--out", str(report_path)])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["masked"] is True
    assert set(report["metrics"]) == {"l1", "ssim", "ms_ssim"}
    assert len(report["metrics"]["ssim"]["values"]) == 2
    # the printed table and the JSON agree
    mean = report["metrics"]["ssim"]["mean"]
    assert f"{mean:.4f}" in captured.out
    assert str(report_path) in captured.err


def test_evaluate_inter_mode_with_atlas_map(tmp_path, capsys):
    ref = sb.VolumeStack((smooth_volume(16, 0),))
    ident = sb.identity_field(ref.channels[0])
    ref_path, cand_path, fld_path = (tmp_path / n for n in ("r.nii", "c.nii", "f.nii"))
    sb.write_nifti_file(ref_path, ref, "float32")
    sb.write_nifti_file(cand_path, ref, "float32")
    sb.write_nifti_file(fld_path, ident.channels(), "float32")
    manifest = tmp_path / "cands.json"
    # inter mode reads only the atlas map, so a missing candidate deformation is fine
    manifest.write_text(json.dumps({"candidates": [
        {"features": "c.nii"}, {"features": "c.nii", "deformation": "missing.nii"}
    ]}))
    rc = main(["evaluate", "--mode", "inter", "--reference", str(ref_path),
               "--candidates", str(manifest), "--atlas-map", str(fld_path),
               "--scales", "1", "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["metrics"]["l1"]["mean"] == 0.0
    capsys.readouterr()


def test_evaluate_reads_a_shared_deformation_once(tmp_path, subject_files, capsys, monkeypatch):
    _, labels, mprage = subject_files
    out = tmp_path / "batch"
    assert main(["generate", str(labels), str(mprage), "--n", "3",
                 "--seed", "4", "--out", str(out)]) == 0
    # the same three samples, as a candidates list naming one deformation file
    cands = out / "cands.json"
    cands.write_text(json.dumps({"candidates": [
        {"features": f"sample_00{i}.nii", "deformation": "deformation.nii"} for i in range(3)
    ]}))
    calls = []

    def counting_invert(fld):
        calls.append(fld)
        return sb.invert(fld)

    monkeypatch.setattr(sb.metrics, "invert", counting_invert)
    reports = []
    for manifest in ("manifest.json", "cands.json"):
        calls.clear()
        report = tmp_path / f"{manifest}.report"
        assert main(["evaluate", "--reference", str(out / "target.nii"),
                     "--candidates", str(out / manifest), "--mask", str(labels),
                     "--scales", "2", "--out", str(report)]) == 0
        assert len(calls) == 1
        reports.append(report.read_bytes())
    # a generate manifest already shared one field; the list now matches it
    assert reports[0] == reports[1]
    capsys.readouterr()


# -- fit-adapter --------------------------------------------------------------------

def test_fit_adapter_end_to_end(tmp_path, capsys):
    feats = sb.VolumeStack(tuple(smooth_volume(12, i) for i in range(3)))
    w = np.array([0.5, -1.0, 2.0])
    x = np.stack([c.data.ravel() for c in feats.channels], axis=1)
    target = sb.Volume((x @ w + 0.25).reshape(feats.dims))
    f_path, t_path = tmp_path / "f.nii", tmp_path / "t.nii"
    sb.write_nifti_file(f_path, feats, "float32")
    sb.write_nifti_file(t_path, target, "float32")
    out = tmp_path / "adapter.json"
    rc = main(["fit-adapter", "--features", str(f_path), "--target", str(t_path),
               "--ridge", "0", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "residual_l1" in printed
    adapter = sb.load_adapter(out)
    # float32 serialization of inputs costs ~1e-7 per voxel
    assert np.abs(adapter.weights[:, 0] - w).max() < 1e-4
    payload = json.loads(out.read_text())
    assert payload["residuals"]["residual_l1"] < 1e-5
