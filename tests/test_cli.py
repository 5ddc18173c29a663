import gzip
import json
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import synthbrain as sb
from synthbrain.cli import _load_config, _severity_presets, main

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


@pytest.mark.parametrize("offset, value, field", [
    (108, float("inf"), "vox_offset"), (108, float("nan"), "vox_offset"),
    (80, float("nan"), "pixdim[1]"), (84, float("inf"), "pixdim[2]"),
    (280, float("nan"), "srow"),  # srow_x[0]
])
def test_non_finite_header_exits_2_naming_the_file(tmp_path, capsys, offset, value, field):
    blob = bytearray(sb.write_nifti(make_subject(n=8).mprage, "float32"))
    struct.pack_into("<f", blob, offset, value)
    path = tmp_path / "header.nii"
    path.write_bytes(bytes(blob))
    rc = main(["metrics", "--pred", str(path), "--ref", str(path), "--metric", "l1"])
    assert rc == 2
    assert f"{path}: {field}" in capsys.readouterr().err


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
    ident = sb.DeformationField(np.zeros(ref.dims + (3,)), ref.spacing, ref.grid_to_world)
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


def test_two_channel_deformation_exits_4(tmp_path, capsys):
    ref = sb.VolumeStack((smooth_volume(16, 0),))
    ref_path, fld_path = tmp_path / "ref.nii", tmp_path / "fld.nii"
    sb.write_nifti_file(ref_path, ref, "float32")
    sb.write_nifti_file(fld_path, sb.VolumeStack(ref.channels * 2), "float32")
    manifest = tmp_path / "cands.json"
    manifest.write_text(json.dumps(
        {"candidates": [{"features": "ref.nii", "deformation": "fld.nii"}]}
    ))
    rc = main(["evaluate", "--reference", str(ref_path), "--candidates", str(manifest),
               "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "fld.nii" in capsys.readouterr().err


def test_two_channel_atlas_map_exits_4(tmp_path, capsys):
    ref = sb.VolumeStack((smooth_volume(16, 0),))
    ref_path, fld_path = tmp_path / "ref.nii", tmp_path / "atlas.nii"
    sb.write_nifti_file(ref_path, ref, "float32")
    sb.write_nifti_file(fld_path, sb.VolumeStack(ref.channels * 2), "float32")
    manifest = tmp_path / "cands.json"
    manifest.write_text(json.dumps({"candidates": [{"features": "ref.nii"}]}))
    rc = main(["evaluate", "--mode", "inter", "--reference", str(ref_path),
               "--candidates", str(manifest), "--atlas-map", str(fld_path),
               "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert f"{fld_path}: a deformation needs 3 channels, found 2" in capsys.readouterr().err


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


def test_truncated_features_exit_2_naming_the_file(tmp_path, capsys):
    feats = sb.VolumeStack(tuple(smooth_volume(12, i) for i in range(3)))
    f_path, t_path = tmp_path / "f.nii", tmp_path / "t.nii"
    f_path.write_bytes(sb.write_nifti(feats, "float32")[:-4])
    sb.write_nifti_file(t_path, smooth_volume(12, 5), "float32")
    rc = main(["fit-adapter", "--features", str(f_path), "--target", str(t_path),
               "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert f"{f_path}: data needs" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()

def test_bad_usage_exits_64(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    assert main(["generate", str(labels), str(mprage), "--out", str(tmp_path / "o")]) == 64  # no --seed
    assert main(["evaluate", "--mode", "inter", "--reference", str(labels),
                 "--candidates", str(tmp_path / "x.json")]) == 64  # no --atlas-map
    assert main(["metrics", "--pred", str(labels), "--ref", str(labels),
                 "--metric", "bogus"]) == 64
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


def test_generate_usage_errors_exit_64(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    base = ["generate", str(labels), str(mprage), "--seed", "1"]
    assert main(base) == 64  # no --out
    assert "--out" in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(base + ["--out", str(out), "--schedule", "mild,bogus"]) == 64
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("doc, message", [
    ({"samples": 5}, "'samples' is not a list of objects"),
    ({"samples": [3], "deformation": "x.nii"}, "'samples' is not a list of objects"),
    ({"candidates": [{"features": "r.nii", "deformation": 7}]},
     "candidates[0]: 'features' and 'deformation' must be strings"),
    ({"samples": [{"file": "r.nii"}], "deformation": ["x.nii"]},
     "samples[0]: 'file' and 'deformation' must be strings"),
    ({"candidates": [{"features": None, "deformation": "d.nii"}]},
     "candidates[0]: 'features' and 'deformation' must be strings"),
    ([{"features": "r.nii"}], "neither 'candidates' nor 'samples' present"),
    ({"samples": [], "deformation": "d.nii"}, "'samples' is empty"),
    ({"candidates": []}, "'candidates' is empty"),
])
def test_malformed_manifest_exits_64_naming_it(tmp_path, capsys, doc, message):
    ref_path = tmp_path / "r.nii"
    sb.write_nifti_file(ref_path, sb.VolumeStack((smooth_volume(8, 0),)), "float32")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    rc = main(["evaluate", "--reference", str(ref_path), "--candidates", str(manifest),
               "--out", str(tmp_path / "rep.json")])
    assert rc == 64
    assert f"{manifest}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("blob, message", [
    (b'{"samples": [{"file": "sample_000.nii"', "not valid JSON"),
    (b'{"candidates": [{"features": "\xff.nii"}]}', "not UTF-8 text"),
])
def test_a_manifest_that_cannot_be_parsed_exits_2_naming_it(tmp_path, capsys, blob, message):
    ref_path = tmp_path / "r.nii"
    sb.write_nifti_file(ref_path, sb.VolumeStack((smooth_volume(8, 0),)), "float32")
    manifest = tmp_path / "m.json"
    manifest.write_bytes(blob)
    rc = main(["evaluate", "--reference", str(ref_path), "--candidates", str(manifest),
               "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    assert f"error: {manifest}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--schedule", "severe,mild"], "non-decreasing"),
    (["--schedule", "mild,severe", "--n", "3"], "schedule length 2"),
    # an empty schedule names no level; it used to be read as no schedule
    (["--schedule", ""], "unknown severity level ''"),
    (["--schedule", "", "--n", "2"], "unknown severity level ''"),
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


def test_generate_on_a_grid_coarser_than_the_svf_lattice(tmp_path, capsys):
    # 20 mm voxels against 16 mm between SVF control points
    subject = make_subject(n=12, seed=0)
    labels, mprage, out = tmp_path / "labels.nii", tmp_path / "anatomy.nii", tmp_path / "o"
    sb.write_nifti_file(labels, sb.LabelMap(subject.labels.data, (20.0, 20.0, 20.0)), "int16")
    sb.write_nifti_file(mprage, sb.Volume(subject.mprage.data, (20.0, 20.0, 20.0)), "float32")
    rc = main(["generate", str(labels), str(mprage), "--n", "4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "deformation.nii", "manifest.json", *(f"sample_{i:03d}.nii" for i in range(4)),
        "target.nii"]
    assert np.isfinite(sb.read_volume_stack_file(out / "deformation.nii").as_array()).all()


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


@pytest.mark.parametrize("line", ["n = 2", "seed = 9"])
def test_a_run_setting_in_the_config_exits_64_naming_its_flag(tmp_path, subject_files, capsys,
                                                              line):
    # run settings are flags; the config file holds only the presets' dotted keys
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run settings\n{line}\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(out)])
    assert rc == 64
    key = line.split(" = ")[0]
    err = capsys.readouterr().err
    assert f"config key {key}:" in err and f"use --{key}" in err
    assert not out.exists()


def test_a_malformed_or_missing_config_file_fails_before_out_is_made(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window 7\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(out)])
    assert rc == 64
    assert f"{cfg}:1: expected KEY=VALUE" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["generate", str(labels), str(mprage), "--config", str(tmp_path / "missing.cfg"),
               "--seed", "3", "--out", str(out)])
    assert rc == 2
    assert "missing.cfg" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_file_that_is_not_utf8_exits_2_naming_it(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"mild.p_low_field = \xff\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(out)])
    assert rc == 2
    assert f"error: {cfg}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2 ** 127), str(-(2 ** 127) - 1)])
def test_a_seed_outside_128_bits_exits_64_before_out_is_made(tmp_path, subject_files, capsys,
                                                             seed):
    _, labels, mprage = subject_files
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--seed", seed, "--out", str(out)])
    assert rc == 64
    assert f"argument --seed: {seed!r} is outside [-{2 ** 127}, {2 ** 127 - 1}]" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("seed", [2 ** 127 - 1, -(2 ** 127)])
def test_the_end_seeds_of_128_bits_generate(tmp_path, subject_files, capsys, seed):
    _, labels, mprage = subject_files
    out = tmp_path / "o"
    assert main(["generate", str(labels), str(mprage), "--n", "1", "--seed", str(seed),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed


def test_a_repeated_config_key_exits_64_naming_both_lines(tmp_path, subject_files, capsys):
    # a later line would otherwise replace the earlier one; the inputs named
    # here do not exist, so the check runs before any is read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mild.p_low_field = 0\n# again\nmild.p_low_field = 1\n")
    out = tmp_path / "o"
    rc = main(["generate", str(tmp_path / "labels.nii"), str(tmp_path / "mprage.nii"),
               "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert rc == 64
    assert f"{cfg}:3: config key mild.p_low_field repeats line 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("schedule", ["mild,severe", "off,mild"])
def test_deformation_keys_leave_the_off_level_without_deformation(tmp_path, subject_files,
                                                                  capsys, schedule):
    # a min above the off level's all-zero ranges is valid for the graded levels
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("deformation.svf_mu_min = 0.04\ndeformation.rot_max = 10\n")
    out = tmp_path / "o"
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--schedule", schedule, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    moved = np.abs(sb.read_volume_stack_file(out / "deformation.nii").as_array()).max()
    assert (moved == 0.0) == schedule.startswith("off")


# from "nan" on, each used to crash, exit 2 with numpy's message, or run
# (a scale range reaching 0 reflects the image)
@pytest.mark.parametrize("line,field", [("mild.p_low_field = 2", "p_low_field"),
                                        ("severe.noise_sigma_min = 20", "noise_sigma"),
                                        # a retired key: refused as unknown
                                        ("deformation.squaring_steps = 0", "squaring_steps"),
                                        ("deformation.rot_max = nan", "rot_max"),
                                        ("mild.noise_sigma_max = nan", "noise_sigma"),
                                        ("deformation.svf_mu_min = 0.1", "svf_mu_min"),
                                        ("deformation.scale_max = 1.5", "scale_max"),
                                        ("deformation.shear_max = -2", "shear_max"),
                                        ("medium.bias_sigma_min = -0.1", "bias_sigma")])
def test_out_of_range_dotted_config_value_exits_64(tmp_path, subject_files, capsys, line, field):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 64
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_the_readme_config_example_is_accepted(tmp_path, subject_files, capsys):
    _, labels, mprage = subject_files
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(readme.split("A valid file:\n\n```ini\n", 1)[1].split("```", 1)[0])
    assert _load_config(cfg) and set(_load_config(cfg)) <= set(_DOTTED_KEYS)
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--n", "1", "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err


# -- the settable generation values ----------------------------------------------

_LEVELS = ("mild", "medium", "severe")
_DEFORMATION = ("rot_max", "scale_max", "shear_max", "svf_mu_min", "svf_mu_max")
_DOTTED_KEYS = sorted(
    [f"{level}.{p}" for level in _LEVELS for p in ("p_low_field", "p_anisotropic")]
    + [f"{level}.{r}_{end}" for level in _LEVELS
       for r in ("bias_mu", "bias_sigma", "noise_sigma") for end in ("min", "max")]
    + [f"deformation.{name}" for name in _DEFORMATION]
)
# now constants: the acquisition spacings, the SVF lattice settings, the
# translation range and the squaring count; and every key of the fixed off level
_OFF_KEYS = sorted(
    ["off.p_low_field", "off.p_anisotropic"]
    + [f"off.{r}_{end}" for r in ("bias_mu", "bias_sigma", "noise_sigma") for end in ("min", "max")]
)
_REMOVED_KEYS = sorted(
    [f"{level}.{r}_{end}" for level in _LEVELS + ("off",)
     for r in ("low_field_spacing", "anisotropic_spacing") for end in ("min", "max")]
    + ["deformation.svf_sigma_max", "deformation.svf_control_spacing", "deformation.trans_max",
       "deformation.squaring_steps"]
    + _OFF_KEYS
)


def _preset_value(presets, key):
    scope, _, name = key.partition(".")
    cfg = presets["mild" if scope == "deformation" else scope]
    if scope == "deformation":
        return getattr(cfg.deformation, name)
    if name.startswith("p_"):
        return getattr(cfg, name)
    lo, hi = getattr(cfg, name[:-4])
    return lo if name.endswith("_min") else hi


def test_generate_accepts_29_dotted_keys():
    assert len(_DOTTED_KEYS) == 29 and len(_REMOVED_KEYS) == 28 and len(_OFF_KEYS) == 8
    assert len(fields(sb.SeverityConfig)) == 7 and len(fields(sb.DeformationConfig)) == 5
    defaults = _severity_presets({})
    for key in _DOTTED_KEYS:
        # each key set to its preset's own value leaves the presets as they were
        assert _severity_presets({key: repr(_preset_value(defaults, key))}) == defaults, key
    # and every key at once
    every = {key: repr(_preset_value(defaults, key)) for key in _DOTTED_KEYS}
    assert _severity_presets(every) == defaults
    assert defaults["off"] == sb.SeverityConfig.all_off()


@pytest.mark.parametrize("key", _REMOVED_KEYS)
def test_a_removed_dotted_key_exits_64_naming_it(tmp_path, subject_files, capsys, key):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 3\n")
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 64
    err = capsys.readouterr().err
    assert key in err
    assert ("the off level is fixed" in err) == key.startswith("off.")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, name", [("deformation.bogus = 1", "bogus"),
                                        ("extreme.p_low_field = 0", "extreme"),
                                        ("mild.bias_grid = 3", "bias_grid")])
def test_unknown_dotted_config_key_exits_64(tmp_path, subject_files, capsys, line, name):
    _, labels, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["generate", str(labels), str(mprage), "--config", str(cfg),
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 64
    assert name in capsys.readouterr().err


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
    # generate names the key it cannot use; metrics takes no --config at all
    named = line.split(" = ")[0] if command == "generate" else "--config"
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "fit-adapter", "metrics"])
def test_config_is_a_generate_flag_only(tmp_path, subject_files, capsys, command):
    _, _, mprage = subject_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("severe.noise_sigma_max = 20\n")
    out = str(tmp_path / "out")
    argv = {
        "evaluate": ["evaluate", "--reference", str(mprage), "--candidates",
                     str(tmp_path / "c.json"), "--out", out],
        "fit-adapter": ["fit-adapter", "--features", str(mprage), "--target", str(mprage),
                        "--out", out],
        "metrics": ["metrics", "--pred", str(mprage), "--ref", str(mprage), "--metric", "l1"],
    }[command]
    assert main(argv + ["--config", str(cfg)]) == 64
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_OUT_OF_RANGE = [
    ("generate", "n", "0"), ("generate", "threads", "0"),
    ("evaluate", "window", "0"), ("evaluate", "scales", "9"), ("evaluate", "erosion", "-1"),
    ("fit-adapter", "ridge", "-1"),
    ("metrics", "window", "0"), ("metrics", "scales", "0"), ("metrics", "peak", "0"),
    ("metrics", "peak", "-1"), ("metrics", "peak", "nan"),
]


@pytest.mark.parametrize("command, key, value", _OUT_OF_RANGE,
                         ids=["-".join(case + ("flag",)) for case in _OUT_OF_RANGE])
def test_out_of_range_flag_value_exits_64(tmp_path, subject_files, capsys, command, key, value):
    _, labels, mprage = subject_files
    out = str(tmp_path / "out")
    argv = {
        "generate": ["generate", str(labels), str(mprage), "--seed", "1", "--out", out],
        "evaluate": ["evaluate", "--reference", str(mprage), "--candidates",
                     str(tmp_path / "c.json"), "--mask", str(labels), "--out", out],
        "fit-adapter": ["fit-adapter", "--features", str(mprage), "--target", str(mprage),
                        "--out", out],
        "metrics": ["metrics", "--pred", str(mprage), "--ref", str(mprage),
                    "--metric", "psnr" if key == "peak" else "msssim"],
    }[command]
    assert main(argv + [f"--{key}", value]) == 64
    assert f"--{key}" in capsys.readouterr().err


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


def test_an_out_naming_a_file_exits_2_before_any_drawing(tmp_path, subject_files, monkeypatch, capsys):
    _, labels, mprage = subject_files
    out = tmp_path / "taken"
    out.write_text("not a directory")
    calls = []
    build = sb.generator.build_deformation
    monkeypatch.setattr(sb.generator, "build_deformation",
                        lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
    rc = main(["generate", str(labels), str(mprage), "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    assert calls == []
    assert out.read_text() == "not a directory"


def test_an_all_background_map_exits_2_without_making_out(tmp_path, capsys):
    labels, mprage, out = tmp_path / "labels.nii", tmp_path / "anatomy.nii", tmp_path / "o"
    sb.write_nifti_file(labels, sb.LabelMap(np.zeros((8, 8, 8), dtype=np.int16)), "int16")
    sb.write_nifti_file(mprage, sb.Volume(np.zeros((8, 8, 8))), "float32")
    rc = main(["generate", str(labels), str(mprage), "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "no foreground labels" in capsys.readouterr().err
    assert not out.exists()


def test_a_gzipped_stack_is_decompressed_once(tmp_path, monkeypatch):
    stack = sb.VolumeStack((smooth_volume(8, 0), smooth_volume(8, 1)))
    path = tmp_path / "stack.nii.gz"
    sb.write_nifti_file(path, stack, "float32")
    calls = []
    decompress = gzip.decompress

    def counting(data):
        calls.append(len(data))
        return decompress(data)

    monkeypatch.setattr(gzip, "decompress", counting)
    back = sb.read_volume_stack_file(path)
    assert len(calls) == 1
    assert back.channel_count == 2
    assert np.array_equal(back.channels[1].data, stack.channels[1].data.astype(np.float32))


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


@pytest.mark.parametrize("spacing, nx", [((2.0, 2.0, 2.0), 24), ((1.0, 1.0, 1.0), 20)],
                         ids=["2mm", "cropped"])
def test_evaluate_mask_on_another_grid_exits_3(tmp_path, subject_files, capsys, spacing, nx):
    subject, labels, mprage = subject_files
    out = tmp_path / "batch"
    assert main(["generate", str(labels), str(mprage), "--n", "1",
                 "--seed", "4", "--out", str(out)]) == 0
    mask = tmp_path / "mask.nii"
    sb.write_nifti_file(mask, sb.LabelMap(subject.labels.data[:nx], spacing), "int16")
    capsys.readouterr()
    rc = main(["evaluate", "--reference", str(out / "target.nii"),
               "--candidates", str(out / "manifest.json"), "--mask", str(mask),
               "--out", str(tmp_path / "report.json")])
    assert rc == 3
    assert f"{mask}: the mask's grid" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_a_reference_off_the_fields_grid_exits_3_before_inverting(tmp_path, subject_files,
                                                                  capsys, monkeypatch):
    _, labels, mprage = subject_files
    out = tmp_path / "batch"
    assert main(["generate", str(labels), str(mprage), "--n", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    reference = tmp_path / "reference.nii"
    target = sb.read_nifti_file(out / "target.nii")
    sb.write_nifti_file(reference, sb.Volume(target.data, (2.0, 2.0, 2.0)), "float32")
    calls, invert = [], sb.metrics.invert
    monkeypatch.setattr(sb.metrics, "invert", lambda fld: calls.append(fld) or invert(fld))
    capsys.readouterr()
    rc = main(["evaluate", "--reference", str(reference), "--candidates",
               str(out / "manifest.json"), "--scales", "2", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert calls == []
    assert not (tmp_path / "r.json").exists()


def test_evaluate_inter_mode_with_atlas_map(tmp_path, capsys):
    ref = sb.VolumeStack((smooth_volume(16, 0),))
    ident = sb.DeformationField(np.zeros(ref.dims + (3,)), ref.spacing, ref.grid_to_world)
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


# -- streamed stacks: same bytes, bounded memory --------------------------------------

@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("head", ["linear", "concat", "softmax"])
def test_fit_adapter_from_a_file_equals_the_in_memory_fit(tmp_path, capsys, suffix, head):
    # 36^3 cuts into a full voxel slab and a partial one
    feats = sb.VolumeStack(tuple(smooth_volume(36, i, sigma=1.0 + i % 3) for i in range(6)))
    outputs = 3 if head == "softmax" else 1
    target = sb.VolumeStack(tuple(smooth_volume(36, 20 + i) for i in range(outputs)))
    f_path, t_path, c_path = (tmp_path / f"{name}{suffix}" for name in ("f", "t", "c"))
    sb.write_nifti_file(f_path, feats, "float32")
    sb.write_nifti_file(t_path, target, "float32")
    sb.write_nifti_file(c_path, smooth_volume(36, 40), "float32")
    argv = ["fit-adapter", "--features", str(f_path), "--target", str(t_path),
            "--out", str(tmp_path / "a.json")]
    argv += {"linear": [], "concat": ["--concat-input", str(c_path)], "softmax": ["--softmax"]}[head]
    assert main(argv) == 0
    capsys.readouterr()
    # the same fit on the decoded stacks
    features, targets = sb.read_volume_stack_file(f_path), sb.read_volume_stack_file(t_path)
    concat = sb.read_nifti_file(c_path, as_labels=False) if head == "concat" else None
    adapter = sb.fit_adapter(features, targets, concat_input=concat, softmax=head == "softmax")
    residuals = sb.fit_residual(adapter, features, targets, concat)
    sb.save_adapter(tmp_path / "b.json", adapter, extra={"residuals": residuals})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_file_backed_fit_holds_no_float64_stack(tmp_path, capsys):
    n, count = 48, 32
    rng = np.random.default_rng(3)
    f_path, t_path = tmp_path / "f.nii", tmp_path / "t.nii"
    sb.write_nifti_file(f_path, sb.VolumeStack(tuple(
        sb.Volume(rng.random((n, n, n))) for _ in range(count))), "float32")
    sb.write_nifti_file(t_path, sb.Volume(rng.random((n, n, n))), "float32")
    peak = _traced_peak(["fit-adapter", "--features", str(f_path), "--target", str(t_path),
                         "--out", str(tmp_path / "a.json")])
    capsys.readouterr()
    # one (33, 32 768) float64 design block and less than a float64 channel
    # beside it; decoding the stack took its 28 MB
    block, channel = (count + 1) * 32_768 * 8, n ** 3 * 8
    assert peak <= block + channel < count * channel


def test_a_deformation_file_is_decoded_into_one_c_ordered_array(tmp_path):
    rng = np.random.default_rng(2)
    fld = sb.DeformationField(rng.normal(0.0, 1.0, (48, 40, 32, 3)))
    path = tmp_path / "deformation.nii"
    sb.write_nifti_file(path, fld.channels(), "float32")
    tracemalloc.start()
    try:
        back = sb.StackReader.open(path).field()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the displacement and one channel's bytes; a decoded stack and its
    # channel-last copy took twice the displacement
    assert peak <= fld.displacement.nbytes * 1.25
    assert back.displacement.flags.c_contiguous
    assert back.displacement.tobytes() == fld.displacement.astype("<f4").astype(float).tobytes()


def test_evaluate_peak_does_not_grow_with_the_channel_count(tmp_path, subject_files, capsys):
    subject, labels, _ = subject_files
    rng = np.random.default_rng(5)
    cfg = sb.DeformationConfig(rot_max=0.0, scale_max=0.0, shear_max=0.0)
    fld = sb.build_deformation(sb.sample_affine(rng, cfg), sb.sample_svf(rng, cfg, subject.mprage))
    sb.write_nifti_file(tmp_path / "deformation.nii", fld.channels(), "float32")
    peaks = {}
    for count in (4, 16):
        stack = sb.VolumeStack(tuple(smooth_volume(24, 10 + c) for c in range(count)))
        sb.write_nifti_file(tmp_path / f"ref{count}.nii", stack, "float32")
        entries = []
        for i in range(2):
            name = f"cand{count}_{i}.nii"
            sb.write_nifti_file(tmp_path / name, sb.warp_stack(stack, fld), "float32")
            entries.append({"features": name, "deformation": "deformation.nii"})
        manifest = tmp_path / f"cands{count}.json"
        manifest.write_text(json.dumps({"candidates": entries}))
        peaks[count] = _traced_peak([
            "evaluate", "--reference", str(tmp_path / f"ref{count}.nii"),
            "--candidates", str(manifest), "--mask", str(labels), "--scales", "2",
            "--out", str(tmp_path / f"r{count}.json")])
    capsys.readouterr()
    # holding the stacks took 12 more channels of each of three stacks and
    # of the warped one
    assert peaks[16] - peaks[4] < 24 ** 3 * 8


# -- non-finite input voxels ------------------------------------------------------------

def _with_nan(path, index=0):
    """Overwrite one float32 voxel of a NIfTI file with NaN."""
    blob = bytearray(path.read_bytes())
    struct.pack_into("<f", blob, 352 + 4 * index, float("nan"))
    path.write_bytes(bytes(blob))


def test_a_nan_candidate_voxel_makes_evaluate_exit_2_naming_the_file(tmp_path, subject_files,
                                                                    capsys):
    _, labels, mprage = subject_files
    out = tmp_path / "batch"
    assert main(["generate", str(labels), str(mprage), "--n", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    _with_nan(out / "sample_000.nii", index=24 ** 3 // 2)
    report = tmp_path / "report.json"
    rc = main(["evaluate", "--reference", str(out / "target.nii"),
               "--candidates", str(out / "manifest.json"), "--mask", str(labels),
               "--scales", "2", "--out", str(report)])
    assert rc == 2
    assert "sample_000.nii" in capsys.readouterr().err
    assert not report.exists()


def test_a_nan_anatomy_voxel_makes_generate_exit_2_naming_the_file(tmp_path, subject_files,
                                                                   capsys):
    _, labels, mprage = subject_files
    _with_nan(mprage, index=24 ** 3 // 2)
    out = tmp_path / "batch"
    rc = main(["generate", str(labels), str(mprage), "--n", "2", "--seed", "4",
               "--out", str(out)])
    assert rc == 2
    assert f"{mprage}: channel 0 holds a non-finite voxel" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("metric", ["l1", "psnr", "ssim", "msssim", "norml2"])
def test_a_nan_voxel_makes_metrics_exit_2_naming_the_file(tmp_path, capsys, metric):
    pred, ref = tmp_path / "pred.nii", tmp_path / "ref.nii"
    sb.write_nifti_file(pred, smooth_volume(16, 0), "float32")
    sb.write_nifti_file(ref, smooth_volume(16, 1), "float32")
    _with_nan(pred, index=100)
    rc = main(["metrics", "--pred", str(pred), "--ref", str(ref), "--metric", metric])
    captured = capsys.readouterr()
    assert rc == 2
    assert "pred.nii" in captured.err and "nan" not in captured.out


@pytest.mark.parametrize("nan_in", ["features", "target", "concat"])
def test_a_nan_voxel_makes_fit_adapter_exit_2_naming_the_file(tmp_path, capsys, nan_in):
    paths = {name: tmp_path / f"{name}.nii" for name in ("features", "target", "concat")}
    sb.write_nifti_file(paths["features"], sb.VolumeStack(
        tuple(smooth_volume(12, i) for i in range(3))), "float32")
    sb.write_nifti_file(paths["target"], smooth_volume(12, 5), "float32")
    sb.write_nifti_file(paths["concat"], smooth_volume(12, 6), "float32")
    # the last voxel of the last channel: read in the last slab
    _with_nan(paths[nan_in], index=(3 if nan_in == "features" else 1) * 12 ** 3 - 1)
    out = tmp_path / "a.json"
    rc = main(["fit-adapter", "--features", str(paths["features"]),
               "--target", str(paths["target"]), "--concat-input", str(paths["concat"]),
               "--out", str(out)])
    assert rc == 2
    assert f"{nan_in}.nii" in capsys.readouterr().err
    assert not out.exists()
