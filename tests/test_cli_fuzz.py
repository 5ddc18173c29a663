"""The command line on small odd inputs, end to end.

Hypothesis draws a label map and an anatomy image on a grid of 1-12 voxels
per axis, 1e-3 to 1e3 mm spacings, and a plain, reflected, sheared or
FreeSurfer LIA orientation, with a one-voxel, sparse or int16-maximum
foreground. ``generate`` runs at ``--threads 1`` and ``2``, then ``evaluate
--mask`` (with a drawn erosion, window and scale count, as the default
three scales of window 7 need a larger grid) and ``fit-adapter`` on its
tree. Every call exits 0, 2 or 64 (an
exception escaping ``main`` fails the test), and an exit-0 tree is finite,
its images lie in [0, 1], and it has the same bytes at both thread counts.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import synthbrain as sb
from synthbrain.cli import main

_EXITS = (0, 2, 64)
# the 3x3 orientation each grid's voxel axes take before their spacings
_ORIENTATIONS = {
    "plain": np.eye(3),
    "reflected": np.diag([1.0, -1.0, 1.0]),
    "sheared": np.array([[1.0, 0.3, -0.2], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]]),
    # FreeSurfer's conformed space: voxel axes point Left, Inferior, Anterior
    "LIA": np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
}
_INT16_MAX = 32767


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    assert rc in _EXITS, (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return rc, err.getvalue()


def _labels(dims, foreground: str, rng) -> np.ndarray:
    data = np.zeros(dims, dtype=np.int32)
    if foreground == "one-voxel":
        data[tuple(int(rng.integers(n)) for n in dims)] = 17
    elif foreground == "sparse":
        spots = rng.random(dims) < 0.3
        data[spots] = rng.choice([2, 41, 1000, 2035], int(spots.sum()))
        data.flat[int(rng.integers(data.size))] = 41  # at least one voxel
    else:  # int16-maximum
        data[rng.random(dims) < 0.5] = _INT16_MAX
        data.flat[0] = _INT16_MAX
    return data


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 12)] * 3),
       log_spacing=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       orientation=st.sampled_from(sorted(_ORIENTATIONS)),
       foreground=st.sampled_from(["one-voxel", "sparse", "int16-maximum"]),
       evaluate=st.fixed_dictionaries({"--erosion": st.integers(0, 2),
                                       "--window": st.sampled_from([1, 3, 7]),
                                       "--scales": st.integers(1, 3)}),
       seed=st.integers(0, 2 ** 16))
def test_the_cli_on_small_odd_inputs(dims, log_spacing, orientation, foreground, evaluate, seed):
    rng = np.random.default_rng(seed)
    spacing = tuple(10.0 ** e for e in log_spacing)
    g2w = np.eye(4)
    g2w[:3, :3] = _ORIENTATIONS[orientation] * spacing
    g2w[:3, 3] = rng.uniform(-100.0, 100.0, 3)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labels, anatomy = root / "labels.nii", root / "anatomy.nii"
        sb.write_nifti_file(labels, sb.LabelMap(_labels(dims, foreground, rng), spacing, g2w),
                            "int16")
        sb.write_nifti_file(anatomy, sb.Volume(rng.random(dims), spacing, g2w), "float32")

        trees = []
        for threads in (1, 2):
            out = root / f"batch{threads}"
            rc, _ = _run(["generate", labels, anatomy, "--n", 2, "--seed", seed,
                          "--threads", threads, "--out", out])
            trees.append(_tree(out) if rc == 0 else None)
        assert trees[0] == trees[1]
        if trees[0] is None:
            return

        batch = root / "batch1"
        manifest = json.loads((batch / "manifest.json").read_text())
        for name in [s["file"] for s in manifest["samples"]] + [manifest["target"]]:
            image = sb.read_nifti_file(batch / name, as_labels=False).data
            assert np.isfinite(image).all() and image.min() >= 0.0 and image.max() <= 1.0, name
        field = sb.read_volume_stack_file(batch / manifest["deformation"]).as_array()
        assert np.isfinite(field).all()

        _run(["evaluate", "--mode", "intra", "--reference", anatomy,
              "--candidates", batch / "manifest.json", "--mask", labels,
              "--out", root / "report.json", *(x for kv in evaluate.items() for x in kv)])
        _run(["fit-adapter", "--features", batch / manifest["samples"][0]["file"],
              "--target", batch / manifest["target"], "--out", root / "adapter.json"])


def test_a_retired_squaring_count_exits_64_naming_it(tmp_path):
    # at 1100 steps, 2.0 ** steps overflowed in the integration, a traceback
    subject_labels = sb.LabelMap(np.ones((4, 4, 4), dtype=np.int32))
    labels, anatomy = tmp_path / "labels.nii", tmp_path / "anatomy.nii"
    sb.write_nifti_file(labels, subject_labels, "int16")
    sb.write_nifti_file(anatomy, sb.Volume(np.zeros((4, 4, 4))), "float32")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("deformation.squaring_steps = 1100\n")
    rc, err = _run(["generate", labels, anatomy, "--config", cfg, "--seed", 1,
                    "--out", tmp_path / "o"])
    assert rc == 64 and "deformation.squaring_steps" in err
    assert not (tmp_path / "o").exists()
