"""Traced replays: each CLI op re-run as the public layer calls it makes today.

Every call sits in a span named ``<layer>.<call>`` (see ``spans.py``). The
replays import only public names that the planned refactors keep; private
helpers and the scalar/duplicate sampling wrappers are deliberately avoided,
so a refactor behind these names leaves the replay valid.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from synthbrain import (
    DeformationField,
    SeverityConfig,
    SubjectRecord,
    Volume,
    VolumeStack,
    apply_corruption,
    build_deformation,
    fit_adapter,
    fit_residual,
    interior_mask,
    invert,
    l1,
    make_rng,
    minmax_normalize,
    ms_ssim,
    paint,
    read_nifti_file,
    read_volume_stack_file,
    sample_affine,
    sample_contrast_params,
    sample_svf,
    severity_ladder,
    ssim,
    warp_labels,
    warp_stack,
    warp_volume,
    write_nifti_file,
)
from synthbrain import corruption, volume

from spans import NullTracer, Tracer

MB = 1e6


def _read(t: Tracer, io: dict, fn, path, **kwargs):
    io["read"] += Path(path).stat().st_size
    return t.call("nifti.read", fn, path, **kwargs)


def _write(t: Tracer, io: dict, path, obj) -> None:
    t.call("nifti.write", write_nifti_file, path, obj, "float32")
    io["written"] += Path(path).stat().st_size


def _to_voxel(affine: np.ndarray, world: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(affine)
    return world @ inv[:3, :3].T + inv[:3, 3]


def kernel_rates(fld: DeformationField, image: np.ndarray, labels: np.ndarray,
                 affine: np.ndarray) -> dict[str, float]:
    """Mpts/s of the trilinear and nearest kernels on the field's own mapped points."""
    pts = _to_voxel(affine, fld.mapped_points())
    npts = pts.size // 3
    out = {}
    for name, fn, data in (("volume.sample_trilinear_mpts_s", volume.sample_trilinear, image),
                           ("volume.sample_nearest_mpts_s", volume.sample_nearest, labels)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn(data, pts)
            times.append(time.perf_counter() - start)
        out[name] = npts / sorted(times)[1] / MB
    return out


def round_trip(fld: DeformationField) -> tuple[float, float]:
    """Mean and max |phi(phi^-1(x)) - x| in voxels over the central half box.

    phi(y) = y + u(y) is evaluated at y = phi^-1(x) by warping each
    displacement channel of phi through the inverse field.
    """
    inv = invert(fld)
    residual = inv.displacement + np.stack([
        warp_volume(Volume(fld.displacement[..., c], fld.spacing, fld.grid_to_world), inv).data
        for c in range(3)
    ], axis=-1)
    box = tuple(slice(n // 4, n - n // 4) for n in fld.dims)
    mag = np.sqrt(((residual[box] / np.asarray(fld.spacing)) ** 2).sum(-1))
    return float(mag.mean()), float(mag.max())


class GenerateReplay:
    """``synthbrain generate`` decomposed: read, deform once, n samples, write."""

    def __init__(self, labels_path, anatomy_path, n: int, seed: int):
        self.paths = (labels_path, anatomy_path)
        self.n, self.seed = n, seed
        self.io = {"read": 0, "written": 0}

    def run(self, t: Tracer, out_dir: Path, manifest: dict) -> dict:
        """Replay into ``out_dir``; returns timings of the sample phase and the field."""
        io = self.io
        with t.span("cli.generate"):
            labels = _read(t, io, read_nifti_file, self.paths[0], as_labels=True)
            mprage = _read(t, io, read_nifti_file, self.paths[1], as_labels=False)
            subject = SubjectRecord(Path(self.paths[0]).stem, labels, mprage)
            self.subject = subject
            self.cfgs = [SeverityConfig.by_name(s) for s in severity_ladder(self.n)]
            with t.span("generator.generate_batch"):
                cfg = self.cfgs[0].deformation
                rng = make_rng(self.seed, subject.id, "deformation")
                affine = t.call("deformation.sample_affine", sample_affine, rng, cfg)
                svf = t.call("deformation.sample_svf", sample_svf, rng, cfg, labels)
                phi = t.call("deformation.build_deformation", build_deformation,
                             affine, svf, steps=cfg.squaring_steps)
                self.warped = t.call("deformation.warp_labels", warp_labels, labels, phi)
                moved = t.call("deformation.warp_volume", warp_volume, mprage, phi)
                target = t.call("volume.minmax_normalize", minmax_normalize, moved)
                start = time.perf_counter()
                samples = [self.make_sample(t, i) for i in range(self.n)]
                sample_wall = time.perf_counter() - start
            with t.span("generator.export_batch"):
                out_dir.mkdir(parents=True, exist_ok=True)
                for entry, (image, _) in zip(manifest["samples"], samples):
                    _write(t, io, out_dir / entry["file"], image)
                _write(t, io, out_dir / manifest["target"], target)
                _write(t, io, out_dir / manifest["deformation"], phi.channels())
        self.records = [json.loads(json.dumps(rec.to_json_dict())) for _, rec in samples]
        return {"sample_wall": sample_wall, "field": phi, "labels": labels, "mprage": mprage}

    def make_sample(self, t, i: int):
        rng = make_rng(self.seed, self.subject.id, i)
        params = t.call("synthesis.sample_contrast_params", sample_contrast_params,
                        rng, self.warped.label_set)
        painted = t.call("synthesis.paint", paint, self.warped, params, rng)
        record = t.call("corruption.sample_corruption_record",
                        corruption.sample_corruption_record, rng, self.cfgs[i], painted)
        return t.call("corruption.apply_corruption", apply_corruption, painted, record), record

    def threaded_sample_wall(self, threads: int) -> float:
        """Wall time of the sample phase on a pool of ``threads``, untraced."""
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda i: self.make_sample(NullTracer(), i), range(self.n)))
        return time.perf_counter() - start


def replay_evaluate(t: Tracer, io: dict, reference_path, manifest_path, mask_path):
    """``synthbrain evaluate --mode intra`` decomposed.

    Returns the per-channel metric values, the last inverse field, the
    reference image and the mask's label map.
    """
    with t.span("cli.evaluate"):
        reference = VolumeStack((_read(t, io, read_nifti_file, reference_path, as_labels=False),))
        doc = json.loads(Path(manifest_path).read_text())
        base = Path(manifest_path).parent
        stack = _read(t, io, read_volume_stack_file, base / doc["deformation"])
        shared = DeformationField(stack.as_array(), stack.spacing, stack.grid_to_world)
        candidates = [
            VolumeStack((_read(t, io, read_nifti_file, base / e["file"], as_labels=False),))
            for e in doc["samples"]
        ]
        lm = _read(t, io, read_nifti_file, mask_path, as_labels=True)
        mask = t.call("metrics.interior_mask", interior_mask, lm, erosion=2)
        values = {"l1": [], "ssim": [], "ms_ssim": []}
        for cand in candidates:
            with t.span("metrics.canonical_features"):
                inverse = t.call("deformation.invert", invert, shared)
                warped = t.call("deformation.warp_stack", warp_stack, cand, inverse)
            for ref_c, cand_c in zip(reference.channels, warped.channels):
                values["l1"].append(t.call("metrics.l1", l1, ref_c, cand_c, mask))
                values["ssim"].append(t.call("metrics.ssim", ssim, ref_c, cand_c,
                                             window=7, mask=mask))
                values["ms_ssim"].append(t.call("metrics.ms_ssim", ms_ssim, ref_c, cand_c,
                                                scales=3, window=7, mask=mask))
    return values, inverse, reference.channels[0], lm


def replay_fit(t: Tracer, io: dict, features_path, target_path) -> dict:
    """``synthbrain fit-adapter`` decomposed; returns the training residuals."""
    with t.span("cli.fit_adapter"):
        features = _read(t, io, read_volume_stack_file, features_path)
        target = VolumeStack((_read(t, io, read_nifti_file, target_path, as_labels=False),))
        adapter = t.call("adaptation.fit_adapter", fit_adapter, features, target,
                         ridge=1e-6, softmax=False)
        return t.call("adaptation.fit_residual", fit_residual, adapter, features, target)
