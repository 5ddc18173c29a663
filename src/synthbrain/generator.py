"""Batch generation: one subject, one deformation, a ladder of corrupted samples.

Each batch deforms the subject once, then paints N independent random
contrasts on the warped labels and corrupts them at non-decreasing severity.
The regression target is the subject's structural scan warped by the same
deformation, so every sample is voxel-aligned with it. All randomness is
keyed by (base seed, subject id, sample index); samples are generated on a
thread pool yet come out byte-identical to a sequential run.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corruption import (
    SEVERITY_LEVELS,
    CorruptionRecord,
    SeverityConfig,
    apply_corruption,
    sample_corruption_record,
)
from .deformation import (
    DeformationField,
    _pull,
    build_deformation,
    sample_affine,
    sample_svf,
)
from .errors import EmptyLabelSet, NonPositiveLambda
from .nifti import write_nifti_file
from .seeding import make_rng
from .synthesis import paint, sample_contrast_params
from .volume import LabelMap, Volume, check_same_geometry, minmax_normalize, spatial_gradient

__all__ = [
    "SubjectRecord",
    "Sample",
    "SampleBatch",
    "severity_ladder",
    "generate_batch",
    "batch_loss",
    "export_batch",
]

_SEVERITY_RANK = {level: rank for rank, level in enumerate(("off",) + SEVERITY_LEVELS)}


@dataclass(frozen=True)
class SubjectRecord:
    """One training subject: segmentation plus its structural anatomy target."""

    id: str
    labels: LabelMap
    mprage: Volume

    def __post_init__(self):
        check_same_geometry(self.labels, self.mprage)


def _check_levels(levels) -> None:
    """Raise ``ValueError`` on an unknown severity level or a decreasing order."""
    ranks = []
    for level in levels:
        if level not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity level {level!r}")
        ranks.append(_SEVERITY_RANK[level])
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"severity levels must be non-decreasing, got {ranks}")


@dataclass(frozen=True)
class Sample:
    image: Volume
    record: CorruptionRecord

    @property
    def level(self) -> str:
        return self.record.level


@dataclass(frozen=True)
class SampleBatch:
    """N intra-subject samples sharing one deformation, plus the aligned target."""

    subject_id: str
    deformation: DeformationField
    samples: tuple[Sample, ...]
    target: Volume

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        _check_levels([s.level for s in self.samples])

    @property
    def batch_size(self) -> int:
        return len(self.samples)


def severity_ladder(n: int) -> list[str]:
    """Evenly spaced mild-to-severe assignment for n samples.

    n=4 gives the canonical [mild, medium, medium, severe].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [SEVERITY_LEVELS[0]]
    return [SEVERITY_LEVELS[int(np.floor(i * 2.0 / (n - 1) + 0.5))] for i in range(n)]


def _normalize_schedule(schedule, n: int) -> list[SeverityConfig]:
    if schedule is None:
        schedule = severity_ladder(n)
    cfgs = [s if isinstance(s, SeverityConfig) else SeverityConfig.by_name(s) for s in schedule]
    if len(cfgs) != n:
        raise ValueError(f"schedule length {len(cfgs)} != batch size {n}")
    # checked again by SampleBatch, but here before any sample is drawn
    _check_levels([c.level for c in cfgs])
    return cfgs


def generate_batch(
    subject: SubjectRecord,
    n: int,
    base_seed: int,
    schedule=None,
    threads: int | None = None,
) -> SampleBatch:
    """Generate one batch of synthetic samples for a subject.

    ``schedule`` is a length-n list of severity names or configs (default:
    the evenly spaced ladder). One deformation is drawn and shared; sample i
    then gets fresh contrast parameters and corruption from its own RNG
    keyed by (base_seed, subject.id, i), which makes thread count
    irrelevant to the output bytes. ``threads`` workers paint and corrupt
    the samples (None: 1; fewer than 1 is a ``ValueError``).
    """
    nthreads = 1 if threads is None else threads
    if nthreads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if subject.labels.label_set in ((), (0,)):
        raise EmptyLabelSet(f"subject {subject.id!r} has no foreground labels")
    cfgs = _normalize_schedule(schedule, n)
    # one deformation per batch, drawn with the first sample's ranges
    deform_cfg = cfgs[0].deformation

    rng_d = make_rng(base_seed, subject.id, "deformation")
    affine = sample_affine(rng_d, deform_cfg)
    svf = sample_svf(rng_d, deform_cfg, subject.labels)
    phi = build_deformation(affine, svf, steps=deform_cfg.squaring_steps)

    warped_labels, moved = _pull(phi, (subject.labels, subject.mprage))
    target = minmax_normalize(moved)
    label_set = warped_labels.label_set
    # built here, once, rather than by whichever sample thread paints first
    warped_labels._label_index

    def make_sample(i: int) -> Sample:
        rng = make_rng(base_seed, subject.id, i)
        params = sample_contrast_params(rng, label_set)
        painted = paint(warped_labels, params, rng)
        record = sample_corruption_record(rng, cfgs[i], painted)
        return Sample(apply_corruption(painted, record), record)

    if nthreads == 1 or n == 1:
        # no 1-worker pool: it raised peak RSS of a 96³ n=1 batch 194 -> 228 MB
        samples = [make_sample(i) for i in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            samples = list(pool.map(make_sample, range(n)))

    return SampleBatch(subject.id, phi, tuple(samples), target)


def batch_loss(batch: SampleBatch, predictions, lam: float = 1.0) -> float:
    """Sum over samples of mean-abs error plus lam * mean-abs gradient error.

    The gradient term sums the three per-axis mean absolute differences, so
    constant intensity shifts are penalized only by the intensity term.
    """
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be > 0, got {lam}")
    predictions = list(predictions)
    if len(predictions) != batch.batch_size:
        raise ValueError(
            f"got {len(predictions)} predictions for {batch.batch_size} samples"
        )
    t = batch.target
    gt = spatial_gradient(t)
    total = 0.0
    for pred in predictions:
        check_same_geometry(pred, t)
        total += float(np.mean(np.abs(pred.data - t.data)))
        gp = spatial_gradient(pred)
        for c in range(3):
            total += lam * float(np.mean(np.abs(gp.channels[c].data - gt.channels[c].data)))
    return total


def export_batch(batch: SampleBatch, out_dir, seed: int | None = None) -> Path:
    """Write samples, target, deformation, and a JSON manifest to a directory.

    Returns the manifest path. All bytes are deterministic functions of the
    batch contents.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, s in enumerate(batch.samples):
        name = f"sample_{i:03d}.nii"
        write_nifti_file(out / name, s.image, "float32")
        entries.append({"file": name, "level": s.level, "record": s.record.to_json_dict()})
    write_nifti_file(out / "target.nii", batch.target, "float32")
    write_nifti_file(out / "deformation.nii", batch.deformation.channels(), "float32")
    manifest = {
        "subject": batch.subject_id,
        "seed": seed,
        "n": batch.batch_size,
        "schedule": [s.level for s in batch.samples],
        "samples": entries,
        "target": "target.nii",
        "deformation": "deformation.nii",
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
