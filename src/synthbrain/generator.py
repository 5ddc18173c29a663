"""Batch generation: one subject, one deformation, a ladder of corrupted samples.

Each batch deforms the subject once, then paints N independent random
contrasts on the warped labels and corrupts them at non-decreasing severity.
The regression target is the subject's structural scan warped by the same
deformation, so every sample is voxel-aligned with it. All randomness is
keyed by (base seed, subject id, sample index); samples are generated on a
thread pool yet come out byte-identical to a sequential run.

:func:`generate_batch` returns the batch in memory (for :func:`batch_loss`);
:func:`write_batch` streams it to a directory, each worker writing its sample
as soon as it is made, so peak memory does not grow with the batch size.
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
    "write_batch",
    "batch_loss",
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
    for level in levels:
        if level not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity level {level!r}")
    if any(_SEVERITY_RANK[a] > _SEVERITY_RANK[b] for a, b in zip(levels, levels[1:])):
        raise ValueError(f"severity levels must be non-decreasing, got {', '.join(levels)}")


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


def _check(subject: SubjectRecord, n: int, schedule, threads: int) -> list[SeverityConfig]:
    """The request's checks, made before anything is drawn or written; returns the schedule."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # the condition of an empty label set, without computing the set
    if not subject.labels.data.any():
        raise EmptyLabelSet(f"subject {subject.id!r} has no foreground labels")
    return _normalize_schedule(schedule, n)


def _prepare(subject: SubjectRecord, base_seed: int, cfgs: list[SeverityConfig]):
    """The work a batch shares: deformation, warped subject and target.

    Returns ``(deformation, target, make_sample)``, where ``make_sample(i)``
    draws sample i.
    """
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
    warped_labels._foreground_index

    def make_sample(i: int) -> Sample:
        rng = make_rng(base_seed, subject.id, i)
        params = sample_contrast_params(rng, label_set)
        painted = paint(warped_labels, params, rng)
        record = sample_corruption_record(rng, cfgs[i], painted)
        return Sample(apply_corruption(painted, record), record)

    return phi, target, make_sample


def _map(fn, n: int, threads: int) -> list:
    """``[fn(i) for i in range(n)]`` on ``threads`` workers, in index order."""
    if threads == 1 or n == 1:
        # no 1-worker pool: it raised peak RSS of a 96³ n=1 batch 194 -> 228 MB
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def generate_batch(
    subject: SubjectRecord,
    n: int,
    base_seed: int,
    schedule=None,
    threads: int = 1,
) -> SampleBatch:
    """Generate one batch of synthetic samples for a subject.

    ``schedule`` is a length-n list of severity names or configs (default:
    the evenly spaced ladder). One deformation is drawn and shared; sample i
    then gets fresh contrast parameters and corruption from its own RNG
    keyed by (base_seed, subject.id, i), which makes thread count
    irrelevant to the output bytes. ``threads`` workers paint and corrupt
    the samples (fewer than 1 is a ``ValueError``).
    """
    phi, target, make_sample = _prepare(subject, base_seed, _check(subject, n, schedule, threads))
    samples = _map(make_sample, n, threads)
    return SampleBatch(subject.id, phi, tuple(samples), target)


def write_batch(
    subject: SubjectRecord,
    n: int,
    base_seed: int,
    out_dir,
    schedule=None,
    threads: int = 1,
) -> Path:
    """Generate a batch straight to a directory; returns the manifest path.

    Writes the batch :func:`generate_batch` would return, as float32 NIfTI:
    ``target.nii``, ``deformation.nii`` (the field as 3 channels) and
    ``sample_{i:03d}.nii``, then ``manifest.json`` with ``base_seed`` as its
    seed. Each worker writes its sample as soon as it is made and keeps only
    the manifest entry, so at most ``threads`` samples are in memory at once,
    whatever ``n`` is. ``out_dir`` is created after the request's checks and
    before anything is drawn: a rejected request leaves no directory, and a
    path that cannot be a directory fails before the deformation is drawn.
    """
    cfgs = _check(subject, n, schedule, threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    phi, target, make_sample = _prepare(subject, base_seed, cfgs)
    write_nifti_file(out / "target.nii", target, "float32")
    write_nifti_file(out / "deformation.nii", phi.channels(), "float32")
    del phi, target  # the samples need only the warped labels, which make_sample holds

    def write_sample(i: int) -> dict:
        name = f"sample_{i:03d}.nii"
        sample = make_sample(i)
        write_nifti_file(out / name, sample.image, "float32")
        return {"file": name, "level": sample.level, "record": sample.record.to_json_dict()}

    entries = _map(write_sample, n, threads)
    manifest = {
        "subject": subject.id,
        "seed": base_seed,
        "n": n,
        "schedule": [e["level"] for e in entries],
        "samples": entries,
        "target": "target.nii",
        "deformation": "deformation.nii",
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


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

