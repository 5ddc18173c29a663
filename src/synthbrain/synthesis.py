"""Contrast painting: turn a label map into an image of random contrast.

Each labeled region gets its own Gaussian intensity distribution. The region
means and stds are themselves random, drawn from shift/scale hyperparameters,
so repeated draws produce images of arbitrary (T1-like, T2-like, or entirely
unphysical) contrast from the same anatomy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingLabelParams
from .volume import LabelMap, Volume

__all__ = [
    "ContrastConfig",
    "ContrastParams",
    "sample_contrast_params",
    "paint",
]


@dataclass(frozen=True)
class ContrastConfig:
    """Hyperparameters of the per-label intensity distributions.

    ``mu_l = mu_shift + mu_scale * z (+ label_shift[l])`` and
    ``sigma_l = |sigma_shift + sigma_scale * z'|`` with z, z' standard normal.
    Defaults keep pre-normalization intensities mostly inside [0, 1].
    """

    mu_shift: float = 0.5
    mu_scale: float = 0.25
    sigma_shift: float = 0.05
    sigma_scale: float = 0.05
    label_shift: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ContrastParams:
    """Drawn (mu, sigma) per label; background label 0 is pinned to (0, 0)."""

    table: dict[int, tuple[float, float]]

    def __post_init__(self):
        for lab, (mu, sig) in self.table.items():
            if sig < 0:
                raise ValueError(f"sigma for label {lab} is negative: {sig}")
        object.__setattr__(self, "table", dict(self.table))

    def to_json(self) -> str:
        return json.dumps(
            {str(k): {"mu": mu, "sigma": sig} for k, (mu, sig) in sorted(self.table.items())},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ContrastParams":
        raw = json.loads(text)
        return cls({int(k): (float(v["mu"]), float(v["sigma"])) for k, v in raw.items()})


def sample_contrast_params(
    rng: np.random.Generator,
    labels,
    cfg: ContrastConfig = ContrastConfig(),
) -> ContrastParams:
    """One (mu, sigma) draw per label, in sorted label order.

    Background (label 0) is forced to mu=0, sigma=0 and consumes no draws,
    so the presence or absence of background does not shift the stream.
    """
    labels = sorted(int(l) for l in labels)
    if not labels:
        raise ValueError("label set is empty")
    table: dict[int, tuple[float, float]] = {}
    for lab in labels:
        if lab == 0:
            table[0] = (0.0, 0.0)
            continue
        z, zp = rng.standard_normal(2)
        mu = cfg.mu_shift + cfg.mu_scale * z + cfg.label_shift.get(lab, 0.0)
        sigma = abs(cfg.sigma_shift + cfg.sigma_scale * zp)
        table[lab] = (float(mu), float(sigma))
    return ContrastParams(table)


def paint(
    lm: LabelMap,
    params: ContrastParams,
    rng: np.random.Generator,
    normalize: bool = True,
) -> Volume:
    """Per-voxel intensities ~ N(mu_label, sigma_label), optionally normalized.

    Normalization rescales the foreground (label != 0) to [0, 1] and keeps
    background at exactly 0; a constant foreground maps to all zeros. Pass
    ``normalize=False`` to inspect the raw draws.
    """
    present = lm.label_set
    missing = [lab for lab in present if lab not in params.table]
    if missing:
        raise MissingLabelParams(missing)

    # one entry per present label, gathered through the map's label index
    index = lm._label_index
    mu = np.array([params.table[lab][0] for lab in present])
    sigma = np.array([params.table[lab][1] for lab in present])

    # mu + sigma * eps, worked out in the buffer of the fresh draw eps
    out = rng.standard_normal(lm.dims)
    out *= sigma[index]
    out += mu[index]
    if not normalize:
        return Volume._adopt(out, lm.spacing, lm.grid_to_world)

    fg = lm.data != 0
    vals = out[fg]
    if not vals.size:
        return Volume._adopt(np.zeros(lm.dims), lm.spacing, lm.grid_to_world)
    lo = float(vals.min())
    hi = float(vals.max())
    if hi - lo <= 0.0:
        out[...] = 0.0
    else:
        out -= lo
        out /= hi - lo
        out[~fg] = 0.0
        np.clip(out, 0.0, 1.0, out=out)
    return Volume._adopt(out, lm.spacing, lm.grid_to_world)
