"""Contrast painting: turn a label map into an image of random contrast.

Each labeled region gets its own Gaussian intensity distribution. The region
means and stds are themselves random, drawn from shift/scale hyperparameters,
so repeated draws produce images of arbitrary (T1-like, T2-like, or entirely
unphysical) contrast from the same anatomy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingLabelParams
from .volume import LabelMap, Volume

__all__ = [
    "ContrastParams",
    "sample_contrast_params",
    "paint",
]


# mu_l = _MU_SHIFT + _MU_SCALE * z and sigma_l = |_SIGMA_SHIFT + _SIGMA_SCALE * z'|,
# z and z' standard normal: pre-normalization intensities stay mostly in [0, 1]
_MU_SHIFT, _MU_SCALE = 0.5, 0.25
_SIGMA_SHIFT, _SIGMA_SCALE = 0.05, 0.05


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


def sample_contrast_params(rng: np.random.Generator, labels) -> ContrastParams:
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
        mu = _MU_SHIFT + _MU_SCALE * z
        sigma = abs(_SIGMA_SHIFT + _SIGMA_SCALE * zp)
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
    if not fg.any():
        return Volume._adopt(np.zeros(lm.dims), lm.spacing, lm.grid_to_world)
    lo = float(out.min(where=fg, initial=np.inf))
    hi = float(out.max(where=fg, initial=-np.inf))
    if hi - lo <= 0.0:
        out[...] = 0.0
    else:
        out -= lo
        out /= hi - lo
        out[~fg] = 0.0
        np.clip(out, 0.0, 1.0, out=out)
    return Volume._adopt(out, lm.spacing, lm.grid_to_world)
