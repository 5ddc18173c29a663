"""Contrast painting: turn a label map into an image of random contrast.

Each labeled region gets its own Gaussian intensity distribution. The region
means and stds are themselves random, drawn from shift/scale hyperparameters,
so repeated draws produce images of arbitrary (T1-like, T2-like, or entirely
unphysical) contrast from the same anatomy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingLabelParams
from .seeding import _standard_normal
from .volume import LabelMap, Volume, _minmax

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
    """Per-voxel intensities ~ N(mu_label, sigma_label), optionally normalized,
    as a float32 volume.

    Only the foreground (label != 0) is drawn: one float32 standard normal
    per foreground voxel, in C order, by ``seeding._standard_normal``
    (Box-Muller on float32 uniforms). Background is exactly +0.0, whatever the
    table gives label 0, and an all-background map draws nothing.
    Normalization rescales the foreground to [0, 1]; a foreground constant
    up to rounding maps to all zeros. The values and their normalization are
    worked out in float64 and rounded once, into the float32 grid. Pass
    ``normalize=False`` to inspect the raw draws.
    """
    present = lm.label_set
    missing = [lab for lab in present if lab != 0 and lab not in params.table]
    if missing:
        raise MissingLabelParams(missing)

    out = np.zeros(lm.dims, dtype=np.float32)
    # one entry per present label, gathered through the map's label index;
    # background voxels are never drawn, so label 0's entry is never read
    index = lm._foreground_index
    if not index.size:
        return Volume._adopt(out, lm.spacing, lm.grid_to_world)
    mu, sigma = np.array([params.table[lab] if lab else (0.0, 0.0) for lab in present]).T

    # mu + sigma * z in float64, worked out in the buffer of the gathered sigmas
    vals = sigma[index]
    vals *= _standard_normal(rng, index.size)
    vals += mu[index]
    if normalize:
        _minmax(vals, vals)
    out[lm._foreground] = vals
    return Volume._adopt(out, lm.spacing, lm.grid_to_world)
