"""Image corruption: bias field, resolution simulation, noise.

Three severity presets (mild / medium / severe) control how aggressive each
stage is. Every random draw is captured in a :class:`CorruptionRecord`, and
``apply_corruption`` replays a record bit-exactly — ``corrupt`` itself is
implemented as sample-record-then-replay, so the round trip is an identity
by construction. Records double as ground truth for downstream tasks:
``CorruptionRecord.bias_field`` gives the true bias field for bias
estimation, built by the same routine the replay multiplies in (SynthSeg's
model: the exp of a small Gaussian log grid, upsampled).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .deformation import DeformationConfig
from .volume import (
    Volume,
    _corner_aligned_weights,
    _linear_weights,
    _per_axis,
    minmax_normalize,
)

__all__ = [
    "SeverityConfig",
    "CorruptionRecord",
    "sample_corruption_record",
    "apply_corruption",
    "corrupt",
    "SEVERITY_LEVELS",
]

SEVERITY_LEVELS = ("mild", "medium", "severe")

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
_FWHM = 2.354820045030949
# points per axis of the coarse log bias grid
_BIAS_GRID = 4


@dataclass(frozen=True)
class SeverityConfig:
    """One corruption preset: stage probabilities and parameter ranges.

    Deformation ranges are identical across levels; what changes with
    severity is the chance of degraded resolution, the bias-field log
    statistics, and the noise std (quoted on a 0-255 intensity scale).
    """

    level: str
    p_low_field: float
    p_anisotropic: float
    bias_mu: tuple[float, float]
    bias_sigma: tuple[float, float]
    noise_sigma: tuple[float, float]  # 0-255 scale
    deformation: DeformationConfig = DeformationConfig()
    low_field_spacing: tuple[float, float] = (1.5, 4.0)
    anisotropic_spacing: tuple[float, float] = (2.5, 7.0)

    def __post_init__(self):
        for name in ("p_low_field", "p_anisotropic"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_low_field + self.p_anisotropic > 1.0:
            raise ValueError("p_low_field + p_anisotropic must not exceed 1")
        # each range is finite and ordered (NaN fails), its min above a floor
        for name, floor, strict in (("bias_mu", -math.inf, True),
                                    ("bias_sigma", 0.0, False), ("noise_sigma", 0.0, False),
                                    ("low_field_spacing", 0.0, True),
                                    ("anisotropic_spacing", 0.0, True)):
            lo, hi = getattr(self, name)
            if not ((lo > floor if strict else lo >= floor) and lo <= hi < math.inf):
                raise ValueError(f"{name} range ({lo}, {hi}) must be finite, with "
                                 f"min <= max and min {'>' if strict else '>='} {floor}")

    @classmethod
    def mild(cls) -> "SeverityConfig":
        return cls("mild", 0.1, 0.0, (0.01, 0.02), (0.01, 0.05), (0.01, 1.0))

    @classmethod
    def medium(cls) -> "SeverityConfig":
        return cls("medium", 0.3, 0.1, (0.02, 0.03), (0.05, 0.3), (0.5, 5.0))

    @classmethod
    def severe(cls) -> "SeverityConfig":
        return cls("severe", 0.5, 0.25, (0.02, 0.04), (0.1, 0.6), (5.0, 15.0))

    @classmethod
    def all_off(cls) -> "SeverityConfig":
        """Every stage disabled: corrupt() becomes the identity."""
        return cls("off", 0.0, 0.0, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                   deformation=DeformationConfig.all_off())

    @classmethod
    def by_name(cls, name: str) -> "SeverityConfig":
        try:
            return {"mild": cls.mild, "medium": cls.medium,
                    "severe": cls.severe, "off": cls.all_off}[name.lower()]()
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r} (expected one of {SEVERITY_LEVELS})"
            ) from None


def _bias(coarse, like) -> np.ndarray:
    """The multiplicative field on ``like``'s grid, as a fresh array.

    The exp of the coarse log grid, trilinearly upsampled with coarse
    corners on volume corners. A record may come from outside (JSON), so
    the grid is checked; upsampled log values are convex combinations of
    the coarse ones, so the field is positive where the coarse minimum is.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    if coarse.ndim != 3 or max(coarse.shape) > 8:
        raise ValueError(f"coarse grid must be 3D with <= 8 points per axis, got {coarse.shape}")
    if not np.all(np.isfinite(coarse)):
        raise ValueError("coarse log-field contains NaN/Inf")
    if np.exp(coarse.min()) <= 0:
        raise ValueError("bias field must be strictly positive")
    field = _per_axis(coarse, [_corner_aligned_weights(n, c)
                               for c, n in zip(coarse.shape, like.dims)])
    return np.exp(field, out=field)


def _resample_through(data: np.ndarray, ratios) -> np.ndarray:
    """Downsample by per-axis ratios (>= 1) then trilinear-upsample back.

    Both passes replicate edges (resampling must not darken borders); per
    axis they fold into one (n, n) down-then-up matrix.
    """
    def down_up(n, r):
        coarse = np.arange(int(np.floor((n - 1) / r)) + 1)
        return _linear_weights(np.arange(n) / r, len(coarse)) @ _linear_weights(coarse * r, n)

    return _per_axis(data, [None if r == 1.0 else down_up(n, r)
                            for n, r in zip(data.shape, ratios)])


def _apply_resolution(v: Volume, target_spacing) -> Volume:
    """Acquisition at ``target_spacing``, back on the input grid.

    Each degraded axis is blurred (slice-profile FWHM = target spacing),
    subsampled at the target spacing and trilinearly upsampled back, so the
    output dims always equal the input dims.
    """
    ratios = [t / c if t > c else 1.0 for t, c in zip(target_spacing, v.spacing)]
    if all(r == 1.0 for r in ratios):
        return v
    sigmas = [r / _FWHM if r > 1.0 else 0.0 for r in ratios]
    blurred = gaussian_filter(v.data, sigmas, mode="nearest")
    return Volume._adopt(_resample_through(blurred, ratios), v.spacing, v.grid_to_world)


# -- noise ---------------------------------------------------------------------

def _apply_noise(v: Volume, sigma: float, seed: int) -> Volume:
    noisy = np.random.default_rng(seed).normal(0.0, sigma, v.dims)
    noisy += v.data
    return Volume._adopt(np.clip(noisy, 0.0, 1.0, out=noisy), v.spacing, v.grid_to_world)


# -- full pipeline with replayable records --------------------------------------

@dataclass(frozen=True)
class CorruptionRecord:
    """Everything needed to replay one corruption bit-exactly.

    Stage entries are ``None`` when the stage did not alter the volume, so
    an all-off configuration leaves an empty record.
    """

    level: str
    bias: dict | None = None          # {mu, sigma, coarse: nested list}
    resolution: dict | None = None    # {target_spacing: [3], kind}
    noise: dict | None = None         # {sigma, seed}
    renormalized: bool = False

    @property
    def empty(self) -> bool:
        return self.bias is None and self.resolution is None and self.noise is None

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "bias": self.bias,
            "resolution": self.resolution,
            "noise": self.noise,
            "renormalized": self.renormalized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CorruptionRecord":
        return cls(
            level=d["level"],
            bias=d.get("bias"),
            resolution=d.get("resolution"),
            noise=d.get("noise"),
            renormalized=bool(d.get("renormalized", False)),
        )

    def bias_field(self, like) -> Volume | None:
        """The ground-truth multiplicative bias field on ``like``'s grid."""
        if self.bias is None:
            return None
        return Volume._adopt(_bias(self.bias["coarse"], like), like.spacing, like.grid_to_world)


def sample_corruption_record(
    rng: np.random.Generator, cfg: SeverityConfig, like
) -> CorruptionRecord:
    """Draw all corruption parameters for one sample without touching voxels.

    This is the only place corruption is drawn; a stage whose ranges are all
    zero draws nothing. Bias: mu_b and sigma_b uniform in the preset ranges,
    then a coarse log-grid of N(mu_b, sigma_b) values. Resolution: with
    probability ``p_low_field`` an isotropic target spacing, with probability
    ``p_anisotropic`` thick slices along one random axis, otherwise native
    (no entry). Noise: a std uniform in the preset range (0-255 scale) and a
    seed for the white-noise stream.
    """
    bias = None
    if cfg.bias_mu != (0.0, 0.0) or cfg.bias_sigma != (0.0, 0.0):
        mu_b = float(rng.uniform(*cfg.bias_mu))
        sigma_b = float(rng.uniform(*cfg.bias_sigma))
        coarse = rng.normal(mu_b, sigma_b, (_BIAS_GRID,) * 3)
        bias = {"mu": mu_b, "sigma": sigma_b, "coarse": coarse.tolist()}

    resolution = None
    if cfg.p_low_field > 0.0 or cfg.p_anisotropic > 0.0:
        u = float(rng.uniform())
        if u < cfg.p_low_field:
            iso = float(rng.uniform(*cfg.low_field_spacing))
            resolution = {"target_spacing": [iso, iso, iso], "kind": "low-field"}
        elif u < cfg.p_low_field + cfg.p_anisotropic:
            axis = int(rng.integers(3))
            target = [float(c) for c in like.spacing]
            target[axis] = float(rng.uniform(*cfg.anisotropic_spacing))
            resolution = {"target_spacing": target, "kind": "anisotropic"}

    noise = None
    if cfg.noise_sigma != (0.0, 0.0):
        sigma = float(rng.uniform(*cfg.noise_sigma)) / 255.0
        if sigma > 0.0:
            seed = int(rng.integers(np.iinfo(np.int64).max))
            noise = {"sigma": sigma, "seed": seed}

    rec = CorruptionRecord(cfg.level, bias, resolution, noise)
    return replace(rec, renormalized=not rec.empty)


def apply_corruption(v: Volume, record: CorruptionRecord) -> Volume:
    """Replay a record: bias, then resolution, then noise, then renormalize."""
    out = v
    if record.bias is not None:
        field = _bias(record.bias["coarse"], v)
        field *= v.data
        out = Volume._adopt(field, v.spacing, v.grid_to_world)
    if record.resolution is not None:
        out = _apply_resolution(out, tuple(record.resolution["target_spacing"]))
    if record.noise is not None:
        out = _apply_noise(out, float(record.noise["sigma"]), int(record.noise["seed"]))
    if record.renormalized:
        out = minmax_normalize(out)
    return out


def corrupt(
    v: Volume, rng: np.random.Generator, cfg: SeverityConfig
) -> tuple[Volume, CorruptionRecord]:
    """Full pipeline on a normalized volume; returns image + replayable record."""
    if not np.all(np.isfinite(v.data)):
        raise ValueError("input volume contains NaN/Inf")
    record = sample_corruption_record(rng, cfg, v)
    return apply_corruption(v, record), record
