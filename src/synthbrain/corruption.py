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
from numbers import Real

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .deformation import DeformationConfig
from .volume import (
    Volume,
    _corner_aligned_weights,
    _linear_weights,
    _minmax,
    _per_axis,
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
# target spacing ranges (mm) of a low-field (isotropic) and an anisotropic
# (one thick axis) acquisition; severity grades only how often each is drawn
_LOW_FIELD_SPACING = (1.5, 4.0)
_ANISOTROPIC_SPACING = (2.5, 7.0)
# the entries each stage of a record holds when it ran
_STAGE_KEYS = {"bias": ("coarse",), "resolution": ("target_spacing",), "noise": ("sigma", "seed")}


@dataclass(frozen=True)
class SeverityConfig:
    """One corruption preset: stage probabilities and parameter ranges.

    Deformation ranges and acquisition spacings are shared by all levels;
    severity grades the chance of degraded resolution, the bias-field log
    statistics, and the noise std (quoted on a 0-255 intensity scale).
    """

    level: str
    p_low_field: float
    p_anisotropic: float
    bias_mu: tuple[float, float]
    bias_sigma: tuple[float, float]
    noise_sigma: tuple[float, float]  # 0-255 scale
    deformation: DeformationConfig = DeformationConfig()

    def __post_init__(self):
        for name in ("p_low_field", "p_anisotropic"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.p_low_field + self.p_anisotropic > 1.0:
            raise ValueError("p_low_field + p_anisotropic must not exceed 1")
        # each range is finite and ordered (NaN fails), its min at or above a floor
        for name, floor in (("bias_mu", -math.inf), ("bias_sigma", 0.0), ("noise_sigma", 0.0)):
            lo, hi = getattr(self, name)
            if not (-math.inf < lo and floor <= lo <= hi < math.inf):
                raise ValueError(f"{name} range ({lo}, {hi}) must be finite, with "
                                 f"min <= max and min >= {floor}")

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
            return {"off": cls.all_off, "mild": cls.mild, "medium": cls.medium,
                    "severe": cls.severe}[name.lower()]()
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r} (expected one of off, {', '.join(SEVERITY_LEVELS)})"
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


def _acquisition(n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """One axis of ``n`` voxels acquired at ``r`` times its spacing (r > 1).

    Returns the (m, n) acquisition, the slice-profile Gaussian (FWHM = r
    voxels, scipy's truncation, edges replicated) followed by linear sampling
    at the m = floor((n - 1) / r) + 1 coarse nodes, and the (n, m) trilinear
    upsampling back, which also replicates edges.
    """
    nodes = np.arange(int(np.floor((n - 1) / r)) + 1)
    # column j is the blur of a unit impulse at voxel j, so this is the
    # filter's matrix, truncation and edge rule included
    blur = gaussian_filter1d(np.eye(n), r / _FWHM, axis=0, mode="nearest")
    return _linear_weights(nodes * r, n) @ blur, _linear_weights(np.arange(n) / r, len(nodes))


def _apply_resolution(data: np.ndarray, spacing, target_spacing) -> np.ndarray:
    """Acquisition at ``target_spacing``, back on the grid of ``data``.

    Each degraded axis is blurred (slice-profile FWHM = target spacing) and
    sampled at the target spacing, all axes at once onto the acquired image's
    own coarse grid; that image is then trilinearly upsampled back, so the
    output dims always equal the input dims. Returns ``data`` itself when no
    axis is degraded, otherwise a fresh array. A record may come from outside
    (JSON), so the spacing is checked: a list or tuple of three finite numbers > 0.
    """
    if not (isinstance(target_spacing, (list, tuple)) and len(target_spacing) == 3
            and all(isinstance(t, Real) and 0 < t < math.inf for t in target_spacing)):
        raise ValueError(f"target_spacing must be 3 finite values > 0, got {target_spacing}")
    ratios = [t / c if t > c else 1.0 for t, c in zip(target_spacing, spacing)]
    if all(r == 1.0 for r in ratios):
        return data
    down, up = zip(*((None, None) if r == 1.0 else _acquisition(n, r)
                     for n, r in zip(data.shape, ratios)))
    # nested, so that the coarse image is freed as the upsampling consumes it
    return _per_axis(_per_axis(data, down), up)


# -- noise ---------------------------------------------------------------------

def _apply_noise(data: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """``data`` plus white noise of std ``sigma`` from the stream ``seed``,
    clipped to [0, 1], as a fresh array; both are checked, as a record may
    come from outside (JSON)."""
    if not (isinstance(sigma, Real) and 0 <= sigma < math.inf):
        raise ValueError(f"noise sigma must be finite and >= 0, got {sigma}")
    if not (isinstance(seed, Real) and 0 <= seed < 2 ** 63 and seed == math.floor(seed)):
        raise ValueError(f"noise seed must be an integer in [0, 2**63), got {seed}")
    # normal(0.0, sigma, dims) computes 0.0 + sigma * z; so does this, in place
    # and from the cheaper standard draw (the + 0.0 turns a -0.0 into +0.0)
    noisy = np.random.default_rng(int(seed)).standard_normal(data.shape)
    noisy *= sigma
    noisy += 0.0
    noisy += data
    return np.clip(noisy, 0.0, 1.0, out=noisy)


# -- full pipeline with replayable records --------------------------------------

@dataclass(frozen=True)
class CorruptionRecord:
    """Everything needed to replay one corruption bit-exactly.

    Stage entries are ``None`` when the stage did not alter the volume, so
    an all-off configuration leaves an empty record. A record may come from
    outside (JSON), so its layout is checked when it is built: each stage
    entry ``None`` or a dict with that stage's keys, ``renormalized`` a
    bool. The stages check the values they read.
    """

    level: str
    bias: dict | None = None          # {mu, sigma, coarse: nested list}
    resolution: dict | None = None    # {target_spacing: [3], kind}
    noise: dict | None = None         # {sigma, seed}
    renormalized: bool = False

    def __post_init__(self):
        for name, keys in _STAGE_KEYS.items():
            entry = getattr(self, name)
            if entry is not None and not (isinstance(entry, dict) and all(k in entry for k in keys)):
                raise ValueError(f"record entry {name!r} must be null or an object with "
                                 f"{', '.join(keys)}, got {entry!r}")
        if not isinstance(self.renormalized, bool):
            raise ValueError(f"record entry 'renormalized' must be true or false, "
                             f"got {self.renormalized!r}")

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
            renormalized=d.get("renormalized", False),
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
    ``p_anisotropic`` thick slices along one random axis (both in fixed
    ranges), otherwise native (no entry). Noise: a std uniform in the preset
    range (0-255 scale) and a seed for the white-noise stream.
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
            iso = float(rng.uniform(*_LOW_FIELD_SPACING))
            resolution = {"target_spacing": [iso, iso, iso], "kind": "low-field"}
        elif u < cfg.p_low_field + cfg.p_anisotropic:
            axis = int(rng.integers(3))
            target = [float(c) for c in like.spacing]
            target[axis] = float(rng.uniform(*_ANISOTROPIC_SPACING))
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
    """Replay a record: bias, then resolution, then noise, then renormalize.

    Each stage that runs returns a fresh array, which the next stages and
    the renormalization work in; ``v`` itself is never written, and comes
    back unchanged when no stage alters it.
    """
    data = v.data
    if record.bias is not None:
        data = _bias(record.bias["coarse"], v)
        data *= v.data
    if record.resolution is not None:
        data = _apply_resolution(data, v.spacing, record.resolution.get("target_spacing"))
    if record.noise is not None:
        data = _apply_noise(data, record.noise.get("sigma"), record.noise.get("seed"))
    if record.renormalized:
        data = _minmax(data, np.empty(v.dims) if data is v.data else data)
    return v if data is v.data else Volume._adopt(data, v.spacing, v.grid_to_world)


def corrupt(
    v: Volume, rng: np.random.Generator, cfg: SeverityConfig
) -> tuple[Volume, CorruptionRecord]:
    """Full pipeline on a normalized volume; returns image + replayable record."""
    if not np.all(np.isfinite(v.data)):
        raise ValueError("input volume contains NaN/Inf")
    record = sample_corruption_record(rng, cfg, v)
    return apply_corruption(v, record), record
