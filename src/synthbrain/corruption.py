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

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .deformation import DeformationConfig
from .volume import (
    Volume,
    _corner_aligned_weights,
    _linear_weights,
    _minmax,
    _number,
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
    corners on volume corners. Upsampled log values are convex combinations
    of the coarse ones, so the field is positive where the coarse minimum is.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
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
    axis is degraded, otherwise a fresh array.
    """
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
    clipped to [0, 1], as a fresh array."""
    # normal(0.0, sigma, dims) computes 0.0 + sigma * z; so does this, in place
    # and from the cheaper standard draw (the + 0.0 turns a -0.0 into +0.0)
    noisy = np.random.default_rng(int(seed)).standard_normal(data.shape)
    noisy *= sigma
    noisy += 0.0
    noisy += data
    return np.clip(noisy, 0.0, 1.0, out=noisy)


# -- full pipeline with replayable records --------------------------------------

def _must(want: str, ok):
    """A record check: None if ``ok(value)``, else ``"<key> must be <want>, got <value>"``."""
    return lambda key, value: None if ok(value) else f"{key} must be {want}, got {value!r}"


def _coarse_problem(key, coarse):
    c = np.asarray(coarse, dtype=object)
    if c.ndim != 3 or c.size == 0 or max(c.shape) > 8:
        return f"{key} grid must be 3D with >= 1 and <= 8 points per axis, got shape {c.shape}"
    if not all(_number(x) for x in c.flat):
        return f"{key} log-field contains NaN/Inf or a value that is not a number"
    if np.exp(min(c.flat)) <= 0:
        return "bias field must be strictly positive"


# the record format: the entries each stage's replay reads, each with its check
_RECORD_FORMAT = {
    "bias": {"coarse": _coarse_problem},
    "resolution": {"target_spacing": _must("3 finite numbers > 0", lambda t: isinstance(
        t, (list, tuple)) and len(t) == 3 and all(_number(x) and x > 0 for x in t))},
    "noise": {"sigma": _must("a finite number >= 0", lambda s: _number(s, 0)), "seed": _must(
        "an integer in [0, 2**63)", lambda s: _number(s, 0, 2 ** 63) and s == math.floor(s))},
}


def _copy(value, mapping, sequence):
    """Plain ``value``: mappings rebuilt by ``mapping``, lists and arrays by ``sequence``."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return sequence([_copy(v, mapping, sequence) for v in value])
    if isinstance(value, (dict, MappingProxyType)):
        return mapping({k: _copy(v, mapping, sequence) for k, v in value.items()})
    return value


@dataclass(frozen=True)
class CorruptionRecord:
    """Everything needed to replay one corruption bit-exactly.

    A stage entry is ``None`` when the stage did not alter the volume. A
    record may come from outside (JSON), so it is checked once, when built,
    and the stages trust it: ``level`` a string, each stage entry ``None``
    or a dict (or another record's entry) with what ``_RECORD_FORMAT`` asks
    (JSON ``true`` is not a number), ``renormalized`` a bool. The entries are
    then held read-only: mappings as ``MappingProxyType``, lists as tuples.
    """

    level: str
    bias: Mapping | None = None          # {mu, sigma, coarse: nested list}
    resolution: Mapping | None = None    # {target_spacing: [3], kind}
    noise: Mapping | None = None         # {sigma, seed}
    renormalized: bool = False

    def __post_init__(self):
        if not isinstance(self.level, str):
            raise ValueError(f"record entry 'level' must be a string, got {self.level!r}")
        for name, checks in _RECORD_FORMAT.items():
            if (entry := getattr(self, name)) is None:
                continue
            if not (isinstance(entry, (dict, MappingProxyType)) and checks.keys() <= entry.keys()):
                raise ValueError(f"record entry {name!r} must be null or an object with "
                                 f"{', '.join(checks)}, got {entry!r}")
            for key, check in checks.items():
                if problem := check(key, entry[key]):
                    raise ValueError(f"record entry {name!r}: {problem}")
            object.__setattr__(self, name, _copy(entry, MappingProxyType, tuple))
        if not isinstance(self.renormalized, bool):
            raise ValueError(f"record entry 'renormalized' must be true or false, "
                             f"got {self.renormalized!r}")

    def __reduce__(self):
        # read-only mappings neither pickle nor copy, so both go through the JSON form
        return type(self).from_json_dict, (self.to_json_dict(),)

    def to_json_dict(self) -> dict:
        """The record as plain JSON values: objects as dicts, arrays as lists."""
        return _copy(vars(self), dict, list)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CorruptionRecord":
        """The record a ``to_json_dict`` document describes; unknown keys are refused."""
        if not isinstance(d, dict):
            raise ValueError(f"a record must be an object, got {d!r}")
        if unknown := d.keys() - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown record entries: {', '.join(sorted(map(repr, unknown)))}")
        return cls(**{"level": None, **d})

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

    # a record renormalizes when a stage altered the volume
    return CorruptionRecord(cfg.level, bias, resolution, noise,
                            renormalized=any(s is not None for s in (bias, resolution, noise)))


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
        data = _apply_resolution(data, v.spacing, record.resolution["target_spacing"])
    if record.noise is not None:
        data = _apply_noise(data, record.noise["sigma"], record.noise["seed"])
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
