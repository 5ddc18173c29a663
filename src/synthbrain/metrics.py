"""Similarity metrics and the feature-robustness evaluation protocol.

Scalar metrics (L1, PSNR, SSIM, MS-SSIM, Dice, scale-invariant bias-field
distance) are pure functions over volumes. On top of them sits the
robustness protocol: warp candidate feature stacks back into a common frame
(the inverse of their own deformation, or a provided atlas mapping) and
score every channel against a clean reference, reporting mean and spread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_erosion, uniform_filter

from .deformation import DeformationField, invert, warp_stack
from .errors import (
    ChannelMismatch,
    EmptyLabelSet,
    EmptyMask,
    TooSmallForScales,
    ZeroEstimate,
)
from .volume import LabelMap, Volume, VolumeStack, check_same_geometry

__all__ = [
    "l1",
    "psnr",
    "ssim",
    "ms_ssim",
    "dice",
    "DiceScores",
    "norm_l2_bias",
    "interior_mask",
    "robustness_protocol",
    "MetricReport",
]

# conventional five-scale weights, truncated + renormalized per requested depth
_MS_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
# SSIM stabilizers (K1 * L)^2 and (K2 * L)^2 with the standard K1 = 0.01,
# K2 = 0.03 and dynamic range L = 1 (intensities in [0, 1])
_C1 = 0.01 ** 2
_C2 = 0.03 ** 2


def _mask_array(mask, dims) -> np.ndarray | None:
    if mask is None:
        return None
    m = np.asarray(getattr(mask, "data", mask)).astype(bool)
    if m.shape != tuple(dims):
        raise EmptyMask(f"mask shape {m.shape} does not match volume dims {tuple(dims)}")
    if not m.any():
        raise EmptyMask("mask selects zero voxels")
    return m


def _masked_mean(x: np.ndarray, m: np.ndarray | None) -> float:
    return float(x[m].mean() if m is not None else x.mean())


def l1(a: Volume, b: Volume, mask=None) -> float:
    """Mean absolute difference, optionally restricted to a mask."""
    check_same_geometry(a, b)
    return _masked_mean(np.abs(a.data - b.data), _mask_array(mask, a.dims))


def psnr(pred: Volume, ref: Volume, peak: float = 1.0, mask=None) -> float:
    """10*log10(peak^2 / MSE); identical inputs give +inf. ``peak`` must be > 0."""
    if not peak > 0:  # NaN fails this too
        raise ValueError(f"peak must be > 0, got {peak}")
    check_same_geometry(pred, ref)
    mse = _masked_mean((pred.data - ref.data) ** 2, _mask_array(mask, pred.dims))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _ssim_cs_maps(a, b, window):
    """Per-window SSIM and contrast-structure maps over valid (fully inside) centers."""
    r = window // 2
    crop = tuple(slice(r, n - r) for n in a.shape)

    def win_mean(x):
        return uniform_filter(x, size=window, mode="constant")[crop]

    mu_a, mu_b = win_mean(a), win_mean(b)
    e_aa, e_bb, e_ab = win_mean(a * a), win_mean(b * b), win_mean(a * b)
    # raw (unclamped) moments keep ssim(a, a) == 1 bitwise: for identical
    # inputs cov and the variances are the very same floats
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    lum = (2.0 * mu_a * mu_b + _C1) / (mu_a * mu_a + mu_b * mu_b + _C1)
    cs = (2.0 * cov + _C2) / (var_a + var_b + _C2)
    return lum * cs, cs


def _valid_center_mask(mask, dims, window):
    if mask is None:
        return None
    r = window // 2
    crop = tuple(slice(r, n - r) for n in dims)
    m = mask[crop]
    if not m.any():
        raise EmptyMask("mask selects no fully-interior window centers")
    return m


def ssim(a: Volume, b: Volume, window: int = 7, mask=None) -> float:
    """Mean structural similarity over all fully-inside uniform windows.

    Uses the population variance within each window; a mask, when given,
    selects which window *centers* contribute to the mean. This is
    :func:`ms_ssim` at one scale.
    """
    return _ssim_and_ms_ssim(a, b, 1, window, mask)[0]


def _downsample2(x: np.ndarray) -> np.ndarray:
    """2x average pooling, truncating odd trailing voxels."""
    nx, ny, nz = (d - d % 2 for d in x.shape)
    y = x[:nx, :ny, :nz].reshape(nx // 2, 2, ny // 2, 2, nz // 2, 2)
    return y.mean(axis=(1, 3, 5))


def ms_ssim(a: Volume, b: Volume, scales: int = 3, window: int = 7, mask=None) -> float:
    """Multi-scale SSIM over dyadic downsamplings.

    Each scale averages per-window terms over the fully-inside uniform
    windows (population variance); a mask, when given, selects which window
    centers count and is downsampled with the images. Contrast-structure
    terms (clamped at 0) are taken at the finer scales and full SSIM
    (luminance times contrast-structure) at the coarsest; the per-scale
    exponents are the conventional five weights truncated to ``scales`` and
    renormalized, so one scale is plain single-scale SSIM.
    """
    return _ssim_and_ms_ssim(a, b, scales, window, mask)[1]


def _ssim_and_ms_ssim(a, b, scales, window, mask=None) -> tuple[float, float]:
    """``(ssim, ms_ssim)`` from one pass: the first scale's SSIM is read off
    the same window statistics that MS-SSIM's first scale filters."""
    check_same_geometry(a, b)
    if not 1 <= scales <= len(_MS_WEIGHTS):
        raise TooSmallForScales(f"scales must be in [1, {len(_MS_WEIGHTS)}], got {scales}")
    if window < 1:
        raise TooSmallForScales(f"window must be >= 1, got {window}")
    if min(a.dims) < window * 2 ** (scales - 1):
        raise TooSmallForScales(
            f"dims {a.dims} cannot host {scales} dyadic scales of window {window}"
        )
    weights = np.asarray(_MS_WEIGHTS[:scales])
    weights = weights / weights.sum()

    xa, xb = a.data, b.data
    m = _mask_array(mask, a.dims)
    result = 1.0
    for s in range(scales):
        ssim_map, cs_map = _ssim_cs_maps(xa, xb, window)
        mc = _valid_center_mask(m, xa.shape, window)
        if s == 0:
            first = _masked_mean(ssim_map, mc)
        if s < scales - 1:
            result *= max(_masked_mean(cs_map, mc), 0.0) ** weights[s]
            xa, xb = _downsample2(xa), _downsample2(xb)
            if m is not None:
                m = _downsample2(m.astype(np.float64)) > 0.5
                if not m.any():
                    raise EmptyMask(f"mask vanished at scale {s + 1}")
        else:
            val = first if s == 0 else _masked_mean(ssim_map, mc)
            w = float(weights[s])
            result *= val if w == 1.0 else math.copysign(abs(val) ** w, val)
    return first, float(result)


@dataclass(frozen=True)
class DiceScores:
    per_label: dict[int, float]
    mean: float


def dice(pred: LabelMap, ref: LabelMap, labels=None) -> DiceScores:
    """Overlap 2|P∩R|/(|P|+|R|) per label; labels absent from both are skipped."""
    check_same_geometry(pred, ref)
    if labels is None:
        labels = sorted((set(pred.label_set) | set(ref.label_set)) - {0})
    per: dict[int, float] = {}
    for lab in labels:
        p = pred.data == lab
        r = ref.data == lab
        denom = int(p.sum()) + int(r.sum())
        if denom == 0:
            continue
        per[int(lab)] = 2.0 * int((p & r).sum()) / denom
    if not per:
        raise EmptyLabelSet("no label present in either map")
    return DiceScores(per, float(np.mean(list(per.values()))))


def norm_l2_bias(b_est, b_true, mask=None) -> float:
    """Scale-invariant L2 distance between bias fields.

    The estimate is first rescaled by the closed-form optimal scalar
    w = sum(true*est)/sum(est^2), so any positive global scaling of the
    estimate scores 0 against itself.
    """
    est = getattr(b_est, "field", b_est)
    true = getattr(b_true, "field", b_true)
    check_same_geometry(est, true)
    m = _mask_array(mask, est.dims)
    e = est.data[m] if m is not None else est.data.ravel()
    t = true.data[m] if m is not None else true.data.ravel()
    ss_e = float((e * e).sum())
    if ss_e == 0.0:
        raise ZeroEstimate("estimated bias field is identically zero over the mask")
    ss_t = float((t * t).sum())
    if ss_t == 0.0:
        raise ValueError("reference bias field is identically zero over the mask")
    w = float((t * e).sum()) / ss_e
    return float(np.sqrt(((w * e - t) ** 2).sum() / ss_t))


# -- feature robustness ---------------------------------------------------------

def interior_mask(lm: LabelMap, erosion: int = 2) -> np.ndarray:
    """Foreground (label != 0) eroded to stay clear of warping boundary effects."""
    if erosion < 0:
        raise ValueError(f"erosion must be >= 0, got {erosion}")
    fg = lm.data != 0
    if erosion > 0:
        fg = binary_erosion(fg, iterations=erosion)
    return fg


@dataclass(frozen=True)
class MetricReport:
    """Per-pair metric values with mean/std aggregation (population std)."""

    values: dict[str, tuple[float, ...]]
    masked: bool = False

    def mean(self, name: str) -> float:
        return float(np.mean(self.values[name]))

    def std(self, name: str) -> float:
        return float(np.std(self.values[name]))

    def to_json_dict(self) -> dict:
        return {
            "masked": self.masked,
            "metrics": {
                name: {"values": list(vals), "mean": self.mean(name), "std": self.std(name)}
                for name, vals in self.values.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"{'metric':<10}{'mean':>10}  (±std)"]
        for name in self.values:
            lines.append(f"{name:<10}{self.mean(name):>10.4f}  (±{self.std(name):.4f})")
        return "\n".join(lines)


def robustness_protocol(
    reference: VolumeStack,
    candidates,
    mode: str = "intra",
    mask=None,
    window: int = 7,
    scales: int = 3,
) -> MetricReport:
    """Score candidate feature stacks against a clean reference, channelwise.

    ``candidates`` is a list of (VolumeStack, DeformationField) pairs; each
    stack is first mapped into the reference frame — through the inverse of
    its own deformation (``mode="intra"``) or by the given atlas mapping
    (``mode="inter"``) — then every channel contributes one L1/SSIM/MS-SSIM
    value against the matching reference channel. Each distinct field object
    is inverted at most once, however many candidates share it; SSIM and
    MS-SSIM of a channel come from one pass over its window statistics.
    """
    if mode not in ("intra", "inter"):
        raise ValueError(f"mode must be 'intra' or 'inter', got {mode!r}")
    rows: list[tuple[float, float, float]] = []  # (l1, ssim, ms_ssim) per channel
    # id(field) -> (field, the field its candidates are warped through);
    # holding the field keeps its id from reuse
    through: dict[int, tuple[DeformationField, DeformationField]] = {}
    for stack, fld in candidates:
        if stack.channel_count != reference.channel_count:
            raise ChannelMismatch(
                f"candidate has {stack.channel_count} channels, "
                f"reference has {reference.channel_count}"
            )
        if id(fld) not in through:
            through[id(fld)] = (fld, invert(fld) if mode == "intra" else fld)
        warped = warp_stack(stack, through[id(fld)][1])
        for ref_c, cand_c in zip(reference.channels, warped.channels):
            rows.append((l1(ref_c, cand_c, mask),
                         *_ssim_and_ms_ssim(ref_c, cand_c, scales, window, mask=mask)))
    if not rows:
        raise ValueError("no candidates to score")
    return MetricReport(dict(zip(("l1", "ssim", "ms_ssim"), zip(*rows))), masked=mask is not None)
