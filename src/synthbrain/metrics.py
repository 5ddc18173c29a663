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

from .deformation import DeformationField, _puller, invert
from .errors import (
    ChannelMismatch,
    EmptyLabelSet,
    EmptyMask,
    TooSmallForScales,
    ZeroEstimate,
)
from .volume import LabelMap, Volume, check_same_geometry

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


def _centres(x: np.ndarray, window: int) -> np.ndarray:
    """``x`` at the valid centres: those of the windows fully inside the grid."""
    r = window // 2
    return x[tuple(slice(r, n - r) for n in x.shape)]


def _win_mean(x: np.ndarray, window: int) -> np.ndarray:
    return _centres(uniform_filter(x, size=window, mode="constant"), window)


def _ssim_cs_maps(a, mu_a, e_aa, b, window):
    """Per-window SSIM and contrast-structure maps over valid centres, given
    ``a``'s own window means ``mu_a`` and ``e_aa`` (of ``a * a``)."""
    mu_b, e_bb, e_ab = _win_mean(b, window), _win_mean(b * b, window), _win_mean(a * b, window)
    # raw (unclamped) moments keep ssim(a, a) == 1 bitwise: for identical
    # inputs cov and the variances are the very same floats
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    lum = (2.0 * mu_a * mu_b + _C1) / (mu_a * mu_a + mu_b * mu_b + _C1)
    cs = (2.0 * cov + _C2) / (var_a + var_b + _C2)
    return lum * cs, cs


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
    """Multi-scale SSIM over dyadic downsamplings (Wang, Simoncelli and Bovik, Asilomar 2003).

    Each scale averages per-window terms over the fully-inside uniform
    windows (population variance); a mask, when given, selects which window
    centers count and is downsampled with the images. Contrast-structure
    terms (clamped at 0) are taken at the finer scales and full SSIM
    (luminance times contrast-structure) at the coarsest; the per-scale
    exponents are the conventional five weights truncated to ``scales`` and
    renormalized, so one scale is plain single-scale SSIM.
    """
    return _ssim_and_ms_ssim(a, b, scales, window, mask)[1]


def _scale_weights(dims, scales: int, window: int) -> np.ndarray:
    """MS-SSIM's per-scale exponents, once ``dims`` are checked to host the scales."""
    if not 1 <= scales <= len(_MS_WEIGHTS):
        raise TooSmallForScales(f"scales must be in [1, {len(_MS_WEIGHTS)}], got {scales}")
    if window < 1:
        raise TooSmallForScales(f"window must be >= 1, got {window}")
    if min(dims) < window * 2 ** (scales - 1):
        raise TooSmallForScales(
            f"dims {tuple(dims)} cannot host {scales} dyadic scales of window {window}"
        )
    weights = np.asarray(_MS_WEIGHTS[:scales])
    return weights / weights.sum()


def _mask_pyramid(m: np.ndarray | None, scales: int, window: int) -> list:
    """Per scale, the valid window centres the mask ``m`` selects (None without one);
    the mask is downsampled with the images."""
    if m is None:
        return [None] * scales
    centres = []
    for s in range(scales):
        centres.append(_centres(m, window))
        if not centres[-1].any():
            raise EmptyMask("mask selects no fully-interior window centers")
        if s < scales - 1:
            m = _downsample2(m.astype(np.float64)) > 0.5
            if not m.any():
                raise EmptyMask(f"mask vanished at scale {s + 1}")
    return centres


def _reference_pyramid(x: np.ndarray, scales: int, window: int) -> list:
    """Per scale, the reference image with its window means of ``x`` and ``x * x``:
    the half of the SSIM statistics that every image scored against it shares."""
    levels = []
    for s in range(scales):
        levels.append((x, _win_mean(x, window), _win_mean(x * x, window)))
        if s < scales - 1:
            x = _downsample2(x)
    return levels


def _scored(reference: list, b: np.ndarray, centres: list, weights, window) -> tuple[float, float]:
    """``(ssim, ms_ssim)`` of ``b`` against a :func:`_reference_pyramid`, from one
    pass: the first scale's SSIM is read off the statistics MS-SSIM's first scale uses."""
    scales = len(reference)
    result = 1.0
    for s, ((xa, mu_a, e_aa), mc) in enumerate(zip(reference, centres)):
        ssim_map, cs_map = _ssim_cs_maps(xa, mu_a, e_aa, b, window)
        if s == 0:
            first = _masked_mean(ssim_map, mc)
        if s < scales - 1:
            result *= max(_masked_mean(cs_map, mc), 0.0) ** weights[s]
            b = _downsample2(b)
        else:
            val = first if s == 0 else _masked_mean(ssim_map, mc)
            w = float(weights[s])
            result *= val if w == 1.0 else math.copysign(abs(val) ** w, val)
    return first, float(result)


def _ssim_and_ms_ssim(a, b, scales, window, mask=None) -> tuple[float, float]:
    check_same_geometry(a, b)
    weights = _scale_weights(a.dims, scales, window)
    centres = _mask_pyramid(_mask_array(mask, a.dims), scales, window)
    return _scored(_reference_pyramid(a.data, scales, window), b.data, centres, weights, window)


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


def norm_l2_bias(b_est: Volume, b_true: Volume, mask=None) -> float:
    """Scale-invariant L2 distance between two bias-field volumes.

    The estimate is first rescaled by the closed-form optimal scalar
    w = sum(true*est)/sum(est^2), so any positive global scaling of the
    estimate scores 0 against itself.
    """
    check_same_geometry(b_est, b_true)
    m = _mask_array(mask, b_est.dims)
    e = b_est.data[m] if m is not None else b_est.data.ravel()
    t = b_true.data[m] if m is not None else b_true.data.ravel()
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
        # a NaN would be written as a bare token, which is not JSON
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)

    def to_text(self) -> str:
        lines = [f"{'metric':<10}{'mean':>10}  (±std)"]
        for name in self.values:
            lines.append(f"{name:<10}{self.mean(name):>10.4f}  (±{self.std(name):.4f})")
        return "\n".join(lines)


def robustness_protocol(
    reference,
    candidates,
    mode: str = "intra",
    mask=None,
    window: int = 7,
    scales: int = 3,
) -> MetricReport:
    """Score candidate feature stacks against a clean reference, channelwise.

    ``candidates`` is a list of (stack, DeformationField) pairs; each
    stack is first mapped into the reference frame — through the inverse of
    its own deformation (``mode="intra"``) or by the given atlas mapping
    (``mode="inter"``) — then every channel contributes one L1/SSIM/MS-SSIM
    value against the matching reference channel, candidate by candidate.
    Stacks are :class:`VolumeStack` objects or :class:`~synthbrain.nifti.StackReader`
    objects on files, read one channel at a time.

    Shared work is done once: each distinct field object is inverted once,
    and the candidates on one grid that it warps share one set of sampling
    positions. For them, the reference's channel ``c`` and its half of the
    SSIM window statistics are computed once; then each candidate's channel
    ``c`` is read, warped, scored and dropped. The mask pyramid is built once.
    """
    if mode not in ("intra", "inter"):
        raise ValueError(f"mode must be 'intra' or 'inter', got {mode!r}")
    candidates = list(candidates)
    for stack, _ in candidates:
        if stack.channel_count != reference.channel_count:
            raise ChannelMismatch(
                f"candidate has {stack.channel_count} channels, "
                f"reference has {reference.channel_count}"
            )
    if not candidates:
        raise ValueError("no candidates to score")
    weights = _scale_weights(reference.dims, scales, window)
    m = _mask_array(mask, reference.dims)
    centres = _mask_pyramid(m, scales, window)
    # id(field) -> (field, candidate indices by grid); holding the field
    # keeps its id from reuse
    groups: dict[int, tuple[DeformationField, dict[tuple, list[int]]]] = {}
    for i, (stack, fld) in enumerate(candidates):
        grid = (stack.dims, stack.grid_to_world.tobytes())
        groups.setdefault(id(fld), (fld, {}))[1].setdefault(grid, []).append(i)
    rows: list[list] = [[] for _ in candidates]  # (l1, ssim, ms_ssim) per channel
    for fld, by_grid in groups.values():
        through = invert(fld) if mode == "intra" else fld
        for members in by_grid.values():
            pull = _puller(through, candidates[members[0]][0])
            for c in range(reference.channel_count):
                ref = reference.channel(c)
                pyramid = _reference_pyramid(ref.data, scales, window)
                for i in members:
                    warped = pull(candidates[i][0].channel(c))
                    check_same_geometry(ref, warped)
                    rows[i].append((_masked_mean(np.abs(ref.data - warped.data), m),
                                    *_scored(pyramid, warped.data, centres, weights, window)))
    values = zip(*(row for channels in rows for row in channels))
    return MetricReport(dict(zip(("l1", "ssim", "ms_ssim"), values)), masked=mask is not None)
