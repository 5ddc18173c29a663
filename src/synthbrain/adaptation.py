"""One-layer adaptation: closed-form voxelwise linear maps on frozen features.

A task head here is a single affine map from feature channels (optionally
concatenated with the raw input image) to target channels, optionally
followed by a softmax for segmentation. Because the head is linear, ridge
least squares over all voxels IS the training optimum — no gradient loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ChannelMismatch, NotASimplex, SingularSystem
from .volume import LabelMap, Volume, VolumeStack, check_same_geometry

__all__ = [
    "LinearAdapter",
    "fit_adapter",
    "apply_adapter",
    "fit_residual",
    "soft_dice_ce_loss",
    "l2_loss",
    "adapter_to_json",
    "adapter_from_json",
    "save_adapter",
    "load_adapter",
]

_COND_LIMIT = 1e12
# voxels per design block: 8.6 MB at 33 rows
_SLAB_VOXELS = 32_768


@dataclass(frozen=True)
class LinearAdapter:
    """Voxelwise affine map: out = x @ weights + bias.

    ``uses_input`` marks heads fitted with the raw image concatenated as an
    extra (last) input column; ``softmax`` marks segmentation heads whose
    outputs are normalized per voxel on application.
    """

    weights: np.ndarray  # (in_channels, out_channels)
    bias: np.ndarray  # (out_channels,)
    uses_input: bool = False
    softmax: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
            raise ValueError(f"inconsistent adapter shapes {w.shape} / {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("adapter parameters contain NaN/Inf")
        w = w.copy()
        b = b.copy()
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[1]


def _as_stack(x):
    return VolumeStack((x,)) if isinstance(x, Volume) else x


def _voxel_order(features) -> str:
    """The order voxels are flattened in: a stack file's (Fortran), else the
    first channel's own layout (Fortran for data read from NIfTI), so its
    rows copy contiguously."""
    if not isinstance(features, VolumeStack):
        return "F"
    return "F" if features.channels[0].data.flags.f_contiguous else "C"


def _rows(stack, order: str) -> list:
    """Per channel of ``stack``, a function giving its values at voxels
    ``[lo, hi)`` of ``order``'s flattening. A :class:`~synthbrain.nifti.StackReader`
    decodes them from its file, never the whole stack; an in-memory grid in
    the other layout is copied once, whole."""
    if not isinstance(stack, VolumeStack):
        if order == "F":
            return [partial(stack.values, c) for c in range(stack.channel_count)]
        stack = stack.read()
    return [lambda lo, hi, g=ch.data.ravel(order): g[lo:hi] for ch in stack.channels]


def _slabs(features, concat_input: Volume | None, target=None):
    """Yield ``(x, y, flat)`` per slab of voxels in :func:`_voxel_order`'s
    flattening: the channel-first ``(k + 1, s)`` design block (a row per
    feature channel, then the concatenated input, then ones), the ``(m, s)``
    target rows (none without a target) and the slab's slice of the grid.

    Each row is filled from :func:`_rows`; the blocks are reused from slab
    to slab.
    """
    order = _voxel_order(features)
    sources = _rows(features, order)
    if concat_input is not None:
        check_same_geometry(features, concat_input)
        sources += _rows(_as_stack(concat_input), order)
    targets = []
    if target is not None:
        check_same_geometry(features, target)
        targets = _rows(target, order)
    nvox = math.prod(features.dims)
    x = np.empty((len(sources) + 1, min(nvox, _SLAB_VOXELS)))
    x[-1] = 1.0
    y = np.empty((len(targets), x.shape[1]))
    for lo in range(0, nvox, _SLAB_VOXELS):
        hi = min(lo + _SLAB_VOXELS, nvox)
        for block, reads in ((x, sources), (y, targets)):
            for row, read in zip(block, reads):
                row[: hi - lo] = read(lo, hi)
        yield x[:, : hi - lo], y[:, : hi - lo], slice(lo, hi)


def fit_adapter(
    features: VolumeStack,
    target,
    concat_input: Volume | None = None,
    ridge: float = 1e-6,
    softmax: bool = False,
) -> LinearAdapter:
    """Ridge least squares over voxels: min ||XW + b - Y||^2 + ridge*||W||^2.

    The bias column is never regularized. ``ridge=0`` demands a full-rank
    system and raises :class:`SingularSystem` otherwise. The normal
    equations are summed one voxel slab at a time; ``features`` and
    ``target`` may be :class:`~synthbrain.nifti.StackReader` objects, whose
    slabs are decoded from their files as they are reached.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    target = _as_stack(target)
    k = features.channel_count + (concat_input is not None)
    nvox = math.prod(features.dims)
    if nvox <= k:
        raise ValueError(f"{nvox} voxels cannot determine {k} input channels")

    gram = np.zeros((k + 1, k + 1))
    rhs = np.zeros((k + 1, target.channel_count))
    for xt, yt, _ in _slabs(features, concat_input, target):
        gram += xt @ xt.T
        rhs += xt @ yt.T
    reg = np.zeros(k + 1)
    reg[:k] = ridge
    gram += np.diag(reg)

    if ridge == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularSystem(
                f"normal equations are rank-deficient (cond {cond:.3g}) and ridge is 0"
            )
    try:
        wb = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return LinearAdapter(wb[:k], wb[k], uses_input=concat_input is not None, softmax=softmax)


def _head(adapter: LinearAdapter, features: VolumeStack, concat_input: Volume | None):
    """The head's forward pass on one design block, once the inputs are
    checked against what the head was fitted on."""
    if adapter.uses_input != (concat_input is not None):
        raise ChannelMismatch(
            "adapter was fitted "
            + ("with" if adapter.uses_input else "without")
            + " a concatenated input image"
        )
    expected = adapter.in_channels - (1 if adapter.uses_input else 0)
    if features.channel_count != expected:
        raise ChannelMismatch(
            f"adapter expects {expected} feature channels, got {features.channel_count}"
        )
    wbt = np.vstack([adapter.weights, adapter.bias]).T

    def forward(xt: np.ndarray) -> np.ndarray:
        out = wbt @ xt
        if adapter.softmax:
            out -= out.max(axis=0, keepdims=True)
            np.exp(out, out=out)
            out /= out.sum(axis=0, keepdims=True)
        return out

    return forward


def apply_adapter(
    adapter: LinearAdapter, features: VolumeStack, concat_input: Volume | None = None
) -> VolumeStack:
    """Forward pass of the head; softmax heads return per-voxel probabilities."""
    forward = _head(adapter, features, concat_input)
    dims = features.dims
    out = np.empty((adapter.out_channels, math.prod(dims)))
    for xt, _, flat in _slabs(features, concat_input):
        out[:, flat] = forward(xt)
    order = _voxel_order(features)
    return VolumeStack(tuple(
        Volume._adopt(row.reshape(dims, order=order), features.spacing, features.grid_to_world)
        for row in out
    ))


def fit_residual(
    adapter: LinearAdapter,
    features: VolumeStack,
    target,
    concat_input: Volume | None = None,
) -> dict:
    """Training-set residuals (mean absolute / mean squared) of a fitted head."""
    target = _as_stack(target)
    forward = _head(adapter, features, concat_input)
    if target.channel_count != adapter.out_channels:
        raise ChannelMismatch(
            f"adapter has {adapter.out_channels} outputs, target has {target.channel_count} channels"
        )
    l1 = l2 = 0.0
    for xt, yt, _ in _slabs(features, concat_input, target):
        # the target rows are refilled for each slab, so they can take the residual
        diff = np.subtract(forward(xt), yt, out=yt)
        l2 += float(np.vdot(diff, diff))
        l1 += float(np.abs(diff, out=diff).sum())
    count = target.channel_count * math.prod(features.dims)
    return {"residual_l1": l1 / count, "residual_l2": l2 / count}


# -- task losses ----------------------------------------------------------------

def soft_dice_ce_loss(probs: VolumeStack, ref: LabelMap, labels=None) -> float:
    """(1 - mean soft Dice) + mean cross-entropy against integer labels.

    Channel c of ``probs`` carries the probability of ``labels[c]``
    (default: the sorted labels present in ``ref``). Probabilities must form
    a per-voxel simplex.
    """
    check_same_geometry(probs, ref)
    if labels is None:
        labels = ref.label_set
    labels = list(labels)
    if probs.channel_count != len(labels):
        raise ChannelMismatch(
            f"{probs.channel_count} probability channels for {len(labels)} labels"
        )
    p = probs.as_array()
    if p.min() < -1e-9 or np.abs(p.sum(axis=-1) - 1.0).max() > 1e-6:
        raise NotASimplex("per-voxel probabilities must be >= 0 and sum to 1")
    p = np.clip(p, 0.0, 1.0)

    onehot = np.stack([ref.data == lab for lab in labels], axis=-1).astype(np.float64)
    eps = 1e-12
    inter = (p * onehot).sum(axis=(0, 1, 2))
    sizes = p.sum(axis=(0, 1, 2)) + onehot.sum(axis=(0, 1, 2))
    dice_per_label = (2.0 * inter + eps) / (sizes + eps)
    p_true = (p * onehot).sum(axis=-1)
    ce = float(-np.log(np.clip(p_true, eps, 1.0)).mean())
    return float(1.0 - dice_per_label.mean()) + ce


def l2_loss(pred: Volume, ref: Volume) -> float:
    """Mean squared error."""
    check_same_geometry(pred, ref)
    return float(np.mean((pred.data - ref.data) ** 2))


# -- serialization ---------------------------------------------------------------

def _adapter_doc(adapter: LinearAdapter) -> dict:
    return {
        "shape": [adapter.in_channels, adapter.out_channels],
        "weights": adapter.weights.ravel(order="C").tolist(),
        "bias": adapter.bias.tolist(),
        "uses_input": adapter.uses_input,
        "softmax": adapter.softmax,
    }


def adapter_to_json(adapter: LinearAdapter) -> str:
    return json.dumps(_adapter_doc(adapter), indent=2, sort_keys=True)


def adapter_from_json(text: str) -> LinearAdapter:
    doc = json.loads(text)
    k, out = (int(v) for v in doc["shape"])
    w = np.asarray(doc["weights"], dtype=np.float64).reshape(k, out)
    b = np.asarray(doc["bias"], dtype=np.float64)
    return LinearAdapter(w, b, bool(doc.get("uses_input", False)), bool(doc.get("softmax", False)))


def save_adapter(path, adapter: LinearAdapter, extra: dict | None = None) -> None:
    doc = {**_adapter_doc(adapter), **(extra or {})}
    # checked before the file is opened: a NaN would be written as a bare token
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_adapter(path) -> LinearAdapter:
    with open(path) as fh:
        return adapter_from_json(fh.read())
