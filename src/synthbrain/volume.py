"""Dense 3D volumes, label maps, and the sampling/arithmetic primitives built on them.

Conventions used throughout the package:

* Voxel data is indexed ``data[i, j, k]`` with ``i`` along x (the fastest
  axis on disk, matching NIfTI-1 Fortran order).
* ``grid_to_world`` maps homogeneous voxel indices to world millimetres.
* Intensity sampling outside ``[0, n-1]^3`` returns 0; label sampling
  returns the background label 0. This matches skull-stripped data where
  everything outside the head is zero.
* Volumes are immutable after construction and safe to share across
  threads; every operation here is a pure function.
* The sampling kernels walk the points in fixed chunks and keep no state
  between calls. Trilinear values are bitwise those of
  ``scipy.ndimage.map_coordinates`` (order 1, ``mode="nearest"``).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import DegenerateGrid, GeometryMismatch

__all__ = [
    "Volume",
    "LabelMap",
    "VolumeStack",
    "sample_trilinear",
    "sample_nearest",
    "spatial_gradient",
    "minmax_normalize",
    "same_geometry",
    "check_same_geometry",
    "voxel_to_world",
    "world_coordinate_grid",
]


# an array the library has just built, passed by _Grid._adopt
_Fresh = namedtuple("_Fresh", "array")


def _number(x, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Whether ``x`` is a JSON number (a real, not a bool) in [lo, hi) that a
    float holds finitely (JSON integers are unbounded)."""
    return (isinstance(x, Real) and not isinstance(x, bool) and lo <= x < hi
            and abs(x) <= sys.float_info.max)


def _geometry(spacing, grid_to_world) -> tuple[tuple[float, float, float], np.ndarray]:
    """Checked spacing and read-only ``grid_to_world`` (default ``diag(spacing)``)."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing components must be finite and > 0, got {spacing}")
    if grid_to_world is None:
        affine = np.diag(spacing + (1.0,))
    else:
        affine = np.array(grid_to_world, dtype=np.float64)
    if affine.shape != (4, 4) or not np.allclose(affine[3], [0, 0, 0, 1]):
        raise ValueError("grid_to_world must be a 4x4 homogeneous affine")
    if not np.isfinite(affine).all():
        raise ValueError(f"grid_to_world entries must be finite, got {affine.tolist()}")
    if abs(np.linalg.det(affine[:3, :3])) <= 1e-12:
        raise ValueError("grid_to_world upper-left 3x3 block is singular")
    affine.setflags(write=False)
    return spacing, affine


class _Grid:
    """Base of the grid types: a frozen dataclass whose fields start with its
    array (attribute ``_array``, ``(nx, ny, nz)`` or, when ``_vector``,
    ``(nx, ny, nz, 3)``), ``spacing`` and ``grid_to_world`` (default
    ``diag(spacing)``). ``_convert(data, copy)`` checks the values and returns
    them as stored, copying when ``copy`` or a dtype/layout change needs it.
    The stored array is read-only.
    """

    _array = "data"
    _vector = False

    def __post_init__(self):
        data = getattr(self, self._array)
        fresh = isinstance(data, _Fresh)
        data = self._convert(data.array if fresh else data, copy=not fresh)
        if data.ndim != 3 + self._vector or (self._vector and data.shape[3] != 3):
            want = "(nx, ny, nz, 3)" if self._vector else "(nx, ny, nz)"
            raise ValueError(f"{self._array} must have shape {want}, got {data.shape}")
        if min(data.shape) < 1:
            raise ValueError(f"voxel counts must be positive, got {data.shape}")
        spacing, affine = _geometry(self.spacing, self.grid_to_world)
        data.setflags(write=False)
        object.__setattr__(self, self._array, data)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "grid_to_world", affine)

    @classmethod
    def _adopt(cls, data: np.ndarray, *args, **kwargs):
        """The constructor, taking ownership of ``data`` instead of copying it.

        For arrays the caller has just built and keeps no writable reference
        to; ``data`` is made read-only in place. Every check still runs.
        """
        return cls(_Fresh(data), *args, **kwargs)

    @property
    def dims(self) -> tuple[int, int, int]:
        return getattr(self, self._array).shape[:3]

    def with_data(self, data: np.ndarray):
        """Same grid, new values (copied)."""
        return type(self)(data, self.spacing, self.grid_to_world)


@dataclass(frozen=True)
class Volume(_Grid):
    """A scalar field on a regular 3D grid.

    Parameters
    ----------
    data : ndarray, shape (nx, ny, nz)
        Voxel values; stored as float64, read-only.
    spacing : tuple of 3 floats, optional
        Voxel size in mm. Defaults to 1 mm isotropic.
    grid_to_world : (4, 4) ndarray, optional
        Homogeneous voxel-to-mm affine. Defaults to ``diag(spacing)``.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    grid_to_world: np.ndarray = field(default=None)  # type: ignore[assignment]

    @staticmethod
    def _convert(data, copy: bool) -> np.ndarray:
        return (np.array if copy else np.asarray)(data, dtype=np.float64)


_LABEL_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class LabelMap(_Grid):
    """An integer anatomical-label field; label 0 is reserved for background."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    grid_to_world: np.ndarray = field(default=None)  # type: ignore[assignment]

    @staticmethod
    def _convert(data, copy: bool) -> np.ndarray:
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.integer):
            rounded = np.rint(np.asarray(data, dtype=np.float64))
            if not np.array_equal(rounded, data):
                raise ValueError("label data must be integer-valued")
            data = rounded
        # checked before the cast, which would wrap or overflow silently
        if data.size and data.min() < 0:
            raise ValueError("labels must be non-negative")
        top = data.max() if data.size else 0
        if top > _LABEL_MAX:
            raise ValueError(f"labels must be <= {_LABEL_MAX} (the int32 maximum), got {top}")
        return data.astype(np.int32, copy=copy)

    @cached_property
    def label_set(self) -> tuple[int, ...]:
        """Sorted unique labels present in the map."""
        return tuple(int(v) for v in np.unique(self.data))

    @cached_property
    def _foreground(self) -> np.ndarray:
        """Boolean mask of the voxels with a label other than 0, read-only."""
        fg = self.data != 0
        fg.setflags(write=False)
        return fg

    @cached_property
    def _foreground_index(self) -> np.ndarray:
        """Each :attr:`_foreground` voxel's position in :attr:`label_set`, in C
        order, read-only.

        Stored in the smallest unsigned dtype that holds the label count, so it
        costs one byte per foreground voxel for up to 256 labels whatever their
        values.
        """
        labels = np.array(self.label_set, dtype=np.int32)
        index = np.searchsorted(labels, self.data[self._foreground])
        index = index.astype(np.min_scalar_type(len(labels) - 1))
        index.setflags(write=False)
        return index


@dataclass(frozen=True)
class VolumeStack:
    """An ordered list of geometry-identical volumes (feature channels)."""

    channels: tuple[Volume, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ValueError("a stack needs at least one channel")
        for ch in channels[1:]:
            check_same_geometry(channels[0], ch)
        object.__setattr__(self, "channels", channels)

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.channels[0].dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.channels[0].spacing

    @property
    def grid_to_world(self) -> np.ndarray:
        return self.channels[0].grid_to_world

    def channel(self, c: int) -> Volume:
        """Channel ``c``, as :meth:`nifti.StackReader.channel` decodes it from a file."""
        return self.channels[c]

    def as_array(self) -> np.ndarray:
        """Channel-last (nx, ny, nz, c) copy of the stack."""
        return np.stack([ch.data for ch in self.channels], axis=-1)


# absolute tolerance on spacing and affine entries (mm)
_GEOMETRY_TOL = 1e-5


def same_geometry(a, b) -> bool:
    """True when two grid-carrying objects share dims, spacing, and affine."""
    return (
        tuple(a.dims) == tuple(b.dims)
        and np.allclose(a.spacing, b.spacing, atol=_GEOMETRY_TOL)
        and np.allclose(a.grid_to_world, b.grid_to_world, atol=_GEOMETRY_TOL)
    )


def check_same_geometry(a, b) -> None:
    if not same_geometry(a, b):
        raise GeometryMismatch(
            f"grids differ: dims {tuple(a.dims)} vs {tuple(b.dims)}, "
            f"spacing {a.spacing} vs {b.spacing}"
        )


# -- coordinate helpers -------------------------------------------------------

def voxel_to_world(affine: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a homogeneous affine to (..., 3) voxel coordinates."""
    p = np.asarray(pts, dtype=np.float64)
    return p @ affine[:3, :3].T + affine[:3, 3]


def world_coordinate_grid(dims, affine: np.ndarray) -> np.ndarray:
    """(nx, ny, nz, 3) array of ``affine`` applied to every voxel index.

    Same values as ``voxel_to_world`` on the index grid (bitwise on
    axis-aligned affines); ``np.eye(4)`` gives the index grid itself. Each
    component is ``(((0.0 + i a0) + j a1) + k a2) + a3``, summed in that
    order, and filled whole, so that numpy's inner loops run along the last
    axis rather than over the three components.
    """
    dims = tuple(dims)
    out = np.empty(dims + (3,))
    i, j, k = (np.arange(n, dtype=np.float64) for n in dims)
    for c, (a0, a1, a2, a3) in enumerate(affine[:3]):
        # 0.0 + ..., so that a -0.0 product still starts the sum at +0.0
        plane = (i * a0 + 0.0)[:, None] + j * a1
        comp = out[..., c]
        np.add(plane[:, :, None], k * a2, out=comp)
        comp += a3
    return out


# -- sampling -----------------------------------------------------------------

# points per pass of the sampling kernels, so that a pass's per-point arrays
# (64 kB each) stay in cache
_CHUNK = 8192


def _chunks(flat: np.ndarray, dims):
    """The (N, 3) points ``flat`` ``_CHUNK`` at a time: each block's slice, the
    mask of its points outside ``[0, n-1]`` on some axis or NaN, and its x, y
    and z rows, copied to (3, m) and clamped to ``[0, n-1]`` (NaN to 0) so that
    every lookup lands on the grid; the caller zeroes the masked points."""
    top = np.array(dims, dtype=np.float64)[:, None] - 1.0
    for lo in range(0, len(flat), _CHUNK):
        s = slice(lo, lo + _CHUNK)
        xyz = flat[s].T.copy()
        # an explicit mask, not zero padding of the data, which would fade to
        # zero over the last half voxel
        inside = xyz >= 0.0
        inside &= xyz <= top
        # fmax, unlike maximum, returns the 0 for a NaN
        yield s, ~inside.all(axis=0), np.fmin(np.fmax(xyz, 0.0, out=xyz), top, out=xyz)


def _flat_points(pts) -> tuple[np.ndarray, tuple]:
    """``pts``, (..., 3) voxel coordinates, as float64 (N, 3) rows (read in place
    where they are already such rows) and their batch shape."""
    p = np.asarray(pts, dtype=np.float64)
    if p.ndim < 1 or p.shape[-1] != 3:
        raise ValueError(f"points must have shape (..., 3), got {p.shape}")
    return p.reshape(-1, 3), p.shape[:-1]


def _flat_strides(dims, channels: int = 1) -> tuple[int, int, int]:
    """Flat-index step per voxel along each axis of a C-ordered grid."""
    return dims[1] * dims[2] * channels, dims[2] * channels, channels


def sample_trilinear(data: np.ndarray, pts) -> np.ndarray:
    """Trilinear interpolation at (..., 3) voxel coordinates.

    ``data`` is scalar ``(nx, ny, nz)`` or channel-last ``(nx, ny, nz, c)``;
    the result has shape ``pts.shape[:-1]``, plus ``(c,)`` for channel data.
    Points outside ``[0, n-1]`` on any axis evaluate to 0 (zero padding).

    The values are bitwise those of ``scipy.ndimage.map_coordinates`` (order 1,
    ``mode="nearest"``) on each channel: the same weights, the upper corner
    clamped to ``n-1``, and the same order of products and sums. Each point's
    weights are computed once for all channels.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim not in (3, 4):
        raise ValueError(f"data must have shape (nx, ny, nz) or (nx, ny, nz, c), got {data.shape}")
    dims = data.shape[:3]
    flat_pts, shape = _flat_points(pts)
    # C order, so a corner is found by its flat index (a grid in Fortran
    # order, as NIfTI decodes it, is copied first)
    flat = np.ascontiguousarray(data).reshape(-1)
    channels = data.shape[3] if data.ndim == 4 else 1
    out = np.empty((len(flat_pts), channels))
    for s, outside, xyz in _chunks(flat_pts, dims):
        _trilinear_chunk(flat, xyz, dims, out[s])
        out[s][outside] = 0.0
    return out.reshape(shape + data.shape[3:])


def _trilinear_chunk(flat: np.ndarray, xyz: np.ndarray, dims, out: np.ndarray) -> None:
    """Fill ``out``, (m, c), with the trilinear samples of ``flat``, C-ordered
    data of ``dims`` with c values per voxel, at the (3, m) on-grid points ``xyz``."""
    channels = out.shape[1]
    # per axis, the lower and upper corners' flat offsets and weights
    axes = []
    for c, n, stride in zip(xyz, dims, _flat_strides(dims, channels)):
        lo = np.floor(c)
        c -= lo
        w0 = np.subtract(1.0, c)
        # scipy's upper weight: 1 - (1 - t), not t, which differs in the last bit
        w1 = np.subtract(1.0, w0, out=c)
        lo = lo.astype(np.intp)
        lo *= stride
        # the upper corner clamped to n-1, as mode="nearest" does
        hi = np.minimum(lo + stride, (n - 1) * stride)
        axes.append(((lo, w0), (hi, w1)))
    # z fastest, as scipy walks the 2x2x2 corners
    corners = []
    for ox, wx in axes[0]:
        for oy, wy in axes[1]:
            oxy = ox + oy
            corners += [(oxy + oz, wx, wy, wz) for oz, wz in axes[2]]
    for ch in range(channels):
        values = flat[ch:]
        acc = 0.0
        for index, wx, wy, wz in corners:
            v = values.take(index)
            v *= wx
            v *= wy
            v *= wz
            acc += v  # from +0.0, as scipy sums: eight -0.0 terms give +0.0
        out[:, ch] = acc


def sample_nearest(data: np.ndarray, pts) -> np.ndarray:
    """Nearest-neighbour sampling at (..., 3) voxel coordinates; ties break
    toward the lower index.

    Outside ``[0, n-1]^3`` the background label 0 is returned.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError(f"data must have shape (nx, ny, nz), got {data.shape}")
    flat_pts, shape = _flat_points(pts)
    flat = np.ascontiguousarray(data).reshape(-1)
    out = np.empty(len(flat_pts), dtype=data.dtype)
    for s, outside, coords in _chunks(flat_pts, data.shape):
        index = 0
        for c, stride in zip(coords, _flat_strides(data.shape)):
            # ceil(p - 0.5) rounds halves down, i.e. toward the lower index
            c -= 0.5
            index = index + np.ceil(c, out=c).astype(np.intp) * stride
        flat.take(index, out=out[s])
        out[s][outside] = 0
    return out.reshape(shape)


# Trilinear interpolation at the points of an axis-aligned grid is separable:
# one 1-D interpolation matrix per axis, applied as a matrix product.

def _linear_weights(x: np.ndarray, n: int) -> np.ndarray:
    """(len(x), n) linear-interpolation weights at positions ``x``, edges replicated."""
    x = np.clip(x, 0.0, n - 1.0)
    i0 = np.floor(x).astype(np.int64)
    i1 = np.minimum(i0 + 1, n - 1)
    rows = np.arange(len(x))
    w = np.zeros((len(x), n))
    w[rows, i0] = 1.0 - (x - i0)
    w[rows, i1] += x - i0
    return w


def _corner_aligned_weights(n: int, m: int) -> np.ndarray:
    """(n, m) weights upsampling ``m`` nodes onto ``n`` voxels, end nodes on end voxels."""
    return _linear_weights(np.arange(n) * ((m - 1) / max(n - 1, 1)), m)


def _per_axis(data: np.ndarray, matrices) -> np.ndarray:
    """Apply ``matrices[i]`` along leading axis ``i`` (``None`` skips it); trailing axes ride along.

    Axes go last to first, so the result is C-ordered if the first is resampled.
    """
    last = len(matrices) - 1
    for m in reversed(matrices):
        data = np.moveaxis(data, last, 0) if m is None else np.tensordot(m, data, axes=(1, last))
    return data


# -- elementwise / differential ops -------------------------------------------

def spatial_gradient(v: Volume) -> VolumeStack:
    """Per-axis intensity gradient in intensity/mm.

    Central differences in the interior, one-sided at faces, each axis
    divided by its spacing so the result is resolution-consistent.
    """
    if min(v.dims) < 2:
        raise DegenerateGrid(f"gradient needs >= 2 voxels per axis, got {v.dims}")
    gx, gy, gz = np.gradient(v.data, *v.spacing, edge_order=1)
    return VolumeStack(tuple(Volume._adopt(g, v.spacing, v.grid_to_world) for g in (gx, gy, gz)))


# a range of at most this many eps times the values' magnitude is rounding, not
# signal: the resolution and bias stages spread a constant image by up to 6.8
# eps times its value (1372 constant inputs: 4 grids up to 96³, values from 1e-9
# to 123, 9 target spacings, 4 bias levels), and 64 leaves a margin of 9
_FLAT_EPS = 64 * np.finfo(np.float64).eps


def _minmax(data: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(data - lo) / (hi - lo)`` over the values' range, written into ``out``
    (which may be ``data``); data whose range is within ``_FLAT_EPS`` of its
    magnitude is constant and gives zeros."""
    lo = float(data.min())
    hi = float(data.max())
    if hi - lo <= _FLAT_EPS * max(abs(lo), abs(hi)):
        out[...] = 0.0
        return out
    np.subtract(data, lo, out=out)
    out /= hi - lo
    return out


def minmax_normalize(v: Volume) -> Volume:
    """Affine rescale of the values to [0, 1]; volumes constant up to rounding
    map to zero."""
    return Volume._adopt(_minmax(v.data, np.empty(v.dims)), v.spacing, v.grid_to_world)
