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
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.ndimage import map_coordinates

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
    def _label_index(self) -> np.ndarray:
        """Each voxel's position in :attr:`label_set`, read-only.

        Stored in the smallest unsigned dtype that holds the label count, so
        it costs one byte per voxel for up to 256 labels whatever their values.
        """
        labels = np.array(self.label_set, dtype=np.int32)
        index = np.searchsorted(labels, self.data).astype(np.min_scalar_type(len(labels) - 1))
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
    axis-aligned affines), built by broadcasting one column per axis;
    ``np.eye(4)`` gives the index grid itself.
    """
    dims = tuple(dims)
    out = np.zeros(dims + (3,))
    for axis, n in enumerate(dims):
        shape = [1, 1, 1, 3]
        shape[axis] = n
        out += (np.arange(n, dtype=np.float64)[:, None] * affine[:3, axis]).reshape(shape)
    out += affine[:3, 3]
    return out


# -- sampling -----------------------------------------------------------------

# positions prepared for sampling one grid: the (3, N) C-ordered coordinates
# map_coordinates takes, with outside (and NaN) points parked on voxel 0, the
# mask of those points (None when there are none) and the points' own shape
_Points = namedtuple("_Points", "coords outside shape")


def _points(pts: np.ndarray, dims) -> _Points:
    """``pts``, (..., 3) voxel coordinates, prepared for sampling a grid of ``dims``."""
    p = np.asarray(pts, dtype=np.float64)
    # map_coordinates wants (3, npts) and rejects a lone 0-d point
    coords = np.array(p.reshape(-1, 3).T, order="C")
    inside = np.ones(coords.shape[1], dtype=bool)
    for axis in range(3):
        inside &= (coords[axis] >= 0.0) & (coords[axis] <= dims[axis] - 1.0)
    # an explicit mask, not mode="constant", which fades to zero over the
    # last half voxel
    outside = None if inside.all() else ~inside
    if outside is not None:
        coords[:, outside] = 0.0
    return _Points(coords, outside, p.shape[:-1])


def sample_trilinear(data: np.ndarray, pts) -> np.ndarray:
    """Trilinear interpolation at (..., 3) voxel coordinates.

    ``data`` is scalar ``(nx, ny, nz)`` or channel-last ``(nx, ny, nz, c)``;
    the result has shape ``pts.shape[:-1]``, plus ``(c,)`` for channel data.
    Points outside ``[0, n-1]`` on any axis evaluate to 0 (zero padding).
    ``pts`` may also be :func:`_points`' preparation of them for this grid,
    which every grid sampled at the same points can share.
    """
    data = np.asarray(data, dtype=np.float64)
    at = pts if isinstance(pts, _Points) else _points(pts, data.shape)
    # positions mostly run in C order, so a grid in Fortran order (as NIfTI
    # decodes it) is copied to C order first: the values are the same and the
    # lookups stay local (one 160³ warp: 0.39 s from Fortran order, 0.24 s from C)
    channels = np.ascontiguousarray(data)[None] if data.ndim == 3 else np.moveaxis(data, -1, 0)
    out = np.empty((channels.shape[0], at.coords.shape[1]))
    for c, channel in enumerate(channels):
        map_coordinates(channel, at.coords, output=out[c], order=1, mode="nearest",
                        prefilter=False)
    if at.outside is not None:
        out[:, at.outside] = 0.0
    if data.ndim == 3:
        return out[0].reshape(at.shape)
    return out.T.reshape(at.shape + data.shape[3:])


def sample_nearest(data: np.ndarray, pts) -> np.ndarray:
    """Nearest-neighbour sampling; ties break toward the lower index.

    Outside ``[0, n-1]^3`` the background label 0 is returned. ``pts`` is
    taken as by :func:`sample_trilinear`.
    """
    data = np.ascontiguousarray(data)
    nx, ny, nz = data.shape
    at = pts if isinstance(pts, _Points) else _points(pts, data.shape)
    x, y, z = at.coords
    # ceil(p - 0.5) rounds halves down, i.e. toward the lower index
    ix = np.clip(np.ceil(x - 0.5), 0, nx - 1).astype(np.int64)
    iy = np.clip(np.ceil(y - 0.5), 0, ny - 1).astype(np.int64)
    iz = np.clip(np.ceil(z - 0.5), 0, nz - 1).astype(np.int64)
    out = data.ravel()[ix * (ny * nz) + iy * nz + iz]
    if at.outside is not None:
        out[at.outside] = 0
    return out.reshape(at.shape)


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


def minmax_normalize(v: Volume) -> Volume:
    """Affine rescale of the values to [0, 1]; constant volumes map to zero."""
    lo = float(v.data.min())
    hi = float(v.data.max())
    if hi - lo <= 0.0:
        return Volume._adopt(np.zeros(v.dims), v.spacing, v.grid_to_world)
    return Volume._adopt((v.data - lo) / (hi - lo), v.spacing, v.grid_to_world)
