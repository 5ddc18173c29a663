"""Random deformations: affine + stationary-velocity-field composition.

A :class:`DeformationField` stores, for every voxel of its grid, a world-frame
displacement ``u`` such that the field maps the voxel's world position ``x``
to ``x + u(x)``. Warping follows the backward convention: the output at ``x``
samples the input at the mapped point, so no scatter holes appear.

The generated field is ``T ∘ A``: an affine (rotation/scaling/shearing about
the grid's world center, plus translation) followed by the integration of a
smooth stationary velocity field via scaling-and-squaring. The squaring runs
on a grid with about half the voxels per axis and is upsampled once, as in
VoxelMorph (Dalca et al., MICCAI 2018) and SynthSeg (Billot et al., MedIA
2023): the velocities are smooth on that scale, and it is ~3x cheaper.
Generation records provenance, which makes inversion cheap and accurate
(``A⁻¹ ∘ T⁻¹`` with ``T⁻¹`` integrated from the negated velocities);
provenance-free fields fall back to fixed-point inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import NonFiniteField, NotInvertible
from .volume import (
    LabelMap,
    Volume,
    VolumeStack,
    _init_grid,
    _linear_weights,
    _per_axis,
    same_geometry,
    sample_nearest,
    sample_trilinear,
    voxel_index_grid,
    voxel_to_world,
    world_coordinate_grid,
    world_to_voxel,
)

__all__ = [
    "DeformationConfig",
    "AffineParams",
    "SVF",
    "DeformationField",
    "sample_affine",
    "sample_svf",
    "integrate_svf",
    "compose",
    "invert",
    "warp_volume",
    "warp_labels",
    "warp_stack",
    "affine_to_field",
    "identity_field",
    "build_deformation",
]

DEFAULT_SQUARING_STEPS = 7
# velocity fields are integrated, and fields inverted, on a grid this many
# times coarser per axis
_INTEGRATION_DOWNSIZE = 2
# fixed-point inversion stops once its mean on-grid update is below this (voxel)
_INVERSION_TOL = 1e-3


@dataclass(frozen=True)
class DeformationConfig:
    """Sampling ranges for the random deformation (shared by all severity levels).

    Angles in degrees, translations in mm. ``svf_mu_*`` scale the velocity
    amplitude as a fraction of the shortest volume extent; ``svf_sigma_max``
    caps the Gaussian smoothing (in control-grid voxels) of the velocities.
    """

    rot_max: float = 15.0
    scale_max: float = 0.2
    shear_max: float = 0.2
    trans_max: float = 0.0
    svf_mu_min: float = 0.03
    svf_mu_max: float = 0.06
    svf_sigma_max: float = 4.0
    svf_control_spacing: float = 16.0
    squaring_steps: int = DEFAULT_SQUARING_STEPS

    def __post_init__(self):
        if self.squaring_steps < 1:
            raise ValueError(f"squaring_steps must be >= 1, got {self.squaring_steps}")
        if self.svf_control_spacing <= 0:
            raise ValueError(f"svf_control_spacing must be > 0, got {self.svf_control_spacing}")

    @classmethod
    def all_off(cls) -> "DeformationConfig":
        """Ranges collapsed to zero: sampling yields the identity map."""
        return cls(rot_max=0.0, scale_max=0.0, shear_max=0.0, trans_max=0.0,
                   svf_mu_min=0.0, svf_mu_max=0.0)


@dataclass(frozen=True)
class AffineParams:
    """Rotation (deg), scaling, shearing, translation (mm) of the linear part."""

    rotation: tuple[float, float, float]
    scaling: tuple[float, float, float]
    shearing: tuple[float, float, float]
    translation: tuple[float, float, float]

    def linear(self) -> np.ndarray:
        """3x3 rotation @ shear @ scale matrix."""
        ax, ay, az = (math.radians(a) for a in self.rotation)
        rx = np.array([[1, 0, 0],
                       [0, math.cos(ax), -math.sin(ax)],
                       [0, math.sin(ax), math.cos(ax)]])
        ry = np.array([[math.cos(ay), 0, math.sin(ay)],
                       [0, 1, 0],
                       [-math.sin(ay), 0, math.cos(ay)]])
        rz = np.array([[math.cos(az), -math.sin(az), 0],
                       [math.sin(az), math.cos(az), 0],
                       [0, 0, 1]])
        hxy, hxz, hyz = self.shearing
        shear = np.array([[1.0, hxy, hxz],
                          [0.0, 1.0, hyz],
                          [0.0, 0.0, 1.0]])
        return rx @ ry @ rz @ shear @ np.diag(self.scaling)

    def matrix(self, center) -> np.ndarray:
        """4x4 world-frame map pivoting the linear part about ``center`` (mm)."""
        lin = self.linear()
        if abs(np.linalg.det(lin)) <= 1e-12:
            raise ValueError(f"affine parameters give a singular matrix: {self}")
        c = np.asarray(center, dtype=np.float64)
        m = np.eye(4)
        m[:3, :3] = lin
        m[:3, 3] = c - lin @ c + np.asarray(self.translation, dtype=np.float64)
        return m

    @classmethod
    def identity(cls) -> "AffineParams":
        return cls((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class SVF:
    """Stationary velocity field on a coarse axis-aligned control lattice.

    ``velocities`` are mm/unit-time vectors at control points; the lattice
    starts at ``origin`` (world mm) with ``control_spacing`` between points,
    and covers the full-resolution target grid recorded in ``grid_*``.
    """

    velocities: np.ndarray  # (cx, cy, cz, 3)
    control_spacing: float
    origin: tuple[float, float, float]
    smoothing_std: float
    amplitude: float
    grid_dims: tuple[int, int, int]
    grid_spacing: tuple[float, float, float]
    grid_to_world: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise NonFiniteField("SVF velocities contain NaN/Inf")
        if self.control_spacing <= max(self.grid_spacing):
            raise ValueError(
                f"control spacing {self.control_spacing} must exceed voxel "
                f"spacing {self.grid_spacing}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "velocities", v)
        g2w = np.array(self.grid_to_world, dtype=np.float64, copy=True)
        g2w.setflags(write=False)
        object.__setattr__(self, "grid_to_world", g2w)

    def negated(self) -> "SVF":
        return replace(self, velocities=-np.asarray(self.velocities))


@dataclass(frozen=True)
class _Provenance:
    affine: AffineParams
    svf: SVF
    steps: int
    inverted: bool = False


@dataclass(frozen=True)
class DeformationField:
    """Dense world-frame displacement (mm) on a voxel grid."""

    displacement: np.ndarray  # (nx, ny, nz, 3)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    grid_to_world: np.ndarray = field(default=None)  # type: ignore[assignment]
    provenance: _Provenance | None = None

    def __post_init__(self):
        # C order, like the index grids it is combined with: a field read from
        # NIfTI is not, and inverting it in that layout took ~1.4x longer (64³)
        self._freeze(np.array(self.displacement, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, displacement: np.ndarray, spacing, grid_to_world,
               provenance: _Provenance | None = None) -> "DeformationField":
        """A field that takes ownership of ``displacement`` instead of copying it.

        For C-ordered float64 arrays the caller has just built and keeps no
        writable reference to (others are converted once); the array is made
        read-only in place. The grid and finiteness checks run as usual.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "spacing", spacing)
        object.__setattr__(obj, "grid_to_world", grid_to_world)
        object.__setattr__(obj, "provenance", provenance)
        obj._freeze(np.ascontiguousarray(displacement, dtype=np.float64))
        return obj

    def _freeze(self, u: np.ndarray) -> None:
        if not np.all(np.isfinite(u)):
            raise NonFiniteField("displacement contains NaN/Inf")
        _init_grid(self, "displacement", u, vector=True)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.displacement.shape[:3]

    def channels(self) -> VolumeStack:
        """The displacement components as a 3-channel stack (for serialization)."""
        # views of the read-only displacement: nothing can change them
        return VolumeStack(tuple(
            Volume._adopt(self.displacement[..., c], self.spacing, self.grid_to_world)
            for c in range(3)
        ))

    def mapped_points(self) -> np.ndarray:
        """World position each voxel maps to: x + u(x), shape (nx, ny, nz, 3)."""
        return world_coordinate_grid(self.dims, self.grid_to_world) + self.displacement

    def grid_center_world(self) -> np.ndarray:
        half = (np.asarray(self.dims, dtype=np.float64) - 1.0) / 2.0
        return voxel_to_world(self.grid_to_world, half)


def identity_field(like) -> DeformationField:
    """Zero displacement on the grid of ``like`` (anything with dims/spacing/affine)."""
    return DeformationField(
        np.zeros(tuple(like.dims) + (3,)), like.spacing, like.grid_to_world
    )


def affine_to_field(matrix: np.ndarray, like) -> DeformationField:
    """Exact displacement field of a 4x4 world-frame affine on ``like``'s grid."""
    xs = world_coordinate_grid(like.dims, like.grid_to_world)
    mapped = voxel_to_world(np.asarray(matrix, dtype=np.float64), xs)
    return DeformationField(mapped - xs, like.spacing, like.grid_to_world)


# -- sampling the random transform --------------------------------------------

def sample_affine(rng: np.random.Generator, cfg: DeformationConfig) -> AffineParams:
    """Draw affine parameters uniformly within the configured ranges."""
    rot = rng.uniform(-cfg.rot_max, cfg.rot_max, 3)
    scale = rng.uniform(1.0 - cfg.scale_max, 1.0 + cfg.scale_max, 3)
    shear = rng.uniform(-cfg.shear_max, cfg.shear_max, 3)
    trans = rng.uniform(-cfg.trans_max, cfg.trans_max, 3)
    return AffineParams(tuple(rot), tuple(scale), tuple(shear), tuple(trans))


def _world_bbox(like) -> tuple[np.ndarray, np.ndarray]:
    dims = np.asarray(like.dims, dtype=np.float64) - 1.0
    corners = np.array([[i, j, k] for i in (0, dims[0])
                        for j in (0, dims[1]) for k in (0, dims[2])])
    w = voxel_to_world(like.grid_to_world, corners)
    return w.min(axis=0), w.max(axis=0)


def sample_svf(rng: np.random.Generator, cfg: DeformationConfig, like) -> SVF:
    """Draw a smooth random velocity field covering ``like``'s grid.

    The control lattice (spacing ``cfg.svf_control_spacing`` mm) extends one
    step beyond the volume's world bounding box. White-noise control vectors
    are Gaussian-smoothed with a std drawn in [1, sigma_max] control voxels,
    then rescaled so the peak vector magnitude equals the drawn amplitude:
    uniform in [mu_min, mu_max] times the shortest volume extent.
    """
    lo, hi = _world_bbox(like)
    extent = hi - lo
    step = float(cfg.svf_control_spacing)
    amplitude = float(rng.uniform(cfg.svf_mu_min, cfg.svf_mu_max)) * float(extent.min())
    sigma = float(rng.uniform(min(1.0, cfg.svf_sigma_max), cfg.svf_sigma_max))
    counts = tuple(int(np.ceil(e / step)) + 3 for e in extent)
    noise = rng.standard_normal(counts + (3,))

    if amplitude > 0.0:
        smoothed = np.stack(
            [gaussian_filter(noise[..., c], sigma, mode="nearest") for c in range(3)],
            axis=-1,
        )
        peak = float(np.sqrt((smoothed ** 2).sum(axis=-1)).max())
        velocities = smoothed * (amplitude / peak) if peak > 0 else smoothed * 0.0
    else:
        velocities = np.zeros(counts + (3,))

    return SVF(
        velocities=velocities,
        control_spacing=step,
        origin=tuple(lo - step),
        smoothing_std=sigma,
        amplitude=amplitude,
        grid_dims=tuple(like.dims),
        grid_spacing=tuple(like.spacing),
        grid_to_world=np.asarray(like.grid_to_world, dtype=np.float64),
    )


def _world_to_voxel_linear(grid_to_world: np.ndarray) -> np.ndarray:
    """Right-multiplier taking (..., 3) world-mm offsets to voxel offsets."""
    return np.linalg.inv(grid_to_world)[:3, :3].T


def _half_grid(dims) -> tuple[np.ndarray, np.ndarray, list]:
    """The coarse grid that integration and fixed-point inversion run on.

    Each axis of ``n`` voxels gets ``ceil((n-1)/2) + 1`` nodes spanning the
    same extent (axes of <= 2 voxels keep theirs). Returns the nodes' index
    grid, the per-axis node-per-voxel ratios (``idx / ratios`` is each node's
    full-grid voxel position) and the per-axis ``_per_axis`` matrices that
    upsample node values to the full grid (``None`` where an axis is kept).
    """
    half = tuple(math.ceil((n - 1) / _INTEGRATION_DOWNSIZE) + 1 for n in dims)
    ratios = np.array([(m - 1) / (n - 1) if n > 1 else 1.0 for n, m in zip(dims, half)])
    upsample = [None if m == n else _linear_weights(np.arange(n) * r, m)
                for n, m, r in zip(dims, half, ratios)]
    return voxel_index_grid(half), ratios, upsample


def integrate_svf(svf: SVF, steps: int = DEFAULT_SQUARING_STEPS) -> DeformationField:
    """exp(v) by scaling and squaring on a half-resolution grid, upsampled once.

    The coarse velocities are trilinearly sampled at the nodes of
    :func:`_half_grid`, the halved field is self-composed
    ``steps`` times in half-grid voxel units, and the result is brought to
    the full grid by one separable linear upsampling — as in VoxelMorph's
    ``VecInt`` with ``int_downsize=2`` (Dalca et al., MICCAI 2018) and
    SynthSeg's small-grid deformation (Billot et al., MedIA 2023). Only the
    result is validated, which still catches a NaN/Inf arising at any step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    idx, ratios, upsample = _half_grid(svf.grid_dims)
    nodes = idx / ratios
    ctrl = (voxel_to_world(svf.grid_to_world, nodes) - np.asarray(svf.origin)) / svf.control_spacing
    disp = sample_trilinear(svf.velocities, ctrl) / (2.0 ** steps)
    to_half_voxel = _world_to_voxel_linear(svf.grid_to_world) * ratios
    for _ in range(steps):
        disp += sample_trilinear(disp, idx + disp @ to_half_voxel)
    return DeformationField._adopt(_per_axis(disp, upsample), svf.grid_spacing, svf.grid_to_world)


# -- algebra -------------------------------------------------------------------

def compose(
    outer: DeformationField,
    inner: "DeformationField | AffineParams",
) -> DeformationField:
    """The map ``x -> outer(inner(x))`` as a dense field.

    ``inner`` may be a field or :class:`AffineParams` (pivoted about the
    outer grid's world center). The result lives on the inner field's grid
    (outer's grid for an affine inner), with the outer displacement treated
    as identity beyond its own grid.
    """
    # Full-size temporaries are dropped as soon as they are used: this is the
    # memory peak of build_deformation.
    if isinstance(inner, AffineParams):
        # one world grid, mapped through the affine once
        xs = world_coordinate_grid(outer.dims, outer.grid_to_world)
        mapped = voxel_to_world(inner.matrix(outer.grid_center_world()), xs)
        inner_disp, grid = np.subtract(mapped, xs, out=xs), outer
        p = world_to_voxel(outer.grid_to_world, mapped)
        del mapped
    else:
        p = _source_voxels(inner, outer.grid_to_world)
        inner_disp, grid = inner.displacement, inner
    # trilinear lookup of outer's displacement; identity beyond its grid
    sampled = sample_trilinear(outer.displacement, p)
    del p
    sampled += inner_disp
    return DeformationField._adopt(sampled, grid.spacing, grid.grid_to_world)


def build_deformation(
    affine: AffineParams,
    svf: SVF,
    steps: int = DEFAULT_SQUARING_STEPS,
    inverted: bool = False,
) -> DeformationField:
    """``T ∘ A`` from sampled parameters (or its inverse ``A⁻¹ ∘ T⁻¹``).

    The inverse applies ``A⁻¹`` in closed form, ``x -> A⁻¹(x + u(x))`` with
    ``u`` the displacement of ``T⁻¹``. No grid lookup is involved, so voxels
    whose ``T⁻¹`` image leaves the grid are mapped like every other voxel.
    """
    provenance = _Provenance(affine, svf, steps, inverted)
    if not inverted:
        phi = compose(integrate_svf(svf, steps), affine)
        return DeformationField._adopt(phi.displacement, phi.spacing, phi.grid_to_world, provenance)
    t_inv = integrate_svf(svf.negated(), steps)
    a_inv = np.linalg.inv(affine.matrix(t_inv.grid_center_world()))
    xs = world_coordinate_grid(t_inv.dims, t_inv.grid_to_world)
    disp = voxel_to_world(a_inv, xs + t_inv.displacement) - xs
    return DeformationField._adopt(disp, t_inv.spacing, t_inv.grid_to_world, provenance)


def invert(fld: DeformationField, iterations: int = 20) -> DeformationField:
    """Inverse map of a deformation field.

    Provenance-bearing fields are inverted analytically (affine inverse plus
    integration of the negated velocities). Otherwise the fixed point
    ``u⁻¹(x) <- -u(x + u⁻¹(x))`` (Chen et al., Med. Phys. 2008) is iterated on
    the nodes of :func:`_half_grid`, reading the full-resolution ``u``, and
    upsampled once. It stops once the mean update is below ``_INVERSION_TOL``
    voxel, or after ``iterations`` updates. Convergence is judged only at
    nodes whose iterates land on the grid — elsewhere the lookup says nothing
    about the fixed point. :class:`NotInvertible` is raised when the map
    ``x + u(x)`` reverses orientation (its Jacobian determinant is <= 0 at
    half of the nodes or more), when no iterate lands on the grid, or when
    the final update still moves points by more than one voxel on average.
    A field that folds only locally is inverted like any other.
    """
    if fld.provenance is not None:
        p = fld.provenance
        return build_deformation(p.affine, p.svf, p.steps, inverted=not p.inverted)

    idx, ratios, upsample = _half_grid(fld.dims)
    nodes = idx / ratios
    to_voxel = _world_to_voxel_linear(fld.grid_to_world)
    last = np.asarray(fld.dims, dtype=np.float64) - 1.0
    inv = -sample_trilinear(fld.displacement, nodes)
    pts = nodes + inv @ to_voxel
    # du/dx at the nodes in voxels per voxel; x -> x + u(x) has Jacobian I + du/dx
    grad = np.zeros(pts.shape + (3,))
    for ax in range(3):
        if pts.shape[ax] > 1:
            grad[..., ax] = np.gradient(nodes - pts, axis=ax) * ratios[ax]
    if np.median(np.linalg.det(grad + np.eye(3))) <= 0.0:
        raise NotInvertible("the field reverses orientation at most of its nodes")
    residual = 0.0
    for _ in range(iterations):
        # clipped to the grid, so an iterate a hair past a face reads the face
        # displacement instead of flipping to the identity extension
        prev, inv = inv, -sample_trilinear(fld.displacement, np.clip(pts, 0.0, last))
        pts = nodes + inv @ to_voxel
        on_grid = np.all((pts >= 0.0) & (pts <= last), axis=-1)
        step = np.sqrt((((inv - prev) @ to_voxel)[on_grid] ** 2).sum(-1))
        residual = float(step.mean()) if step.size else math.inf
        if residual < _INVERSION_TOL:
            break
    if residual > 1.0:
        raise NotInvertible(f"fixed-point inversion residual {residual:.3f} voxels > 1")
    return DeformationField._adopt(_per_axis(inv, upsample), fld.spacing, fld.grid_to_world)


# -- warping -------------------------------------------------------------------

def _is_identity_on(fld: DeformationField, target) -> bool:
    return not fld.displacement.any() and same_geometry(fld, target)


def _source_voxels(fld: DeformationField, grid_to_world: np.ndarray) -> np.ndarray:
    """Where each voxel of ``fld`` maps to, in voxels of the grid ``grid_to_world``."""
    return world_to_voxel(grid_to_world, fld.mapped_points())


def warp_volume(v: Volume, fld: DeformationField) -> Volume:
    """Backward-warp: output(x) = v(fld(x)), trilinear, zero outside.

    The output lives on the field's grid, which usually coincides with the
    volume's but may differ (e.g. warping into an atlas frame). A zero field
    on the volume's own grid passes the data through untouched.
    """
    if _is_identity_on(fld, v):
        return v
    p = _source_voxels(fld, v.grid_to_world)
    return Volume._adopt(sample_trilinear(v.data, p), fld.spacing, fld.grid_to_world)


def warp_labels(lm: LabelMap, fld: DeformationField) -> LabelMap:
    """Backward-warp with nearest sampling; never invents labels."""
    if _is_identity_on(fld, lm):
        return lm
    p = _source_voxels(fld, lm.grid_to_world)
    return LabelMap(sample_nearest(lm.data, p), fld.spacing, fld.grid_to_world)


def warp_stack(stack: VolumeStack, fld: DeformationField) -> VolumeStack:
    """Warp each channel of a stack by the same field, like :func:`warp_volume`.

    The channels share one grid, so the sampling positions are computed once.
    """
    if _is_identity_on(fld, stack):
        return stack
    p = _source_voxels(fld, stack.grid_to_world)
    return VolumeStack(tuple(
        Volume._adopt(sample_trilinear(ch.data, p), fld.spacing, fld.grid_to_world)
        for ch in stack.channels
    ))


def _warp_subject(lm: LabelMap, v: Volume, fld: DeformationField) -> tuple[LabelMap, Volume]:
    """``(warp_labels(lm, fld), warp_volume(v, fld))`` from one position array.

    ``lm`` and ``v`` share a grid (as in a :class:`SubjectRecord`); when their
    grids differ at all, each is warped on its own.
    """
    shared = (lm.dims == v.dims and lm.spacing == v.spacing
              and np.array_equal(lm.grid_to_world, v.grid_to_world))
    if not shared or _is_identity_on(fld, lm):
        return warp_labels(lm, fld), warp_volume(v, fld)
    p = _source_voxels(fld, lm.grid_to_world)
    return (LabelMap(sample_nearest(lm.data, p), fld.spacing, fld.grid_to_world),
            Volume._adopt(sample_trilinear(v.data, p), fld.spacing, fld.grid_to_world))
