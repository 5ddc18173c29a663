"""Random deformations: affine + stationary-velocity-field composition.

A :class:`DeformationField` stores, for every voxel of its grid, a world-frame
displacement ``u`` such that the field maps the voxel's world position ``x``
to ``x + u(x)``. Warping follows the backward convention: the output at ``x``
samples the input at the mapped point, so no scatter holes appear. Sampling
positions are built in voxels of the sampled grid, never in world mm: one
:func:`world_coordinate_grid` call with a composed 4x4 matrix, plus at most one
displacement term mapped through a 3x3 world-to-voxel matrix. The three warps,
:func:`compose` and batch generation all pull through one private routine,
which builds those positions once and samples every array it is given.

The generated field is ``T ∘ A``: an affine (rotation/scaling/shearing about
the grid's world center) followed by the integration of a
smooth stationary velocity field via scaling-and-squaring. Squaring and
composition run on a grid with about half the voxels per axis, upsampled
once, as in VoxelMorph (Dalca et al., MICCAI 2018) and SynthSeg (Billot et
al., MedIA 2023): the velocities are smooth on that scale, and it is cheaper.
The first squaring steps, whose displacements are small, run on that grid's
own half grid and are upsampled once to it: a composition's interpolation
error grows with the displacement, so only the last steps need the finer grid.
Generation records provenance, which makes inversion cheap and accurate
(``A⁻¹ ∘ T⁻¹`` with ``T⁻¹`` integrated from the negated velocities);
provenance-free fields fall back to fixed-point inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import NonFiniteField, NotInvertible
from .volume import (
    LabelMap,
    Volume,
    VolumeStack,
    _Grid,
    _corner_aligned_weights,
    _per_axis,
    same_geometry,
    sample_nearest,
    sample_trilinear,
    voxel_to_world,
    world_coordinate_grid,
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
    "build_deformation",
]

# velocity fields are integrated and composed, and fields inverted, on a grid
# this many times coarser per axis
_INTEGRATION_DOWNSIZE = 2
# scaling and squaring runs its last _FINE_STEPS on that grid, and the steps
# before them on the grid coarser again by that factor
_FINE_STEPS = 2
# fixed-point inversion stops once its mean on-grid update is below this (voxel),
# or after this many updates
_INVERSION_TOL = 1e-3
_INVERSION_ITERATIONS = 20
# points per slab of the first axis when a warp adds the displacement to its
# positions (1.5 MB of them)
_SLAB_POINTS = 1 << 16
# a sampled SVF's control-point spacing (mm) and largest smoothing std (control voxels)
_SVF_CONTROL_SPACING = 16.0
_SVF_SIGMA_MAX = 4.0


@dataclass(frozen=True)
class DeformationConfig:
    """Sampling ranges for the random deformation (shared by all severity levels).

    Angles in degrees. ``svf_mu_*`` scale the velocity amplitude as a
    fraction of the shortest volume extent. The SVF's control lattice and
    smoothing are fixed (see :func:`sample_svf`).
    """

    squaring_steps: ClassVar[int] = 7  # scaling-and-squaring steps, as in VoxelMorph
    rot_max: float = 15.0
    scale_max: float = 0.2
    shear_max: float = 0.2
    svf_mu_min: float = 0.03
    svf_mu_max: float = 0.06

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 and name in ("rot_max", "scale_max", "shear_max"):
                raise ValueError(f"{name} must be >= 0, got {value}")
        # a scaling drawn at or below 0 would reflect or collapse the image
        if self.scale_max >= 1:
            raise ValueError(f"scale_max must be < 1, got {self.scale_max}")
        if not 0 <= self.svf_mu_min <= self.svf_mu_max:
            raise ValueError(f"svf_mu_min must be in [0, svf_mu_max = {self.svf_mu_max}], "
                             f"got {self.svf_mu_min}")

    @classmethod
    def all_off(cls) -> "DeformationConfig":
        """Ranges collapsed to zero: sampling yields the identity map."""
        return cls(rot_max=0.0, scale_max=0.0, shear_max=0.0, svf_mu_min=0.0, svf_mu_max=0.0)


@dataclass(frozen=True)
class AffineParams:
    """Rotation (deg), scaling and shearing of a sampled affine, which never translates."""

    rotation: tuple[float, float, float]
    scaling: tuple[float, float, float]
    shearing: tuple[float, float, float]

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
        m[:3, 3] = c - lin @ c
        return m

    @classmethod
    def identity(cls) -> "AffineParams":
        return cls((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


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
class DeformationField(_Grid):
    """Dense world-frame displacement (mm) on a voxel grid."""

    displacement: np.ndarray  # (nx, ny, nz, 3)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    grid_to_world: np.ndarray = field(default=None)  # type: ignore[assignment]
    provenance: _Provenance | None = None

    _array = "displacement"
    _vector = True

    @staticmethod
    def _convert(displacement, copy: bool) -> np.ndarray:
        # C order, like the index grids it is combined with: a field read from
        # NIfTI is not, and inverting it in that layout took ~1.4x longer (64³)
        u = (np.array if copy else np.asarray)(displacement, dtype=np.float64, order="C")
        if not np.all(np.isfinite(u)):
            raise NonFiniteField("displacement contains NaN/Inf")
        return u

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


# -- sampling the random transform --------------------------------------------

def sample_affine(rng: np.random.Generator, cfg: DeformationConfig) -> AffineParams:
    """Draw affine parameters uniformly within the configured ranges."""
    rot = rng.uniform(-cfg.rot_max, cfg.rot_max, 3)
    scale = rng.uniform(1.0 - cfg.scale_max, 1.0 + cfg.scale_max, 3)
    shear = rng.uniform(-cfg.shear_max, cfg.shear_max, 3)
    rng.random(3)  # a zero translation's draws: the SVF draws keep their place in the stream
    return AffineParams(tuple(rot), tuple(scale), tuple(shear))


def _world_bbox(like) -> tuple[np.ndarray, np.ndarray]:
    dims = np.asarray(like.dims, dtype=np.float64) - 1.0
    corners = np.array([[i, j, k] for i in (0, dims[0])
                        for j in (0, dims[1]) for k in (0, dims[2])])
    w = voxel_to_world(like.grid_to_world, corners)
    return w.min(axis=0), w.max(axis=0)


def sample_svf(rng: np.random.Generator, cfg: DeformationConfig, like) -> SVF:
    """Draw a smooth random velocity field covering ``like``'s grid.

    The control lattice extends one step beyond the volume's world bounding
    box. Its points are ``_SVF_CONTROL_SPACING`` mm apart, or twice the
    largest voxel spacing if that is more, so that a grid of coarse voxels
    gets at most about half its points per axis, not a lattice that follows
    its world extent. White-noise control
    vectors are Gaussian-smoothed with a std drawn in [1, ``_SVF_SIGMA_MAX``]
    control voxels, then rescaled so the peak vector magnitude equals the
    drawn amplitude: uniform in [``cfg.svf_mu_min``, ``cfg.svf_mu_max``]
    times the shortest volume extent.
    """
    lo, hi = _world_bbox(like)
    extent = hi - lo
    step = max(_SVF_CONTROL_SPACING, 2.0 * max(like.spacing))
    amplitude = float(rng.uniform(cfg.svf_mu_min, cfg.svf_mu_max)) * float(extent.min())
    sigma = float(rng.uniform(1.0, _SVF_SIGMA_MAX))
    counts = tuple(int(np.ceil(e / step)) + 3 for e in extent)
    noise = rng.standard_normal(counts + (3,))

    if amplitude > 0.0:
        smoothed = gaussian_filter(noise, (sigma, sigma, sigma, 0.0), mode="nearest")
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


def _half_grid(dims) -> tuple[tuple[int, int, int], np.ndarray, list]:
    """The coarse grid that integration and fixed-point inversion run on.

    Each axis of ``n`` voxels gets ``m = ceil((n-1)/2) + 1`` nodes spanning the
    same extent (axes of <= 2 voxels keep theirs). Returns the node counts, the
    homogeneous node spacing ``s`` in voxels (``diag(s)`` maps node indices to
    voxels; ``(n-1)/(m-1)`` lands the last node on voxel ``n-1``) and the
    ``_per_axis`` matrices upsampling node values (``None`` where an axis is kept).
    Applied to its own node counts it gives the quarter grid that the first
    squaring steps run on, corner-aligned with the half grid, ``s`` in half-grid nodes.
    """
    half = tuple(math.ceil((n - 1) / _INTEGRATION_DOWNSIZE) + 1 for n in dims)
    spacing = np.array([max(n - 1, 1) / max(m - 1, 1) for n, m in zip(dims, half)] + [1.0])
    upsample = [None if m == n else _corner_aligned_weights(n, m) for n, m in zip(dims, half)]
    return half, spacing, upsample


def _integrate(svf: SVF, steps: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Half-grid ``exp(v)`` (not validated; see :func:`integrate_svf`) and
    :func:`_half_grid`'s spacing and matrices."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    half, spacing, upsample = _half_grid(svf.grid_dims)
    quarter, quarter_spacing, to_half = _half_grid(half)
    node = spacing * quarter_spacing  # quarter-grid node index -> voxels
    lattice = np.diag([svf.control_spacing] * 3 + [1.0])  # control-point index -> world
    lattice[:3, 3] = svf.origin
    ctrl = world_coordinate_grid(quarter, np.linalg.inv(lattice) @ svf.grid_to_world * node)
    disp = sample_trilinear(svf.velocities, ctrl) / (2.0 ** steps)
    to_voxel = _world_to_voxel_linear(svf.grid_to_world)
    idx = world_coordinate_grid(quarter, np.eye(4))
    to_node, last = to_voxel / node[:3], np.asarray(quarter, dtype=np.float64) - 1.0
    for _ in range(steps - _FINE_STEPS):
        # clamped, so that a lookup past a face reads the face node, not the identity
        disp += sample_trilinear(disp, np.clip(idx + disp @ to_node, 0.0, last))
    disp = _per_axis(disp, to_half)
    idx = world_coordinate_grid(half, np.eye(4))
    to_node = to_voxel / spacing[:3]
    for _ in range(min(steps, _FINE_STEPS)):
        disp += sample_trilinear(disp, idx + disp @ to_node)
    return disp, spacing, upsample


def integrate_svf(svf: SVF, steps: int = DeformationConfig.squaring_steps) -> DeformationField:
    """exp(v) by scaling and squaring on two coarse grids, upsampled once to each.

    The control velocities are trilinearly sampled at the nodes of the
    quarter grid (:func:`_half_grid` of the half grid) and divided by
    ``2**steps``. Every step but the last ``_FINE_STEPS`` self-composes the
    field there, each lookup clamped to the grid; one separable linear
    upsampling brings it to the half grid, where the last steps compose
    with the identity beyond the grid, and a second brings the result to
    the full grid — as in VoxelMorph's ``VecInt`` with ``int_downsize=2``
    (Dalca et al., MICCAI 2018) and SynthSeg's small-grid deformation
    (Billot et al., MedIA 2023). Only the result is validated, which still
    catches a NaN/Inf arising at any step.
    """
    t, _, upsample = _integrate(svf, steps)
    return DeformationField._adopt(_per_axis(t, upsample), svf.grid_spacing, svf.grid_to_world)


# -- algebra -------------------------------------------------------------------

def compose(outer: DeformationField, inner: DeformationField) -> DeformationField:
    """The map ``x -> outer(inner(x))`` as a dense field.

    The result lives on the inner field's grid, with the outer displacement
    treated as identity beyond its own grid. A zero inner field on the outer
    field's grid returns ``outer``.
    """
    return _pull(inner, (outer,))[0]


def build_deformation(
    affine: AffineParams,
    svf: SVF,
    steps: int = DeformationConfig.squaring_steps,
    inverted: bool = False,
) -> DeformationField:
    """``T ∘ A`` from sampled parameters (or its inverse ``A⁻¹ ∘ T⁻¹``).

    ``A`` pivots about the grid's world center. Both directions are built on
    :func:`_half_grid`'s nodes ``y``, then upsampled once. Forward: ``T`` at
    ``A(y)`` (identity off the grid) plus ``A(y) - y``. Inverse: ``u`` (the
    displacement of ``T⁻¹``) through ``A⁻¹``, plus ``A⁻¹(y) - y``; linear upsampling
    keeps it equal, up to rounding, to the full-grid closed form on every voxel.
    """
    g2w, dims = svf.grid_to_world, svf.grid_dims
    matrix = affine.matrix(voxel_to_world(g2w, (np.asarray(dims) - 1.0) / 2.0))
    t, spacing, upsample = _integrate(svf.negated() if inverted else svf, steps)
    if inverted:
        matrix = np.linalg.inv(matrix)
        t = t @ matrix[:3, :3].T
    else:
        # N⁻¹ (G⁻¹ A G) N entrywise, N = diag(spacing): an identity A reads T at its nodes
        on_nodes = (np.linalg.inv(g2w) @ matrix @ g2w) * spacing / spacing[:, None]
        t = sample_trilinear(t, world_coordinate_grid(t.shape[:3], on_nodes))
    # plus the affine's own displacement: A(y) - y, or A⁻¹(y) - y
    t += world_coordinate_grid(t.shape[:3], (matrix - np.eye(4)) @ g2w * spacing)
    provenance = _Provenance(affine, svf, steps, inverted)
    return DeformationField._adopt(_per_axis(t, upsample), svf.grid_spacing, g2w, provenance)


def invert(fld: DeformationField) -> DeformationField:
    """Inverse map of a deformation field.

    Provenance-bearing fields are inverted analytically (affine inverse plus
    integration of the negated velocities). Otherwise the fixed point
    ``u⁻¹(x) <- -u(x + u⁻¹(x))`` (Chen et al., Med. Phys. 2008) is iterated on
    the nodes of :func:`_half_grid`, reading the full-resolution ``u``, and
    upsampled once. It stops once the mean update is below ``_INVERSION_TOL``
    voxel, or after ``_INVERSION_ITERATIONS`` updates. Convergence is judged
    only at nodes whose iterates land on the grid — elsewhere the lookup says
    nothing about the fixed point. :class:`NotInvertible` is raised when the map
    ``x + u(x)`` reverses orientation (its Jacobian determinant is <= 0 at
    half of the nodes or more), when no iterate lands on the grid, or when
    the final update still moves points by more than one voxel on average.
    A field that folds only locally is inverted like any other.
    """
    if fld.provenance is not None:
        p = fld.provenance
        return build_deformation(p.affine, p.svf, p.steps, inverted=not p.inverted)

    half, spacing, upsample = _half_grid(fld.dims)
    nodes = world_coordinate_grid(half, np.diag(spacing))
    to_voxel = _world_to_voxel_linear(fld.grid_to_world)
    last = np.asarray(fld.dims, dtype=np.float64) - 1.0
    inv = -sample_trilinear(fld.displacement, nodes)
    pts = nodes + inv @ to_voxel
    # x -> x + u(x) has Jacobian J = I + du/dx; d[j][..., i] = du_i/dx_j at the
    # nodes, in voxels per voxel, and det J is expanded along J's first row
    d = [np.gradient(nodes - pts, spacing[j], axis=j) if pts.shape[j] > 1
         else np.zeros(pts.shape) for j in range(3)]
    (a, b, c), (e, f, g), (h, k, m) = ([d[j][..., i] + (i == j) for j in range(3)]
                                       for i in range(3))
    det = a * (f * m - g * k) - b * (e * m - g * h) + c * (e * k - f * h)
    if 2 * np.count_nonzero(det <= 0.0) >= det.size:
        raise NotInvertible("the field reverses orientation at half of its nodes or more")
    residual = 0.0
    for _ in range(_INVERSION_ITERATIONS):
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

def _source_voxels(fld: DeformationField, grid_to_world: np.ndarray) -> np.ndarray:
    """Where each voxel of ``fld`` maps to, in voxels of the grid ``grid_to_world``:
    ``fld``'s index grid through ``G⁻¹ @ fld.grid_to_world``, plus ``u`` through ``G⁻¹``.

    On ``fld``'s own grid that product is exactly the identity: computed, it is
    off by rounding on a sheared grid, which moves face points off the grid."""
    if np.array_equal(grid_to_world, fld.grid_to_world):
        to_grid = np.eye(4)
    else:
        to_grid = np.linalg.inv(grid_to_world) @ fld.grid_to_world
    p = world_coordinate_grid(fld.dims, to_grid)
    to_voxel = _world_to_voxel_linear(grid_to_world)
    # a slab of planes at a time, so that no second position grid is held
    step = max(1, _SLAB_POINTS // (fld.dims[1] * fld.dims[2]))
    for lo in range(0, fld.dims[0], step):
        s = slice(lo, lo + step)
        p[s] += fld.displacement[s] @ to_voxel
    return p


def _puller(fld: DeformationField, like):
    """A function pulling a grid on ``like``'s grid back through ``fld`` onto
    ``fld``'s grid, ``g ∘ fld``.

    Label maps are sampled nearest, other data trilinearly, 0 off the grid; a
    field, pulled back as a map, adds ``fld``'s own displacement. Every grid
    it is given (a stack's channels, a subject's labels and anatomy, the
    candidates of one evaluation) is sampled at the positions of one
    :func:`_source_voxels` call. A zero field on ``like``'s grid returns each
    grid itself.
    """
    if not fld.displacement.any() and same_geometry(fld, like):
        return lambda g: g
    at = _source_voxels(fld, like.grid_to_world)

    def pull(g):
        sample = sample_nearest if isinstance(g, LabelMap) else sample_trilinear
        data = sample(getattr(g, g._array), at)
        if isinstance(g, DeformationField):
            data = fld.displacement + data
        return type(g)._adopt(data, fld.spacing, fld.grid_to_world)

    return pull


def _pull(fld: DeformationField, grids: tuple) -> tuple:
    """Each of ``grids`` pulled back through ``fld`` by one :func:`_puller` on the first."""
    return tuple(map(_puller(fld, grids[0]), grids))


def warp_volume(v: Volume, fld: DeformationField) -> Volume:
    """Backward-warp: output(x) = v(fld(x)), trilinear, zero outside.

    The output lives on the field's grid, which usually coincides with the
    volume's but may differ (e.g. warping into an atlas frame). A zero field
    on the volume's own grid passes the data through untouched.
    """
    return _pull(fld, (v,))[0]


def warp_labels(lm: LabelMap, fld: DeformationField) -> LabelMap:
    """Backward-warp with nearest sampling; never invents labels."""
    return _pull(fld, (lm,))[0]


def warp_stack(stack: VolumeStack, fld: DeformationField) -> VolumeStack:
    """Warp each channel of a stack by the same field, like :func:`warp_volume`.

    The channels share one grid, so the sampling positions are computed once.
    """
    channels = _pull(fld, stack.channels)
    return stack if channels[0] is stack.channels[0] else VolumeStack(channels)
