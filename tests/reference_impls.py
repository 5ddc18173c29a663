"""Independent reference implementations used as test oracles.

Everything here is written directly from the textbook definitions (sliding
windows, explicit loops, offset-level struct parsing) and shares no code
with the package, so agreement is meaningful.
"""

import math
import struct

import numpy as np

_FULL_MS_WEIGHTS = [0.0448, 0.2856, 0.3001, 0.2363, 0.1333]


def gather_trilinear(data: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolation as an explicit weighted sum of 8 gathered corners.

    ``data`` is (nx, ny, nz) or channel-last (nx, ny, nz, c); points outside
    ``[0, n-1]`` on any axis give 0.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 4:
        return np.stack(
            [gather_trilinear(data[..., c], pts) for c in range(data.shape[3])], axis=-1
        )
    data = np.ascontiguousarray(data)
    nx, ny, nz = data.shape
    p = np.asarray(pts, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    inside = (
        (x >= 0.0) & (x <= nx - 1.0)
        & (y >= 0.0) & (y <= ny - 1.0)
        & (z >= 0.0) & (z <= nz - 1.0)
    )
    xc, yc, zc = np.clip(x, 0.0, nx - 1.0), np.clip(y, 0.0, ny - 1.0), np.clip(z, 0.0, nz - 1.0)
    ix0, iy0, iz0 = (np.floor(c).astype(np.int64) for c in (xc, yc, zc))
    ix1 = np.minimum(ix0 + 1, nx - 1)
    iy1 = np.minimum(iy0 + 1, ny - 1)
    iz1 = np.minimum(iz0 + 1, nz - 1)
    fx, fy, fz = xc - ix0, yc - iy0, zc - iz0
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    flat = data.ravel()

    def corner(ix, iy, iz):
        return flat[ix * ny * nz + iy * nz + iz]

    out = (
        corner(ix0, iy0, iz0) * gx * gy * gz
        + corner(ix1, iy0, iz0) * fx * gy * gz
        + corner(ix0, iy1, iz0) * gx * fy * gz
        + corner(ix0, iy0, iz1) * gx * gy * fz
        + corner(ix1, iy1, iz0) * fx * fy * gz
        + corner(ix1, iy0, iz1) * fx * gy * fz
        + corner(ix0, iy1, iz1) * gx * fy * fz
        + corner(ix1, iy1, iz1) * fx * fy * fz
    )
    return np.where(inside, out, 0.0)


# -- the world-millimetre route from a field to sampling positions ---------------

def index_grid(dims) -> np.ndarray:
    """(nx, ny, nz, 3) array of voxel indices, from ``np.meshgrid``."""
    axes = [np.arange(n, dtype=np.float64) for n in dims]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def broadcast_coordinate_grid(dims, affine: np.ndarray) -> np.ndarray:
    """``affine`` on every voxel index as first built: a zero grid plus one
    broadcast (n, 3) column per axis, then the translation, in that order."""
    out = np.zeros(tuple(dims) + (3,))
    for axis, n in enumerate(dims):
        shape = [1, 1, 1, 3]
        shape[axis] = n
        out += (np.arange(n, dtype=np.float64)[:, None] * affine[:3, axis]).reshape(shape)
    return out + affine[:3, 3]


def apply_affine(affine: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """A homogeneous 4x4 affine applied to (..., 3) points."""
    return pts @ affine[:3, :3].T + affine[:3, 3]


def world_to_voxel(affine: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """World mm -> voxels of the grid ``affine``."""
    return apply_affine(np.linalg.inv(affine), pts)


def source_voxels_world(fld, grid_to_world: np.ndarray) -> np.ndarray:
    """Where each voxel of ``fld`` maps to, via world mm: ``x + u(x)``, then into
    voxels of ``grid_to_world``."""
    world = apply_affine(fld.grid_to_world, index_grid(fld.dims)) + fld.displacement
    return world_to_voxel(grid_to_world, world)


def affine_to_field(matrix: np.ndarray, like):
    """The exact displacement field of a 4x4 world-frame affine on ``like``'s
    grid: ``A(x) - x`` at each voxel's world position ``x``."""
    import synthbrain as sb

    xs = apply_affine(like.grid_to_world, index_grid(like.dims))
    return sb.DeformationField(apply_affine(matrix, xs) - xs, like.spacing, like.grid_to_world)


def deformation_world(matrix: np.ndarray, grid_to_world: np.ndarray, t: np.ndarray,
                      inverted: bool = False) -> np.ndarray:
    """``T ∘ A`` (or ``A⁻¹ ∘ T⁻¹``) displacement in world mm, on the full grid ``x``.

    ``matrix`` is ``A``; ``t`` is the full-grid displacement of ``T`` (of
    ``T⁻¹`` when ``inverted``). Forward: ``T`` looked up at ``A(x)`` for every
    voxel, plus ``A(x) - x``; inverse: ``A⁻¹(x + t(x)) - x``. This is the
    full-grid route, the oracle for a field composed on a coarser grid.
    """
    xs = apply_affine(grid_to_world, index_grid(t.shape[:3]))
    if inverted:
        return apply_affine(np.linalg.inv(matrix), xs + t) - xs
    ax = apply_affine(matrix, xs)
    return gather_trilinear(t, world_to_voxel(grid_to_world, ax)) + (ax - xs)


def svf_on_a_16mm_lattice(rng, cfg, like) -> tuple[np.ndarray, np.ndarray]:
    """A sampled SVF's velocities and lattice origin as first drawn: control
    points 16 mm apart over the grid's world bounding box, one step beyond it,
    whatever the voxel spacing; smoothed, then scaled to the drawn amplitude."""
    from scipy.ndimage import gaussian_filter

    corners = index_grid((2, 2, 2)).reshape(-1, 3) * (np.asarray(like.dims) - 1.0)
    world = apply_affine(np.asarray(like.grid_to_world, dtype=np.float64), corners)
    lo, extent = world.min(axis=0), world.max(axis=0) - world.min(axis=0)
    amplitude = float(rng.uniform(cfg.svf_mu_min, cfg.svf_mu_max)) * float(extent.min())
    sigma = float(rng.uniform(1.0, 4.0))
    noise = rng.standard_normal(tuple(int(np.ceil(e / 16.0)) + 3 for e in extent) + (3,))
    smoothed = gaussian_filter(noise, (sigma, sigma, sigma, 0.0), mode="nearest")
    peak = float(np.sqrt((smoothed ** 2).sum(axis=-1)).max())
    return smoothed * (amplitude / peak), lo - 16.0


def integrate_svf_full(svf, steps: int) -> np.ndarray:
    """Scaling and squaring on the SVF's full-resolution grid, world-mm displacement.

    The control velocities are trilinearly sampled at every voxel, divided by
    ``2**steps``, and the field is self-composed ``steps`` times in voxel
    units, with the identity beyond the grid.
    """
    g2w = np.asarray(svf.grid_to_world, dtype=np.float64)
    idx = index_grid(svf.grid_dims)
    ctrl = (apply_affine(g2w, idx) - np.asarray(svf.origin)) / svf.control_spacing
    disp = gather_trilinear(svf.velocities, ctrl) / 2.0 ** steps
    to_voxel = np.linalg.inv(g2w[:3, :3]).T
    for _ in range(steps):
        disp = disp + gather_trilinear(disp, idx + disp @ to_voxel)
    return disp


def integrate_svf_half_grid(svf, steps: int) -> np.ndarray:
    """Scaling and squaring on one grid of about half the voxels per axis,
    linearly upsampled to the full grid: the one-level integration the
    package first used. World-mm displacement.

    An axis of ``n`` voxels gets ``ceil((n - 1) / 2) + 1`` nodes spanning the
    same extent (axes of <= 2 voxels keep theirs). The control velocities are
    trilinearly sampled at the nodes, divided by ``2**steps``, and the field
    is self-composed ``steps`` times in node units, with the identity beyond
    the grid.
    """
    g2w = np.asarray(svf.grid_to_world, dtype=np.float64)
    dims = svf.grid_dims
    half = [math.ceil((n - 1) / 2) + 1 for n in dims]
    node = np.array([max(n - 1, 1) / max(m - 1, 1) for n, m in zip(dims, half)])
    idx = index_grid(half)
    ctrl = (apply_affine(g2w, idx * node) - np.asarray(svf.origin)) / svf.control_spacing
    disp = gather_trilinear(svf.velocities, ctrl) / 2.0 ** steps
    to_node = np.linalg.inv(g2w[:3, :3]).T / node
    for _ in range(steps):
        disp = disp + gather_trilinear(disp, idx + disp @ to_node)
    for axis in (2, 1, 0):
        # the axis to resample is always the third: each product puts its result first
        disp = np.tensordot(_upsampling_weights(dims[axis], half[axis]), disp, axes=(1, 2))
    return disp


def brute_ssim_cs(a: np.ndarray, b: np.ndarray, window=7, k1=0.01, k2=0.03, rng=1.0):
    """Per-window SSIM by explicit window slicing; returns (ssim_vals, cs_vals)."""
    c1, c2 = (k1 * rng) ** 2, (k2 * rng) ** 2
    nx, ny, nz = a.shape
    ssims, css = [], []
    for i in range(nx - window + 1):
        for j in range(ny - window + 1):
            for k in range(nz - window + 1):
                wa = a[i : i + window, j : j + window, k : k + window]
                wb = b[i : i + window, j : j + window, k : k + window]
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a = ((wa - mu_a) ** 2).mean()
                var_b = ((wb - mu_b) ** 2).mean()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                lum = (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
                cs = (2 * cov + c2) / (var_a + var_b + c2)
                ssims.append(lum * cs)
                css.append(cs)
    return np.array(ssims), np.array(css)


def brute_ssim(a, b, window=7, k1=0.01, k2=0.03, rng=1.0) -> float:
    ssims, _ = brute_ssim_cs(a, b, window, k1, k2, rng)
    return float(ssims.mean())


def _halve(x: np.ndarray) -> np.ndarray:
    nx, ny, nz = (d - d % 2 for d in x.shape)
    x = x[:nx, :ny, :nz]
    out = np.zeros((nx // 2, ny // 2, nz // 2))
    for i in range(nx // 2):
        for j in range(ny // 2):
            for k in range(nz // 2):
                out[i, j, k] = x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2].mean()
    return out


def brute_ms_ssim(a, b, scales=3, window=7, k1=0.01, k2=0.03, rng=1.0) -> float:
    weights = np.array(_FULL_MS_WEIGHTS[:scales])
    weights = weights / weights.sum()
    result = 1.0
    for s in range(scales):
        ssims, css = brute_ssim_cs(a, b, window, k1, k2, rng)
        if s < scales - 1:
            result *= max(float(css.mean()), 0.0) ** weights[s]
            a, b = _halve(a), _halve(b)
        else:
            val = float(ssims.mean())
            w = float(weights[s])
            result *= val if w == 1.0 else np.sign(val) * abs(val) ** w
    return float(result)


def brute_norm_l2(est: np.ndarray, true: np.ndarray) -> float:
    """Scale-invariant L2 between fields, summed with explicit loops."""
    num = 0.0
    den = 0.0
    for e, t in zip(est.ravel(), true.ravel()):
        num += t * e
        den += e * e
    w = num / den
    sq = 0.0
    tt = 0.0
    for e, t in zip(est.ravel(), true.ravel()):
        sq += (w * e - t) ** 2
        tt += t * t
    return float(np.sqrt(sq / tt))


def brute_batch_loss(preds, target, lam: float, spacing=(1.0, 1.0, 1.0)) -> float:
    """Intensity + gradient L1 loss re-summed with explicit per-axis loops."""
    total = 0.0
    for p in preds:
        total += np.abs(p - target).mean()
        for axis in range(3):
            gp = np.gradient(p, spacing[axis], axis=axis, edge_order=1)
            gt = np.gradient(target, spacing[axis], axis=axis, edge_order=1)
            total += lam * np.abs(gp - gt).mean()
    return float(total)


# -- offset-level NIfTI-1 header dump (independent of the package reader) --------

def header_dump(blob: bytes) -> dict:
    """Parse NIfTI-1 header fields at their standard byte offsets."""
    import gzip

    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    if sizeof_hdr == 348:
        bo = "<"
    else:
        (sizeof_hdr,) = struct.unpack_from(">i", blob, 0)
        assert sizeof_hdr == 348, "not a NIfTI-1 header"
        bo = ">"
    dim = struct.unpack_from(bo + "8h", blob, 40)
    (datatype,) = struct.unpack_from(bo + "h", blob, 70)
    (bitpix,) = struct.unpack_from(bo + "h", blob, 72)
    pixdim = struct.unpack_from(bo + "8f", blob, 76)
    (vox_offset,) = struct.unpack_from(bo + "f", blob, 108)
    (scl_slope,) = struct.unpack_from(bo + "f", blob, 112)
    (scl_inter,) = struct.unpack_from(bo + "f", blob, 116)
    (intent_code,) = struct.unpack_from(bo + "h", blob, 68)
    (qform_code,) = struct.unpack_from(bo + "h", blob, 252)
    (sform_code,) = struct.unpack_from(bo + "h", blob, 254)
    srow_x = struct.unpack_from(bo + "4f", blob, 280)
    srow_y = struct.unpack_from(bo + "4f", blob, 296)
    srow_z = struct.unpack_from(bo + "4f", blob, 312)
    magic = struct.unpack_from("4s", blob, 344)[0]
    return {
        "dim": dim,
        "datatype": datatype,
        "bitpix": bitpix,
        "pixdim": pixdim,
        "vox_offset": vox_offset,
        "scl_slope": scl_slope,
        "scl_inter": scl_inter,
        "intent_code": intent_code,
        "qform_code": qform_code,
        "sform_code": sform_code,
        "srow": np.array([srow_x, srow_y, srow_z, (0, 0, 0, 1)]),
        "magic": magic,
        "byte_order": bo,
    }


# -- one-layer head from one full design matrix ----------------------------------

def _design(features, concat=None) -> np.ndarray:
    """Channel-first ``(k + 1, nvox)`` inputs: a row per channel, then ones."""
    rows = [np.asarray(f, dtype=np.float64).ravel() for f in features]
    if concat is not None:
        rows.append(np.asarray(concat, dtype=np.float64).ravel())
    rows.append(np.ones(rows[0].size))
    return np.stack(rows)


def full_matrix_fit(features, targets, concat=None, ridge=1e-6):
    """Ridge normal equations over the whole grid at once: ``(weights, bias)``.

    ``features`` and ``targets`` are lists of equal-shape arrays; the bias
    row is not regularized.
    """
    xt = _design(features, concat)
    yt = np.stack([np.asarray(t, dtype=np.float64).ravel() for t in targets])
    k = xt.shape[0] - 1
    gram = xt @ xt.T + np.diag([ridge] * k + [0.0])
    wb = np.linalg.solve(gram, xt @ yt.T)
    return wb[:k], wb[k]


def full_matrix_apply(weights, bias, features, concat=None, softmax=False) -> np.ndarray:
    """``(m, nvox)`` outputs of the head, normalized per voxel when ``softmax``."""
    out = np.vstack([weights, bias]).T @ _design(features, concat)
    if softmax:
        out = np.exp(out - out.max(axis=0, keepdims=True))
        out /= out.sum(axis=0, keepdims=True)
    return out


def full_matrix_residual(weights, bias, features, targets, concat=None, softmax=False):
    """Mean absolute and mean squared training residuals."""
    pred = full_matrix_apply(weights, bias, features, concat, softmax)
    diff = pred - np.stack([np.asarray(t, dtype=np.float64).ravel() for t in targets])
    return {"residual_l1": float(np.mean(np.abs(diff))), "residual_l2": float(np.mean(diff ** 2))}


# -- the multiplicative bias field as first built ---------------------------------

def _upsampling_weights(n: int, m: int) -> np.ndarray:
    """(n, m) linear weights from ``m`` nodes onto ``n`` voxels, end nodes on end voxels."""
    x = np.clip(np.arange(n) * ((m - 1) / max(n - 1, 1)), 0.0, m - 1.0)
    i0 = np.floor(x).astype(np.int64)
    i1 = np.minimum(i0 + 1, m - 1)
    w = np.zeros((n, m))
    w[np.arange(n), i0] = 1.0 - (x - i0)
    w[np.arange(n), i1] += x - i0
    return w


def bias_from_coarse(coarse, dims) -> np.ndarray:
    """exp of a coarse log grid upsampled onto ``dims``, one axis at a time
    from the last, then exponentiated into a new array: the arithmetic and
    order of the field as first built, so agreement is bit for bit."""
    data = np.asarray(coarse, dtype=np.float64)
    nodes = data.shape
    for axis in (2, 1, 0):
        # the axis to resample is always the last: each product puts its result first
        data = np.tensordot(_upsampling_weights(dims[axis], nodes[axis]), data, axes=(1, 2))
    return np.exp(data)


def apply_bias(data: np.ndarray, coarse) -> np.ndarray:
    """The image times its bias field, multiplied in that order."""
    data = np.asarray(data, dtype=np.float64)
    return data * bias_from_coarse(coarse, data.shape)


# -- resolution degradation on the full grid -------------------------------------

def _linear_at(x: np.ndarray, n: int) -> np.ndarray:
    """(len(x), n) linear-interpolation weights at positions ``x``, edges replicated."""
    x = np.clip(x, 0.0, n - 1.0)
    i0 = np.floor(x).astype(np.int64)
    i1 = np.minimum(i0 + 1, n - 1)
    w = np.zeros((len(x), n))
    w[np.arange(len(x)), i0] = 1.0 - (x - i0)
    w[np.arange(len(x)), i1] += x - i0
    return w


def full_grid_resolution(data: np.ndarray, spacing, target) -> np.ndarray:
    """The resolution stage as first built: ``gaussian_filter`` on the full grid
    (sigma = ratio / FWHM on each degraded axis, edges replicated), then per
    axis one folded (n, n) matrix that samples at the target spacing and
    upsamples back, applied from the last axis to the first."""
    from scipy.ndimage import gaussian_filter

    ratios = [t / c if t > c else 1.0 for t, c in zip(target, spacing)]
    out = gaussian_filter(np.asarray(data, dtype=np.float64),
                          [r / 2.354820045030949 if r > 1.0 else 0.0 for r in ratios],
                          mode="nearest")
    for axis in (2, 1, 0):
        n, r = out.shape[axis], ratios[axis]
        if r == 1.0:
            continue
        m = int(np.floor((n - 1) / r)) + 1
        fold = _linear_at(np.arange(n) / r, m) @ _linear_at(np.arange(m) * r, n)
        out = np.moveaxis(np.tensordot(fold, out, axes=(1, axis)), 0, axis)
    return out


# -- standard normals from uniform pairs ----------------------------------------------

def box_muller_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` float32 standard normals by the Box-Muller transform, out of place.

    ``2 * m`` float32 uniforms (``m = ceil(n / 2)``) split into halves
    ``u1, u2``; pair ``i`` gives ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)`` and
    ``... * sin(2 pi u2)``. The ``m`` cosine values come first, then the ``m``
    sine values, and the first ``n`` are kept.
    """
    m = -(-n // 2)
    u = rng.random(2 * m, dtype=np.float32)
    u1, u2 = u[:m], u[m:]
    radius = np.sqrt(np.float32(-2.0) * np.log1p(-u1))
    angle = np.float32(2.0 * np.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


# -- contrast painting with one draw per voxel --------------------------------------

def inline_paint_minmax(vals: np.ndarray) -> np.ndarray:
    """``paint``'s foreground normalization as it was written inline, on a
    copy: subtract the min, divide by the range, clip to [0, 1]; a range of 0
    or less gives zeros."""
    vals = np.array(vals, dtype=np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo <= 0.0:
        vals[...] = 0.0
    else:
        vals -= lo
        vals /= hi - lo
        np.clip(vals, 0.0, 1.0, out=vals)
    return vals


def full_grid_paint(labels: np.ndarray, table: dict, rng: np.random.Generator,
                    normalize: bool = True) -> np.ndarray:
    """A float32 standard normal (``box_muller_normal``) for every voxel of
    ``labels`` (C order), then ``eps * sigma + mu`` per label in float64;
    normalized, the foreground (label != 0) is rescaled to [0, 1] and the
    background set to 0. The rule before only the foreground was drawn: on a
    map without label 0 the bytes are the same."""
    out = box_muller_normal(rng, labels.size).reshape(labels.shape).astype(np.float64)
    sigma = np.zeros(labels.shape)
    mu = np.zeros(labels.shape)
    for lab, (m, s) in table.items():
        sigma[labels == lab] = s
        mu[labels == lab] = m
    out *= sigma
    out += mu
    if not normalize:
        return out
    fg = labels != 0
    if not fg.any():
        return np.zeros(labels.shape)
    lo, hi = float(out[fg].min()), float(out[fg].max())
    if hi - lo <= 0.0:
        return np.zeros(labels.shape)
    out -= lo
    out /= hi - lo
    out[~fg] = 0.0
    return np.clip(out, 0.0, 1.0)


# -- the evaluation protocol as first built ---------------------------------------
# Kept verbatim as a bit-for-bit oracle for the one-channel-at-a-time protocol:
# every candidate's stack warped whole, every pair's SSIM statistics taken from
# scratch. Unlike the rest of this file it calls the package for the field's
# inverse and its sampling positions, which it does not test.

_PARENT_C1 = 0.01 ** 2
_PARENT_C2 = 0.03 ** 2


def _parent_mask_array(mask, dims):
    if mask is None:
        return None
    return np.asarray(getattr(mask, "data", mask)).astype(bool)


def _parent_masked_mean(x, m) -> float:
    return float(x[m].mean() if m is not None else x.mean())


def _parent_ssim_cs_maps(a, b, window):
    from scipy.ndimage import uniform_filter

    r = window // 2
    crop = tuple(slice(r, n - r) for n in a.shape)

    def win_mean(x):
        return uniform_filter(x, size=window, mode="constant")[crop]

    mu_a, mu_b = win_mean(a), win_mean(b)
    e_aa, e_bb, e_ab = win_mean(a * a), win_mean(b * b), win_mean(a * b)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    lum = (2.0 * mu_a * mu_b + _PARENT_C1) / (mu_a * mu_a + mu_b * mu_b + _PARENT_C1)
    cs = (2.0 * cov + _PARENT_C2) / (var_a + var_b + _PARENT_C2)
    return lum * cs, cs


def _parent_downsample2(x):
    nx, ny, nz = (d - d % 2 for d in x.shape)
    return x[:nx, :ny, :nz].reshape(nx // 2, 2, ny // 2, 2, nz // 2, 2).mean(axis=(1, 3, 5))


def parent_ssim_and_ms_ssim(a, b, scales, window, mask=None):
    """``(ssim, ms_ssim)`` of two volumes, one pass over both at every scale."""
    weights = np.asarray(_FULL_MS_WEIGHTS[:scales])
    weights = weights / weights.sum()
    xa, xb = a.data, b.data
    m = _parent_mask_array(mask, a.dims)
    result = 1.0
    for s in range(scales):
        ssim_map, cs_map = _parent_ssim_cs_maps(xa, xb, window)
        r = window // 2
        mc = None if m is None else m[tuple(slice(r, n - r) for n in xa.shape)]
        if s == 0:
            first = _parent_masked_mean(ssim_map, mc)
        if s < scales - 1:
            result *= max(_parent_masked_mean(cs_map, mc), 0.0) ** weights[s]
            xa, xb = _parent_downsample2(xa), _parent_downsample2(xb)
            if m is not None:
                m = _parent_downsample2(m.astype(np.float64)) > 0.5
        else:
            val = first if s == 0 else _parent_masked_mean(ssim_map, mc)
            w = float(weights[s])
            result *= val if w == 1.0 else math.copysign(abs(val) ** w, val)
    return first, float(result)


def _parent_sample_trilinear(data, pts):
    """Trilinear sampling as ``scipy.ndimage.map_coordinates`` (order 1,
    ``mode="nearest"``) gives it, one channel at a time, for scalar
    ``(nx, ny, nz)`` or channel-last ``(nx, ny, nz, c)`` data. Points outside
    ``[0, n-1]`` on any axis, or NaN, are sampled at voxel 0 and set to 0."""
    from scipy.ndimage import map_coordinates

    data = np.asarray(data, dtype=np.float64)
    p = np.asarray(pts, dtype=np.float64)
    coords = np.array(p.reshape(-1, 3).T, order="C")
    inside = np.ones(coords.shape[1], dtype=bool)
    for axis in range(3):
        inside &= (coords[axis] >= 0.0) & (coords[axis] <= data.shape[axis] - 1.0)
    coords[:, ~inside] = 0.0
    channels = data[..., None] if data.ndim == 3 else data
    out = np.empty((coords.shape[1], channels.shape[3]))
    for c in range(channels.shape[3]):
        values = np.empty(coords.shape[1])
        map_coordinates(np.ascontiguousarray(channels[..., c]), coords, output=values,
                        order=1, mode="nearest", prefilter=False)
        out[:, c] = values
    out[~inside] = 0.0
    return out.reshape(p.shape[:-1] + data.shape[3:])


def loop_nearest(labels, pts):
    """Nearest-neighbour sampling point by point: halves round down, toward the
    lower index, and points outside ``[0, n-1]`` on any axis (or NaN) give 0."""
    out = np.zeros(pts.shape[:-1], dtype=labels.dtype)
    top = np.asarray(labels.shape, dtype=np.float64) - 1.0
    for i in np.ndindex(out.shape):
        p = pts[i]
        if np.all((p >= 0.0) & (p <= top)):
            out[i] = labels[tuple(math.ceil(c - 0.5) for c in p)]
    return out


def _parent_warp_stack(stack, fld):
    import synthbrain as sb

    if not fld.displacement.any() and sb.same_geometry(fld, stack):
        return stack
    p = sb.deformation._source_voxels(fld, stack.grid_to_world)
    return sb.VolumeStack(tuple(
        sb.Volume(_parent_sample_trilinear(ch.data, p), fld.spacing, fld.grid_to_world)
        for ch in stack.channels
    ))


def parent_robustness_protocol(reference, candidates, mode="intra", mask=None, window=7,
                               scales=3):
    """Per-channel ``{"l1", "ssim", "ms_ssim"}`` value tuples, candidate-major,
    for in-memory stacks; each distinct field object is inverted once."""
    import synthbrain as sb

    rows = []
    through = {}
    for stack, fld in candidates:
        if id(fld) not in through:
            through[id(fld)] = (fld, sb.invert(fld) if mode == "intra" else fld)
        warped = _parent_warp_stack(stack, through[id(fld)][1])
        for ref_c, cand_c in zip(reference.channels, warped.channels):
            m = _parent_mask_array(mask, ref_c.dims)
            rows.append((_parent_masked_mean(np.abs(ref_c.data - cand_c.data), m),
                         *parent_ssim_and_ms_ssim(ref_c, cand_c, scales, window, mask)))
    return dict(zip(("l1", "ssim", "ms_ssim"), zip(*rows)))
