"""Bit-exact NIfTI-1 single-file reader/writer for a small, unambiguous subset.

Supported: 3D scalar images (``dim[0] == 3``) and 5D vector images
(``dim[0] == 5``, one timepoint, channels on dim 5 — used for feature
stacks and displacement fields), datatypes uint8 / int16 / float32,
single-file ``.nii`` with data at ``vox_offset`` (written at 352).
The reader detects both endiannesses via ``sizeof_hdr``; the writer always
emits little-endian. Geometry is taken from the sform rows when
``sform_code >= 1``, otherwise from ``pixdim``; qform is ignored.
A gzip container (``.nii.gz`` or a 1f-8b byte prefix) is handled
transparently at the byte-stream boundary.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    NonPositivePixdim,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDimension,
)
from .volume import LabelMap, Volume, VolumeStack

__all__ = [
    "NiftiHeader",
    "read_nifti",
    "write_nifti",
    "read_volume_stack",
    "write_volume_stack",
    "read_nifti_file",
    "write_nifti_file",
    "read_header",
]

HEADER_SIZE = 348
DATA_OFFSET = 352

# numeric core of the 348-byte header, in field order
_HDR_FMT = "i10s18sihcc8h3f4h8f3fhcc4f2i80s24s2h6f12f16s4s"
assert struct.calcsize("<" + _HDR_FMT) == HEADER_SIZE

# datatype code -> element type; bitpix and the datatype names derive from it
_DTYPES = {2: np.dtype("u1"), 4: np.dtype("i2"), 16: np.dtype("f4")}
_INTENT_VECTOR = 1007


@dataclass(frozen=True)
class NiftiHeader:
    """Parsed subset of a NIfTI-1 header."""

    dim: tuple[int, ...]
    datatype: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: int
    scl_slope: float
    scl_inter: float
    sform_code: int
    srow: np.ndarray  # (3, 4)
    magic: bytes
    intent_code: int
    byte_order: str  # "<" or ">"

    @property
    def scaling(self) -> tuple[float, float] | None:
        """``(slope, inter)`` to apply to the stored values, or None if unscaled.

        nibabel's rule: a zero or non-finite ``scl_slope`` means unset, and
        the intercept is ignored with it; a valid slope with a non-finite
        ``scl_inter`` is an error.
        """
        slope, inter = self.scl_slope, self.scl_inter
        if not math.isfinite(slope) or slope == 0.0:
            return None
        if not math.isfinite(inter):
            raise ValueError(f"scl_inter is {inter} with scl_slope {slope}")
        return None if (slope, inter) == (1.0, 0.0) else (slope, inter)

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.pixdim[1:4]

    @property
    def affine(self) -> np.ndarray:
        m = np.eye(4)
        if self.sform_code >= 1:
            m[:3, :] = self.srow
        else:
            m[0, 0], m[1, 1], m[2, 2] = self.pixdim[1:4]
        return m


def _maybe_decompress(stream: bytes) -> bytes:
    if stream[:2] == b"\x1f\x8b":
        return gzip.decompress(stream)
    return stream


def read_header(stream: bytes) -> NiftiHeader:
    """Parse the 348-byte header, auto-detecting endianness."""
    stream = _maybe_decompress(stream)
    if len(stream) < DATA_OFFSET:
        raise TruncatedData(f"stream holds {len(stream)} bytes, need >= {DATA_OFFSET}")
    byte_order = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", stream, 0)
    if sizeof_hdr != HEADER_SIZE:
        (sizeof_hdr,) = struct.unpack_from(">i", stream, 0)
        byte_order = ">"
        if sizeof_hdr != HEADER_SIZE:
            raise BadMagic("sizeof_hdr is not 348 in either byte order")

    fields = struct.unpack_from(byte_order + _HDR_FMT, stream, 0)
    dim = fields[7:15]
    intent_code, datatype, bitpix = fields[18], fields[19], fields[20]
    pixdim = fields[22:30]
    vox_offset, scl_slope, scl_inter = fields[30], fields[31], fields[32]
    sform_code = fields[45]
    srow = np.array(fields[52:64], dtype=np.float64).reshape(3, 4)
    magic = fields[65]

    if magic != b"n+1\x00":
        raise BadMagic(f"magic is {magic!r}, expected b'n+1\\x00' (single-file form)")
    if datatype not in _DTYPES:
        raise UnsupportedDatatype(f"datatype code {datatype} (supported: {sorted(_DTYPES)})")
    if bitpix != 8 * _DTYPES[datatype].itemsize:
        raise UnsupportedDatatype(
            f"bitpix {bitpix} inconsistent with datatype {datatype}"
        )
    if dim[0] == 3:
        ndims = 3
    elif dim[0] == 5 and dim[4] == 1:
        ndims = 5
    else:
        raise UnsupportedDimension(
            f"dim {tuple(dim)}: only 3D scalar or 5D single-timepoint vector supported"
        )
    for axis in range(1, ndims + 1):
        if dim[axis] < 1:
            raise UnsupportedDimension(f"dim[{axis}] = {dim[axis]} must be >= 1")
    for axis in (1, 2, 3):
        if pixdim[axis] <= 0:
            raise NonPositivePixdim(f"pixdim[{axis}] = {pixdim[axis]}")
    if vox_offset < DATA_OFFSET:
        raise TruncatedData(f"vox_offset {vox_offset} < {DATA_OFFSET}")

    return NiftiHeader(
        dim=tuple(int(d) for d in dim),
        datatype=int(datatype),
        bitpix=int(bitpix),
        pixdim=tuple(float(p) for p in pixdim),
        vox_offset=int(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        sform_code=int(sform_code),
        srow=srow,
        magic=magic,
        intent_code=int(intent_code),
        byte_order=byte_order,
    )


def _decode(stream: bytes, ndim: int) -> tuple[NiftiHeader, np.ndarray]:
    """Header and scaled float64 values of an ``ndim``-D image, shaped
    ``dim[1:ndim + 1]`` in the on-disk (Fortran) order."""
    stream = _maybe_decompress(stream)
    hdr = read_header(stream)
    if hdr.dim[0] != ndim:
        kind = "3D scalar" if ndim == 3 else "5D vector"
        raise UnsupportedDimension(f"dim[0] = {hdr.dim[0]}, expected a {kind} image")
    shape = hdr.dim[1 : ndim + 1]
    dtype = _DTYPES[hdr.datatype].newbyteorder(hdr.byte_order)
    nvals = math.prod(shape)
    nbytes = nvals * dtype.itemsize
    if len(stream) < hdr.vox_offset + nbytes:
        raise TruncatedData(
            f"data needs {nbytes} bytes at offset {hdr.vox_offset}, "
            f"stream holds {len(stream)}"
        )
    raw = np.frombuffer(stream, dtype=dtype, count=nvals, offset=hdr.vox_offset)
    values = raw.astype(np.float64)
    scaling = hdr.scaling
    if scaling is not None:
        values = values * scaling[0] + scaling[1]
    return hdr, values.reshape(shape, order="F")


def read_nifti(stream: bytes, as_labels: bool | None = None) -> Volume | LabelMap:
    """Decode a 3D scalar NIfTI byte stream.

    ``as_labels=None`` auto-detects: an unscaled integer datatype with
    non-negative values comes back as a :class:`LabelMap`, everything else
    as a :class:`Volume`. Pass True/False to force.
    """
    hdr, data = _decode(stream, 3)
    if as_labels is None:
        integral = _DTYPES[hdr.datatype].kind in "iu"
        as_labels = integral and hdr.scaling is None and (data.size == 0 or data.min() >= 0)
    if as_labels:
        return LabelMap(data, hdr.spacing, hdr.affine)
    return Volume(data, hdr.spacing, hdr.affine)


def read_volume_stack(stream: bytes) -> VolumeStack:
    """Decode a 5D single-timepoint vector NIfTI into a stack of channels."""
    hdr, data = _decode(stream, 5)
    return VolumeStack(
        tuple(Volume(data[:, :, :, 0, c], hdr.spacing, hdr.affine) for c in range(data.shape[4]))
    )


def _datatype_code(datatype: int | str) -> int:
    if isinstance(datatype, str):
        codes = {dtype.name: code for code, dtype in _DTYPES.items()}
        if datatype not in codes:
            raise UnsupportedDatatype(f"datatype {datatype!r} (supported: {sorted(codes)})")
        return codes[datatype]
    if datatype not in _DTYPES:
        raise UnsupportedDatatype(f"datatype code {datatype} (supported: {sorted(_DTYPES)})")
    return int(datatype)


def _encode(data: np.ndarray, code: int) -> bytes:
    dtype = _DTYPES[code].newbyteorder("<")
    if dtype.kind == "f":
        # one cast, then one reorder of the (smaller) cast values
        return np.asarray(data).astype(dtype).tobytes(order="F")
    # integer targets: round, then clamp into the representable range
    flat = np.asarray(data, dtype=np.float64).ravel(order="F")
    info = np.iinfo(dtype)
    return np.clip(np.rint(flat), info.min, info.max).astype(dtype).tobytes()


def _pack_header(dim, pixdim, code, affine, intent_code=0) -> bytes:
    dim8 = [1] * 8
    dim8[0] = len(dim)
    dim8[1 : 1 + len(dim)] = dim
    pix8 = [1.0] * 8
    pix8[1:4] = pixdim
    srow = np.asarray(affine, dtype=np.float64)[:3, :].ravel()
    return struct.pack(
        "<" + _HDR_FMT,
        HEADER_SIZE,
        b"", b"", 0, 0, b"r", b"\x00",
        *dim8,
        0.0, 0.0, 0.0,
        intent_code, code, 8 * _DTYPES[code].itemsize, 0,
        *pix8,
        float(DATA_OFFSET), 1.0, 0.0,  # vox_offset, scl_slope, scl_inter
        0, b"\x00", b"\x02",  # slice_end, slice_code, xyzt_units (mm)
        0.0, 0.0, 0.0, 0.0,
        0, 0,
        b"synthbrain", b"",
        0, 1,  # qform_code, sform_code
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        *srow,
        b"",
        b"n+1\x00",
    )


def write_nifti(v: Volume | LabelMap, datatype: int | str = "float32") -> bytes:
    """Encode a volume as little-endian single-file NIfTI-1 bytes.

    Values outside an integer datatype's range are clamped.
    """
    code = _datatype_code(datatype)
    header = _pack_header(v.dims, v.spacing, code, v.grid_to_world)
    return header + b"\x00" * (DATA_OFFSET - HEADER_SIZE) + _encode(v.data, code)


def write_volume_stack(stack: VolumeStack, datatype: int | str = "float32") -> bytes:
    """Encode a channel stack as a 5D vector NIfTI (dim[4]=1, channels on dim 5)."""
    code = _datatype_code(datatype)
    nx, ny, nz = stack.dims
    header = _pack_header(
        (nx, ny, nz, 1, stack.channel_count),
        stack.spacing,
        code,
        stack.grid_to_world,
        intent_code=_INTENT_VECTOR,
    )
    data = np.stack([ch.data for ch in stack.channels], axis=-1)[:, :, :, None, :]
    return header + b"\x00" * (DATA_OFFSET - HEADER_SIZE) + _encode(data, code)


def read_nifti_file(path, as_labels: bool | None = None) -> Volume | LabelMap:
    with open(path, "rb") as fh:
        return read_nifti(fh.read(), as_labels=as_labels)


def read_volume_stack_file(path) -> VolumeStack:
    with open(path, "rb") as fh:
        return read_volume_stack(fh.read())


def write_nifti_file(path, v, datatype: int | str = "float32") -> None:
    """Write to disk; paths ending in .gz are gzip-compressed reproducibly."""
    if isinstance(v, VolumeStack):
        payload = write_volume_stack(v, datatype)
    else:
        payload = write_nifti(v, datatype)
    path = str(path)
    if path.endswith(".gz"):
        payload = gzip.compress(payload, mtime=0)
    with open(path, "wb") as fh:
        fh.write(payload)
