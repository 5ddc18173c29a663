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
import itertools
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    NonPositivePixdim,
    SynthBrainError,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDimension,
)
from .volume import LabelMap, Volume, VolumeStack, _geometry

__all__ = [
    "NiftiHeader",
    "StackReader",
    "read_nifti",
    "write_nifti",
    "read_volume_stack",
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


_GZIP_MAGIC = b"\x1f\x8b"


def _maybe_decompress(stream: bytes) -> bytes:
    if stream[:2] == _GZIP_MAGIC:
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
        if not 0 < pixdim[axis] < math.inf:
            raise NonPositivePixdim(f"pixdim[{axis}] = {pixdim[axis]}, not a finite spacing > 0")
    if not DATA_OFFSET <= vox_offset < math.inf:
        raise TruncatedData(f"vox_offset {vox_offset} is not a finite offset >= {DATA_OFFSET}")
    if sform_code >= 1 and not np.isfinite(srow).all():
        raise ValueError(f"srow holds a non-finite entry: {srow.tolist()}")

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


def _layout(hdr: NiftiHeader, size: int, stack: bool) -> tuple[tuple[int, ...], np.dtype]:
    """Shape ``dim[1:dim[0] + 1]`` and stored dtype of the data, checked against
    the ``size`` bytes that hold it. Only a ``stack`` read accepts a 5D image."""
    if hdr.dim[0] == 5 and not stack:
        raise UnsupportedDimension("dim[0] = 5, expected a 3D scalar image")
    shape = hdr.dim[1 : hdr.dim[0] + 1]
    dtype = _DTYPES[hdr.datatype].newbyteorder(hdr.byte_order)
    nbytes = math.prod(shape) * dtype.itemsize
    if size < hdr.vox_offset + nbytes:
        raise TruncatedData(
            f"data needs {nbytes} bytes at offset {hdr.vox_offset}, stream holds {size}"
        )
    return shape, dtype


def _values(raw, hdr: NiftiHeader, dtype: np.dtype, shape) -> np.ndarray:
    """The stored values in ``raw``, shaped in the on-disk (Fortran) order:
    scaled values as float64, unscaled ones as a read-only view of ``raw``
    in the stored dtype, for the caller to convert once."""
    values = np.frombuffer(raw, dtype=dtype, count=math.prod(shape))
    scaling = hdr.scaling
    if scaling is not None:
        values = values.astype(np.float64) * scaling[0] + scaling[1]
    return values.reshape(shape, order="F")


def read_nifti(stream: bytes, as_labels: bool | None = None) -> Volume | LabelMap:
    """Decode a 3D scalar NIfTI byte stream.

    ``as_labels=None`` auto-detects: an unscaled integer datatype with
    non-negative values comes back as a :class:`LabelMap`, everything else
    as a :class:`Volume`. Pass True/False to force.
    """
    stream = _maybe_decompress(stream)
    hdr = read_header(stream)
    shape, dtype = _layout(hdr, len(stream), stack=False)
    data = _values(memoryview(stream)[hdr.vox_offset :], hdr, dtype, shape)
    if as_labels is None:
        integral = _DTYPES[hdr.datatype].kind in "iu"
        as_labels = integral and hdr.scaling is None and (data.size == 0 or data.min() >= 0)
    kind = LabelMap if as_labels else Volume
    return kind._adopt(data, hdr.spacing, hdr.affine)


class StackReader:
    """A channel stack in NIfTI form, decoded one channel block at a time.

    It holds the header, the geometry (``dims``, ``spacing``,
    ``grid_to_world``) and ``channel_count``; the data stay where they are
    until a channel, or a voxel range of one, is asked for. Channels are the
    slowest axis, so each is one block of the data. A 3D image is one channel.
    Every block is checked finite as it is decoded. Built by :meth:`open` on
    a file or by :meth:`from_bytes` on a byte stream; a gzip stream is
    decompressed whole.
    """

    def __init__(self, head: bytes, size: int, block, name=None):
        """``block(offset, nbytes)`` gives the bytes at an offset of the ``size``
        bytes that start with ``head``; decoding errors name ``name``."""
        self.name, self._block = name, block
        with _naming(name):
            self.header = read_header(head)
            shape, self._dtype = _layout(self.header, size, stack=True)
            self.spacing, self.grid_to_world = _geometry(self.header.spacing, self.header.affine)
        self.dims = shape[:3]
        self.channel_count = shape[4] if len(shape) == 5 else 1

    @classmethod
    def from_bytes(cls, stream: bytes, name=None) -> "StackReader":
        stream = _maybe_decompress(stream)
        view = memoryview(stream)
        return cls(stream, len(stream), lambda offset, n: view[offset : offset + n], name)

    @classmethod
    def open(cls, path) -> "StackReader":
        """A reader on the file at ``path``; a gzip file or a pipe is read whole.

        Each block opens the file for its one read, so a reader holds no open
        file: an evaluation can read any number of candidates side by side.
        """
        with open(path, "rb") as fh:
            head = fh.read(DATA_OFFSET)
            if head[:2] == _GZIP_MAGIC or not fh.seekable():
                return cls.from_bytes(head + fh.read(), path)
            size = os.fstat(fh.fileno()).st_size

        def block(offset: int, nbytes: int) -> bytes:
            # unbuffered: one read straight into the bytes returned
            with open(path, "rb", buffering=0) as f:
                f.seek(offset)
                return f.read(nbytes)

        return cls(head, size, block, path)

    def values(self, c: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Channel ``c`` at voxels ``[lo, hi)`` (default: all) of the file's
        Fortran order: scaled values as float64, unscaled ones as a read-only
        array in the stored dtype, exact in float64."""
        nvox = math.prod(self.dims)
        hi = nvox if hi is None else hi
        size = self._dtype.itemsize
        with _naming(self.name):
            raw = self._block(self.header.vox_offset + (c * nvox + lo) * size, (hi - lo) * size)
            values = _values(raw, self.header, self._dtype, (hi - lo,))
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                raise ValueError(f"channel {c} holds a non-finite voxel")
        return values

    def channel(self, c: int) -> Volume:
        """Channel ``c`` decoded as a float64 volume."""
        data = self.values(c).reshape(self.dims, order="F")
        return Volume._adopt(data, self.spacing, self.grid_to_world)

    def read(self) -> VolumeStack:
        """Every channel, each a read-only view of one decoded float64 array."""
        data = np.empty(self.dims + (self.channel_count,), order="F")
        for c in range(self.channel_count):
            data[..., c] = self.values(c).reshape(self.dims, order="F")
        return VolumeStack(tuple(
            Volume._adopt(data[..., c], self.spacing, self.grid_to_world)
            for c in range(self.channel_count)
        ))


def read_volume_stack(stream: bytes) -> VolumeStack:
    """Decode a 5D single-timepoint vector NIfTI into a stack of channels;
    a 3D file is one channel. A non-finite voxel is a ``ValueError``."""
    return StackReader.from_bytes(stream).read()


def _datatype_code(datatype: str) -> int:
    codes = {dtype.name: code for code, dtype in _DTYPES.items()}
    if datatype not in codes:
        raise UnsupportedDatatype(f"datatype {datatype!r} (supported: {sorted(codes)})")
    return codes[datatype]


def _encode(data: np.ndarray, code: int) -> memoryview:
    """``data`` cast to a little-endian NIfTI type in Fortran order, as a byte
    view of the one cast array: writers take it as they take bytes."""
    dtype = _DTYPES[code].newbyteorder("<")
    data = np.asarray(data)
    if dtype.kind == "f":
        out = data.astype(dtype, order="F")
    else:
        # integer targets: round float input, then clamp into the representable
        # range while casting; integer input is clamped in its own dtype
        if data.dtype.kind == "f":
            data = np.rint(data)
        info = np.iinfo(dtype)
        out = np.empty(data.shape, dtype, order="F")
        np.clip(data, info.min, info.max, out=out, casting="unsafe")
    # the transpose of a Fortran-ordered array is C-contiguous, bytes in file order
    return memoryview(out.T).cast("B")


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


def _parts(v, datatype: str):
    """The NIfTI bytes of a volume or a channel stack as an iterator of parts:
    header and padding, then each channel's data, encoded as it is reached.
    The datatype, and for an integer one the values' finiteness, are checked
    here, before any part is taken."""
    code = _datatype_code(datatype)
    if isinstance(v, VolumeStack):
        nx, ny, nz = v.dims
        dim, intent, arrays = (nx, ny, nz, 1, v.channel_count), _INTENT_VECTOR, v.channels
    else:
        dim, intent, arrays = v.dims, 0, (v,)
    if _DTYPES[code].kind != "f" and not all(np.isfinite(a.data).all() for a in arrays):
        raise ValueError(f"cannot encode non-finite values as {datatype}")
    header = _pack_header(dim, v.spacing, code, v.grid_to_world, intent_code=intent)
    pad = b"\x00" * (DATA_OFFSET - HEADER_SIZE)
    return itertools.chain([header, pad], (_encode(a.data, code) for a in arrays))


def write_nifti(v: Volume | LabelMap | VolumeStack, datatype: str = "float32") -> bytes:
    """Encode a volume, or a channel stack as a 5D vector image (dim[4]=1,
    channels on dim 5), as little-endian single-file NIfTI-1 bytes.

    An integer datatype clamps values outside its range and rejects a
    non-finite value with ``ValueError``.
    """
    return b"".join(_parts(v, datatype))


@contextmanager
def _naming(path):
    """Decoding errors raised inside get the path (if any); OS errors name it already."""
    try:
        yield
    except (SynthBrainError, ValueError) as exc:
        if path is not None:
            exc.args = (f"{path}: {exc}",)
        raise


def read_nifti_file(path, as_labels: bool | None = None) -> Volume | LabelMap:
    """:func:`read_nifti` on a file; a decoding error names the path."""
    with open(path, "rb") as fh, _naming(path):
        return read_nifti(fh.read(), as_labels=as_labels)


def read_volume_stack_file(path) -> VolumeStack:
    """Every channel of :meth:`StackReader.open`'s reader on ``path``; a
    decoding error names the path. Only the decoded channels and one
    channel's bytes are held."""
    return StackReader.open(path).read()


def write_nifti_file(path, v, datatype: str = "float32") -> None:
    """Write a volume or a channel stack to disk. A ``.nii`` file is written one
    channel at a time, never holding the whole payload; paths ending in .gz
    are gzip-compressed reproducibly."""
    path = str(path)
    parts = _parts(v, datatype)
    if path.endswith(".gz"):
        parts = [gzip.compress(b"".join(parts), mtime=0)]
    with open(path, "wb") as fh:
        # writelines drops each part before taking the next; a for loop would hold two
        fh.writelines(parts)
