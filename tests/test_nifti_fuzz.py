"""The one NIfTI decoder against numpy, on random files and on corrupted headers.

Every reader (``StackReader.image`` and ``StackReader.read`` on a byte
stream, ``read_nifti_file`` and ``StackReader.values``) must return the
payload as numpy decodes it, or raise the same error; a corrupted header
field is a ``SynthBrainError`` or a ``ValueError``, or a file that decodes
as its corrupted header says.
"""

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthbrain import (
    LabelMap,
    StackReader,
    SynthBrainError,
    UnsupportedDimension,
    Volume,
    VolumeStack,
    read_nifti_file,
    write_nifti,
)
from synthbrain.nifti import _HDR_FMT

from reference_impls import header_dump

_STORED = {"uint8": np.dtype("u1"), "int16": np.dtype("i2"), "float32": np.dtype("f4")}
_CODES = {2: np.dtype("u1"), 4: np.dtype("i2"), 16: np.dtype("f4")}


@dataclass(frozen=True)
class _File:
    blob: bytes
    byte_order: str
    ndim: int
    dims: tuple
    channels: int
    integral: bool
    scaling: tuple | None  # (slope, inter) as stored, or None for the written (1, 0)
    payload: np.ndarray  # stored values in file order: x fastest, channel slowest

    @property
    def expected(self) -> np.ndarray:
        """The payload decoded by numpy: float64, scaled when a scaling is stored."""
        values = self.payload.astype(np.float64)
        if self.scaling is not None:
            values = values * self.scaling[0] + self.scaling[1]
        return values


def _header(template, datatype: str, scaling, byte_order: str) -> bytes:
    head = bytearray(write_nifti(template, datatype)[:352])
    if scaling is not None:
        struct.pack_into("<2f", head, 112, *scaling)
    if byte_order == ">":
        fields = struct.unpack_from("<" + _HDR_FMT, head, 0)
        head[:348] = struct.pack(">" + _HDR_FMT, *fields)
    return bytes(head)


@st.composite
def _files(draw) -> _File:
    ndim = draw(st.sampled_from([3, 5]))
    channels = draw(st.integers(1, 4)) if ndim == 5 else 1
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    datatype = draw(st.sampled_from(sorted(_STORED)))
    dtype = _STORED[datatype]
    byte_order = draw(st.sampled_from("<>"))
    slopes = st.floats(2 ** -10, 1e3, width=32) | st.floats(-1e3, -2 ** -10, width=32)
    scaling = draw(st.none() | st.tuples(slopes, st.floats(-1e3, 1e3, width=32)))
    count = math.prod(dims) * channels
    if dtype.kind == "f":
        elements = st.floats(width=32, allow_nan=False, allow_infinity=False)
    else:
        elements = st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    payload = np.array(draw(st.lists(elements, min_size=count, max_size=count)), dtype=dtype)
    if dtype.kind == "f" and draw(st.booleans()):
        payload[draw(st.integers(0, count - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    zeros = Volume(np.zeros(dims))
    template = zeros if ndim == 3 else VolumeStack((zeros,) * channels)
    blob = _header(template, datatype, scaling, byte_order) + payload.astype(
        dtype.newbyteorder(byte_order)).tobytes()
    return _File(blob, byte_order, ndim, dims, channels, dtype.kind in "iu", scaling, payload)


def _outcome(read, *args):
    """``("ok", result)`` or ``("error", exception)`` of ``read(*args)``."""
    try:
        return "ok", read(*args)
    except (SynthBrainError, ValueError) as exc:
        return "error", exc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None)
@given(_files(), st.booleans(), st.data())
def test_every_reader_decodes_the_payload_as_numpy_does(scratch, file, gz, data):
    expected = file.expected
    finite = bool(np.isfinite(expected).all())
    nvox = math.prod(file.dims)
    channels = [expected[c * nvox:(c + 1) * nvox].reshape(file.dims, order="F")
                for c in range(file.channels)]

    kind, stack = _outcome(lambda: StackReader.from_bytes(file.blob).read())
    if finite:
        assert kind == "ok" and stack.channel_count == file.channels
        assert all(np.array_equal(ch.data, want) for ch, want in zip(stack.channels, channels))
    else:
        assert kind == "error" and "holds a non-finite voxel" in str(stack)

    kind, image = _outcome(lambda: StackReader.from_bytes(file.blob).image())
    if file.ndim == 5:
        assert kind == "error" and isinstance(image, UnsupportedDimension)
    elif not finite:
        # one decoder: the same error as the stack read
        assert kind == "error" and type(image) is type(stack) and str(image) == str(stack)
    else:
        labels = file.integral and file.scaling in (None, (1.0, 0.0)) and file.payload.min() >= 0
        assert type(image) is (LabelMap if labels else Volume)
        assert np.array_equal(image.data, channels[0])
        assert np.array_equal(image.data, stack.channels[0].data)

    path = scratch / ("image.nii.gz" if gz else "image.nii")
    path.write_bytes(gzip.compress(file.blob, mtime=0) if gz else file.blob)
    from_file = _outcome(read_nifti_file, path)
    assert from_file[0] == kind
    if kind == "ok":
        assert type(from_file[1]) is type(image)
        assert from_file[1].data.tobytes() == image.data.tobytes()
    else:
        assert type(from_file[1]) is type(image) and str(from_file[1]) == f"{path}: {image}"

    reader = StackReader.open(path)
    for _ in range(3):
        c = data.draw(st.integers(0, file.channels - 1))
        lo = data.draw(st.integers(0, nvox))
        hi = data.draw(st.integers(lo, nvox))
        want = expected[c * nvox + lo:c * nvox + hi]
        kind, got = _outcome(reader.values, c, lo, hi)
        if np.isfinite(want).all():
            assert kind == "ok" and np.array_equal(np.asarray(got, dtype=np.float64), want)
        else:
            assert kind == "error" and f"{path}: channel {c} holds a non-finite voxel" == str(got)


# byte offset and struct format of each header field the corruption test rewrites
_FIELDS = {"sizeof_hdr": (0, "i"), "datatype": (70, "h"), "bitpix": (72, "h"),
           "vox_offset": (108, "f"), **{f"dim[{i}]": (40 + 2 * i, "h") for i in range(6)}}
_VALUES = {"i": st.integers(-2 ** 31, 2 ** 31 - 1), "h": st.integers(-2 ** 15, 2 ** 15 - 1),
           "f": st.floats(width=32)}


def _decoded_by_numpy(blob: bytes, scaling) -> list[np.ndarray]:
    """The channels of ``blob`` as its header, read at fixed offsets, lays them out."""
    dump = header_dump(blob)
    ndim = dump["dim"][0]
    dims = dump["dim"][1:4]
    count = math.prod(dims)
    dtype = _CODES[dump["datatype"]].newbyteorder(dump["byte_order"])
    offset = int(dump["vox_offset"])
    channels = []
    for c in range(dump["dim"][5] if ndim == 5 else 1):
        values = np.frombuffer(blob, dtype, count, offset + c * count * dtype.itemsize)
        values = values.astype(np.float64)
        if scaling is not None:
            values = values * scaling[0] + scaling[1]
        channels.append(values.reshape(dims, order="F"))
    return channels


@settings(max_examples=200, deadline=None)
@given(_files(), st.sampled_from(sorted(_FIELDS)), st.data())
def test_a_corrupted_header_field_is_an_error_or_decodes_as_the_header_says(file, field, data):
    offset, fmt = _FIELDS[field]
    blob = bytearray(file.blob)
    struct.pack_into(file.byte_order + fmt, blob, offset, data.draw(_VALUES[fmt], label=field))
    blob = bytes(blob)
    for read in (StackReader.image, StackReader.read):
        # anything but these two errors escapes the call and fails the test
        kind, got = _outcome(lambda: read(StackReader.from_bytes(blob)))
        if kind == "error":
            continue
        channels = [got] if read is StackReader.image else got.channels
        want = _decoded_by_numpy(blob, file.scaling)
        assert len(channels) == len(want)
        assert all(np.array_equal(ch.data, w) for ch, w in zip(channels, want))
