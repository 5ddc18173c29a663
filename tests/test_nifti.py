import gzip
import struct

import numpy as np
import pytest

from synthbrain import (
    BadMagic,
    LabelMap,
    NonPositivePixdim,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDimension,
    Volume,
    VolumeStack,
    read_header,
    read_nifti,
    read_nifti_file,
    read_volume_stack,
    same_geometry,
    write_nifti,
    write_nifti_file,
    write_volume_stack,
)

from reference_impls import header_dump


def _patch(blob: bytes, offset: int, fmt: str, *values) -> bytes:
    buf = bytearray(blob)
    struct.pack_into(fmt, buf, offset, *values)
    return bytes(buf)


def test_float32_round_trip_is_bit_exact(rng):
    v = Volume(rng.standard_normal((5, 4, 3)), spacing=(1.0, 1.25, 2.0))
    back = read_nifti(write_nifti(v, "float32"))
    assert isinstance(back, Volume)
    # float32 storage quantizes once; a second trip changes nothing
    assert np.array_equal(back.data, v.data.astype("<f4").astype(np.float64))
    again = read_nifti(write_nifti(back, "float32"))
    assert np.array_equal(again.data, back.data)
    assert same_geometry(back, v)


def test_integer_round_trip_and_clamping():
    v = Volume(np.array([[[-5.0, 0.4, 300.0]]]).reshape(1, 1, 3))
    back = read_nifti(write_nifti(v, "uint8"), as_labels=False)
    assert list(back.data.ravel()) == [0.0, 0.0, 255.0]  # clamp + round
    lm = LabelMap(np.arange(8, dtype=np.int32).reshape(2, 2, 2))
    back_lm = read_nifti(write_nifti(lm, "int16"))
    assert isinstance(back_lm, LabelMap)  # auto-detected: unscaled non-negative ints
    assert np.array_equal(back_lm.data, lm.data)


def _encode_via_float64(data, dtype):
    """The encoder as first written: a float64 Fortran-order copy, then the cast."""
    flat = np.asarray(data, dtype=np.float64).ravel(order="F")
    dtype = np.dtype(dtype).newbyteorder("<")
    if dtype.kind == "f":
        return flat.astype(dtype).tobytes()
    info = np.iinfo(dtype)
    return np.clip(np.rint(flat), info.min, info.max).astype(dtype).tobytes()


@pytest.mark.parametrize("dtype", ["float32", "int16", "uint8"])
@pytest.mark.parametrize("layout", ["C", "F", "stack"])
def test_encoded_values_match_the_float64_route(rng, dtype, layout):
    from synthbrain.nifti import _datatype_code, _encode

    data = rng.normal(0.0, 300.0, (5, 4, 3, 1, 2) if layout == "stack" else (5, 4, 3))
    data.flat[:4] = [0.5, -0.5, 1e6, -1e6]  # ties and out-of-range integers
    if layout == "F":
        data = np.asfortranarray(data)
    assert _encode(data, _datatype_code(dtype)) == _encode_via_float64(data, dtype)


def test_fortran_axis_order_on_disk(rng):
    v = Volume(rng.random((3, 2, 2)))
    blob = write_nifti(v, "float32")
    raw = np.frombuffer(blob, dtype="<f4", offset=352)
    # x must be the fastest-varying axis
    assert raw[0] == np.float32(v.data[0, 0, 0])
    assert raw[1] == np.float32(v.data[1, 0, 0])


def test_scl_slope_and_inter_are_applied():
    lm = LabelMap(np.ones((2, 2, 2), dtype=np.int32))
    blob = _patch(write_nifti(lm, "int16"), 112, "<2f", 2.0, 1.0)
    back = read_nifti(blob)
    assert isinstance(back, Volume)  # scaled data is not a label map
    assert (back.data == 3.0).all()
    # a valid slope with a non-finite intercept is an error, as in nibabel
    for inter in (float("nan"), float("inf")):
        bad = _patch(blob, 116, "<f", inter)
        for as_labels in (None, False, True):
            with pytest.raises(ValueError, match="scl_inter"):
                read_nifti(bad, as_labels=as_labels)


@pytest.mark.parametrize("slope", [float("nan"), float("inf"), 0.0])
def test_non_finite_slope_means_unset(slope):
    # a zero or non-finite slope means unset, and the intercept goes with it
    data = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    blob = _patch(write_nifti(LabelMap(data), "int16"), 112, "<2f", slope, 5.0)
    back = read_nifti(blob)
    assert isinstance(back, LabelMap)  # unscaled integers still auto-detect as labels
    assert np.array_equal(back.data, data)
    forced = read_nifti(blob, as_labels=False)
    assert np.array_equal(forced.data, data.astype(np.float64))
    assert read_header(blob).scaling is None


def test_stack_round_trip(rng):
    stack = VolumeStack(tuple(Volume(rng.random((4, 4, 4))) for _ in range(3)))
    back = read_volume_stack(write_volume_stack(stack, "float32"))
    assert back.channel_count == 3
    for a, b in zip(back.channels, stack.channels):
        assert np.array_equal(a.data, b.data.astype("<f4").astype(np.float64))


def test_big_endian_files_are_readable(rng):
    from synthbrain.nifti import _HDR_FMT

    v = Volume(rng.random((3, 3, 3)))
    blob = write_nifti(v, "float32")
    fields = struct.unpack_from("<" + _HDR_FMT, blob, 0)
    be_header = struct.pack(">" + _HDR_FMT, *fields)
    be_data = np.frombuffer(blob, dtype="<f4", offset=352).astype(">f4").tobytes()
    be_blob = be_header + blob[348:352] + be_data
    back = read_nifti(be_blob)
    assert np.array_equal(back.data, read_nifti(blob).data)
    assert read_header(be_blob).byte_order == ">"


def test_gzip_round_trip_and_reproducible_bytes(tmp_path, rng):
    v = Volume(rng.random((4, 4, 4)))
    p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_nifti_file(p1, v)
    write_nifti_file(p2, v)
    assert p1.read_bytes() == p2.read_bytes()  # gzip mtime pinned
    back = read_nifti_file(p1)
    assert np.array_equal(back.data, v.data.astype("<f4").astype(np.float64))
    assert p1.read_bytes()[:2] == b"\x1f\x8b"
    assert gzip.decompress(p1.read_bytes())[:4] == struct.pack("<i", 348)


def test_header_errors_name_the_field(rng):
    blob = write_nifti(Volume(rng.random((3, 3, 3))), "float32")
    with pytest.raises(BadMagic, match="magic"):
        read_header(_patch(blob, 344, "4s", b"bad\x00"))
    with pytest.raises(UnsupportedDatatype, match="datatype"):
        read_header(_patch(blob, 70, "<h", 64))
    with pytest.raises(UnsupportedDimension, match="dim"):
        read_header(_patch(blob, 40, "<h", 4))
    with pytest.raises(NonPositivePixdim, match="pixdim"):
        read_header(_patch(blob, 80, "<f", 0.0))
    with pytest.raises(TruncatedData):
        read_nifti(blob[:-5])
    with pytest.raises(TruncatedData):
        read_header(blob[:100])
    with pytest.raises(BadMagic, match="sizeof_hdr"):
        read_header(_patch(blob, 0, "<i", 123))


def test_custom_affine_survives(rng):
    m = np.eye(4)
    m[:3, :3] = np.diag([1.0, 2.0, 3.0])
    m[:3, 3] = (-10.0, 5.0, 2.5)
    v = Volume(rng.random((4, 4, 4)), spacing=(1.0, 2.0, 3.0), grid_to_world=m)
    back = read_nifti(write_nifti(v))
    assert np.allclose(back.grid_to_world, m, atol=1e-5)
    assert np.allclose(back.spacing, (1.0, 2.0, 3.0), atol=1e-6)


def test_independent_offset_dump_agrees(rng):
    v = Volume(rng.random((5, 6, 7)), spacing=(0.5, 1.0, 2.0))
    dump = header_dump(write_nifti(v, "float32"))
    assert dump["dim"][:4] == (3, 5, 6, 7)
    assert dump["datatype"] == 16 and dump["bitpix"] == 32
    assert dump["pixdim"][1:4] == pytest.approx((0.5, 1.0, 2.0))
    assert dump["vox_offset"] == 352.0
    assert dump["scl_slope"] == 1.0 and dump["scl_inter"] == 0.0
    assert dump["sform_code"] == 1
    assert dump["magic"] == b"n+1\x00"
    assert np.allclose(dump["srow"], v.grid_to_world, atol=1e-6)


def test_vector_file_layout(rng):
    stack = VolumeStack(tuple(Volume(rng.random((3, 3, 3))) for _ in range(3)))
    dump = header_dump(write_volume_stack(stack))
    assert dump["dim"][:6] == (5, 3, 3, 3, 1, 3)
    assert dump["intent_code"] == 1007  # vector-valued voxels
