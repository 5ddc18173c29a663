import gzip
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from synthbrain import (
    BadMagic,
    LabelMap,
    NonPositivePixdim,
    StackReader,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDimension,
    Volume,
    VolumeStack,
    read_header,
    read_nifti_file,
    read_volume_stack_file,
    same_geometry,
    write_nifti,
    write_nifti_file,
)

from reference_impls import header_dump


def _patch(blob: bytes, offset: int, fmt: str, *values) -> bytes:
    buf = bytearray(blob)
    struct.pack_into(fmt, buf, offset, *values)
    return bytes(buf)


def test_float32_round_trip_is_bit_exact(rng):
    v = Volume(rng.standard_normal((5, 4, 3)), spacing=(1.0, 1.25, 2.0))
    back = StackReader.from_bytes(write_nifti(v, "float32")).image()
    assert isinstance(back, Volume)
    # float32 storage quantizes once; a second trip changes nothing
    assert np.array_equal(back.data, v.data.astype("<f4").astype(np.float64))
    again = StackReader.from_bytes(write_nifti(back, "float32")).image()
    assert np.array_equal(again.data, back.data)
    assert same_geometry(back, v)


def test_integer_round_trip_and_clamping():
    v = Volume(np.array([[[-5.0, 0.4, 300.0]]]).reshape(1, 1, 3))
    back = StackReader.from_bytes(write_nifti(v, "uint8")).image(as_labels=False)
    assert list(back.data.ravel()) == [0.0, 0.0, 255.0]  # clamp + round
    lm = LabelMap(np.arange(8, dtype=np.int32).reshape(2, 2, 2))
    back_lm = StackReader.from_bytes(write_nifti(lm, "int16")).image()
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


@pytest.mark.parametrize("layout", ["C", "F", "channel"])
@pytest.mark.parametrize("dims", [(48, 20, 12), (37, 5, 3), (7, 9, 4)])
def test_float_encoding_is_the_bytes_of_a_fortran_cast(rng, layout, dims):
    from synthbrain.nifti import _datatype_code, _encode

    data = rng.normal(0.0, 300.0, dims + (3,))[..., 1] if layout == "channel" else rng.normal(0.0, 300.0, dims)
    if layout == "F":
        data = np.asfortranarray(data)
    want = data.astype("<f4", order="F")
    assert bytes(_encode(data, _datatype_code("float32"))) == want.tobytes(order="F")


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
    back = StackReader.from_bytes(blob).image()
    assert isinstance(back, Volume)  # scaled data is not a label map
    assert (back.data == 3.0).all()
    # a valid slope with a non-finite intercept is an error, as in nibabel
    for inter in (float("nan"), float("inf")):
        bad = _patch(blob, 116, "<f", inter)
        for as_labels in (None, False, True):
            with pytest.raises(ValueError, match="scl_inter"):
                StackReader.from_bytes(bad).image(as_labels=as_labels)


@pytest.mark.parametrize("slope", [float("nan"), float("inf"), 0.0])
def test_non_finite_slope_means_unset(slope):
    # a zero or non-finite slope means unset, and the intercept goes with it
    data = np.arange(8, dtype=np.int32).reshape(2, 2, 2)
    blob = _patch(write_nifti(LabelMap(data), "int16"), 112, "<2f", slope, 5.0)
    back = StackReader.from_bytes(blob).image()
    assert isinstance(back, LabelMap)  # unscaled integers still auto-detect as labels
    assert np.array_equal(back.data, data)
    forced = StackReader.from_bytes(blob).image(as_labels=False)
    assert np.array_equal(forced.data, data.astype(np.float64))
    assert read_header(blob).scaling is None


def test_stack_round_trip(rng):
    stack = VolumeStack(tuple(Volume(rng.random((4, 4, 4))) for _ in range(3)))
    back = StackReader.from_bytes(write_nifti(stack, "float32")).read()
    assert back.channel_count == 3
    for a, b in zip(back.channels, stack.channels):
        assert np.array_equal(a.data, b.data.astype("<f4").astype(np.float64))


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("dtype", ["float32", "int16", "uint8"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_stack_bytes_match_the_stacked_encoding(rng, dtype, layout):
    from synthbrain.nifti import DATA_OFFSET, _datatype_code, _encode

    order = "F" if layout == "F" else "C"
    chans = [np.array(rng.normal(0.0, 300.0, (5, 4, 3)), order=order) for _ in range(3)]
    chans[0].flat[:4] = [0.5, -0.5, 1e6, -1e6]  # ties and out-of-range integers
    stack = VolumeStack(tuple(Volume(c) for c in chans))
    assert all(ch.data.flags[f"{order}_CONTIGUOUS"] for ch in stack.channels)
    stacked = np.stack([ch.data for ch in stack.channels], axis=-1)[:, :, :, None, :]
    blob = write_nifti(stack, dtype)
    assert blob[DATA_OFFSET:] == _encode(stacked, _datatype_code(dtype))


def test_large_stacks_are_read_and_written_without_a_stacked_copy(rng):
    stack = VolumeStack(tuple(Volume(rng.random((64, 64, 64))) for _ in range(32)))
    float64_bytes = 32 * 64 ** 3 * 8
    blob, write_peak = _traced_peak(write_nifti, stack)
    payload = float64_bytes // 2
    assert len(blob) == 352 + payload
    assert write_peak <= 2.2 * payload
    reader = StackReader.from_bytes(blob)
    decoded = []
    reader.values = lambda c, *a: decoded.append(c) or StackReader.values(reader, c, *a)
    back, read_peak = _traced_peak(reader.read)
    assert read_peak <= 1.2 * float64_bytes
    # each channel is decoded once, into a read-only array
    assert decoded == list(range(32))
    assert not any(ch.data.flags.writeable for ch in back.channels)
    assert np.array_equal(back.channels[31].data, stack.channels[31].data.astype("<f4"))


def test_integer_labels_are_read_without_a_float64_copy(rng):
    data = rng.integers(0, 2036, (64, 64, 64)).astype(np.int32)
    blob = write_nifti(LabelMap(data), "int16")
    for as_labels in (True, None):
        back, peak = _traced_peak(StackReader.from_bytes(blob).image, as_labels)
        # the int32 result alone; a float64 decode plus its rint took five times that
        assert peak <= 1.2 * data.nbytes
        assert isinstance(back, LabelMap) and np.array_equal(back.data, data)
    volume = StackReader.from_bytes(blob).image(as_labels=False)
    assert volume.data.dtype == np.float64 and np.array_equal(volume.data, data)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", ["int16", "uint8"])
def test_non_finite_values_are_rejected_for_integer_datatypes(tmp_path, value, dtype):
    v = Volume(np.full((4, 4, 4), value))
    for obj in (v, VolumeStack((Volume(np.zeros((4, 4, 4))), v))):
        with pytest.raises(ValueError, match=dtype):
            write_nifti(obj, dtype)
        with pytest.raises(ValueError, match=dtype):
            write_nifti_file(tmp_path / "v.nii", obj, dtype)
        assert not (tmp_path / "v.nii").exists()
    # a float datatype stores them as they are, and the reader refuses them
    stored = np.frombuffer(write_nifti(v), dtype="<f4", offset=352)
    assert np.array_equal(stored, v.data.ravel(), equal_nan=True)
    with pytest.raises(ValueError, match="non-finite voxel"):
        StackReader.from_bytes(write_nifti(v)).image()


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("dtype", ["float32", "int16"])
def test_files_hold_the_encoded_bytes(tmp_path, rng, suffix, dtype):
    v = Volume(rng.normal(0.0, 300.0, (5, 4, 3)))
    stack = VolumeStack((v, Volume(rng.normal(0.0, 300.0, (5, 4, 3)))))
    for obj in (v, stack):
        path = tmp_path / f"{type(obj).__name__}{suffix}"
        write_nifti_file(path, obj, dtype)
        payload = write_nifti(obj, dtype)
        assert path.read_bytes() == (gzip.compress(payload, mtime=0) if suffix == ".nii.gz" else payload)


def test_a_stack_file_is_written_without_joining_its_channels(tmp_path, rng):
    stack = VolumeStack(tuple(Volume(rng.random((64, 64, 64))) for _ in range(3)))
    channel = 64 ** 3 * 4
    _, joined_peak = _traced_peak(lambda: (tmp_path / "a.nii").write_bytes(write_nifti(stack)))
    _, streamed_peak = _traced_peak(write_nifti_file, tmp_path / "b.nii", stack)
    # joined: every encoded channel plus their join; streamed: one channel's cast and bytes
    assert joined_peak >= 5.5 * channel
    assert streamed_peak <= 2.5 * channel
    assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "b.nii").read_bytes()


def test_big_endian_files_are_readable(rng):
    from synthbrain.nifti import _HDR_FMT

    v = Volume(rng.random((3, 3, 3)))
    blob = write_nifti(v, "float32")
    fields = struct.unpack_from("<" + _HDR_FMT, blob, 0)
    be_header = struct.pack(">" + _HDR_FMT, *fields)
    be_data = np.frombuffer(blob, dtype="<f4", offset=352).astype(">f4").tobytes()
    be_blob = be_header + blob[348:352] + be_data
    back = StackReader.from_bytes(be_blob).image()
    assert np.array_equal(back.data, StackReader.from_bytes(blob).image().data)
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
        StackReader.from_bytes(blob[:-5]).image()
    with pytest.raises(TruncatedData):
        read_header(blob[:100])
    with pytest.raises(BadMagic, match="sizeof_hdr"):
        read_header(_patch(blob, 0, "<i", 123))


# byte offset, value, error, message: each non-finite header field read_header rejects
_NON_FINITE_HEADERS = {
    "vox_offset inf": (108, np.inf, TruncatedData, "vox_offset"),
    "vox_offset nan": (108, np.nan, TruncatedData, "vox_offset"),
    "pixdim[1] nan": (80, np.nan, NonPositivePixdim, r"pixdim\[1\]"),
    "pixdim[2] inf": (84, np.inf, NonPositivePixdim, r"pixdim\[2\]"),
    "pixdim[3] nan": (88, np.nan, NonPositivePixdim, r"pixdim\[3\]"),
    "srow_x[0] nan": (280, np.nan, ValueError, "srow"),
    "srow_y[3] inf": (308, np.inf, ValueError, "srow"),
    "srow_z[2] nan": (320, np.nan, ValueError, "srow"),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_HEADERS))
def test_non_finite_header_fields_are_rejected(rng, case):
    offset, value, error, match = _NON_FINITE_HEADERS[case]
    blob = write_nifti(Volume(rng.random((3, 3, 3))), "float32")
    with pytest.raises(error, match=match):
        read_header(_patch(blob, offset, "<f", value))


def test_srow_is_not_read_without_an_sform(rng):
    v = Volume(rng.random((3, 3, 3)), spacing=(1.0, 2.0, 3.0))
    blob = _patch(_patch(write_nifti(v), 280, "<f", np.nan), 254, "<h", 0)
    back = StackReader.from_bytes(blob).image()
    assert np.array_equal(back.grid_to_world, np.diag([1.0, 2.0, 3.0, 1.0]))


def test_file_readers_name_the_path_in_decoding_errors(rng, tmp_path):
    blob = write_nifti(Volume(rng.random((3, 3, 3)) + 0.25), "float32")
    bad = tmp_path / "bad.nii"
    bad.write_bytes(_patch(blob, 344, "4s", b"bad\x00"))
    for read in (read_nifti_file, read_volume_stack_file):
        with pytest.raises(BadMagic, match=f"^{re.escape(str(bad))}: .*magic"):
            read(bad)
    fractional = tmp_path / "fractional.nii"
    fractional.write_bytes(blob)
    with pytest.raises(ValueError, match=f"^{re.escape(str(fractional))}: .*integer"):
        read_nifti_file(fractional, as_labels=True)


def test_without_an_sform_the_affine_is_the_pixdim_diagonal(rng):
    m = np.eye(4)
    m[:3, 3] = (-10.0, 5.0, 2.5)
    v = Volume(rng.random((4, 4, 4)), spacing=(1.0, 2.0, 3.0), grid_to_world=m)
    blob = _patch(write_nifti(v), 254, "<h", 0)  # sform_code
    assert read_header(blob).sform_code == 0
    back = StackReader.from_bytes(blob).image()
    assert np.array_equal(back.grid_to_world, np.diag([1.0, 2.0, 3.0, 1.0]))
    assert np.array_equal(back.data, StackReader.from_bytes(write_nifti(v)).image().data)


@pytest.mark.parametrize("kind", ["volume", "stack"])
def test_integer_datatype_codes_are_rejected(rng, kind, tmp_path):
    v = Volume(rng.random((3, 3, 3)))
    obj = VolumeStack((v,)) if kind == "stack" else v
    with pytest.raises(UnsupportedDatatype, match="16"):
        write_nifti(obj, 16)
    with pytest.raises(UnsupportedDatatype):
        write_nifti_file(tmp_path / "v.nii", obj, 16)
    assert not (tmp_path / "v.nii").exists()


def test_a_3d_file_reads_as_a_one_channel_stack(rng):
    v = Volume(rng.random((4, 5, 6)), spacing=(1.0, 1.5, 2.0))
    blob = write_nifti(v, "float32")
    stack = StackReader.from_bytes(blob).read()
    single = StackReader.from_bytes(blob).image()
    assert stack.channel_count == 1
    assert np.array_equal(stack.channels[0].data, single.data)
    assert same_geometry(stack, single)
    # read-only, as for 5D files
    assert not stack.channels[0].data.flags.writeable


def test_other_dimensions_are_rejected_by_both_readers(rng):
    blob = _patch(write_nifti(Volume(rng.random((3, 3, 3)))), 40, "<h", 4)  # dim[0]
    for read in (StackReader.image, StackReader.read):
        with pytest.raises(UnsupportedDimension, match="dim"):
            read(StackReader.from_bytes(blob))
    stack_blob = write_nifti(VolumeStack((Volume(rng.random((3, 3, 3))),) * 2))
    with pytest.raises(UnsupportedDimension, match="3D scalar"):
        StackReader.from_bytes(stack_blob).image()


def test_custom_affine_survives(rng):
    m = np.eye(4)
    m[:3, :3] = np.diag([1.0, 2.0, 3.0])
    m[:3, 3] = (-10.0, 5.0, 2.5)
    v = Volume(rng.random((4, 4, 4)), spacing=(1.0, 2.0, 3.0), grid_to_world=m)
    back = StackReader.from_bytes(write_nifti(v)).image()
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
    dump = header_dump(write_nifti(stack))
    assert dump["dim"][:6] == (5, 3, 3, 3, 1, 3)
    assert dump["intent_code"] == 1007  # vector-valued voxels


# -- the file reader against the stream reader ------------------------------------

def _variant(blob: bytes, byte_order: str, scaled: bool) -> bytes:
    """``blob`` with ``scl_slope``/``scl_inter`` set when ``scaled``, stored in
    ``byte_order``."""
    from synthbrain.nifti import _HDR_FMT

    if scaled:
        blob = _patch(blob, 112, "<2f", 0.5, -3.0)
    if byte_order == "<":
        return blob
    hdr = read_header(blob)
    fields = struct.unpack_from("<" + _HDR_FMT, blob, 0)
    dtype = np.dtype({2: "u1", 4: "i2", 16: "f4"}[hdr.datatype])
    data = np.frombuffer(blob, dtype=dtype.newbyteorder("<"), offset=352)
    return struct.pack(">" + _HDR_FMT, *fields) + blob[348:352] + data.astype(
        dtype.newbyteorder(">")).tobytes()


def _same_stack(a: VolumeStack, b: VolumeStack) -> bool:
    return a.channel_count == b.channel_count and same_geometry(a, b) and all(
        x.data.dtype == y.data.dtype and x.data.tobytes() == y.data.tobytes()
        for x, y in zip(a.channels, b.channels))


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("dtype", ["uint8", "int16", "float32"])
@pytest.mark.parametrize("byte_order", ["<", ">"])
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("ndim", [3, 5])
def test_the_file_reader_matches_the_stream_reader(tmp_path, rng, suffix, dtype, byte_order,
                                                   scaled, ndim):
    chans = [Volume(rng.uniform(0.0, 200.0, (5, 4, 3))) for _ in range(3 if ndim == 5 else 1)]
    obj = VolumeStack(tuple(chans)) if ndim == 5 else chans[0]
    blob = _variant(write_nifti(obj, dtype), byte_order, scaled)
    path = tmp_path / f"v{suffix}"
    path.write_bytes(gzip.compress(blob, mtime=0) if suffix == ".nii.gz" else blob)
    whole = StackReader.from_bytes(path.read_bytes()).read()
    assert _same_stack(read_volume_stack_file(path), whole)
    # a truncated file fails as its bytes do, naming the path
    cut = blob[:-3]
    path.write_bytes(gzip.compress(cut, mtime=0) if suffix == ".nii.gz" else cut)
    with pytest.raises(TruncatedData) as from_stream:
        StackReader.from_bytes(path.read_bytes()).read()
    with pytest.raises(TruncatedData) as from_file:
        read_volume_stack_file(path)
    assert str(from_file.value) == f"{path}: {from_stream.value}"


def test_a_stack_file_is_read_one_channel_block_at_a_time(tmp_path, rng):
    stack = VolumeStack(tuple(Volume(rng.random((64, 64, 64))) for _ in range(32)))
    path = tmp_path / "features.nii"
    write_nifti_file(path, stack)
    block = 64 ** 3 * 4
    back, peak = _traced_peak(read_volume_stack_file, path)
    # the decoded float64 array and the bytes of one channel; the whole file
    # and its decode took 32 blocks more
    decoded = 32 * 64 ** 3 * 8
    assert peak <= decoded + 2 * block
    assert _same_stack(back, StackReader.from_bytes(path.read_bytes()).read())


def test_a_stack_is_read_from_a_pipe(tmp_path, rng):
    blob = write_nifti(VolumeStack(tuple(Volume(rng.random((4, 5, 6))) for _ in range(3))))
    fifo = tmp_path / "features.nii"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
    writer.start()
    try:
        back = read_volume_stack_file(fifo)
    finally:
        writer.join()
    assert _same_stack(back, StackReader.from_bytes(blob).read())

@pytest.mark.parametrize("kind, dtype", [("volume", "float32"), ("labels", "int16")])
def test_a_written_channel_is_held_once(tmp_path, rng, kind, dtype):
    if kind == "volume":
        image = Volume(rng.random((96, 96, 96)))
    else:
        image = LabelMap(rng.integers(0, 2035, (96, 96, 96)).astype(np.int32))
    payload = 96 ** 3 * np.dtype(dtype).itemsize
    path = tmp_path / "image.nii"
    _, peak = _traced_peak(write_nifti_file, path, image, dtype)
    # the cast values only; their bytes as a second copy took 2x
    assert peak <= 1.2 * payload
    want = image.data.astype(np.dtype(dtype).newbyteorder("<")).tobytes(order="F")
    assert path.read_bytes()[352:] == want


def test_integer_images_are_encoded_without_float64_copies(rng):
    labels = LabelMap(rng.integers(0, 40_000, (96, 96, 96)).astype(np.int32))
    payload = 96 ** 3 * 2
    blob, peak = _traced_peak(write_nifti, labels, "int16")
    # the cast values and their bytes; the float64 cast, rint and clip took 12x
    assert peak <= 2.5 * payload
    clipped = np.minimum(labels.data, 32767).astype("<i2")
    assert blob[352:] == clipped.tobytes(order="F")


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("scaled", [False, True])
def test_a_stack_reader_decodes_channels_and_voxel_ranges(tmp_path, rng, suffix, scaled):
    stack = VolumeStack(tuple(Volume(rng.uniform(0.0, 200.0, (5, 4, 3))) for _ in range(3)))
    blob = _variant(write_nifti(stack, "int16" if scaled else "float32"), "<", scaled)
    path = tmp_path / f"s{suffix}"
    path.write_bytes(gzip.compress(blob, mtime=0) if suffix == ".nii.gz" else blob)
    whole = StackReader.from_bytes(blob).read()
    reader = StackReader.open(path)
    assert (reader.dims, reader.channel_count) == ((5, 4, 3), 3)
    assert same_geometry(reader, whole)
    for c, ch in enumerate(whole.channels):
        assert reader.channel(c).data.tobytes(order="F") == ch.data.tobytes(order="F")
        flat = ch.data.ravel(order="F")
        for lo, hi in ((0, 60), (7, 23), (59, 60)):
            got = np.asarray(reader.values(c, lo, hi), dtype=np.float64)
            assert got.tobytes() == flat[lo:hi].tobytes()
    assert _same_stack(reader.read(), whole)


@pytest.mark.parametrize("c, lo, hi, message", [
    (0, 10, 5, "voxel range [10, 5)"),
    (0, -1, 5, "voxel range [-1, 5)"),
    (0, 0, 4097, "voxel range [0, 4097)"),
    (2, 0, None, "channel 2 is not in [0, 2)"),
    (-1, 0, None, "channel -1 is not in [0, 2)"),
])
def test_a_channel_or_voxel_range_outside_the_file_is_rejected(tmp_path, rng, c, lo, hi, message):
    path = tmp_path / "s.nii"
    write_nifti_file(path, VolumeStack(tuple(Volume(rng.random((16, 16, 16))) for _ in range(2))))
    for reader in (StackReader.open(path), StackReader.from_bytes(path.read_bytes(), path)):
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            reader.values(c, lo, hi)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts this process's open files")
def test_stack_readers_hold_no_open_file(tmp_path, rng):
    path = tmp_path / "s.nii"
    write_nifti_file(path, VolumeStack(tuple(Volume(rng.random((4, 4, 4))) for _ in range(2))))
    before = len(os.listdir("/proc/self/fd"))
    readers = [StackReader.open(path) for _ in range(50)]
    for reader in readers:
        reader.channel(1)
    assert len(os.listdir("/proc/self/fd")) == before
    # nor does one whose header fails to decode
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(BadMagic, match=re.escape(str(path))):
        StackReader.open(path)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_stack_voxel_is_rejected_naming_file_and_channel(tmp_path, rng, value):
    chans = [rng.random((4, 4, 4)) for _ in range(3)]
    chans[2][1, 2, 3] = value
    blob = write_nifti(VolumeStack(tuple(Volume(c) for c in chans)))
    with pytest.raises(ValueError, match="channel 2 holds a non-finite voxel"):
        StackReader.from_bytes(blob).read()
    path = tmp_path / "s.nii"
    path.write_bytes(blob)
    reader = StackReader.open(path)
    reader.channel(1)
    with pytest.raises(ValueError, match=re.escape(f"{path}: channel 2")):
        reader.channel(2)
    # the voxel range that holds it, and only that one
    reader.values(2, 0, 32)
    with pytest.raises(ValueError):
        reader.values(2, 32, 64)
