import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe.imageio import (
    PNG_SIGNATURE,
    ImageFormatError,
    _png_chunk,
    read_image,
    write_image,
    write_pgm,
    write_png,
)


@pytest.fixture
def gradient():
    return np.arange(48, dtype=np.uint8).reshape(6, 8) * 5


def test_pgm_roundtrip(tmp_path, gradient):
    p = tmp_path / "img.pgm"
    write_pgm(p, gradient)
    np.testing.assert_array_equal(read_image(p), gradient)


def test_png_roundtrip(tmp_path, gradient):
    p = tmp_path / "img.png"
    write_png(p, gradient)
    np.testing.assert_array_equal(read_image(p), gradient)


def test_write_image_dispatches_on_suffix(tmp_path, gradient):
    for name, magic in [("a.png", PNG_SIGNATURE[:4]), ("a.pgm", b"P5")]:
        path = tmp_path / name
        write_image(path, gradient)
        assert path.read_bytes().startswith(magic)
        np.testing.assert_array_equal(read_image(path), gradient)


def test_pgm_with_comment_header(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)))
    np.testing.assert_array_equal(read_image(p), np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_pgm_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ImageFormatError):
        read_image(p)


def _png_from_scanlines(tmp_path, name, width, height, scanlines):
    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    body = PNG_SIGNATURE + _png_chunk(b"IHDR", header)
    body += _png_chunk(b"IDAT", zlib.compress(bytes(scanlines)))
    body += _png_chunk(b"IEND", b"")
    p = tmp_path / name
    p.write_bytes(body)
    return p


def test_png_all_filter_types_decode(tmp_path):
    # rows written with filters sub(1), up(2), average(3), paeth(4)
    base = np.array(
        [[10, 20, 30, 40], [15, 25, 35, 45], [20, 30, 40, 50], [0, 255, 0, 255]],
        dtype=np.uint8,
    )
    lines = bytearray()
    lines += bytes([1]) + bytes([10, 10, 10, 10])  # sub
    prev = base[0]
    lines += bytes([2]) + bytes((base[1].astype(int) - prev).astype(np.uint8))  # up
    row = base[2]
    enc = []
    for i in range(4):
        a = int(row[i - 1]) if i else 0
        enc.append((int(row[i]) - (a + int(base[1][i])) // 2) & 0xFF)
    lines += bytes([3]) + bytes(enc)  # average
    row = base[3]
    enc = []
    for i in range(4):
        a = int(row[i - 1]) if i else 0
        b, c = int(base[2][i]), (int(base[2][i - 1]) if i else 0)
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
        enc.append((int(row[i]) - pred) & 0xFF)
    lines += bytes([4]) + bytes(enc)  # paeth
    p = _png_from_scanlines(tmp_path, "filters.png", 4, 4, lines)
    np.testing.assert_array_equal(read_image(p), base)


def test_png_rejects_rgb(tmp_path):
    header = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)  # color type 2 = RGB
    body = PNG_SIGNATURE + _png_chunk(b"IHDR", header)
    body += _png_chunk(b"IDAT", zlib.compress(bytes(2 * (1 + 6))))
    body += _png_chunk(b"IEND", b"")
    p = tmp_path / "rgb.png"
    p.write_bytes(body)
    with pytest.raises(ImageFormatError):
        read_image(p)


def _idat_bounds(png: bytes) -> tuple[int, int]:
    """Start and end of the IDAT chunk, length field to CRC."""
    start = png.index(b"IDAT") - 4
    (length,) = struct.unpack(">I", png[start : start + 4])
    return start, start + 12 + length


def test_png_corrupt_image_data_rejected(tmp_path, gradient):
    p = tmp_path / "corrupt.png"
    write_png(p, gradient)
    data = p.read_bytes()
    start, end = _idat_bounds(data)
    payload = bytearray(data[start + 8 : end - 4])
    payload[2] = 0xFF  # first deflate block header after the zlib header: invalid type
    # a matching CRC, so that the deflate stream itself is what fails
    p.write_bytes(data[:start] + _png_chunk(b"IDAT", bytes(payload)) + data[end:])
    with pytest.raises(ImageFormatError, match="corrupt.png: corrupt PNG image data"):
        read_image(p)


def test_png_crc_mismatch_names_chunk(tmp_path, gradient):
    p = tmp_path / "flipped.png"
    write_png(p, gradient)
    data = bytearray(p.read_bytes())
    start, end = _idat_bounds(bytes(data))
    data[end - 1] ^= 0x01  # the stored CRC
    p.write_bytes(bytes(data))
    with pytest.raises(ImageFormatError, match="flipped.png: PNG chunk 'IDAT' fails its CRC"):
        read_image(p)


def test_png_chunk_past_end_of_file_names_chunk(tmp_path, gradient):
    p = tmp_path / "short.png"
    write_png(p, gradient)
    data = p.read_bytes()
    start, end = _idat_bounds(data)
    p.write_bytes(data[: end - 5])  # cut inside the IDAT payload
    with pytest.raises(ImageFormatError, match="short.png: PNG chunk 'IDAT' of .* runs past"):
        read_image(p)
    header = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    p.write_bytes(PNG_SIGNATURE + _png_chunk(b"IHDR", header + b"\0"))
    with pytest.raises(ImageFormatError, match="'IHDR' has 14 bytes"):
        read_image(p)


def test_png_truncated_image_data_keeps_zlib_message(tmp_path, gradient):
    p = tmp_path / "cut.png"
    write_png(p, gradient)
    data = p.read_bytes()
    start, end = _idat_bounds(data)
    payload = data[start + 8 : end - 4][:-6]  # the stream loses its last block's end
    with pytest.raises(zlib.error) as inflating:
        zlib.decompress(payload)
    p.write_bytes(data[:start] + _png_chunk(b"IDAT", payload) + data[end:])
    with pytest.raises(ImageFormatError) as reading:
        read_image(p)
    assert str(reading.value) == f"{p}: corrupt PNG image data: {inflating.value}"


def test_png_inflating_past_its_scanlines_is_rejected_in_bounded_memory(tmp_path):
    # 16 x 16 pixels take 272 bytes of scanlines; this IDAT inflates to 64 MB
    deflate = zlib.compressobj(9)
    stream = b"".join(deflate.compress(bytes(10 ** 6)) for _ in range(64)) + deflate.flush()
    header = struct.pack(">IIBBBBB", 16, 16, 8, 0, 0, 0, 0)
    p = tmp_path / "bomb.png"
    p.write_bytes(PNG_SIGNATURE + _png_chunk(b"IHDR", header) + _png_chunk(b"IDAT", stream)
                  + _png_chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError, match="bomb.png: scanline data has wrong length"):
            read_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (0, 5), (112, 112)])
def test_write_png_equals_per_row_scanlines(tmp_path, shape):
    image = np.random.default_rng(shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
    scanlines = b"".join(b"\0" + row.tobytes() for row in image)
    want = (PNG_SIGNATURE + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", *shape[::-1], 8, 0, 0, 0, 0))
            + _png_chunk(b"IDAT", zlib.compress(scanlines, 6)) + _png_chunk(b"IEND", b""))
    p = tmp_path / "rows.png"
    write_png(p, image)
    assert p.read_bytes() == want
    np.testing.assert_array_equal(read_image(p), image)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _read_or_format_error(directory, payload: bytes) -> None:
    """read_image on payload returns a uint8 image or raises ImageFormatError, nothing else."""
    path = directory / "fuzz.img"
    path.write_bytes(payload)
    try:
        img = read_image(path)
    except ImageFormatError:
        return
    assert img.dtype == np.uint8 and img.ndim == 2


@given(st.one_of(st.binary(max_size=200),
                 st.binary(max_size=200).map(lambda b: PNG_SIGNATURE + b),
                 st.binary(max_size=200).map(lambda b: b"P5" + b)))
@settings(max_examples=300)
def test_read_image_on_arbitrary_bytes(fuzz_dir, payload):
    _read_or_format_error(fuzz_dir, payload)


# 5 x 3 pixels, rows filtered by none, sub and paeth
_VALID_PNG = (PNG_SIGNATURE
              + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 3, 8, 0, 0, 0, 0))
              + _png_chunk(b"IDAT", zlib.compress(bytes([0, 9, 8, 7, 6, 5, 1, 10, 20, 30, 40, 50,
                                                        4, 7, 8, 9, 10, 11]), 6))
              + _png_chunk(b"IEND", b""))


@given(st.lists(st.integers(0, 8 * len(_VALID_PNG) - 1), min_size=1, max_size=4))
@settings(max_examples=300)
def test_read_image_on_bit_flipped_png(fuzz_dir, bits):
    path = fuzz_dir / "valid.png"
    path.write_bytes(_VALID_PNG)
    assert read_image(path).shape == (3, 5)
    data = bytearray(_VALID_PNG)
    for bit in bits:
        data[bit // 8] ^= 1 << (bit % 8)
    _read_or_format_error(fuzz_dir, bytes(data))


def test_unknown_format_rejected(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"GIF89a whatever")
    with pytest.raises(ImageFormatError):
        read_image(p)


def test_lossless_modulo_quantization(tmp_path):
    # float input is rounded to 8 bits once; a second trip is exact
    img = np.random.default_rng(0).uniform(0, 255, size=(9, 7))
    p = tmp_path / "q.png"
    write_png(p, img)
    once = read_image(p)
    write_png(p, once)
    np.testing.assert_array_equal(read_image(p), once)
    assert np.abs(once.astype(float) - img).max() <= 0.5 + 1e-9
