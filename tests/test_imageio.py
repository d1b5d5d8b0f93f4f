import struct
import zlib

import numpy as np
import pytest

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


def test_png_corrupt_image_data_rejected(tmp_path, gradient):
    p = tmp_path / "corrupt.png"
    write_png(p, gradient)
    data = bytearray(p.read_bytes())
    idat = data.index(b"IDAT") + 4
    data[idat + 2] = 0xFF  # first deflate block header after the zlib header: invalid type
    p.write_bytes(bytes(data))
    with pytest.raises(ImageFormatError, match="corrupt.png: corrupt PNG image data"):
        read_image(p)


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
