"""Minimal 8-bit grayscale image I/O: binary PGM (P5) and PNG.

Only what the pipeline needs: both formats read, both written. PNG
support covers bit depth 8, color type 0 (grayscale), non-interlaced;
all five scanline filters are handled on decode, rows are written
unfiltered. Anything else is rejected with a clear error.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np


class ImageFormatError(ValueError):
    """File is not a supported 8-bit grayscale image."""


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def read_image(path) -> np.ndarray:
    """Read a grayscale image as uint8 [H,W], dispatching on magic bytes."""
    data = Path(path).read_bytes()
    if data.startswith(PNG_SIGNATURE):
        return _decode_png(data, path)
    if data.startswith(b"P5"):
        return _decode_pgm(data, path)
    raise ImageFormatError(f"{path}: neither PNG nor binary PGM")


def write_image(path, image: np.ndarray) -> None:
    """Write uint8 [H,W] as PGM or PNG depending on the file suffix."""
    path = Path(path)
    if path.suffix.lower() == ".png":
        write_png(path, image)
    else:
        write_pgm(path, image)


def _as_uint8(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image)
    if image.ndim != 2:
        raise ImageFormatError(f"expected 2-D grayscale array, got shape {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    return image


# ------------------------------------------------------------------ PGM


def write_pgm(path, image: np.ndarray) -> None:
    image = _as_uint8(image)
    h, w = image.shape
    from .data import write_atomic  # here, not at the top: data imports this module
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes())


def _decode_pgm(data: bytes, path) -> np.ndarray:
    # header tokens may be separated by any whitespace or '#' comments
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit() or len(token) > 9:  # no extent has 10 digits; int() rejects 4300+
            raise ImageFormatError(f"{path}: malformed PGM header near byte {start}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval > 255:
        raise ImageFormatError(f"{path}: 16-bit PGM not supported (maxval {maxval})")
    pixels = data[pos : pos + w * h]
    if len(pixels) != w * h:
        raise ImageFormatError(f"{path}: truncated PGM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy()


# ------------------------------------------------------------------ PNG


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(tag))
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def write_png(path, image: np.ndarray) -> None:
    image = _as_uint8(image)
    h, w = image.shape
    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    # each row led by its filter type byte, 0: none
    raw = np.hstack([np.zeros((h, 1), dtype=np.uint8), image]).tobytes()
    from .data import write_atomic  # here, not at the top: data imports this module
    write_atomic(path, PNG_SIGNATURE + _png_chunk(b"IHDR", header)
                 + _png_chunk(b"IDAT", zlib.compress(raw, 6)) + _png_chunk(b"IEND", b""))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _unfilter(kind: int, row: np.ndarray, prev: np.ndarray) -> np.ndarray:
    if kind == 0:
        return row
    if kind == 2:
        return (row.astype(np.uint16) + prev).astype(np.uint8)
    out = np.empty_like(row)
    for i in range(row.size):
        a = int(out[i - 1]) if i else 0
        b = int(prev[i])
        if kind == 1:
            pred = a
        elif kind == 3:
            pred = (a + b) // 2
        elif kind == 4:
            pred = _paeth(a, b, int(prev[i - 1]) if i else 0)
        else:
            raise ImageFormatError(f"unknown PNG filter type {kind}")
        out[i] = (int(row[i]) + pred) & 0xFF
    return out


def _decode_png(data: bytes, path) -> np.ndarray:
    pos = len(PNG_SIGNATURE)
    width = height = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,), tag = struct.unpack(">I", data[pos : pos + 4]), data[pos + 4 : pos + 8]
        name = tag.decode("latin-1")
        if pos + 12 + length > len(data):
            raise ImageFormatError(f"{path}: PNG chunk {name!r} of {length} bytes "
                                   "runs past the end of the file")
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(payload, zlib.crc32(tag)) != crc:
            raise ImageFormatError(f"{path}: PNG chunk {name!r} fails its CRC check")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"{path}: PNG chunk 'IHDR' has {length} bytes, not 13")
            width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color != 0:
                raise ImageFormatError(
                    f"{path}: only 8-bit grayscale PNG supported "
                    f"(bit depth {depth}, color type {color})"
                )
            if interlace:
                raise ImageFormatError(f"{path}: interlaced PNG not supported")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None:
        raise ImageFormatError(f"{path}: missing IHDR")
    # inflate at most one byte past the scanlines, so a stream that inflates
    # far past them is rejected without being held in memory
    size = height * (width + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), size + 1)
    except zlib.error as exc:
        raise ImageFormatError(f"{path}: corrupt PNG image data: {exc}") from exc
    if not inflater.eof and len(raw) <= size:
        raise ImageFormatError(f"{path}: corrupt PNG image data: Error -5 while "
                               "decompressing data: incomplete or truncated stream")
    if len(raw) != size:
        raise ImageFormatError(f"{path}: scanline data has wrong length")
    out = np.empty((height, width), dtype=np.uint8)
    prev = np.zeros(width, dtype=np.uint8)
    for y in range(height):
        offset = y * (width + 1)
        kind = raw[offset]
        row = np.frombuffer(raw, dtype=np.uint8, count=width, offset=offset + 1)
        prev = _unfilter(kind, row.copy(), prev)
        out[y] = prev
    return out
