"""Run a dataset through the network and record per-map peak activations.

For every (image, feature map) pair of the chosen layer the database
keeps the spatial maximum of the pooled activation and where it
occurred. All downstream association analysis works from this table,
so it is persisted as CSV with provenance hashes of the checkpoint and
manifest that produced it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .data import DataError, DatasetManifest
from .model import Network


@dataclass(frozen=True)
class ActivationRecord:
    image_id: int
    map_index: int
    value: float
    row: int
    col: int


class ActivationDB:
    """harvest's [images, maps] table of peaks; an image id is its row (and manifest) index."""

    def __init__(self, values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 layer: int, provenance: dict[str, str]):
        self.values = values
        self.rows = rows
        self.cols = cols
        self.layer = layer
        self.provenance = dict(provenance)

    @property
    def image_ids(self) -> list[int]:
        return list(range(self.num_images))

    @property
    def num_images(self) -> int:
        return len(self.values)

    @property
    def num_maps(self) -> int:
        return self.values.shape[1]

    def record(self, image_id: int, map_index: int) -> ActivationRecord:
        return ActivationRecord(
            image_id=image_id,
            map_index=map_index,
            value=float(self.values[image_id, map_index]),
            row=int(self.rows[image_id, map_index]),
            col=int(self.cols[image_id, map_index]),
        )

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Write the header, the column names and one line per (image, map), image-major.

        Each value is repr of its Python float, every other field its
        Python int. An image's m lines are one % template, the map
        indices written into it, over that image's row of a table of
        Python objects.
        """
        n, m = self.num_images, self.num_maps
        template = "".join(f"%d,{j},%r,%d,%d\n" for j in range(m))
        table = np.empty((n, m, 4), dtype=object)  # assignment converts to Python scalars
        table[..., 0] = np.arange(n)[:, None]
        table[..., 1], table[..., 2], table[..., 3] = self.values, self.rows, self.cols
        body = "".join([template % tuple(line) for line in table.reshape(n, 4 * m).tolist()])
        data_mod.write_atomic(path, f"{self._header_line()}\n{DB_COLUMNS}\n{body}")

    def _header_line(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.provenance.items()))
        return f"# auprobe-activation-db v=1 layer={self.layer} {fields}"

    @classmethod
    def load(cls, path, expect_checkpoint: str | None = None,
             expect_manifest: str | None = None) -> "ActivationDB":
        """Read a DB that save() wrote; DataError naming the file (and line) otherwise.

        Lines are split as str.splitlines() splits them, and the header's
        v must be 1. A body made only of save()'s characters (digits, '.',
        ',', '-', '+' and 'e', broken by '\\n', '\\r\\n' or '\\r') is read
        by one np.loadtxt call, numpy's C text reader, whose int and float
        parses agree with int() and float() on that alphabet. Any other
        body, and any body that reader rejects or warns about, is read a
        line at a time (_parse_per_line) to the same values and messages:
        a field is accepted if int() (or float(), for value) accepts it and
        its column's dtype holds it.
        The rows must be laid out as save() writes harvest's table:
        nonempty body line k holds image k // m and map k % m, where m
        counts the rows of image 0 that lead the body. The checks run in
        this order, each naming the first offending line in file order (a
        missing last row, the line after the end): an empty body, field
        count and syntax, a row out of that layout, a negative or
        non-finite peak.
        """
        path = Path(path)
        if not path.is_file():
            raise DataError(f"activation db not found: {path}")
        text = data_mod.read_text(path)
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# auprobe-activation-db"):
            raise DataError(f"{path}: not an activation db")
        tokens = lines[0].split()[2:]
        meta = dict(t.split("=", 1) for t in tokens if "=" in t)
        version = meta.pop("v", None)
        if version != "1":
            raise DataError(f"{path}: unsupported activation db version {version!r}")
        try:
            layer = int(meta.pop("layer", "0"))
        except ValueError as exc:
            raise DataError(f"{path} line 1: {exc}") from exc
        if expect_checkpoint is not None and meta.get("checkpoint") != expect_checkpoint:
            raise DataError(f"{path}: produced by a different checkpoint")
        if expect_manifest is not None and meta.get("manifest") != expect_manifest:
            raise DataError(f"{path}: produced by a different manifest")
        if len(lines) < 2 or lines[1] != DB_COLUMNS:
            raise DataError(f"{path}: missing column header")
        body = lines[2:]
        table = _parse_c_reader(text, lines)
        if table is None:
            table = _parse_per_line(path, body)
        img, maps, values, rows, cols = (table[name] for name in _DB_RECORD.names)
        other = img != 0
        m = max(1, int(other.argmax())) if other.any() else len(img)  # image 0's leading rows
        k = np.arange(len(img))
        misplaced = (img != k // m) | (maps != k % m)
        if misplaced.any() or len(img) % m:
            k = int(misplaced.argmax()) if misplaced.any() else len(img)
            numbers, _ = _nonempty(body)
            where, found = ((numbers[k], f"image {img[k]} map {maps[k]}") if k < len(img)
                            else (len(lines) + 1, "the end of the file"))
            raise DataError(f"{path} line {where}: expected image {k // m} map {k % m}, "
                            f"found {found}")
        valid = (values >= 0) & (values < np.inf)  # NaN fails both
        if not valid.all():
            k = int(valid.argmin())
            numbers, nonempty = _nonempty(body)
            field = nonempty[k].split(",")[2]
            if not math.isfinite(values[k]):
                raise DataError(f"{path} line {numbers[k]}: non-finite value {field!r}")
            raise DataError(f"{path} line {numbers[k]}: negative peak {field!r}; "
                            "peaks are maxima of ReLU outputs")
        shape = (len(img) // m, m)
        return cls(values.reshape(shape), rows.reshape(shape), cols.reshape(shape), layer, meta)


DB_COLUMNS = "image_id,map,value,row,col"
_DB_DTYPES = (np.int64, np.int64, np.float64, np.int32, np.int32)
_DB_RECORD = np.dtype([(name, dtype) for name, dtype in zip(DB_COLUMNS.split(","), _DB_DTYPES)])
# every byte save() writes after the header lines, and the CR of a CRLF file
_CANONICAL_BODY = b"0123456789.,-+e\n\r"


def _nonempty(body: list[str]) -> tuple[list[int], list[str]]:
    """File line numbers and text of the nonempty lines of a DB body (file line 3 on)."""
    numbers = [ln for ln, line in enumerate(body, start=3) if line]
    return numbers, [body[ln - 3] for ln in numbers]


def _parse_c_reader(text: str, lines: list[str]) -> np.ndarray | None:
    """The body of text (lines[2:]) as a _DB_RECORD table from numpy's C text reader;
    None if it has a byte outside save()'s alphabet, or the reader rejects it.

    Deleting _CANONICAL_BODY's bytes from text leaves exactly what it
    leaves of the two header lines iff their line breaks and the body
    have no other byte; that skips joining the body's lines. Within that
    alphabet the reader parses the values int() and float() parse, or
    fails: the float parse is Python's own (correctly rounded), and a
    token an int column's dtype cannot hold is an error or, on numpy
    1.23-1.24, a DeprecationWarning, which counts as rejection. Blank
    lines are skipped, so row k is the k-th nonempty line; a body with
    none warns and is rejected.
    """
    header = (lines[0] + lines[1]).encode().translate(None, _CANONICAL_BODY)
    if text.encode().translate(None, _CANONICAL_BODY) != header:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines[2:], delimiter=",", dtype=_DB_RECORD, comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None


def _parse_per_line(path, body: list[str]) -> np.ndarray:
    """A body as a _DB_RECORD table, a line at a time; DataError naming the first bad line.

    Each field goes through int() (float() for value), then its column's
    dtype, which raises OverflowError for a value it cannot hold.
    """
    numbers, nonempty = _nonempty(body)
    if not nonempty:
        raise DataError(f"{path}: empty activation db")
    records = []
    for ln, line in zip(numbers, nonempty):
        fields = line.split(",")
        if len(fields) != 5:
            raise DataError(f"{path} line {ln}: expected 5 fields")
        try:
            records.append(tuple(dtype((float if dtype is np.float64 else int)(text))
                                 for text, dtype in zip(fields, _DB_DTYPES)))
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path} line {ln}: {exc}") from exc
    return np.array(records, dtype=_DB_RECORD)


# Bytes of im2col patch matrix a chunk that runs only the conv stack (harvest,
# report.map_responses' traces) may build at its largest conv: chunks bigger
# than the caches made the GEMMs slower. No map's bits depend on the chunk.
# Halving it to 2 MiB (4 images at reduced_config) took harvest from 343 to
# 314 ms per 600 images but montages from 11.07 to 12.15 ms at the median, so
# it stays at 4 MiB.
CHUNK_BYTES = 4 << 20


def harvest(net: Network, manifest: DatasetManifest,
            layer: int | None = None) -> ActivationDB:
    """One record per (image, map) under the deterministic eval transform.

    Images run through convs 1..layer in chunks of images_per_chunk() at
    CHUNK_BYTES; a chunk's images are loaded and transformed by one
    data.eval_chunk call, which mixes images of any size. Raises
    NumericError naming the first image and, within it, the first map
    whose peak is not finite: argmax would pick a NaN peak, and a NaN map
    would then win every unit's profile.
    """
    if len(manifest) == 0:
        raise DataError("cannot harvest an empty manifest")
    if layer is None:
        layer = len(net.convs)
    if not 1 <= layer <= len(net.convs):
        raise DataError(f"layer {layer} outside 1..{len(net.convs)}")
    size = net.config.input_size
    dtype = net.config.np_dtype
    num_maps = net.config.conv_channels[layer - 1]
    n = len(manifest)
    chunk = min(n, model_mod.images_per_chunk(net.config, CHUNK_BYTES, layer))
    values = np.empty((n, num_maps))
    rows = np.empty((n, num_maps), dtype=np.int32)
    cols = np.empty((n, num_maps), dtype=np.int32)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        xs = data_mod.eval_chunk([data_mod.load_image(manifest, start + k) for k in range(m)],
                                 size, dtype)
        fmaps = net.stage_outputs(xs, layer)
        flat = fmaps.reshape(m, num_maps, -1)
        arg = flat.argmax(axis=2)  # first max in row-major order on ties
        vals = np.take_along_axis(flat, arg[..., None], axis=2)[..., 0]
        bad = ~np.isfinite(vals)
        if bad.any():
            k, j = np.argwhere(bad)[0]  # first image, then its first map
            i = start + int(k)
            raise model_mod.NumericError(
                f"non-finite activation {vals[k, j]} in layer {layer} map {j} "
                f"of image {i} ({manifest.image_path(i)})"
            )
        values[start : start + m] = vals
        rows[start : start + m], cols[start : start + m] = np.unravel_index(
            arg, fmaps.shape[2:])
    provenance = {
        "checkpoint": model_mod.checkpoint_hash(net),
        "manifest": manifest.content_hash(),
        "input_size": str(size),
        "conv_channels": ";".join(str(c) for c in net.config.conv_channels),
        "kernel_size": str(net.config.kernel_size),
    }
    return ActivationDB(values, rows, cols, layer, provenance)


def recorded_config(db: ActivationDB) -> model_mod.ModelConfig:
    """The geometry harvest() records in a DB's header, as a ModelConfig.

    ModelConfig's own checks validate input_size, conv_channels and
    kernel_size; its other fields keep their defaults. DataError when
    one of the three is missing, does not parse or is rejected.
    """
    try:
        return model_mod.ModelConfig(
            input_size=int(db.provenance["input_size"]),
            conv_channels=tuple(int(c) for c in db.provenance["conv_channels"].split(";")),
            kernel_size=int(db.provenance["kernel_size"]),
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"activation db header has no valid geometry: {exc}") from exc


def top_n(db: ActivationDB, map_index: int, subset, n: int) -> list[ActivationRecord]:
    """The n largest peak activations of one map over an image subset.

    Each id must be a row of the table. Sorted by value descending; equal
    values order by smaller image id. Returns fewer than n records when
    the subset is smaller than n.
    """
    if n < 1:
        raise DataError(f"top-n count must be at least 1, got {n}")
    ids = sorted(set(map(int, subset)))
    if not ids:
        raise DataError("top_n needs a nonempty image subset")
    if not 0 <= map_index < db.num_maps:
        raise DataError(f"map {map_index} outside 0..{db.num_maps - 1}")
    if ids[0] < 0 or ids[-1] >= db.num_images:
        missing = [i for i in ids if not 0 <= i < db.num_images]
        raise DataError(f"image ids not in activation db: {missing[:5]}")
    # ids ascend, so a stable sort breaks ties by the smaller id
    order = np.argsort(-db.values[ids, map_index], kind="stable")[:n]
    return [db.record(ids[i], map_index) for i in order]


def partition_by_au(manifest: DatasetManifest, au_id: int) -> tuple[set[int], set[int]]:
    """Image ids (manifest row indices) with and without one action unit."""
    with_au = {i for i, row in enumerate(manifest.rows) if au_id in row.au_set}
    without = set(range(len(manifest))) - with_au
    if not with_au:
        raise DataError(f"action unit {au_id} absent from the entire dataset")
    return with_au, without
