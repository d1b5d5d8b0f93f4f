"""Run a dataset through the network and record per-map peak activations.

For every (image, feature map) pair of the chosen layer the database
keeps the spatial maximum of the pooled activation and where it
occurred. All downstream association analysis works from this table,
so it is persisted as CSV with provenance hashes of the checkpoint and
manifest that produced it.
"""

from __future__ import annotations

import math
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
    """Peak activations for one (network, dataset) pair, indexed both ways."""

    def __init__(self, image_ids: list[int], values: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, layer: int, provenance: dict[str, str]):
        self.image_ids = list(image_ids)
        self.values = values
        self.rows = rows
        self.cols = cols
        self.layer = layer
        self.provenance = dict(provenance)
        self._index_of = {img: i for i, img in enumerate(self.image_ids)}

    @property
    def num_images(self) -> int:
        return len(self.image_ids)

    @property
    def num_maps(self) -> int:
        return self.values.shape[1]

    def record(self, image_id: int, map_index: int) -> ActivationRecord:
        i = self._index_of[image_id]
        return ActivationRecord(
            image_id=image_id,
            map_index=map_index,
            value=float(self.values[i, map_index]),
            row=int(self.rows[i, map_index]),
            col=int(self.cols[i, map_index]),
        )

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        lines = [self._header_line(), DB_COLUMNS]
        for i, img in enumerate(self.image_ids):
            for j in range(self.num_maps):
                lines.append(
                    f"{img},{j},{repr(float(self.values[i, j]))},"
                    f"{int(self.rows[i, j])},{int(self.cols[i, j])}"
                )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _header_line(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.provenance.items()))
        return f"# auprobe-activation-db v=1 layer={self.layer} {fields}"

    @classmethod
    def load(cls, path, expect_checkpoint: str | None = None,
             expect_manifest: str | None = None) -> "ActivationDB":
        """Read a DB that save() wrote; DataError naming the file (and line) otherwise.

        Each column goes through int() or float() straight into one
        np.fromiter array, so the DB accepts what those accept (numpy's
        string casts call the same functions, through a slower path).
        The checks run in this order, each naming the first offending
        line in file order: an empty body, field count and syntax, a
        repeated (image, map) row, maps of the lowest image id not
        0..m-1, an image with another map set, a negative or non-finite
        peak.
        """
        path = Path(path)
        if not path.is_file():
            raise DataError(f"activation db not found: {path}")
        lines = data_mod.read_text(path).splitlines()
        if not lines or not lines[0].startswith("# auprobe-activation-db"):
            raise DataError(f"{path}: not an activation db")
        tokens = lines[0].split()[2:]
        meta = dict(t.split("=", 1) for t in tokens if "=" in t)
        try:
            layer = int(meta.pop("layer", "0"))
        except ValueError as exc:
            raise DataError(f"{path} line 1: {exc}") from exc
        meta.pop("v", None)
        if expect_checkpoint is not None and meta.get("checkpoint") != expect_checkpoint:
            raise DataError(f"{path}: produced by a different checkpoint")
        if expect_manifest is not None and meta.get("manifest") != expect_manifest:
            raise DataError(f"{path}: produced by a different manifest")
        if len(lines) < 2 or lines[1] != DB_COLUMNS:
            raise DataError(f"{path}: missing column header")
        numbers = [ln for ln, line in enumerate(lines[2:], start=3) if line]
        body = [lines[ln - 1] for ln in numbers]
        if not body:
            raise DataError(f"{path}: empty activation db")
        if any(line.count(",") != 4 for line in body):
            raise _first_malformed_line(path, numbers, body)
        fields = ",".join(body).split(",")
        try:
            img, maps, values, rows, cols = (
                np.fromiter(map(float if dtype is np.float64 else int, fields[k::5]),
                            dtype, len(body))
                for k, dtype in enumerate(_DB_DTYPES))
        except (ValueError, OverflowError):
            raise _first_malformed_line(path, numbers, body) from None

        order = np.lexsort((maps, img))  # stable: repeats keep their file order
        img_sorted, maps_sorted = img[order], maps[order]
        repeats = (img_sorted[1:] == img_sorted[:-1]) & (maps_sorted[1:] == maps_sorted[:-1])
        if repeats.any():
            k = order[1:][repeats].min()
            raise DataError(f"{path} line {numbers[k]}: repeats image {img[k]} map {maps[k]}")
        image_ids, starts, counts = np.unique(img_sorted, return_index=True, return_counts=True)
        # with no repeats, an image's maps are 0..m-1 iff each sits at its rank
        in_place = maps_sorted == np.arange(len(order)) - np.repeat(starts, counts)
        num_maps = int(counts[0])
        if not in_place[:num_maps].all():
            raise DataError(f"{path}: map indices are not dense")
        other_set = (counts != num_maps) | ~np.logical_and.reduceat(in_place, starts)
        if other_set.any():
            raise DataError(f"{path}: image {image_ids[other_set.argmax()]} "
                            "has a different map set")
        valid = (values >= 0) & (values < np.inf)  # NaN fails both
        if not valid.all():
            k = int(valid.argmin())
            field = fields[5 * k + 2]
            if not math.isfinite(values[k]):
                raise DataError(f"{path} line {numbers[k]}: non-finite value {field!r}")
            raise DataError(f"{path} line {numbers[k]}: negative peak {field!r}; "
                            "peaks are maxima of ReLU outputs")
        shape = (len(image_ids), num_maps)
        return cls(image_ids.tolist(), values[order].reshape(shape),
                   rows[order].reshape(shape), cols[order].reshape(shape), layer, meta)


DB_COLUMNS = "image_id,map,value,row,col"
_DB_DTYPES = (np.int64, np.int64, np.float64, np.int32, np.int32)


def _first_malformed_line(path, numbers: list[int], body: list[str]) -> DataError:
    """The error for the first DB line without 5 fields or with one that does not parse.

    Runs only once a line count or a column cast has failed. int() and
    float() give the messages; each value must also fit its column's
    dtype, as in the cast.
    """
    for ln, line in zip(numbers, body):
        parts = line.split(",")
        if len(parts) != 5:
            return DataError(f"{path} line {ln}: expected 5 fields")
        try:
            for text, dtype in zip(parts, _DB_DTYPES):
                dtype((float if dtype is np.float64 else int)(text))
        except (ValueError, OverflowError) as exc:
            return DataError(f"{path} line {ln}: {exc}")
    return DataError(f"{path}: a column does not parse")


# Bytes of im2col patch matrix one harvest chunk may build at its largest
# conv: chunks bigger than the caches made the GEMMs slower, and each
# image's own patch matrix sets how many fit.
CHUNK_BYTES = 4 << 20


def chunk_images(config: model_mod.ModelConfig, layer: int) -> int:
    """Images per harvest chunk: CHUNK_BYTES over the largest per-image patch matrix.

    Counts the convs up to `layer`; at least one image.
    """
    sizes = [config.input_size] + config.stage_sizes()
    in_channels = (1,) + tuple(config.conv_channels)
    itemsize = np.dtype(config.np_dtype).itemsize
    largest = max(in_channels[i] * config.kernel_size ** 2 * sizes[i] ** 2 * itemsize
                  for i in range(layer))
    return max(1, CHUNK_BYTES // largest)


def harvest(net: Network, manifest: DatasetManifest,
            layer: int | None = None) -> ActivationDB:
    """One record per (image, map) under the deterministic eval transform.

    Images run through the conv stack chunk_images() at a time; each is
    loaded and transformed on its own into the chunk, so images of any
    size mix. Raises NumericError naming the first image and, within it,
    the first map whose peak is not finite: argmax would pick a NaN
    peak, and a NaN map would then win every unit's profile.
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
    chunk = min(n, chunk_images(net.config, layer))
    xs = np.empty((chunk, 1, size, size), dtype=dtype)
    values = np.empty((n, num_maps))
    rows = np.empty((n, num_maps), dtype=np.int32)
    cols = np.empty((n, num_maps), dtype=np.int32)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        for k in range(m):
            xs[k] = data_mod.eval_transform(data_mod.load_image(manifest, start + k),
                                            size, dtype=dtype)
        fmaps = net.stage_outputs(xs[:m], layer)
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
    return ActivationDB(list(range(n)), values, rows, cols, layer, provenance)


def top_n(db: ActivationDB, map_index: int, subset, n: int) -> list[ActivationRecord]:
    """The n largest peak activations of one map over an image subset.

    Sorted by value descending; equal values order by smaller image id.
    Returns fewer than n records when the subset is smaller than n.
    """
    if n < 1:
        raise DataError(f"top-n count must be at least 1, got {n}")
    ids = sorted(set(int(i) for i in subset))
    if not ids:
        raise DataError("top_n needs a nonempty image subset")
    if not 0 <= map_index < db.num_maps:
        raise DataError(f"map {map_index} outside 0..{db.num_maps - 1}")
    missing = [i for i in ids if i not in db._index_of]
    if missing:
        raise DataError(f"image ids not in activation db: {missing[:5]}")
    values = db.values[[db._index_of[i] for i in ids], map_index]
    order = np.lexsort((ids, -values))[:n]
    return [db.record(ids[i], map_index) for i in order]


def partition_by_au(manifest: DatasetManifest, au_id: int) -> tuple[set[int], set[int]]:
    """Image ids (manifest row indices) with and without one action unit."""
    with_au = {i for i, row in enumerate(manifest.rows) if au_id in row.au_set}
    without = set(range(len(manifest))) - with_au
    if not with_au:
        raise DataError(f"action unit {au_id} absent from the entire dataset")
    return with_au, without
