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
        lines = [self._header_line(), "image_id,map,value,row,col"]
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
        path = Path(path)
        if not path.is_file():
            raise DataError(f"activation db not found: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
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
        if len(lines) < 2 or lines[1] != "image_id,map,value,row,col":
            raise DataError(f"{path}: missing column header")
        by_image: dict[int, dict[int, tuple[float, int, int]]] = {}
        for ln, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise DataError(f"{path} line {ln}: expected 5 fields")
            try:
                img, j = int(parts[0]), int(parts[1])
                entry = (float(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError as exc:
                raise DataError(f"{path} line {ln}: {exc}") from exc
            by_image.setdefault(img, {})[j] = entry
        if not by_image:
            raise DataError(f"{path}: empty activation db")
        if len(lines) - 2 - lines[2:].count("") != sum(map(len, by_image.values())):
            seen = set()
            for ln, line in enumerate(lines[2:], start=3):
                if not line:
                    continue
                key = tuple(int(f) for f in line.split(",")[:2])
                if key in seen:
                    raise DataError(f"{path} line {ln}: repeats image {key[0]} map {key[1]}")
                seen.add(key)
        image_ids = sorted(by_image)
        maps = sorted(by_image[image_ids[0]])
        num_maps = len(maps)
        if maps != list(range(num_maps)):
            raise DataError(f"{path}: map indices are not dense")
        values = np.zeros((len(image_ids), num_maps))
        rows = np.zeros((len(image_ids), num_maps), dtype=np.int32)
        cols = np.zeros((len(image_ids), num_maps), dtype=np.int32)
        for i, img in enumerate(image_ids):
            if sorted(by_image[img]) != maps:
                raise DataError(f"{path}: image {img} has a different map set")
            for j in maps:
                values[i, j], rows[i, j], cols[i, j] = by_image[img][j]
        if not ((values >= 0) & (values < np.inf)).all():  # NaN fails both
            for ln, line in enumerate(lines[2:], start=3):
                field = line.split(",")[2] if line else "0"
                value = float(field)
                if not math.isfinite(value):
                    raise DataError(f"{path} line {ln}: non-finite value {field!r}")
                if value < 0:
                    raise DataError(f"{path} line {ln}: negative peak {field!r}; "
                                    "peaks are maxima of ReLU outputs")
        return cls(image_ids, values, rows, cols, layer, meta)


def harvest(net: Network, manifest: DatasetManifest,
            layer: int | None = None) -> ActivationDB:
    """One record per (image, map) under the deterministic eval transform.

    Raises NumericError naming the image and the map when a peak is not
    finite: argmax would pick a NaN peak, and a NaN map would then win
    every unit's profile.
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

    def one(i: int):
        img = data_mod.load_image(manifest, i)
        x = data_mod.eval_transform(img, size, dtype=dtype)
        fmap = net.stage_outputs(x)[layer - 1]
        flat = fmap.reshape(num_maps, -1)
        arg = flat.argmax(axis=1)  # first max in row-major order on ties
        vals = flat[np.arange(num_maps), arg]
        if not np.isfinite(vals).all():
            j = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise model_mod.NumericError(
                f"non-finite activation {vals[j]} in layer {layer} map {j} "
                f"of image {i} ({manifest.image_path(i)})"
            )
        r, c = np.unravel_index(arg, fmap.shape[1:])
        return vals.astype(np.float64), r.astype(np.int32), c.astype(np.int32)

    n = len(manifest)
    results = [one(i) for i in range(n)]
    values = np.stack([r[0] for r in results])
    rows = np.stack([r[1] for r in results])
    cols = np.stack([r[2] for r in results])
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
