"""Rendered outputs: distance charts, deconvolution montages, AU summaries.

Charts are rasterized directly into uint8 arrays (axis, one column per
feature map, a marker over the winning map) so the artifact needs no
plotting dependency. Layout on disk:

    profiles/au_<id>.csv|.png     distance profile per action unit
    montages/map_<id>_{orig,deconv}.png   top-n receptive-field crops
    summary/au_<id>_exemplar.png  peak crop from an AU-present image
    summary/index.csv             machine-readable index of the above
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import imageio
from .association import AUDistanceProfile, save_profile_csv
from .deconv import (normalized_crop, project, receptive_field, receptive_field_span,
                     unclipped_field)
from .harvest import CHUNK_BYTES, ActivationDB, partition_by_au, recorded_config, top_n
from .model import ModelConfig, Network, images_per_chunk

CHART_MARGIN = 10
CHART_TOP = 12
CHART_PLOT_HEIGHT = 200
CHART_BOTTOM = 9


def chart_geometry(num_values: int) -> tuple[int, int]:
    height = CHART_TOP + CHART_PLOT_HEIGHT + CHART_BOTTOM
    width = 2 * CHART_MARGIN + 2 * num_values
    return height, width


def bar_column(index: int) -> int:
    """x position of bar `index`; bars are 1px wide on a 2px pitch."""
    return CHART_MARGIN + 2 * index


def render_bar_chart(values: np.ndarray, argmax_index: int) -> np.ndarray:
    """White canvas, black bars scaled to the max value, marker on argmax."""
    values = np.asarray(values, dtype=np.float64)
    height, width = chart_geometry(values.size)
    canvas = np.full((height, width), 255, dtype=np.uint8)
    baseline = CHART_TOP + CHART_PLOT_HEIGHT
    canvas[baseline, CHART_MARGIN - 2 : width - CHART_MARGIN + 2] = 0  # axis
    peak = values.max()
    scale = CHART_PLOT_HEIGHT / peak if peak > 0 else 0.0
    for i, v in enumerate(values):
        h = int(round(v * scale))
        if h > 0:
            x = bar_column(i)
            canvas[baseline - h : baseline, x] = 0
    mx = bar_column(int(argmax_index))
    canvas[2:5, max(mx - 1, 0) : mx + 2] = 0  # marker block above the plot
    return canvas


def plot_profile(prof: AUDistanceProfile, out_path) -> tuple[Path, Path]:
    """Write the distance chart and its underlying CSV next to each other."""
    out_path = Path(out_path)
    if not out_path.suffix:
        out_path = out_path.with_suffix(".png")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    chart = render_bar_chart(prof.distances, prof.argmax_map)
    imageio.write_image(out_path, chart)
    csv_path = out_path.with_suffix(".csv")
    save_profile_csv(prof, csv_path)
    return out_path, csv_path


def _grid(cells: list[np.ndarray], cols: int, cell_shape: tuple[int, int],
          gap: int = 2) -> np.ndarray:
    rows = (len(cells) + cols - 1) // cols
    ch, cw = cell_shape
    canvas = np.full(
        (rows * ch + (rows - 1) * gap, cols * cw + (cols - 1) * gap), 255, dtype=np.uint8
    )
    for k, cell in enumerate(cells):
        r, c = divmod(k, cols)
        y = r * (ch + gap)
        x = c * (cw + gap)
        canvas[y : y + cell.shape[0], x : x + cell.shape[1]] = cell
    return canvas


def _cell_offset(config: ModelConfig, layer: int, location: tuple[int, int],
                 box: tuple[int, int, int, int]) -> tuple[int, int]:
    """(dy, dx) of a unit's clipped field `box` in its unclipped one: their starts' difference."""
    x0, y0, _, _ = unclipped_field(config, layer, location)
    return box[1] - y0, box[0] - x0


def map_responses(db: ActivationDB, net: Network, manifest: data_mod.DatasetManifest,
                  map_index: int, n: int) -> Iterator[tuple]:
    """(record, view, projection, box) of one map's top-n peaks, in rank order.

    The peaks' images are traced, only in their units' windows
    (Network.forward_trace given layer and locations), and projected in
    chunks of images_per_chunk() at harvest's CHUNK_BYTES, each image
    once: view is the uint8 [S, S] image the network saw, projection the
    [S, S] deconvolution response and box the receptive field (x0, y0,
    x1, y1), inclusive. Warns when fewer than n images are available.
    """
    records = top_n(db, map_index, range(db.num_images), n)
    if len(records) < n:
        warnings.warn(
            f"map {map_index}: only {len(records)} images available, montage will be smaller",
            stacklevel=2,
        )
    config = net.config
    chunk = images_per_chunk(config, CHUNK_BYTES)
    for start in range(0, len(records), chunk):
        part = records[start : start + chunk]
        xs, views = data_mod.eval_chunk([data_mod.load_image(manifest, rec.image_id)
                                         for rec in part],
                                        config.input_size, config.np_dtype, views=True)
        locations = [(rec.row, rec.col) for rec in part]
        trace = net.forward_trace(xs, layer=db.layer, locations=locations)
        projections = project(trace, net, db.layer, map_index, locations)
        for rec, view, proj in zip(part, views, projections):
            yield rec, view, proj, receptive_field(config, db.layer, (rec.row, rec.col))


def write_montage(responses: Iterable[tuple], config: ModelConfig, layer: int,
                  out_prefix) -> tuple[Path, Path]:
    """Paired grids of receptive-field crops and deconv responses at `layer`.

    Cells are anchored to the unclipped receptive-field frame so border
    units stay aligned. Writes <prefix>_orig.png and <prefix>_deconv.png.
    """
    span = min(receptive_field_span(config, layer), config.input_size)
    orig_cells: list[np.ndarray] = []
    deconv_cells: list[np.ndarray] = []
    for rec, view, proj, box in responses:
        dy, dx = _cell_offset(config, layer, (rec.row, rec.col), box)
        dy = min(dy, span - (box[3] - box[1] + 1))  # a field wider than the image
        dx = min(dx, span - (box[2] - box[0] + 1))
        for cells, source in ((orig_cells, view), (deconv_cells, proj)):
            cell = np.zeros((span, span), dtype=np.uint8)
            crop = normalized_crop(source, box)
            cell[dy : dy + crop.shape[0], dx : dx + crop.shape[1]] = crop
            cells.append(cell)
    cols = int(np.ceil(np.sqrt(max(len(orig_cells), 1))))
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    orig_path = prefix.parent / (prefix.name + "_orig.png")
    deconv_path = prefix.parent / (prefix.name + "_deconv.png")
    imageio.write_image(orig_path, _grid(orig_cells, cols, (span, span)))
    imageio.write_image(deconv_path, _grid(deconv_cells, cols, (span, span)))
    return orig_path, deconv_path


def montage(db: ActivationDB, net: Network, manifest: data_mod.DatasetManifest,
            map_index: int, n: int = 9, *, out_prefix) -> tuple[Path, Path]:
    """write_montage of one map's top-n map_responses."""
    return write_montage(map_responses(db, net, manifest, map_index, n), net.config,
                         db.layer, out_prefix)


def au_summary(profiles: list[AUDistanceProfile], db: ActivationDB,
               net: Network | None, manifest: data_mod.DatasetManifest,
               out_dir) -> Path:
    """Emit per-AU artifacts and the index that ties them together.

    Each distinct argmax map's montage is rendered once, at the first
    profile's n, and every AU that picked the map names the same files.
    Without a network only the profile charts and exemplar crops are
    written (deconvolution montages need the weights), each exemplar's
    field placed by the DB header's geometry (harvest.recorded_config);
    index columns for skipped files stay empty.
    """
    out_dir = Path(out_dir)
    (out_dir / "profiles").mkdir(parents=True, exist_ok=True)
    (out_dir / "summary").mkdir(parents=True, exist_ok=True)
    config = net.config if net is not None else recorded_config(db)
    montages: dict[int, tuple[str, str]] = {}
    index_rows = []
    for prof in profiles:
        png, csv_path = plot_profile(prof, out_dir / "profiles" / f"au_{prof.au_id}.png")
        if net is not None and prof.argmax_map not in montages:
            pair = montage(db, net, manifest, prof.argmax_map, n=prof.n,
                           out_prefix=out_dir / "montages" / f"map_{prof.argmax_map}")
            montages[prof.argmax_map] = tuple(str(path.relative_to(out_dir)) for path in pair)
        morig, mdec = montages.get(prof.argmax_map, ("", ""))
        with_au, _ = partition_by_au(manifest, prof.au_id)
        best = top_n(db, prof.argmax_map, with_au, 1)[0]
        img = data_mod.load_image(manifest, best.image_id)
        view = data_mod.eval_chunk([img], config.input_size, views=True)[1][0]
        box = receptive_field(config, db.layer, (best.row, best.col))
        exemplar = out_dir / "summary" / f"au_{prof.au_id}_exemplar.png"
        imageio.write_image(exemplar, view[box[1] : box[3] + 1, box[0] : box[2] + 1])
        index_rows.append(
            {
                "au": prof.au_id,
                "argmax_map": prof.argmax_map,
                "distance": repr(prof.argmax_distance),
                "profile_csv": str(csv_path.relative_to(out_dir)),
                "profile_png": str(png.relative_to(out_dir)),
                "montage_orig": morig,
                "montage_deconv": mdec,
                "exemplar": str(exemplar.relative_to(out_dir)),
            }
        )
    index_path = out_dir / "summary" / "index.csv"
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["au", "argmax_map", "distance", "profile_csv", "profile_png",
                    "montage_orig", "montage_deconv", "exemplar"],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(index_rows)
    data_mod.write_atomic(index_path, buf.getvalue())
    return index_path
