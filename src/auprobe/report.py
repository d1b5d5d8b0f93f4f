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
import warnings
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import imageio
from .association import AUDistanceProfile, save_profile_csv
from .deconv import project, receptive_field, receptive_field_span
from .harvest import ActivationDB, partition_by_au, top_n
from .model import ModelConfig, Network

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


def _normalized_crop(arr: np.ndarray, box: tuple[int, int, int, int]) -> np.ndarray:
    x0, y0, x1, y1 = box
    crop = arr[y0 : y1 + 1, x0 : x1 + 1].astype(np.float64)
    lo, hi = crop.min(), crop.max()
    if hi > lo:
        crop = (crop - lo) / (hi - lo) * 255.0
    else:
        crop = np.zeros_like(crop)
    return crop.astype(np.uint8)


def _cell_anchor(box, row, col, config: ModelConfig, layer: int) -> tuple[int, int]:
    """Offset of the clipped crop inside its nominal receptive-field cell."""
    r0, c0 = row, col  # unclipped start of the field for this unit
    half = config.kernel_size // 2
    for _ in range(layer):
        r0, c0 = 2 * r0 - half, 2 * c0 - half
    return box[1] - r0, box[0] - c0


def montage(db: ActivationDB, net: Network, manifest: data_mod.DatasetManifest,
            map_index: int, n: int = 9, out_prefix=None) -> tuple[Path, Path]:
    """Paired grids for one map: receptive-field crops and deconv responses.

    Cells are anchored to the unclipped receptive-field frame so border
    units stay aligned. Writes <prefix>_orig.png and <prefix>_deconv.png.
    """
    if out_prefix is None:
        raise ValueError("montage needs an output prefix")
    records = top_n(db, map_index, range(db.num_images), n)
    if len(records) < n:
        warnings.warn(
            f"map {map_index}: only {len(records)} images available, montage will be smaller",
            stacklevel=2,
        )
    layer = db.layer
    config = net.config
    span = min(receptive_field_span(config, layer), config.input_size)
    orig_cells: list[np.ndarray] = []
    deconv_cells: list[np.ndarray] = []
    for rec in records:
        img = data_mod.load_image(manifest, rec.image_id)
        x = data_mod.eval_transform(img, config.input_size)
        view = data_mod.eval_view(img, config.input_size)
        trace = net.forward_trace(x, image_id=rec.image_id)
        proj = project(trace, net, layer, map_index, (rec.row, rec.col))
        box = receptive_field(config, layer, (rec.row, rec.col))
        dy, dx = _cell_anchor(box, rec.row, rec.col, config, layer)
        dy = min(max(dy, 0), span - (box[3] - box[1] + 1))
        dx = min(max(dx, 0), span - (box[2] - box[0] + 1))
        for cells, source in ((orig_cells, view), (deconv_cells, proj[0])):
            cell = np.zeros((span, span), dtype=np.uint8)
            crop = _normalized_crop(source, box)
            cell[dy : dy + crop.shape[0], dx : dx + crop.shape[1]] = crop
            cells.append(cell)
    cols = int(np.ceil(np.sqrt(max(len(records), 1))))
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    orig_path = prefix.parent / (prefix.name + "_orig.png")
    deconv_path = prefix.parent / (prefix.name + "_deconv.png")
    imageio.write_image(orig_path, _grid(orig_cells, cols, (span, span)))
    imageio.write_image(deconv_path, _grid(deconv_cells, cols, (span, span)))
    return orig_path, deconv_path


def _geometry_from_db(db: ActivationDB) -> ModelConfig:
    try:
        return ModelConfig(
            input_size=int(db.provenance["input_size"]),
            conv_channels=tuple(int(c) for c in db.provenance["conv_channels"].split(";")),
            kernel_size=int(db.provenance["kernel_size"]),
            fc_hidden=1,
            num_classes=2,
        )
    except (KeyError, ValueError) as exc:
        raise data_mod.DataError(f"activation db lacks geometry provenance: {exc}") from exc


def au_summary(profiles: list[AUDistanceProfile], db: ActivationDB,
               net: Network | None, manifest: data_mod.DatasetManifest,
               out_dir) -> Path:
    """Emit per-AU artifacts and the index that ties them together.

    Without a network only the profile charts and exemplar crops are
    written (deconvolution montages need the weights); index columns for
    skipped files stay empty.
    """
    out_dir = Path(out_dir)
    (out_dir / "profiles").mkdir(parents=True, exist_ok=True)
    (out_dir / "summary").mkdir(parents=True, exist_ok=True)
    config = net.config if net is not None else _geometry_from_db(db)
    index_rows = []
    for prof in profiles:
        png, csv_path = plot_profile(prof, out_dir / "profiles" / f"au_{prof.au_id}.png")
        morig = mdec = ""
        if net is not None:
            o, d = montage(db, net, manifest, prof.argmax_map, n=prof.n,
                           out_prefix=out_dir / "montages" / f"map_{prof.argmax_map}")
            morig, mdec = str(o.relative_to(out_dir)), str(d.relative_to(out_dir))
        with_au, _ = partition_by_au(manifest, prof.au_id)
        best = top_n(db, prof.argmax_map, with_au, 1)[0]
        img = data_mod.load_image(manifest, best.image_id)
        view = data_mod.eval_view(img, config.input_size)
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
    with open(index_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["au", "argmax_map", "distance", "profile_csv", "profile_png",
                        "montage_orig", "montage_deconv", "exemplar"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(index_rows)
    return index_path
