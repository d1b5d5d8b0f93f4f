"""Project feature-map activations back to input pixel space.

The reverse pathway mirrors the forward stages: unpool through the
recorded switches, rectify the reconstructed signal, then apply the
convolution's transpose (bias-free). Rectification acts on the signal
being reconstructed, not on stored forward signs, so the pathway is
positively homogeneous; with ReLU and pooling absent it collapses to
the plain transposed convolution chain.

A projection starts from one pooled activation and never leaves that
unit's unclipped receptive field (unclipped_field), so it runs in a
window frame. At each stage a record's signal is a dense [C, w, w]
window whose origin is the field's corner in that stage's grid; every
record's window has the same width, so a chunk's signal is one
[C, N, w, w] array. The top window is the one activation, 1 wide, of
its map alone. Each stage rectifies its window, unpools it to twice the
width, reading the switches only at the window's in-image pooled
positions, and applies the transposed convolution, which
ConvLayer.transpose_apply leaves unclipped: the window grows by k - 1,
to the origin 2 * origin - k // 2. At the top stage only the
activation's map, and so only its kernels, take part.
Window positions outside the image are never read on: the next unpool
skips them, and only the final window's in-image part is pasted into
the [S, S] image, so border units need no special case. Every pixel
sums the same non-zero terms in the same order as the full-image
pathway, so the two agree bit for bit. With 5x5 kernels the windows
are 6, 16 and 36 pixels wide at layers 1-3.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import imageio
from .layers import ShapeError, SwitchRecord, relu_forward
from .model import ForwardTrace, ModelConfig, Network


def _check_trace(trace: ForwardTrace, net: Network) -> None:
    if len(trace.stages) != len(net.convs):
        raise ShapeError(f"trace has {len(trace.stages)} stages, network {len(net.convs)}")
    ins = [1] + [st.pooled.shape[0] for st in trace.stages]  # a stage reads the previous one's maps
    for i, (st, c_in, conv) in enumerate(zip(trace.stages, ins, net.convs), start=1):
        if (c_in, st.pooled.shape[0]) != (conv.in_channels, conv.out_channels):
            raise ShapeError(f"trace stage {i} channels {c_in}->{st.pooled.shape[0]} "
                             f"do not match network {conv.in_channels}->{conv.out_channels}")


def _unpool_window(signal: np.ndarray, switches: SwitchRecord, origin: np.ndarray,
                   maps: slice = slice(None)) -> np.ndarray:
    """Unpool windows [C, N, w, w] at pooled positions origin + (i, j) to [C, N, 2w, 2w].

    signal holds the maps `maps` of the pooled maps switches recorded.
    Window positions outside the pooled grid carry nothing onward.
    """
    c, n, w, _ = signal.shape
    grid_h, grid_w = switches.pooled_shape[-2:]
    h, width = switches.input_shape[-2:]
    rows = origin[:, :1] + np.arange(w)  # [N, w]
    cols = origin[:, 1:] + np.arange(w)
    inside = (((rows >= 0) & (rows < grid_h))[:, :, None]
              & ((cols >= 0) & (cols < grid_w))[:, None, :])
    # a position outside the grid reads any switch: its signal is zeroed
    rows, cols = (rows % grid_h)[:, :, None], (cols % grid_w)[:, None, :]
    at = (np.arange(n)[:, None, None] * grid_h + rows) * grid_w + cols  # [N, w, w]
    index = np.take(switches.index[maps].reshape(c, -1), at, axis=1)
    # A switch lies 0, 1, width or width + 1 past the first element of its
    # pooling window; the value goes as far past (2i, 2j) in the unpooled
    # window, whose rows are 2w long.
    planes = np.arange(c * n).reshape(c, n, 1, 1)
    offset = index - ((planes + (maps.start or 0) * n) * (h * width)
                      + 2 * (rows * width + cols))
    offset += (offset >= width) * (2 * w - width)
    offset += planes * (4 * w * w) + 4 * w * np.arange(w)[:, None] + 2 * np.arange(w)
    out = np.zeros(c * n * 4 * w * w, dtype=signal.dtype)
    out[offset] = np.where(inside, signal, 0)
    return out.reshape(c, n, 2 * w, 2 * w)


def project(trace: ForwardTrace, net: Network, layer: int, map_index: int,
            locations: tuple[int, int] | list[tuple[int, int]]) -> np.ndarray:
    """Pixel-space responses [N, S, S] of one pooled activation per traced image at `layer`.

    locations holds one (row, col) per image of the trace's chunk; a
    chunk of one may pass its (row, col) alone. In each image the chosen
    activation keeps its traced value and every other activation in that
    layer is zeroed; the whole chunk is then carried down through
    unpool / rectify / transposed convolution at once, in the units'
    receptive-field windows.
    """
    _check_trace(trace, net)
    if not 1 <= layer <= len(trace.stages):
        raise ShapeError(f"layer {layer} outside 1..{len(trace.stages)}")
    pooled = trace.stages[layer - 1].pooled
    c, n, h, w = pooled.shape
    locs = np.array(locations, ndmin=2)
    if (locs.shape != (n, 2) or not 0 <= map_index < c or (locs < 0).any()
            or (locs >= (h, w)).any()):
        raise ShapeError(f"(map {map_index}, locations {locs.tolist()}) are not one unit "
                         f"per traced image of feature maps {(c, n, h, w)}")
    signal = pooled[map_index, np.arange(n), locs[:, 0], locs[:, 1]][None, :, None, None]
    origin, maps = locs, slice(map_index, map_index + 1)
    for i in reversed(range(layer)):
        conv = net.convs[i]
        signal = _unpool_window(relu_forward(signal), trace.stages[i].switches, origin, maps)
        signal = conv.transpose_apply(signal, maps)
        origin, maps = 2 * origin - conv.pad, slice(None)
    size = trace.stages[0].switches.input_shape[-1]  # the same-size conv1's output
    out = np.zeros((n, size, size), dtype=signal.dtype)
    span = signal.shape[-1]
    for i, (r0, c0) in enumerate(origin):
        rows = slice(max(r0, 0), min(r0 + span, size))
        cols = slice(max(c0, 0), min(c0 + span, size))
        out[i, rows, cols] = signal[0, i, rows.start - r0 : rows.stop - r0,
                                    cols.start - c0 : cols.stop - c0]
    return out


def unclipped_field(config: ModelConfig, layer: int,
                    location: tuple[int, int]) -> tuple[int, int, int, int]:
    """Input rectangle (x0, y0, x1, y1), inclusive, that a pooled unit sees, unclipped.

    `location` is (row, col) in the layer's pooled grid, of size
    config.stage_sizes()[layer - 1] (ShapeError otherwise). The box is
    composed from the stride/padding geometry, stage by stage, and may
    reach past the image.
    """
    grids = config.stage_sizes()
    if not 1 <= layer <= len(grids):
        raise ShapeError(f"layer {layer} outside 1..{len(grids)}")
    grid = grids[layer - 1]
    row, col = location
    if not (0 <= row < grid and 0 <= col < grid):
        raise ShapeError(f"location {location} outside {grid}x{grid} grid of layer {layer}")
    half = config.kernel_size // 2
    r0, r1, c0, c1 = row, row, col, col
    for _ in range(layer):  # the pool's 2x2 window, then the conv's kernel
        r0, r1 = 2 * r0 - half, 2 * r1 + 1 + half
        c0, c1 = 2 * c0 - half, 2 * c1 + 1 + half
    return c0, r0, c1, r1


def receptive_field(config: ModelConfig, layer: int,
                    location: tuple[int, int]) -> tuple[int, int, int, int]:
    """unclipped_field clipped to the config's input: the pixels that can reach the unit."""
    x0, y0, x1, y1 = unclipped_field(config, layer, location)
    last = config.input_size - 1
    return (max(x0, 0), max(y0, 0), min(x1, last), min(y1, last))


def receptive_field_span(config: ModelConfig, layer: int) -> int:
    """Unclipped width of a layer's receptive field."""
    x0, _, x1, _ = unclipped_field(config, layer, (0, 0))
    return x1 - x0 + 1


def projection_energy_fraction(projection: np.ndarray,
                               box: tuple[int, int, int, int]) -> float:
    """Share of squared-pixel energy inside box (x0, y0, x1, y1), end exclusive."""
    total = float((projection ** 2).sum())
    if total == 0:
        return 0.0
    x0, y0, x1, y1 = box
    inside = float((projection[..., y0:y1, x0:x1] ** 2).sum())
    return inside / total


def normalized_crop(arr: np.ndarray, box: tuple[int, int, int, int]) -> np.ndarray:
    """arr's crop to box (x0, y0, x1, y1), inclusive, min-max scaled to uint8."""
    x0, y0, x1, y1 = box
    crop = arr[y0 : y1 + 1, x0 : x1 + 1].astype(np.float64)
    lo, hi = crop.min(), crop.max()
    if hi > lo:
        crop = (crop - lo) / (hi - lo) * 255.0
    else:
        crop = np.zeros_like(crop)
    return crop.astype(np.uint8)


def render_response(projection: np.ndarray, rf: tuple[int, int, int, int],
                    source_image: np.ndarray, out_path) -> tuple[Path, Path]:
    """Write the receptive-field crop of source_image and of its [S, S] projection.

    Produces <stem>_orig and <stem>_deconv next to out_path; the
    projection crop is min-max normalized to 8 bits over the crop.
    """
    out_path = Path(out_path)
    suffix = out_path.suffix or ".png"
    stem = out_path.with_suffix("")
    x0, y0, x1, y1 = rf
    crop = np.asarray(source_image)[y0 : y1 + 1, x0 : x1 + 1]
    orig_path = stem.parent / (stem.name + "_orig" + suffix)
    deconv_path = stem.parent / (stem.name + "_deconv" + suffix)
    imageio.write_image(orig_path, crop)
    imageio.write_image(deconv_path, normalized_crop(projection, rf))
    return orig_path, deconv_path
