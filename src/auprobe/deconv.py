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
width through the switches of the window's in-grid pooled positions,
and applies the transposed convolution, which
ConvLayer.transpose_apply leaves unclipped: the window grows by k - 1,
to the origin 2 * origin - k // 2. At the top stage only the
activation's map, and so only its kernels, take part.
Window positions outside the grid are never unpooled, and only the
final window's in-image part is pasted into the [S, S] image, so border
units need no special case. Every pixel sums the same non-zero terms in
the same order as the full-image pathway, so the two agree bit for bit.
With 5x5 kernels the windows are 6, 16 and 36 pixels wide at layers 1-3.

That backward half reads a model.WindowTrace: the unit's pooled values
and each stage's switches over its window, as indices into the unpooled
window. project() cuts a full ForwardTrace to the windows (_crop), and
Network.forward_trace given the units' layer and locations runs a
chunk's conv stages only inside them, the path behind montages (see
Network._trace_windows). Each record's window convolution is one GEMM
over every map, its columns padded with zero columns to whole 16-column
sgemm blocks (model.GEMM_BLOCK_COLUMNS), so that it sums every output in
the full trace's order. With OpenBLAS's SkylakeX sgemm kernel the
windows then hold the full trace's float32 bits; in float64, at input
sizes whose stage grids are odd (13 px), or with OpenBLAS's other x86
kernels, a few values differ in the last bits (tests/test_deconv.py).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import imageio
from .layers import ShapeError, SwitchRecord, relu_forward
from .model import (ForwardTrace, ModelConfig, Network, WindowStage, WindowTrace, window_frames,
                    window_in_grid)


def _crop_stage(switches: SwitchRecord, origin: np.ndarray, width: int) -> WindowStage:
    """A full trace stage's switches over the pooled windows at origin [N, 2]."""
    c, n, grid_h, grid_w = switches.pooled_shape
    h, w = switches.input_shape[-2:]
    rows = origin[:, :1] + np.arange(width)  # [N, w]
    cols = origin[:, 1:] + np.arange(width)
    # a position outside the grid reads any switch: it is never unpooled
    rows, cols = (rows % grid_h)[:, :, None], (cols % grid_w)[:, None, :]
    at = (np.arange(n)[:, None, None] * grid_h + rows) * grid_w + cols  # [N, w, w]
    index = np.take(switches.index.reshape(c, -1), at, axis=1)
    # A switch lies 0, 1, w or w + 1 past the first element of its pooling
    # window; it lies as far past (2i, 2j) in the unpooled window, whose
    # rows are 2 * width long.
    planes = np.arange(c * n).reshape(c, n, 1, 1)
    index = index - (planes * (h * w) + 2 * (rows * w + cols))
    index += (index >= w) * (2 * width - w)
    index += (planes * (4 * width * width) + 4 * width * np.arange(width)[:, None]
              + 2 * np.arange(width))
    return WindowStage(index, window_in_grid(origin, width, (grid_h, grid_w)))


def _crop(trace: ForwardTrace, net: Network, layer: int, locations: np.ndarray) -> WindowTrace:
    """A full trace cut to the windows of units at `locations` of `layer`."""
    frames = window_frames(layer, net.config.kernel_size, locations)
    pooled = trace.stages[layer - 1].pooled
    top = pooled[:, np.arange(pooled.shape[1]), locations[:, 0], locations[:, 1]]
    stages = [_crop_stage(trace.stages[i].switches, *frames[i + 1]) for i in range(layer)]
    return WindowTrace(layer, locations, top, stages)


def _check_trace(trace: ForwardTrace | WindowTrace, net: Network) -> None:
    if isinstance(trace, WindowTrace):
        outs = [st.index.shape[0] for st in trace.stages]
        fits = len(outs) <= len(net.convs)
    else:
        outs = [st.pooled.shape[0] for st in trace.stages]
        fits = len(outs) == len(net.convs)
    if not fits:
        raise ShapeError(f"trace has {len(outs)} stages, network {len(net.convs)}")
    ins = [1] + outs  # a stage reads the previous one's maps
    for i, (c_in, c_out, conv) in enumerate(zip(ins, outs, net.convs), start=1):
        if (c_in, c_out) != (conv.in_channels, conv.out_channels):
            raise ShapeError(f"trace stage {i} channels {c_in}->{c_out} "
                             f"do not match network {conv.in_channels}->{conv.out_channels}")


def _unpool(signal: np.ndarray, stage: WindowStage, maps: slice) -> np.ndarray:
    """Unpool windows [C, N, w, w] of the maps `maps` through stage's switches to [C, N, 2w, 2w].

    Positions outside the pooled grid carry nothing onward.
    """
    c, n, w, _ = signal.shape
    index = stage.index[maps]
    if maps.start:  # the switches index the planes of every map
        index = index - maps.start * (n * 4 * w * w)
    out = np.zeros(c * n * 4 * w * w, dtype=signal.dtype)
    out[index] = np.where(stage.inside, signal, 0)
    return out.reshape(c, n, 2 * w, 2 * w)


def project(trace: ForwardTrace | WindowTrace, net: Network, layer: int, map_index: int,
            locations: tuple[int, int] | list[tuple[int, int]]) -> np.ndarray:
    """Pixel-space responses [N, S, S] of one pooled activation per traced image at `layer`.

    locations holds one (row, col) per image of the trace's chunk; a
    chunk of one may pass its (row, col) alone. In each image the chosen
    activation keeps its traced value and every other activation in that
    layer is zeroed; the whole chunk is then carried down through
    unpool / rectify / transposed convolution at once, in the units'
    receptive-field windows. trace is a full forward_trace, cut here to
    the windows, or the window trace (forward_trace given layer and
    locations) of the same layer and locations.
    """
    _check_trace(trace, net)
    locs = np.array(locations, ndmin=2)
    if isinstance(trace, WindowTrace):
        if layer != trace.layer or not np.array_equal(locs, trace.locations):
            raise ShapeError(f"layer {layer} at {locs.tolist()} is not the window trace's "
                             f"layer {trace.layer} at {trace.locations.tolist()}")
        windows = trace
    else:
        if not 1 <= layer <= len(trace.stages):
            raise ShapeError(f"layer {layer} outside 1..{len(trace.stages)}")
        c, n, h, w = trace.stages[layer - 1].pooled.shape
        if locs.shape != (n, 2) or (locs < 0).any() or (locs >= (h, w)).any():
            raise ShapeError(f"locations {locs.tolist()} are not one unit per traced image "
                             f"of feature maps {(c, n, h, w)}")
        windows = _crop(trace, net, layer, locs)
    c, n = windows.top.shape
    if not 0 <= map_index < c:
        raise ShapeError(f"map {map_index} outside 0..{c - 1}")
    signal = windows.top[map_index][None, :, None, None]
    maps = slice(map_index, map_index + 1)
    for i in reversed(range(layer)):
        signal = _unpool(relu_forward(signal), windows.stages[i], maps)
        signal = net.convs[i].transpose_apply(signal, maps)
        maps = slice(None)
    size = net.config.input_size
    out = np.zeros((n, size, size), dtype=signal.dtype)
    span = signal.shape[-1]
    origin, _ = window_frames(layer, net.config.kernel_size, locs)[0]
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
    the image window of model.window_frames, and may reach past the image.
    """
    grids = config.stage_sizes()
    if not 1 <= layer <= len(grids):
        raise ShapeError(f"layer {layer} outside 1..{len(grids)}")
    grid = grids[layer - 1]
    row, col = location
    if not (0 <= row < grid and 0 <= col < grid):
        raise ShapeError(f"location {location} outside {grid}x{grid} grid of layer {layer}")
    origin, width = window_frames(layer, config.kernel_size, np.array([location]))[0]
    r0, c0 = (int(v) for v in origin[0])
    return c0, r0, c0 + width - 1, r0 + width - 1


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
