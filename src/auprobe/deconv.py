"""Project feature-map activations back to input pixel space.

The reverse pathway mirrors the forward stages: unpool through the
recorded switches, rectify the reconstructed signal, then apply the
convolution's transpose (bias-free). Rectification acts on the signal
being reconstructed, not on stored forward signs, so the pathway is
positively homogeneous; with ReLU and pooling absent it collapses to
the plain transposed convolution chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imageio
from .layers import ConvLayer, ShapeError, SwitchRecord, relu_forward, unpool
from .model import ForwardTrace, ModelConfig, Network


@dataclass
class DeconvStage:
    """One reverse step: optional unpool, optional rectify, then conv^T."""

    conv: ConvLayer
    switches: SwitchRecord | None = None
    relu: bool = True


def project_stages(stages: list[DeconvStage], top: np.ndarray) -> np.ndarray:
    """Run a signal down a stage stack (listed bottom-up) to input space."""
    signal = top
    for stage in reversed(stages):
        if stage.switches is not None:
            signal = unpool(signal, stage.switches)
        if stage.relu:
            signal = relu_forward(signal)
        signal = stage.conv.transpose_apply(signal)
    return signal


def _check_trace(trace: ForwardTrace, net: Network) -> None:
    if len(trace.stages) != len(net.convs):
        raise ShapeError(
            f"trace has {len(trace.stages)} stages, network {len(net.convs)}"
        )
    for i, (st, conv) in enumerate(zip(trace.stages, net.convs), start=1):
        if st.conv_in.shape[0] != conv.in_channels or st.pool_out.shape[0] != conv.out_channels:
            raise ShapeError(
                f"trace stage {i} channels {st.conv_in.shape[0]}->{st.pool_out.shape[0]} "
                f"do not match network {conv.in_channels}->{conv.out_channels}"
            )


def project(trace: ForwardTrace, net: Network, layer: int, map_index: int,
            location: tuple[int, int]) -> np.ndarray:
    """Pixel-space response of one pooled activation at `layer`.

    The chosen activation (map_index, location) keeps its traced value,
    every other activation in that layer is zeroed, and the result is
    carried down through unpool / rectify / transposed convolution.
    """
    _check_trace(trace, net)
    if not 1 <= layer <= len(trace.stages):
        raise ShapeError(f"layer {layer} outside 1..{len(trace.stages)}")
    pool_out = trace.stages[layer - 1].pool_out
    c, h, w = pool_out.shape
    row, col = location
    if not (0 <= map_index < c and 0 <= row < h and 0 <= col < w):
        raise ShapeError(
            f"(map {map_index}, location {location}) outside feature maps {pool_out.shape}"
        )
    top = np.zeros_like(pool_out)
    top[map_index, row, col] = pool_out[map_index, row, col]
    stages = [
        DeconvStage(conv=net.convs[i], switches=trace.stages[i].switches, relu=True)
        for i in range(layer)
    ]
    return project_stages(stages, top)


def project_max(trace: ForwardTrace, net: Network, layer: int, map_index: int):
    """Project the spatial argmax of one map; ties go to the first
    row-major position. Returns (projection, (row, col), value)."""
    _check_trace(trace, net)
    if not 1 <= layer <= len(trace.stages):
        raise ShapeError(f"layer {layer} outside 1..{len(trace.stages)}")
    pool_out = trace.stages[layer - 1].pool_out
    if not 0 <= map_index < pool_out.shape[0]:
        raise ShapeError(f"map {map_index} outside 0..{pool_out.shape[0] - 1}")
    fmap = pool_out[map_index]
    row, col = np.unravel_index(int(np.argmax(fmap)), fmap.shape)
    value = float(fmap[row, col])
    return project(trace, net, layer, map_index, (row, col)), (int(row), int(col)), value


def receptive_field(config: ModelConfig, layer: int, location: tuple[int, int],
                    after_pool: bool = True) -> tuple[int, int, int, int]:
    """Input rectangle (x0, y0, x1, y1), inclusive, that can reach a unit.

    `location` is (row, col) in the layer's pooled grid, or in the
    pre-pool (post-convolution) grid when after_pool is False. The box
    is composed from the stride/padding geometry and clipped to the
    image bounds.
    """
    n_stages = len(config.conv_channels)
    if not 1 <= layer <= n_stages:
        raise ShapeError(f"layer {layer} outside 1..{n_stages}")
    sizes = [config.input_size] + config.stage_sizes()
    grid = sizes[layer] if after_pool else sizes[layer - 1]
    row, col = location
    if not (0 <= row < grid and 0 <= col < grid):
        raise ShapeError(f"location {location} outside {grid}x{grid} grid of layer {layer}")
    half = config.kernel_size // 2
    r0, r1, c0, c1 = row, row, col, col
    for stage in range(layer, 0, -1):
        if after_pool or stage < layer:
            r0, r1 = 2 * r0, 2 * r1 + 1
            c0, c1 = 2 * c0, 2 * c1 + 1
        r0, r1 = r0 - half, r1 + half
        c0, c1 = c0 - half, c1 + half
    size = config.input_size
    return (max(c0, 0), max(r0, 0), min(c1, size - 1), min(r1, size - 1))


def receptive_field_span(config: ModelConfig, layer: int) -> int:
    """Unclipped width of a layer's receptive field."""
    span = 1
    for _ in range(layer):
        span = 2 * span + (config.kernel_size - 1)
    return span


def projection_energy_fraction(projection: np.ndarray,
                               box: tuple[int, int, int, int]) -> float:
    """Share of squared-pixel energy inside box (x0, y0, x1, y1), end exclusive."""
    proj = projection[0] if projection.ndim == 3 else projection
    total = float((proj ** 2).sum())
    if total == 0:
        return 0.0
    x0, y0, x1, y1 = box
    inside = float((proj[y0:y1, x0:x1] ** 2).sum())
    return inside / total


def render_response(projection: np.ndarray, rf: tuple[int, int, int, int],
                    source_image: np.ndarray, out_path) -> tuple[Path, Path]:
    """Write the receptive-field crop and its deconvolution response.

    Produces <stem>_orig and <stem>_deconv next to out_path; the
    projection crop is min-max normalized to 8 bits over the crop.
    """
    out_path = Path(out_path)
    suffix = out_path.suffix or ".png"
    stem = out_path.with_suffix("")
    x0, y0, x1, y1 = rf
    crop = np.asarray(source_image)[y0 : y1 + 1, x0 : x1 + 1]
    proj = projection[0] if projection.ndim == 3 else projection
    resp = proj[y0 : y1 + 1, x0 : x1 + 1].astype(np.float64)
    lo, hi = resp.min(), resp.max()
    if hi > lo:
        resp = (resp - lo) / (hi - lo) * 255.0
    else:
        resp = np.zeros_like(resp)
    orig_path = stem.parent / (stem.name + "_orig" + suffix)
    deconv_path = stem.parent / (stem.name + "_deconv" + suffix)
    imageio.write_image(orig_path, crop)
    imageio.write_image(deconv_path, resp.astype(np.uint8))
    return orig_path, deconv_path
