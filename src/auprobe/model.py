"""Network assembly, training, forward traces, and checkpoints.

The classifier is a stack of conv(5x5, same-size) -> ReLU -> 2x2 maxpool
stages followed by one hidden fully connected layer with dropout and a
softmax output. Training is plain SGD with momentum and L2 weight decay,
single-writer over the weights; every random draw is derived from the
run seed so identical runs produce identical weights.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .layers import (
    BLOCK_ELEMENTS,
    ConvLayer,
    FCLayer,
    Scratch,
    ShapeError,
    SwitchRecord,
    dropout_mask,
    im2col,
    maxpool_backward,
    maxpool_forward,
    maxpool_values,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)


class NumericError(Exception):
    """A computation produced a non-finite loss, weight or activation."""


CHECKPOINT_MAGIC = b"AUPROBE-CKPT v1\n"
CONVERGENCE_MIN_IMPROVEMENT = 1e-4
CONVERGENCE_PATIENCE = 5
# Columns in a block of the sgemm kernel; a window GEMM pads each
# record's columns to a multiple of it. Measured with OpenBLAS 0.3.31
# (numpy 2.4's wheel): with its SkylakeX kernel the padded window GEMMs
# keep the full trace's float32 bits; with its Nehalem, Sandybridge,
# Haswell and generic kernels some outputs differ in the last bits at
# any padding tried (16, 32, 64).
GEMM_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class ModelConfig:
    input_size: int = 96
    conv_channels: tuple[int, ...] = (64, 128, 256)
    kernel_size: int = 5
    fc_hidden: int = 1024
    num_classes: int = 8
    init_mode: str = "scaled"  # "paper" keeps the variance-1 Gaussian init
    seed: int = 0
    dtype: str = "float32"  # "float64" for the double-precision run

    def __post_init__(self):
        counts = (self.input_size, self.kernel_size, self.fc_hidden, self.num_classes, self.seed,
                  *self.conv_channels)
        if not self.conv_channels or not all(isinstance(v, (int, np.integer)) for v in counts):
            raise ValueError(f"need integer sizes and seed, and a conv stage: {self}")
        if self.input_size < 8:
            raise ValueError(f"input_size {self.input_size} too small")
        if self.conv_channels[0] < 1 or self.seed < 0:
            raise ValueError("conv_channels must be positive and seed non-negative")
        if any(b <= a for a, b in zip(self.conv_channels, self.conv_channels[1:])):
            raise ValueError(f"conv_channels must increase strictly: {self.conv_channels}")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for same-size convolution")
        if self.num_classes < 2 or self.fc_hidden < 1:
            raise ValueError("num_classes >= 2 and fc_hidden >= 1 required")
        if self.init_mode not in ("paper", "scaled"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def stage_sizes(self) -> list[int]:
        """Spatial size after each conv+pool stage (odd sizes round up)."""
        sizes = []
        s = self.input_size
        for _ in self.conv_channels:
            s = (s + 1) // 2
            sizes.append(s)
        return sizes

    @property
    def flat_features(self) -> int:
        return self.conv_channels[-1] * self.stage_sizes()[-1] ** 2

    def parameter_count(self) -> int:
        """Weights and biases of the network this config builds."""
        ins = (1,) + tuple(self.conv_channels[:-1])
        convs = sum(o * (i * self.kernel_size ** 2 + 1) for i, o in zip(ins, self.conv_channels))
        return (convs + self.fc_hidden * (self.flat_features + 1)
                + self.num_classes * (self.fc_hidden + 1))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 0.0001
    learning_rate: float = 0.001
    dropout_p: float = 0.5
    epochs: int = 100
    seed: int = 0
    augment: bool = True
    test_count: int = 0

    def __post_init__(self):
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum {self.momentum} outside [0, 1)")
        if not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout_p {self.dropout_p} outside [0, 1)")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be >= 0")
        if self.batch_size < 1 or self.epochs < 1 or min(self.test_count, self.seed) < 0:
            raise ValueError("batch_size/epochs must be >= 1, test_count and seed >= 0")


@dataclass
class TraceStage:
    pooled: np.ndarray  # the pool's output [C,N,h,w]; in training its sign masks the ReLU gradient
    switches: SwitchRecord  # the maxima's places in the ReLU'd conv output


@dataclass
class _KeptStage(TraceStage):  # a trace stage plus what training's backward reads
    cols: np.ndarray | None  # its input's patch matrix; None once dropped, and backward rebuilds it


@dataclass
class _KeptChunk:
    x: np.ndarray  # the chunk [1,N,S,S] the first conv read; each later conv reads the stage before
    stages: list[_KeptStage]


@dataclass
class ForwardTrace:
    """The conv stages of a chunk's inference pass, for deconvolution.

    Each stage keeps what a projection reads: its pooled maps and their
    switches. image_id is the caller's label for the traced image, or for
    a chunk's images.
    """

    image_id: int | tuple[int, ...] | None
    stages: list[TraceStage]


@dataclass
class WindowStage:
    """A stage's switches over each record's pooled window, w wide."""

    index: np.ndarray  # [C, N, w, w]: each switch's flat index into the unpooled [C, N, 2w, 2w]
    inside: np.ndarray  # [N, w, w]: the pooled position lies in the stage's grid


@dataclass
class WindowTrace:
    """What projections of one unit per record at `layer` read, in the units' windows.

    Record k's unit sits at locations[k] of the layer's pooled grid. top
    [C, N] holds every map's pooled value there; stages, first stage
    first, hold each stage's switches over its window (window_frames).
    """

    layer: int
    locations: np.ndarray
    top: np.ndarray
    stages: list[WindowStage]


def window_frames(layer: int, kernel_size: int,
                  locations: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(origin [N, 2], width) of the windows of units at `locations` of `layer`.

    Entry i is in stage i's pooled grid, entry 0 in the image: the units'
    1-wide windows at the top, and below each window the unclipped field
    of the one above, 2 * w + k - 1 wide from 2 * origin - k // 2.
    """
    frames = [(locations, 1)]
    for _ in range(layer):
        origin, width = frames[0]
        frames.insert(0, (2 * origin - kernel_size // 2, 2 * width + kernel_size - 1))
    return frames


def window_in_grid(origin: np.ndarray, width: int, grid: tuple[int, int]) -> np.ndarray:
    """[N, w, w]: which positions of the windows at origin [N, 2] lie in a grid."""
    rows = origin[:, :1] + np.arange(width)
    cols = origin[:, 1:] + np.arange(width)
    return (((rows >= 0) & (rows < grid[0]))[:, :, None]
            & ((cols >= 0) & (cols < grid[1]))[:, None, :])


def _image_windows(images: np.ndarray, origin: np.ndarray, width: int) -> np.ndarray:
    """[N, w, w] windows of images [N, S, S] at origin [N, 2]; zeros outside the image."""
    n, size, _ = images.shape
    margin = max(0, -int(origin.min()), int((origin + width - size).max()))
    canvas = np.zeros((n, size + 2 * margin, size + 2 * margin), dtype=images.dtype)
    canvas[:, margin : margin + size, margin : margin + size] = images
    windows = np.lib.stride_tricks.sliding_window_view(canvas, (width, width), axis=(1, 2))
    return windows[np.arange(n), origin[:, 0] + margin, origin[:, 1] + margin]


def _window_conv(conv: ConvLayer, a: np.ndarray) -> np.ndarray:
    """conv's "valid" outputs [out, N, w - k + 1, w - k + 1] over windows a [C, N, w, w].

    One GEMM per record over every map, as ConvLayer.forward runs one per
    image (a GEMM of one map goes through GEMV), each record's columns
    padded with zero columns to a multiple of GEMM_BLOCK_COLUMNS: sgemm
    sums a column in another order when it falls in a partial block.
    """
    _, n, w, _ = a.shape
    side = w - conv.kernel_size + 1
    cols = im2col(a, conv.kernel_size, 0)
    per, k = side * side, len(cols)
    padded = -(-per // GEMM_BLOCK_COLUMNS) * GEMM_BLOCK_COLUMNS
    operand = cols.reshape(k, n, per).transpose(1, 0, 2)
    if padded != per:
        operand = np.zeros((n, k, padded), dtype=cols.dtype)
        operand[..., :per] = cols.reshape(k, n, per).transpose(1, 0, 2)
    out = np.empty((conv.out_channels, n, padded), dtype=np.result_type(conv.kernels, cols))
    np.matmul(conv.kernels.reshape(conv.out_channels, k), operand, out=out.transpose(1, 0, 2))
    out = out[..., :per].reshape(conv.out_channels, n, side, side)
    out += conv.bias[:, None, None, None]
    return out


class TrainBuffers:
    """What training keeps for backward: the chunks not yet gone backward, and the head's rows.

    Each forward(keep=...) pushes a chunk and each backward pops the last
    one, so the chunks of a head pass go backward in reverse order. A
    chunk's stages compute in the stage Scratches, where its patch
    matrices, pooled maps and switches stay while it is the last chunk
    forwarded. The next forward would overwrite them, so it first copies
    the pending chunk's pooled maps and switches into that chunk's place
    in `held` and drops its patch matrices, which backward then rebuilds.
    A chunk that goes backward before the next one goes forward is never
    copied. head(keep=...) keeps the fc rows of the chunks it ran over.
    Every Scratch hands each chunk of a train call the buffers the first
    chunk at its place allocated.
    """

    def __init__(self, num_stages: int):
        self.scratch = [Scratch() for _ in range(num_stages)]
        self.chunks: list[_KeptChunk] = []
        self.held: list[Scratch] = []  # a Scratch per place below the last chunk
        self.flat = self.fc1_out = self.fc2_in = self.drop_mask = None

    def hold_last(self) -> None:
        """Copy the last chunk's pooled maps and switches out of the stage Scratches.

        A held switch index takes the narrowest unsigned type that holds
        its stage's flat indices, half of intp's bytes at ModelConfig().
        """
        place = len(self.chunks) - 1
        if place == len(self.held):
            self.held.append(Scratch())
        stages = self.chunks[-1].stages
        for i, stage in enumerate(stages):
            switches = stage.switches
            pooled = self.held[place].empty(f"pooled{i}", stage.pooled.shape, stage.pooled.dtype)
            index = self.held[place].empty(f"switch{i}", switches.index.shape,
                                           np.min_scalar_type(math.prod(switches.input_shape)))
            pooled[...] = stage.pooled
            index[...] = switches.index
            stages[i] = _KeptStage(pooled, SwitchRecord(index, switches.input_shape), None)


class Network:
    """The layer stack plus its configuration; read-only during inference."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        dtype = config.np_dtype
        ins = (1,) + config.conv_channels[:-1]
        self.convs = [ConvLayer(i, o, config.kernel_size, rng=rng, init_mode=config.init_mode,
                                dtype=dtype) for i, o in zip(ins, config.conv_channels)]
        self.fc1 = FCLayer(config.flat_features, config.fc_hidden, rng=rng,
                           init_mode=config.init_mode, dtype=dtype)
        self.fc2 = FCLayer(config.fc_hidden, config.num_classes, rng=rng,
                           init_mode=config.init_mode, dtype=dtype)

    # ------------------------------------------------------- parameters

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, value, gradient buffer) triples in checkpoint order."""
        out = []
        for i, conv in enumerate(self.convs, start=1):
            out.append((f"conv{i}.kernels", conv.kernels, conv.grad_kernels))
            out.append((f"conv{i}.bias", conv.bias, conv.grad_bias))
        out.append(("fc1.weights", self.fc1.weights, self.fc1.grad_weights))
        out.append(("fc1.bias", self.fc1.bias, self.fc1.grad_bias))
        out.append(("fc2.weights", self.fc2.weights, self.fc2.grad_weights))
        out.append(("fc2.bias", self.fc2.bias, self.fc2.grad_bias))
        return out

    # ----------------------------------------------------------- forward

    def _chunk(self, xs: np.ndarray) -> np.ndarray:
        """xs [N, 1, S, S] checked, cast to the network's dtype, as the chunk [1, N, S, S].

        Without the cast a float64 image would promote every GEMM of a
        float32 network to float64.
        """
        expected = (1, self.config.input_size, self.config.input_size)
        if xs.ndim != 4 or xs.shape[1:] != expected:
            raise ShapeError(f"expected a chunk [N, {', '.join(map(str, expected))}], got "
                             f"{xs.shape}; only forward_trace, for deconv.project, also takes "
                             "one image")
        return xs.astype(self.config.np_dtype, copy=False).transpose(1, 0, 2, 3)

    def _conv_stack(self, a: np.ndarray, depth: int,
                    keep: TrainBuffers | None = None) -> np.ndarray:
        """Pooled maps [C, N, h, w] of stage `depth` for the chunk a [1, N, S, S].

        Without `keep` no switch or patch matrix is formed. With it, each
        stage computes in its Scratch, and the chunk is pushed on
        keep.chunks with what backward needs.
        """
        if keep is not None:
            if keep.chunks:
                keep.hold_last()
            chunk = _KeptChunk(a, [])
            keep.chunks.append(chunk)
        for i, conv in enumerate(self.convs[:depth]):
            if keep is None:
                a = maxpool_values(relu_forward(conv.forward(a)))
                continue
            conv_out, cols = conv.forward(a, return_cols=True, scratch=keep.scratch[i])
            pooled, switches = maxpool_forward(relu_forward(conv_out, out=conv_out),
                                               keep.scratch[i])
            chunk.stages.append(_KeptStage(pooled, switches, cols))
            a = pooled
        return a

    def forward(self, x: np.ndarray, *, keep: TrainBuffers | None = None) -> np.ndarray:
        """Logits [N, classes] of a chunk x [N, 1, S, S]; an image runs as a chunk of one.

        The chunk runs through the conv stack as [C, N, H, W] arrays and
        through the head as N rows. With `keep` this is the training
        forward, which stops at fc1: the chunk is kept in keep for
        backward, and the return is fc1's input rows [N, features], which
        head() runs over alone or stacked with other chunks' rows.
        """
        pooled = self._conv_stack(self._chunk(x), len(self.convs), keep)
        flat = pooled.transpose(1, 0, 2, 3).reshape(pooled.shape[1], -1)
        return flat if keep is not None else self.head(flat)

    def head(self, flat: np.ndarray, *, keep: TrainBuffers | None = None,
             drop_mask: np.ndarray | None = None) -> np.ndarray:
        """Logits [N, classes] of fc1's input rows flat [N, features].

        With `keep` this is the training head: what head_backward reads is
        kept in keep, and drop_mask [N, hidden], if given, scales the
        hidden rows (dropout). Each layer is one GEMM over all N rows.
        """
        fc1_out = self.fc1.forward(flat)
        hidden = relu_forward(fc1_out)
        fc2_in = hidden * drop_mask if drop_mask is not None else hidden
        if keep is not None:
            keep.flat, keep.fc1_out, keep.fc2_in, keep.drop_mask = flat, fc1_out, fc2_in, drop_mask
        return self.fc2.forward(fc2_in)

    def forward_trace(self, x: np.ndarray, image_id: int | tuple[int, ...] | None = None, *,
                      layer: int | None = None, locations: list[tuple[int, int]] | None = None
                      ) -> ForwardTrace | WindowTrace:
        """The conv stages of a chunk x [N, 1, S, S], or of one image x [1, S, S] as a chunk.

        Each stage runs conv, in-place ReLU and the switch-recording pool;
        the convs share one Scratch, so the trace keeps no stage's input or
        patch matrix. The classifier head does not run. image_id is the
        full trace's label.

        Given `layer` and `locations`, one (row, col) of layer's pooled
        grid per image, it traces only what deconv.project of those units
        reads: the stages up to `layer`, each only inside the units'
        windows (_trace_windows), as a WindowTrace.
        """
        a = self._chunk(x[None] if x.ndim == 3 else x)
        if layer is not None or locations is not None:
            return self._trace_windows(a[0], layer, locations)
        scratch, stages = Scratch(), []
        for conv in self.convs:
            conv_out = conv.forward(a, scratch=scratch)
            a, switches = maxpool_forward(relu_forward(conv_out, out=conv_out))
            stages.append(TraceStage(a, switches))
        return ForwardTrace(image_id, stages)

    def _trace_windows(self, images: np.ndarray, layer: int | None,
                       locations: list[tuple[int, int]] | None) -> WindowTrace:
        """The conv stages of images [N, S, S] up to `layer`, inside the units' windows.

        Stage i is a "valid" convolution (_window_conv) of the window
        below, which holds zeros outside the image or pooled grid; its
        outputs outside the conv grid are -inf before the pool, as the
        pool pads an odd grid, and its pooled positions outside the grid
        are zeroed, the next conv's padding. A layer-3 unit's convs then
        compute 1024, 144 and 4 outputs per map, not 2304, 576 and 144
        (48 px, 5x5 kernels).
        """
        config = self.config
        grids = [config.input_size] + config.stage_sizes()
        locs = np.array(locations, ndmin=2)
        if layer is None or not 1 <= layer < len(grids):
            raise ShapeError(f"layer {layer} outside 1..{len(grids) - 1}")
        if locs.shape != (len(images), 2) or (locs < 0).any() or (locs >= grids[layer]).any():
            raise ShapeError(f"locations {locs.tolist()} are not one unit per image of the "
                             f"{grids[layer]}x{grids[layer]} grid of layer {layer}")
        frames = window_frames(layer, config.kernel_size, locs)
        a = _image_windows(images, *frames[0])[None]
        stages = []
        for i, conv in enumerate(self.convs[:layer]):
            origin, width = frames[i + 1]
            conv_out = _window_conv(conv, a)
            relu_forward(conv_out, out=conv_out)
            beyond = ~window_in_grid(2 * origin, 2 * width, (grids[i], grids[i]))
            np.copyto(conv_out, -np.inf, where=beyond)
            a, switches = maxpool_forward(conv_out)
            inside = window_in_grid(origin, width, (grids[i + 1], grids[i + 1]))
            np.copyto(a, 0, where=~inside)
            stages.append(WindowStage(switches.index, inside))
        return WindowTrace(layer, locs, a[:, :, 0, 0], stages)

    def stage_outputs(self, xs: np.ndarray, layer: int) -> np.ndarray:
        """Pooled feature maps [N, C, h, w] of stage `layer` (1-based) for xs [N, 1, S, S].

        The chunk runs through the conv stack once, stage by stage as
        [C, N, H, W] arrays, and stops at `layer`. It keeps no trace,
        patch matrix or switch and runs no classifier head; each image's
        maps are the bits forward_trace keeps for it. xs is cast to the
        network's dtype, as forward casts its input.
        """
        a = self._chunk(xs)
        if not 1 <= layer <= len(self.convs):
            raise ShapeError(f"layer {layer} outside 1..{len(self.convs)}")
        return self._conv_stack(a, layer).transpose(1, 0, 2, 3)

    # ---------------------------------------------------------- backward

    def head_backward(self, keep: TrainBuffers,
                      grad_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate fc2's gradients of the rows head(keep=keep) ran, and go back through fc1.

        grad_logits: [N, classes]. Returns the gradient wrt fc1's output
        [N, hidden] and wrt fc1's input [N, features]. fc1's own weight and
        bias gradients are left out: `train` stacks the first and keep.flat
        over a batch, and sgd_step forms them once per batch.
        """
        g = self.fc2.backward(grad_logits, keep.fc2_in)
        if keep.drop_mask is not None:
            g *= keep.drop_mask
        fc1_grad = relu_backward(g, keep.fc1_out)
        return fc1_grad, self.fc1.backward(fc1_grad, keep.flat, param_grads=False)

    def backward(self, keep: TrainBuffers, grad_flat: np.ndarray) -> None:
        """Accumulate the conv gradients of the last chunk kept in keep, and pop it.

        grad_flat: the gradient wrt the chunk's fc1 input rows [N,
        features]. Each conv's kernel gradient is one GEMM over the chunk's
        patch matrix, kept from forward or, for a chunk that was held,
        rebuilt; the first conv computes no gradient wrt the image. The
        ReLU and pool of a stage go backward in one pass at pooled
        resolution.
        """
        chunk = keep.chunks.pop()
        c, n, h, w = chunk.stages[-1].pooled.shape
        g = grad_flat.reshape(n, c, h, w).transpose(1, 0, 2, 3)
        ins = [chunk.x] + [stage.pooled for stage in chunk.stages[:-1]]
        for stage, conv_in, conv, scratch in reversed(list(zip(chunk.stages, ins, self.convs,
                                                               keep.scratch))):
            g = maxpool_backward(g, stage.switches, stage.pooled, scratch)
            g = conv.backward(g, conv_in, cols=stage.cols,
                              input_grad=conv is not self.convs[0], scratch=scratch)


def build_network(config: ModelConfig) -> Network:
    return Network(config)


# -------------------------------------------------------------- training


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float | None
    wallclock_s: float


METRICS_COLUMNS = "epoch,train_loss,train_acc,test_acc,wallclock_s"


def write_metrics_csv(metrics: list[EpochMetrics], path) -> None:
    lines = [METRICS_COLUMNS]
    for m in metrics:
        test = "" if m.test_acc is None else repr(m.test_acc)
        lines.append(f"{m.epoch},{repr(m.train_loss)},{repr(m.train_acc)},{test},{m.wallclock_s:.3f}")
    data_mod.write_atomic(path, "\n".join(lines) + "\n")


def _update_blocks(net: Network, velocity: dict[str, np.ndarray], fc1_rows):
    """(name, value, velocity, gradient) blocks of at most BLOCK_ELEMENTS, over every parameter.

    Blocks are views into the parameter and velocity arrays, in
    checkpoint order. See sgd_step for fc1_rows.
    """
    for name, value, grad in net.parameters():
        vel = velocity[name]
        if value is net.fc1.weights:
            for index, tile in net.fc1.weight_grad_tiles(*fc1_rows):
                tile += 0.0  # as if added into a zeroed buffer: -0.0 becomes +0.0
                yield name, value[index], vel[index], tile
            continue
        if value is net.fc1.bias:
            grad = fc1_rows[0].sum(axis=0) + 0.0
        # views: every parameter array is C-contiguous
        flat, flat_vel, flat_grad = value.reshape(-1), vel.reshape(-1), grad.reshape(-1)
        for start in range(0, flat.size, BLOCK_ELEMENTS):
            block = slice(start, start + BLOCK_ELEMENTS)
            yield name, flat[block], flat_vel[block], flat_grad[block]


def sgd_step(net: Network, velocity: dict[str, np.ndarray], cfg: TrainConfig,
             grad_scale: float, fc1_rows: tuple[np.ndarray, np.ndarray]) -> None:
    """One momentum + weight-decay update from the batch's gradients.

    Per element, in this order: step = grad * grad_scale + weight_decay *
    value, velocity = velocity * momentum - learning_rate * step, value +=
    velocity. Whole-array expressions would build weight-sized
    temporaries (fc1 of ModelConfig() holds 151 MB in float32), so the
    update runs in place, a block of at most BLOCK_ELEMENTS at a time
    through two block-sized scratch rows.

    Gradients are read from the gradient buffers, except fc1's: fc1_rows
    is the batch's stacked rows (gradient wrt fc1's output [N, hidden],
    fc1's input [N, features]). fc1's bias gradient is the rows' column
    sum, and its weight gradient is formed tile by tile
    (FCLayer.weight_grad_tiles), each tile updating its tile of weights
    and velocity as soon as it is formed: fc1's gradient buffers are
    neither read nor written. Each tile and the bias sum are added to 0.0
    first, as if added into a zeroed buffer, so a -0.0 entry steps as
    +0.0. The weights and velocity equal bit for bit those of
    oracles.sgd_step_reference, the whole-array update, run on the
    gradients FCLayer.backward accumulates from the same rows into zeroed
    buffers. Raises NumericError naming the parameter when a block is
    left with a non-finite weight.
    """
    scratch = np.empty((2, BLOCK_ELEMENTS), dtype=net.config.np_dtype)
    for name, w, vel, grad in _update_blocks(net, velocity, fc1_rows):
        step, decay = (row[: w.size].reshape(w.shape) for row in scratch)
        np.multiply(grad, grad_scale, out=step)
        np.multiply(cfg.weight_decay, w, out=decay)
        step += decay
        vel *= cfg.momentum
        step *= cfg.learning_rate
        vel -= step
        w += vel
        if not np.isfinite(w).all():
            raise NumericError(f"SGD step left a non-finite weight in {name}")


def _label_indices(manifest: data_mod.DatasetManifest, num_classes: int) -> list[int]:
    vocab = manifest.labels()
    if len(vocab) > num_classes:
        raise data_mod.DataError(
            f"{len(vocab)} labels {vocab} exceed num_classes={num_classes}"
        )
    index = {name: i for i, name in enumerate(vocab)}
    return [index[r.label] for r in manifest.rows]


# Bytes of im2col patch matrix a chunk that runs the classifier head
# (training, evaluate) may build at its largest conv: chunks of 2 images at
# reduced_config() and of 1 at ModelConfig() in float32. Where the head runs
# once per chunk (evaluate, and training unless head_per_batch), a head
# row's last bits depend on the chunk's row count, so this also fixes the
# logits'; a conv-stack-only chunk takes harvest.CHUNK_BYTES. When this was
# set, chunks of 4 trained about 5% faster than 2 but raised the peak RSS by
# 3 MB. A 2-row fc1 GEMM at ModelConfig() took longer than two 1-row GEMVs.
TRAIN_CHUNK_BYTES = 1 << 20


def _patch_elements(config: ModelConfig) -> list[int]:
    """Elements of one image's im2col patch matrix at each conv."""
    in_channels = (1,) + tuple(config.conv_channels[:-1])
    sizes = [config.input_size] + config.stage_sizes()
    return [c * config.kernel_size ** 2 * size ** 2 for c, size in zip(in_channels, sizes)]


def images_per_chunk(config: ModelConfig, budget: int, depth: int | None = None) -> int:
    """Images per conv-stack chunk: budget bytes over the largest per-image patch matrix.

    Counts the first `depth` convs, all of them by default; at least one
    image. conv2's patch matrix is the largest at reduced_config() (0.46
    MB per image in float32) and at ModelConfig() (14.7 MB).
    """
    largest = max(_patch_elements(config)[:depth])
    return max(1, budget // (largest * np.dtype(config.np_dtype).itemsize))


def head_per_batch(config: ModelConfig) -> bool:
    """Whether training runs the classifier head once per SGD batch, not once per chunk.

    Once per batch, fc1's forward and input gradient are one GEMM each
    over the batch's rows, which reads fc1's weights once where a head
    pass per chunk reads them once a chunk; but every chunk except the
    last forwarded rebuilds its patch matrices in backward. So the head
    runs per batch when fc1's weights outweigh one image's patch matrices
    summed over the convs: at ModelConfig() 151 MB against 23.0 MB in
    float32 (about 15% more samples a second at batches of 8), at
    reduced_config() 0.59 MB against 0.92 MB (per batch, about 8% fewer).
    """
    return config.fc_hidden * config.flat_features > sum(_patch_elements(config))


def _chunks(indices: np.ndarray, chunk: int) -> list[np.ndarray]:
    """indices in consecutive parts of at most `chunk`, as equal as can be."""
    return np.array_split(indices, -(-len(indices) // chunk))


def evaluate(net: Network, manifest: data_mod.DatasetManifest) -> float:
    """Accuracy: the share of images whose largest logit is their label.

    Images run through the network in chunks of images_per_chunk() at
    TRAIN_CHUNK_BYTES, each chunk eval-transformed by one data.eval_chunk call.
    """
    labels = np.array(_label_indices(manifest, net.config.num_classes))
    size = net.config.input_size
    dtype = net.config.np_dtype
    n = len(manifest)
    chunk = min(n, images_per_chunk(net.config, TRAIN_CHUNK_BYTES))
    correct = 0
    for part in _chunks(np.arange(n), chunk):
        xs = data_mod.eval_chunk([data_mod.load_image(manifest, i) for i in part.tolist()],
                                 size, dtype)
        logits = net.forward(xs)
        correct += int((np.argmax(logits, axis=1) == labels[part]).sum())
    return correct / n


def train(net: Network, manifest: data_mod.DatasetManifest, cfg: TrainConfig,
          log_path=None) -> list[EpochMetrics]:
    """SGD + momentum training; returns (and optionally logs) per-epoch metrics.

    When cfg.test_count > 0 the manifest is split by whole sequences and
    the held-out accuracy is logged each epoch. Stops early once the
    train loss has improved by less than 1e-4 for 5 consecutive epochs.

    Each batch runs its conv stack as chunks of at most images_per_chunk()
    images at TRAIN_CHUNK_BYTES, split as evenly as they go; a chunk never
    spans two batches. A head pass covers one chunk, or the whole batch
    where head_per_batch(net.config) holds: its chunks go forward, the
    classifier head runs once over their rows, with the losses, and the
    chunks go backward in reverse order. The last chunk forwarded still
    has its patch matrices; each earlier one rebuilds its own
    (TrainBuffers), so with one chunk per head pass nothing is rebuilt.
    Every pass works in buffers that the first allocates and every later
    one of the call reuses. Each image
    keeps its own augmentation, dropout and loss draws, so a batch's
    gradients are the sum of its images' up to the order of float
    additions. fc1's weight and bias gradients are deferred to the end of
    each batch: every image's gradient wrt fc1's output and its fc1 input
    are kept as rows of two [batch, features] buffers, and sgd_step forms
    fc1's weight gradient from them tile by tile, applying each tile to
    the weights and velocity at once. Before each batch training zeroes
    every gradient buffer but fc1's, which neither it nor sgd_step
    touches, so the pages of fc1.grad_weights are never mapped: the only
    arrays of fc1's size it holds are the weights and their velocity, and
    no step allocates a temporary of that size. Without augmentation the
    eval tensors are one stacked array, transformed a chunk at a time.
    """
    if len(manifest) == 0:
        raise data_mod.DataError("training manifest is empty")
    if cfg.test_count > 0:
        train_manifest, test_manifest = data_mod.split(manifest, cfg.test_count, cfg.seed)
    else:
        train_manifest, test_manifest = manifest, None

    labels = _label_indices(train_manifest, net.config.num_classes)
    n = len(train_manifest)
    images = [data_mod.load_image(train_manifest, i) for i in range(n)]
    size = net.config.input_size
    dtype = net.config.np_dtype
    rows = min(cfg.batch_size, n)
    fc1_grads = np.empty((rows, net.fc1.out_features), dtype=dtype)
    fc1_inputs = np.empty((rows, net.fc1.in_features), dtype=dtype)
    chunk = min(rows, images_per_chunk(net.config, TRAIN_CHUNK_BYTES))
    per_batch = head_per_batch(net.config)
    eval_tensors = None
    if not cfg.augment:
        eval_tensors = np.empty((n, 1, size, size), dtype=dtype)
        for i in range(0, n, chunk):
            eval_tensors[i : i + chunk] = data_mod.eval_chunk(images[i : i + chunk], size, dtype)
    head_rows = rows if per_batch else chunk
    xs = np.empty((head_rows, 1, size, size), dtype=dtype)
    drop_masks = np.empty((head_rows, net.config.fc_hidden), dtype=dtype)
    grad_logits = np.empty((head_rows, net.config.num_classes), dtype=dtype)
    keep = TrainBuffers(len(net.convs))

    # np.zeros leaves the pages to the first sgd_step's writes; zeros_like would fill them here
    velocity = {name: np.zeros(value.shape, value.dtype) for name, value, _ in net.parameters()}
    accumulated = [grad for name, _, grad in net.parameters() if not name.startswith("fc1.")]
    metrics: list[EpochMetrics] = []
    start = time.time()
    stall = 0
    prev_loss = None

    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch, 0]).permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_start in range(0, n, cfg.batch_size):
            batch = order[batch_start : batch_start + cfg.batch_size]
            for grad in accumulated:
                grad[...] = 0
            done = 0
            parts = _chunks(batch, chunk)
            for group in [parts] if per_batch else [[part] for part in parts]:
                ids = [idx for part in group for idx in part.tolist()]
                ends = list(itertools.accumulate(len(part) for part in group))
                spans = list(zip([0] + ends[:-1], ends))  # each chunk's rows in the pass
                m = len(ids)
                for k, idx in enumerate(ids):
                    if cfg.augment:
                        aug_rng = np.random.default_rng([cfg.seed, epoch, 1, idx])
                        xs[k] = data_mod.augment(images[idx], aug_rng, size, dtype=dtype)
                    else:
                        xs[k] = eval_tensors[idx]
                    if cfg.dropout_p > 0:
                        drop_rng = np.random.default_rng([cfg.seed, epoch, 2, idx])
                        drop_masks[k] = dropout_mask((net.config.fc_hidden,), cfg.dropout_p,
                                                     drop_rng, dtype=dtype)
                for a, b in spans:
                    fc1_inputs[done + a : done + b] = net.forward(xs[a:b], keep=keep)
                logits = net.head(fc1_inputs[done : done + m], keep=keep,
                                  drop_mask=drop_masks[:m] if cfg.dropout_p > 0 else None)
                for k, idx in enumerate(ids):
                    loss, grad_logits[k] = softmax_cross_entropy(logits[k], labels[idx])
                    if not np.isfinite(loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch}, image index {idx} "
                            f"({train_manifest.rows[idx].path})"
                        )
                    epoch_loss += loss
                    epoch_correct += int(np.argmax(logits[k]) == labels[idx])
                fc1_grads[done : done + m], grad_flat = net.head_backward(keep, grad_logits[:m])
                for a, b in reversed(spans):
                    net.backward(keep, grad_flat[a:b])
                done += m
            sgd_step(net, velocity, cfg, 1.0 / done, (fc1_grads[:done], fc1_inputs[:done]))
        train_loss = epoch_loss / n
        test_acc = None
        if test_manifest is not None:
            test_acc = evaluate(net, test_manifest)
        metrics.append(
            EpochMetrics(epoch, train_loss, epoch_correct / n, test_acc,
                         time.time() - start)
        )
        if prev_loss is not None and prev_loss - train_loss < CONVERGENCE_MIN_IMPROVEMENT:
            stall += 1
        else:
            stall = 0
        prev_loss = train_loss
        if stall >= CONVERGENCE_PATIENCE:
            break
    if log_path is not None:
        write_metrics_csv(metrics, log_path)
    return metrics


# ------------------------------------------------------------ checkpoint


def serialize_network(net: Network) -> bytes:
    params = net.parameters()
    header = {
        "format": "auprobe-checkpoint",
        "version": 1,
        "dtype": net.config.dtype,
        "config": asdict(net.config),
        "params": [{"name": name, "shape": list(value.shape)} for name, value, _ in params],
    }
    blob = bytearray(CHECKPOINT_MAGIC)
    blob.extend(json.dumps(header, sort_keys=True).encode("utf-8"))
    blob.extend(b"\n")
    little = "<f4" if net.config.dtype == "float32" else "<f8"
    for _, value, _ in params:
        blob.extend(np.ascontiguousarray(value, dtype=little).tobytes())
    return bytes(blob)


def save_checkpoint(net: Network, path) -> None:
    data_mod.write_atomic(path, serialize_network(net))


def _config_from_header(raw: dict) -> ModelConfig:
    raw = dict(raw)
    raw["conv_channels"] = tuple(raw["conv_channels"])
    return ModelConfig(**raw)


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> Network:
    """Rebuild a network from a checkpoint file.

    Fails without side effects on truncation, shape disagreement, or (if
    expected_config is given) any configuration mismatch.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise data_mod.DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise data_mod.DataError(f"{path}: not a checkpoint file")
    end = blob.find(b"\n", len(CHECKPOINT_MAGIC))
    if end < 0:
        raise data_mod.DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[len(CHECKPOINT_MAGIC) : end].decode("utf-8"))
        # before the config: another version's config may have other fields
        if header["version"] != 1:
            raise data_mod.DataError(f"{path}: unsupported checkpoint version {header['version']}")
        config = _config_from_header(header["config"])
        declared = [(spec["name"], tuple(spec["shape"])) for spec in header["params"]]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise data_mod.DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    if expected_config is not None and config != expected_config:
        diffs = [
            f"{key}: checkpoint={getattr(config, key)!r} expected={getattr(expected_config, key)!r}"
            for key in asdict(config)
            if getattr(config, key) != getattr(expected_config, key)
        ]
        raise data_mod.DataError(f"{path}: config mismatch ({'; '.join(diffs)})")
    little = "<f4" if config.dtype == "float32" else "<f8"
    offset = end + 1
    # checked before the network is built, so its size is bounded by the file's
    have, need = len(blob) - offset, config.parameter_count() * np.dtype(little).itemsize
    if have < need:
        raise data_mod.DataError(f"{path}: truncated data: {have} bytes, the config needs {need}")
    if have > need:
        raise data_mod.DataError(f"{path}: {have - need} trailing bytes")

    net = Network(config)
    params = net.parameters()
    if [name for name, _ in declared] != [name for name, _, _ in params]:
        raise data_mod.DataError(f"{path}: parameter list does not match architecture")
    for (_, shape), (name, value, _) in zip(declared, params):
        if shape != value.shape:
            raise data_mod.DataError(
                f"{path}: shape mismatch for {name}: checkpoint {shape}, model {value.shape}"
            )
        value[...] = np.frombuffer(blob, little, value.size, offset).reshape(value.shape)
        offset += value.nbytes
    return net


def checkpoint_hash(net: Network) -> str:
    import hashlib

    return hashlib.sha256(serialize_network(net)).hexdigest()


def reduced_config(seed: int = 0) -> ModelConfig:
    """Desk-scale model used by the synthetic experiments."""
    return ModelConfig(
        input_size=48,
        conv_channels=(8, 16, 32),
        fc_hidden=128,
        num_classes=4,
        seed=seed,
    )


def reduced_train_config(seed: int = 0, epochs: int = 60) -> TrainConfig:
    """Training setup for the synthetic pipeline.

    Augmentation stays off: the synthetic units are position coded, so
    flips would alias one unit onto another's region.
    """
    return TrainConfig(batch_size=16, epochs=epochs, seed=seed, augment=False)


__all__ = [
    "CONVERGENCE_MIN_IMPROVEMENT",
    "CONVERGENCE_PATIENCE",
    "EpochMetrics",
    "ForwardTrace",
    "ModelConfig",
    "Network",
    "NumericError",
    "TraceStage",
    "TrainBuffers",
    "TrainConfig",
    "build_network",
    "checkpoint_hash",
    "evaluate",
    "head_per_batch",
    "images_per_chunk",
    "load_checkpoint",
    "reduced_config",
    "reduced_train_config",
    "save_checkpoint",
    "serialize_network",
    "sgd_step",
    "train",
    "write_metrics_csv",
]
