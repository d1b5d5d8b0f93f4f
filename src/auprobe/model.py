"""Network assembly, training, forward traces, and checkpoints.

The classifier is a stack of conv(5x5, same-size) -> ReLU -> 2x2 maxpool
stages followed by one hidden fully connected layer with dropout and a
softmax output. Training is plain SGD with momentum and L2 weight decay,
single-writer over the weights; every random draw is derived from the
run seed so identical runs produce identical weights.
"""

from __future__ import annotations

import json
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
class _KeptStage:
    conv_in: np.ndarray  # the chunk [C,N,H,W] the conv read
    cols: np.ndarray  # its patch matrix, the operand of the kernel gradient
    pooled: np.ndarray  # the pool's output, whose sign masks the ReLU gradient
    switches: SwitchRecord


@dataclass
class ForwardTrace:
    """The conv stages of one image's inference pass, for deconvolution.

    Each stage is kept as training keeps it, for a chunk of one image:
    arrays [C, 1, H, W] and switches into them.
    """

    image_id: int | None
    stages: list[_KeptStage]


class TrainBuffers:
    """What a training forward keeps for backward, for one chunk of images.

    forward(keep=...) fills it and backward reads it. Per conv stage it
    keeps the stage's input and, in the stage's Scratch, its patch
    matrix, pooled output and switches; for the head, the fc rows. The
    arrays of one chunk stay valid until the next training forward, and
    each Scratch hands every chunk of a train call the buffers the first
    chunk allocated.
    """

    def __init__(self, num_stages: int):
        self.scratch = [Scratch() for _ in range(num_stages)]
        self.stages: list[_KeptStage] = []
        self.flat = self.fc1_out = self.fc2_in = self.drop_mask = None


class Network:
    """The layer stack plus its configuration; read-only during inference."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        dtype = config.np_dtype
        self.convs: list[ConvLayer] = []
        in_c = 1
        for out_c in config.conv_channels:
            self.convs.append(
                ConvLayer(in_c, out_c, config.kernel_size, rng=rng,
                          init_mode=config.init_mode, dtype=dtype)
            )
            in_c = out_c
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

    def zero_grads(self) -> None:
        for conv in self.convs:
            conv.zero_grad()
        self.fc1.zero_grad()
        self.fc2.zero_grad()

    # ----------------------------------------------------------- forward

    def _chunk(self, xs: np.ndarray) -> np.ndarray:
        """xs [N, 1, S, S] checked, cast to the network's dtype, as the chunk [1, N, S, S].

        Without the cast a float64 image would promote every GEMM of a
        float32 network to float64.
        """
        expected = (1, self.config.input_size, self.config.input_size)
        if xs.ndim != 4 or xs.shape[1:] != expected:
            raise ShapeError(f"expected a chunk [N, {', '.join(map(str, expected))}] "
                             f"(an image runs as a chunk of one), got {xs.shape}")
        return xs.astype(self.config.np_dtype, copy=False).transpose(1, 0, 2, 3)

    def _conv_stack(self, a: np.ndarray, depth: int,
                    keep: TrainBuffers | None = None) -> np.ndarray:
        """Pooled maps [C, N, h, w] of stage `depth` for the chunk a [1, N, S, S].

        Without `keep` no switch or patch matrix is formed. With it, each
        stage computes in its Scratch and keeps what backward needs.
        """
        if keep is not None:
            keep.stages = []
        for i, conv in enumerate(self.convs[:depth]):
            if keep is None:
                a = maxpool_values(relu_forward(conv.forward(a)))
                continue
            conv_out, cols = conv.forward(a, return_cols=True, scratch=keep.scratch[i])
            pooled, switches = maxpool_forward(relu_forward(conv_out, out=conv_out),
                                               keep.scratch[i])
            keep.stages.append(_KeptStage(a, cols, pooled, switches))
            a = pooled
        return a

    def forward(self, x: np.ndarray, *, keep: TrainBuffers | None = None,
                drop_mask: np.ndarray | None = None) -> np.ndarray:
        """Logits [N, classes] of a chunk x [N, 1, S, S], or [classes] of one image x [1, S, S].

        The chunk runs through the conv stack as [C, N, H, W] arrays and
        through the head as N rows; one image runs as a chunk of one. With
        `keep` this is the training forward: what backward needs is kept
        in keep, and drop_mask [N, hidden], if given, scales the hidden
        rows (dropout).
        """
        if x.ndim == 3:
            return self.forward(x[None], keep=keep, drop_mask=drop_mask)[0]
        pooled = self._conv_stack(self._chunk(x), len(self.convs), keep)
        flat = pooled.transpose(1, 0, 2, 3).reshape(pooled.shape[1], -1)
        fc1_out = self.fc1.forward(flat)
        hidden = relu_forward(fc1_out)
        fc2_in = hidden * drop_mask if drop_mask is not None else hidden
        if keep is not None:
            keep.flat, keep.fc1_out, keep.fc2_in, keep.drop_mask = flat, fc1_out, fc2_in, drop_mask
        return self.fc2.forward(fc2_in)

    def forward_trace(self, x: np.ndarray, image_id: int | None = None) -> ForwardTrace:
        """The conv stages of one image x [1, S, S], run as a chunk of one.

        The stack runs as in training, into buffers of this trace's own,
        and keeps each stage's input, patch matrix, pooled maps and
        switches; the classifier head does not run.
        """
        keep = TrainBuffers(len(self.convs))
        self._conv_stack(self._chunk(x[None]), len(self.convs), keep)
        return ForwardTrace(image_id, keep.stages)

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

    def backward(self, keep: TrainBuffers, grad_logits: np.ndarray) -> np.ndarray:
        """Accumulate the gradients of the chunk forward(keep=keep) ran, but fc1's.

        grad_logits: [N, classes]. Each conv's kernel gradient is one GEMM
        over the chunk's patch matrix, kept from forward; the first conv
        computes no gradient wrt the image. The ReLU and pool of a stage
        go backward in one pass at pooled resolution. Returns the gradient
        wrt fc1's output [N, hidden]: `train` stacks these rows and
        keep.flat over a batch, and sgd_step forms fc1's weight and bias
        gradients from them once per batch.
        """
        g = self.fc2.backward(grad_logits, keep.fc2_in)
        if keep.drop_mask is not None:
            g *= keep.drop_mask
        fc1_grad = relu_backward(g, keep.fc1_out)
        g = self.fc1.backward(fc1_grad, keep.flat, param_grads=False)
        c, n, h, w = keep.stages[-1].pooled.shape
        g = g.reshape(n, c, h, w).transpose(1, 0, 2, 3)
        for stage, conv, scratch in reversed(list(zip(keep.stages, self.convs, keep.scratch))):
            g = maxpool_backward(g, stage.switches, stage.pooled, scratch)
            g = conv.backward(g, stage.conv_in, cols=stage.cols,
                              input_grad=conv is not self.convs[0], scratch=scratch)
        return fc1_grad


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
        if fc1_rows is not None and value is net.fc1.weights:
            for index, tile in net.fc1.weight_grad_tiles(*fc1_rows):
                tile += 0.0  # as if added into a zeroed buffer: -0.0 becomes +0.0
                yield name, value[index], vel[index], tile
            continue
        if fc1_rows is not None and value is net.fc1.bias:
            grad = fc1_rows[0].sum(axis=0) + 0.0
        # views: every parameter array is C-contiguous
        flat, flat_vel, flat_grad = value.reshape(-1), vel.reshape(-1), grad.reshape(-1)
        for start in range(0, flat.size, BLOCK_ELEMENTS):
            block = slice(start, start + BLOCK_ELEMENTS)
            yield name, flat[block], flat_vel[block], flat_grad[block]


def sgd_step(net: Network, velocity: dict[str, np.ndarray], cfg: TrainConfig,
             grad_scale: float, fc1_rows: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """One momentum + weight-decay update from the batch's gradients.

    Per element, in this order: step = grad * grad_scale + weight_decay *
    value, velocity = velocity * momentum - learning_rate * step, value +=
    velocity. Whole-array expressions would build weight-sized
    temporaries (fc1 of ModelConfig() holds 151 MB in float32), so the
    update runs in place, a block of at most BLOCK_ELEMENTS at a time
    through two block-sized scratch rows; the arithmetic is the same, so
    the weights are too.

    Gradients are read from the gradient buffers, except fc1's when
    fc1_rows, the batch's stacked rows (gradient wrt fc1's output
    [N, hidden], fc1's input [N, features]), is given. fc1's bias gradient
    is then the rows' column sum, and its weight gradient is formed tile
    by tile (FCLayer.weight_grad_tiles), each tile updating its tile of
    weights and velocity as soon as it is formed: fc1's gradient buffers
    are neither read nor written. Each tile and the bias sum are added to
    0.0 first, as they were when added into a zeroed buffer, so a -0.0
    entry steps as +0.0 and the weights equal the buffered update's bit
    for bit. Raises NumericError naming the parameter when a block is left
    with a non-finite weight.
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


# Bytes of im2col patch matrix a training or evaluation chunk may build
# at its largest conv: chunks of 2 images at reduced_config() and of 1 at
# ModelConfig() in float32. Chunks of 4 trained about 5% faster than 2 but
# raised the benchmark's peak RSS by 3 MB, and training set the peak; at 2
# the probe passes still set it.
TRAIN_CHUNK_BYTES = 1 << 20


def images_per_chunk(config: ModelConfig, budget: int, depth: int | None = None) -> int:
    """Images per conv-stack chunk: budget bytes over the largest per-image patch matrix.

    Counts the first `depth` convs, all of them by default; at least one
    image. conv2's patch matrix is the largest at reduced_config() (0.46
    MB per image in float32) and at ModelConfig() (14.7 MB).
    """
    in_channels = (1,) + tuple(config.conv_channels[:-1])
    sizes = [config.input_size] + config.stage_sizes()
    largest = max(c * config.kernel_size ** 2 * size ** 2
                  for c, size in zip(in_channels[:depth], sizes))
    return max(1, budget // (largest * np.dtype(config.np_dtype).itemsize))


def _chunks(indices: np.ndarray, chunk: int) -> list[np.ndarray]:
    """indices in consecutive parts of at most `chunk`, as equal as can be."""
    return np.array_split(indices, -(-len(indices) // chunk))


def evaluate(net: Network, manifest: data_mod.DatasetManifest) -> tuple[float, float]:
    """Mean loss and accuracy under the deterministic eval transform.

    Images run through the network in chunks of images_per_chunk() at
    TRAIN_CHUNK_BYTES.
    """
    labels = _label_indices(manifest, net.config.num_classes)
    size = net.config.input_size
    dtype = net.config.np_dtype
    n = len(manifest)
    chunk = min(n, images_per_chunk(net.config, TRAIN_CHUNK_BYTES))
    xs = np.empty((chunk, 1, size, size), dtype=dtype)
    total_loss = 0.0
    correct = 0
    for part in _chunks(np.arange(n), len(xs)):
        for k, i in enumerate(part):
            xs[k] = data_mod.eval_transform(data_mod.load_image(manifest, int(i)), size,
                                            dtype=dtype)
        logits = net.forward(xs[: len(part)])
        for k, i in enumerate(part):
            loss, _ = softmax_cross_entropy(logits[k], labels[i])
            total_loss += loss
            correct += int(np.argmax(logits[k]) == labels[i])
    return total_loss / n, correct / n


def train(net: Network, manifest: data_mod.DatasetManifest, cfg: TrainConfig,
          log_path=None) -> list[EpochMetrics]:
    """SGD + momentum training; returns (and optionally logs) per-epoch metrics.

    When cfg.test_count > 0 the manifest is split by whole sequences and
    the held-out accuracy is logged each epoch. Stops early once the
    train loss has improved by less than 1e-4 for 5 consecutive epochs.

    Each batch runs as chunks of at most images_per_chunk() images at
    TRAIN_CHUNK_BYTES, split as evenly as they go; a chunk never spans
    two batches. A chunk makes one forward and one backward pass, in
    buffers that the first chunk allocates and every later one of the
    call reuses. Each image
    keeps its own augmentation, dropout and loss draws, so a chunk's
    gradients are the sum of its images' up to the order of float
    additions. fc1's weight and bias gradients are deferred to the end of
    each batch: every image's gradient wrt fc1's output and its fc1 input
    are kept as rows of two [batch, features] buffers, and sgd_step forms
    fc1's weight gradient from them tile by tile, applying each tile to
    the weights and velocity at once. Training zeroes and accumulates
    every gradient buffer but fc1's, which it never touches, so the pages
    of fc1.grad_weights are never mapped: the only arrays of fc1's size
    it holds are the weights and their velocity, and no step allocates a
    temporary of that size. Without augmentation the eval tensors are one
    stacked array.
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
    eval_tensors = None
    if not cfg.augment:
        eval_tensors = np.empty((n, 1, size, size), dtype=dtype)
        for i, img in enumerate(images):
            eval_tensors[i] = data_mod.eval_transform(img, size, dtype=dtype)
    rows = min(cfg.batch_size, n)
    fc1_grads = np.empty((rows, net.fc1.out_features), dtype=dtype)
    fc1_inputs = np.empty((rows, net.fc1.in_features), dtype=dtype)
    chunk = min(rows, images_per_chunk(net.config, TRAIN_CHUNK_BYTES))
    xs = np.empty((chunk, 1, size, size), dtype=dtype)
    drop_masks = np.empty((chunk, net.config.fc_hidden), dtype=dtype)
    grad_logits = np.empty((chunk, net.config.num_classes), dtype=dtype)
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
            for part in _chunks(batch, chunk):
                m = len(part)
                for k, idx in enumerate(part.tolist()):
                    if cfg.augment:
                        aug_rng = np.random.default_rng([cfg.seed, epoch, 1, idx])
                        xs[k] = data_mod.augment(images[idx], aug_rng, size, dtype=dtype)
                    else:
                        xs[k] = eval_tensors[idx]
                    if cfg.dropout_p > 0:
                        drop_rng = np.random.default_rng([cfg.seed, epoch, 2, idx])
                        drop_masks[k] = dropout_mask((net.config.fc_hidden,), cfg.dropout_p,
                                                     drop_rng, dtype=dtype)
                logits = net.forward(xs[:m], keep=keep,
                                     drop_mask=drop_masks[:m] if cfg.dropout_p > 0 else None)
                for k, idx in enumerate(part.tolist()):
                    loss, grad_logits[k] = softmax_cross_entropy(logits[k], labels[idx])
                    if not np.isfinite(loss):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch}, image index {idx} "
                            f"({train_manifest.rows[idx].path})"
                        )
                    epoch_loss += loss
                    epoch_correct += int(np.argmax(logits[k]) == labels[idx])
                fc1_grads[done : done + m] = net.backward(keep, grad_logits[:m])
                fc1_inputs[done : done + m] = keep.flat
                done += m
            sgd_step(net, velocity, cfg, 1.0 / done, (fc1_grads[:done], fc1_inputs[:done]))
        train_loss = epoch_loss / n
        test_acc = None
        if test_manifest is not None:
            _, test_acc = evaluate(net, test_manifest)
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
        config = _config_from_header(header["config"])
        declared = [(spec["name"], tuple(spec["shape"])) for spec in header["params"]]
        version = header["version"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise data_mod.DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    if version != 1:
        raise data_mod.DataError(f"{path}: unsupported checkpoint version {version}")
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
    "TrainBuffers",
    "TrainConfig",
    "build_network",
    "checkpoint_hash",
    "evaluate",
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
