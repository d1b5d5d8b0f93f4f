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
        if self.input_size < 8:
            raise ValueError(f"input_size {self.input_size} too small")
        if not self.conv_channels:
            raise ValueError("need at least one conv stage")
        if any(b <= a for a, b in zip(self.conv_channels, self.conv_channels[1:])):
            raise ValueError(f"conv_channels must increase strictly: {self.conv_channels}")
        if self.kernel_size % 2 != 1:
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
        if self.batch_size < 1 or self.epochs < 1 or self.test_count < 0:
            raise ValueError("batch_size/epochs must be >= 1, test_count >= 0")


@dataclass
class StageTrace:
    conv_in: np.ndarray
    conv_out: np.ndarray
    relu_out: np.ndarray
    pool_out: np.ndarray
    switches: SwitchRecord
    cols: np.ndarray | None = None  # the conv's im2col patch matrix, kept for training


@dataclass
class ForwardTrace:
    """Everything one inference pass computed, for replay and deconvolution."""

    image_id: int | None
    stages: list[StageTrace]
    flat: np.ndarray
    fc1_out: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray


@dataclass
class _Cache:
    stages: list[StageTrace]
    flat: np.ndarray
    fc1_out: np.ndarray
    hidden: np.ndarray
    fc2_in: np.ndarray
    drop_mask: np.ndarray | None


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

    def _input(self, x: np.ndarray) -> np.ndarray:
        """x checked against [1, S, S] and cast to the network's dtype.

        Without the cast a float64 image would promote every GEMM of a
        float32 network to float64.
        """
        expected = (1, self.config.input_size, self.config.input_size)
        if x.shape != expected:
            raise ShapeError(f"expected input {expected}, got {x.shape}")
        return x.astype(self.config.np_dtype, copy=False)

    def _run_stages(self, x: np.ndarray, keep_cols: bool = False) -> list[StageTrace]:
        stages = []
        a = x
        for conv in self.convs:
            conv_out, cols = conv.forward(a, return_cols=True)
            relu_out = relu_forward(conv_out)
            pool_out, switches = maxpool_forward(relu_out)
            stages.append(StageTrace(a, conv_out, relu_out, pool_out, switches,
                                     cols if keep_cols else None))
            a = pool_out
        return stages

    def _head(self, flat: np.ndarray, drop_mask: np.ndarray | None):
        fc1_out = self.fc1.forward(flat)
        hidden = relu_forward(fc1_out)
        fc2_in = hidden * drop_mask if drop_mask is not None else hidden
        logits = self.fc2.forward(fc2_in)
        return fc1_out, hidden, fc2_in, logits

    def forward(self, x: np.ndarray, train: bool = False, dropout_p: float = 0.5,
                dropout_rng: np.random.Generator | None = None):
        """Return logits; in train mode also the cache backward() needs."""
        x = self._input(x)
        stages = self._run_stages(x, keep_cols=train)
        flat = stages[-1].pool_out.reshape(-1)
        drop_mask = None
        if train and dropout_p > 0:
            if dropout_rng is None:
                raise ValueError("training forward needs a dropout rng")
            drop_mask = dropout_mask((self.config.fc_hidden,), dropout_p,
                                     dropout_rng, dtype=x.dtype)
        fc1_out, hidden, fc2_in, logits = self._head(flat, drop_mask)
        if not train:
            return logits
        return logits, _Cache(stages, flat, fc1_out, hidden, fc2_in, drop_mask)

    def forward_trace(self, x: np.ndarray, image_id: int | None = None) -> ForwardTrace:
        """Inference pass that keeps every intermediate activation."""
        x = self._input(x)
        stages = self._run_stages(x)
        flat = stages[-1].pool_out.reshape(-1)
        fc1_out, hidden, _, logits = self._head(flat, None)
        return ForwardTrace(image_id, stages, flat, fc1_out, hidden, logits)

    def stage_outputs(self, xs: np.ndarray, layer: int) -> np.ndarray:
        """Pooled feature maps [N, C, h, w] of stage `layer` (1-based) for xs [N, 1, S, S].

        The chunk runs through the conv stack once, stage by stage as
        [C, N, H, W] arrays, and stops at `layer`. It keeps no trace,
        patch matrix or switch and runs no classifier head; each image's
        maps are the bits forward_trace gives it. xs is cast to the
        network's dtype, as forward casts its input.
        """
        expected = (1, self.config.input_size, self.config.input_size)
        if xs.ndim != 4 or xs.shape[1:] != expected:
            raise ShapeError(f"expected a chunk [N, {', '.join(map(str, expected))}], "
                             f"got {xs.shape}")
        if not 1 <= layer <= len(self.convs):
            raise ShapeError(f"layer {layer} outside 1..{len(self.convs)}")
        a = xs.astype(self.config.np_dtype, copy=False).transpose(1, 0, 2, 3)
        for conv in self.convs[:layer]:
            a = maxpool_values(relu_forward(conv.forward(a)))
        return a.transpose(1, 0, 2, 3)

    # ---------------------------------------------------------- backward

    def backward(self, cache: _Cache, grad_logits: np.ndarray, *,
                 fc1_params: bool = True) -> np.ndarray:
        """Accumulate parameter gradients for one sample.

        Each conv reuses the patch matrix its training forward kept; the
        first conv computes no gradient wrt the input image. Returns the
        gradient wrt fc1's output. With fc1_params=False fc1's weight and
        bias gradients are left out: `train` stacks the returned rows and
        cache.flat and forms them once per batch.
        """
        g = self.fc2.backward(grad_logits, cache.fc2_in)
        if cache.drop_mask is not None:
            g = g * cache.drop_mask
        fc1_grad = relu_backward(g, cache.fc1_out)
        g = self.fc1.backward(fc1_grad, cache.flat, param_grads=fc1_params)
        g = g.reshape(cache.stages[-1].pool_out.shape)
        for stage, conv in zip(reversed(cache.stages), reversed(self.convs)):
            g = maxpool_backward(g, stage.switches)
            g = relu_backward(g, stage.conv_out)
            g = conv.backward(g, stage.conv_in, cols=stage.cols,
                              input_grad=conv is not self.convs[0])
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sgd_step(net: Network, velocity: dict[str, np.ndarray], cfg: TrainConfig,
             grad_scale: float) -> None:
    """One momentum + weight-decay update from the accumulated gradients.

    Per element, in this order: step = grad * grad_scale + weight_decay *
    value, velocity = velocity * momentum - learning_rate * step, value +=
    velocity. Whole-array expressions would build weight-sized
    temporaries (fc1 of ModelConfig() holds 151 MB in float32), so the
    update runs in place, BLOCK_ELEMENTS at a time through two block-sized
    scratch rows; the arithmetic is the same, so the weights are too.
    Raises NumericError naming the parameter when a block is left with a
    non-finite weight.
    """
    scratch = np.empty((2, BLOCK_ELEMENTS), dtype=net.config.np_dtype)
    for name, value, grad in net.parameters():
        flat = value.reshape(-1)  # views: every parameter array is C-contiguous
        flat_grad = grad.reshape(-1)
        flat_vel = velocity[name].reshape(-1)
        for start in range(0, flat.size, BLOCK_ELEMENTS):
            w = flat[start : start + BLOCK_ELEMENTS]
            vel = flat_vel[start : start + BLOCK_ELEMENTS]
            step, decay = scratch[:, : w.size]
            np.multiply(flat_grad[start : start + BLOCK_ELEMENTS], grad_scale, out=step)
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


def evaluate(net: Network, manifest: data_mod.DatasetManifest) -> tuple[float, float]:
    """Mean loss and accuracy under the deterministic eval transform."""
    labels = _label_indices(manifest, net.config.num_classes)
    total_loss = 0.0
    correct = 0
    for i in range(len(manifest)):
        img = data_mod.load_image(manifest, i)
        x = data_mod.eval_transform(img, net.config.input_size)
        logits = net.forward(x)
        loss, _ = softmax_cross_entropy(logits, labels[i])
        total_loss += loss
        correct += int(np.argmax(logits) == labels[i])
    n = len(manifest)
    return total_loss / n, correct / n


def train(net: Network, manifest: data_mod.DatasetManifest, cfg: TrainConfig,
          log_path=None) -> list[EpochMetrics]:
    """SGD + momentum training; returns (and optionally logs) per-epoch metrics.

    When cfg.test_count > 0 the manifest is split by whole sequences and
    the held-out accuracy is logged each epoch. Stops early once the
    train loss has improved by less than 1e-4 for 5 consecutive epochs.

    fc1's weight and bias gradients are deferred to the end of each
    batch: every sample's gradient wrt fc1's output and its fc1 input are
    kept as rows of two [batch, features] buffers, and one FCLayer.backward
    call on them forms the weight gradient as a single GEMM, tiled into
    the buffer zero_grads cleared. Per sample it would be a weight-sized
    outer product and a pass over the weights; with sgd_step's in-place
    update no step of training allocates anything the size of a weight
    matrix. Without augmentation the eval tensors are one stacked array.
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

    velocity = {name: np.zeros_like(value) for name, value, _ in net.parameters()}
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
            net.zero_grads()
            for k, idx in enumerate(batch):
                idx = int(idx)
                if cfg.augment:
                    aug_rng = np.random.default_rng([cfg.seed, epoch, 1, idx])
                    x = data_mod.augment(images[idx], aug_rng, size, dtype=dtype)
                else:
                    x = eval_tensors[idx]
                drop_rng = np.random.default_rng([cfg.seed, epoch, 2, idx])
                logits, cache = net.forward(x, train=True, dropout_p=cfg.dropout_p,
                                            dropout_rng=drop_rng)
                loss, grad = softmax_cross_entropy(logits, labels[idx])
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, image index {idx} "
                        f"({train_manifest.rows[idx].path})"
                    )
                epoch_loss += loss
                epoch_correct += int(np.argmax(logits) == labels[idx])
                fc1_grads[k] = net.backward(cache, grad, fc1_params=False)
                fc1_inputs[k] = cache.flat
                del cache  # free this sample's patch matrices before the next forward
            net.fc1.backward(fc1_grads[: len(batch)], fc1_inputs[: len(batch)],
                             input_grad=False)
            sgd_step(net, velocity, cfg, 1.0 / len(batch))
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
    Path(path).write_bytes(serialize_network(net))


def _config_from_header(raw: dict) -> ModelConfig:
    raw = dict(raw)
    raw["conv_channels"] = tuple(raw["conv_channels"])
    return ModelConfig(**raw)


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> Network:
    """Rebuild a network from a checkpoint file.

    Fails without side effects on truncation, shape disagreement, or (if
    expected_config is given) any configuration mismatch.
    """
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise data_mod.DataError(f"{path}: not a checkpoint file")
    end = blob.find(b"\n", len(CHECKPOINT_MAGIC))
    if end < 0:
        raise data_mod.DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[len(CHECKPOINT_MAGIC) : end].decode("utf-8"))
        config = _config_from_header(header["config"])
        declared = header["params"]
        version = header["version"]
    except (KeyError, TypeError, ValueError) as exc:
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

    net = Network(config)
    params = net.parameters()
    if [p["name"] for p in declared] != [name for name, _, _ in params]:
        raise data_mod.DataError(f"{path}: parameter list does not match architecture")
    little = "<f4" if config.dtype == "float32" else "<f8"
    itemsize = np.dtype(little).itemsize
    offset = end + 1
    loaded = {}
    for spec, (name, value, _) in zip(declared, params):
        shape = tuple(spec["shape"])
        if shape != value.shape:
            raise data_mod.DataError(
                f"{path}: shape mismatch for {name}: checkpoint {shape}, model {value.shape}"
            )
        count = int(np.prod(shape))
        chunk = blob[offset : offset + count * itemsize]
        if len(chunk) != count * itemsize:
            raise data_mod.DataError(f"{path}: truncated data for {name}")
        loaded[name] = np.frombuffer(chunk, dtype=little).reshape(shape).astype(config.np_dtype)
        offset += count * itemsize
    if offset != len(blob):
        raise data_mod.DataError(f"{path}: {len(blob) - offset} trailing bytes")
    for name, value, _ in params:
        value[...] = loaded[name]
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
    "StageTrace",
    "TrainConfig",
    "build_network",
    "checkpoint_hash",
    "evaluate",
    "load_checkpoint",
    "reduced_config",
    "reduced_train_config",
    "save_checkpoint",
    "serialize_network",
    "sgd_step",
    "train",
    "write_metrics_csv",
]
