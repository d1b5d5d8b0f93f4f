"""Forward and backward passes for every layer in the network.

Convolution is realized as an explicit matrix multiply over unrolled
patches (im2col). The patch matrix of an input [C,H,W] is a C-contiguous
[C*k*k, H*W] array: row (c, u, v) holds channel c shifted by kernel
offset (u, v), so with K the [out, C*k*k] kernel matrix the three GEMMs
are `K @ cols` (forward), `grad @ cols.T` (kernel gradient) and
`K.T @ grad` (input gradient), and none of their results is transposed
or copied. The unrolled-kernel matrix is the linear operator of the
convolution, so the backward/deconvolution path is literally its
transpose: `transpose_apply` and `backward` share one col2im scatter-add
that is the exact adjoint of the im2col gather.

Spatial ops take single images shaped [channels, height, width]. im2col,
ConvLayer.forward and maxpool_values also take a chunk of images shaped
[channels, images, height, width], which inference (harvest) runs in one
pass; training, backward, col2im and the switch-keeping maxpool_forward
stay per image. The FC backward also takes stacked rows, so that the
trainer can form a weight gradient once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible or do not match the data length."""


# Elements in one block of the blocked weight init, FC weight-gradient
# and SGD update loops (512 KB in float64): small next to a weight
# matrix, large enough that the Python cost per block is noise.
BLOCK_ELEMENTS = 1 << 16
# Output rows per tile of the FC weight gradient: a tile reuses one column
# slab of the stacked inputs for this many rows.
_FC_TILE_ROWS = 16


def _overlap(extent: int, shift: int) -> tuple[int, int]:
    """Output positions [lo, hi) whose input position (+ shift) is in range."""
    return max(0, -shift), min(extent, extent - shift)


def im2col(x: np.ndarray, kernel_size: int, pad: int) -> np.ndarray:
    """Unroll x [C,H,W] into the patch matrix [C*k*k, H*W], zero padded.

    A chunk x [C,N,H,W] gives [C*k*k, N*H*W]: each image's H*W columns
    in turn, padded on its own. x is copied once into a zero-padded
    canvas, so each of the k*k slabs of the patch matrix is written by
    one whole-slab copy and never zero-filled first.
    """
    c, h, w = x.shape[0], x.shape[-2], x.shape[-1]
    k = kernel_size
    canvas = np.zeros(x.shape[:-2] + (h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    canvas[..., pad : pad + h, pad : pad + w] = x
    cols = np.empty((c, k, k) + x.shape[1:], dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            cols[:, u, v] = canvas[..., u : u + h, v : v + w]
    return cols.reshape(c * k * k, -1)


def col2im(cols: np.ndarray, shape: tuple[int, int, int], kernel_size: int,
           pad: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add a [C*k*k, H*W] patch matrix to [C,H,W]."""
    c, h, w = shape
    k = kernel_size
    acc = np.zeros((c, h, w), dtype=cols.dtype)
    colsr = cols.reshape(c, k, k, h, w)
    for u in range(k):
        i0, i1 = _overlap(h, u - pad)
        for v in range(k):
            j0, j1 = _overlap(w, v - pad)
            if i0 < i1 and j0 < j1:
                acc[:, i0 + u - pad : i1 + u - pad,
                    j0 + v - pad : j1 + v - pad] += colsr[:, u, v, i0:i1, j0:j1]
    return acc


def _init_std(mode: str, fan_in: int) -> float:
    if mode == "paper":
        return 1.0
    if mode == "scaled":
        return 1.0 / np.sqrt(fan_in)
    raise ValueError(f"unknown init_mode {mode!r}")


def _gaussian_init(rng: np.random.Generator, shape: tuple[int, ...], std: float,
                   dtype) -> np.ndarray:
    """(rng.standard_normal(shape) * std).astype(dtype), drawn in blocks.

    The generator yields the same stream whether asked for one array or
    for consecutive blocks, so filling the run-dtype array BLOCK_ELEMENTS
    at a time gives the one-draw bits without its float64 temporary
    (302 MB for fc1 of ModelConfig()).
    """
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, BLOCK_ELEMENTS):
        block = flat[start : start + BLOCK_ELEMENTS]
        block[...] = rng.standard_normal(block.size) * std
    return out


class ConvLayer:
    """Same-size convolution: stride 1, zero padding of kernel_size//2.

    kernels: [out_channels, in_channels, k, k], bias: [out_channels].
    Gradient buffers accumulate across calls until zero_grad().

    forward(x, return_cols=True) also returns the im2col patch matrix it
    multiplied; handing it to backward(cols=...) spares backward the
    second im2col of the same input. backward(input_grad=False) skips
    the input-gradient GEMM and its col2im, which the first conv of a
    network needs (nothing reads the gradient wrt the image).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 5,
                 rng: np.random.Generator | None = None, init_mode: str = "scaled",
                 dtype=np.float64):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.pad = kernel_size // 2
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        if rng is None:
            self.kernels = np.zeros(shape, dtype=dtype)
        else:
            std = _init_std(init_mode, in_channels * kernel_size * kernel_size)
            self.kernels = _gaussian_init(rng, shape, std, dtype)
        self.bias = np.zeros(out_channels, dtype=dtype)
        self.grad_kernels = np.zeros(shape, dtype=dtype)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def _kernel_matrix(self) -> np.ndarray:
        return self.kernels.reshape(self.out_channels, -1)

    def zero_grad(self) -> None:
        self.grad_kernels[...] = 0
        self.grad_bias[...] = 0

    def forward(self, x: np.ndarray, *,
                return_cols: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Return the output [out_channels,H,W], and the patch matrix if asked.

        A chunk x [C,N,H,W] gives [out_channels,N,H,W]. Its product is one
        GEMM per image, each of the shape a single-image call multiplies:
        one GEMM over all N*H*W columns can sum in another order where an
        image's columns do not start on a BLAS kernel block, and then an
        image would not get its single-image bits.
        """
        if x.ndim not in (3, 4) or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"expected input [{self.in_channels},H,W] or [{self.in_channels},N,H,W], "
                f"got {x.shape}"
            )
        cols = im2col(x, self.kernel_size, self.pad)
        kmat = self._kernel_matrix
        if x.ndim == 3:
            out = kmat @ cols
        else:
            n = x.shape[1]
            out = np.empty((self.out_channels, cols.shape[1]), dtype=np.result_type(kmat, cols))
            np.matmul(kmat, cols.reshape(len(cols), n, -1).transpose(1, 0, 2),
                      out=out.reshape(self.out_channels, n, -1).transpose(1, 0, 2))
        out += self.bias[:, None]
        out = out.reshape((self.out_channels,) + x.shape[1:])
        return (out, cols) if return_cols else out

    def backward(self, grad_out: np.ndarray, saved_input: np.ndarray, *,
                 cols: np.ndarray | None = None, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients, return gradient wrt input.

        cols: the patch matrix forward built from saved_input (rebuilt
        when None). With input_grad=False nothing is returned.
        """
        _, h, w = saved_input.shape
        if grad_out.shape != (self.out_channels, h, w):
            raise ShapeError(
                f"grad_out {grad_out.shape} does not match forward output "
                f"{(self.out_channels, h, w)}"
            )
        grad_mat = grad_out.reshape(self.out_channels, -1)
        if cols is None:
            cols = im2col(saved_input, self.kernel_size, self.pad)
        self.grad_kernels += (grad_mat @ cols.T).reshape(self.kernels.shape)
        self.grad_bias += grad_out.sum(axis=(1, 2))
        if not input_grad:
            return None
        grad_cols = self._kernel_matrix.T @ grad_mat
        return col2im(grad_cols, saved_input.shape, self.kernel_size, self.pad)

    def transpose_apply(self, y: np.ndarray) -> np.ndarray:
        """Pure operator transpose (no bias, no gradient accumulation).

        Maps an output-shaped signal [out_channels,H,W] back to input
        space [in_channels,H,W]; the deconvolution building block.
        """
        if y.ndim != 3 or y.shape[0] != self.out_channels:
            raise ShapeError(
                f"expected output-shaped signal [{self.out_channels},H,W], got {y.shape}"
            )
        _, h, w = y.shape
        grad_cols = self._kernel_matrix.T @ y.reshape(self.out_channels, -1)
        return col2im(grad_cols, (self.in_channels, h, w), self.kernel_size, self.pad)


class FCLayer:
    """Fully connected layer: y = W x + b.

    forward takes one sample [in]. backward takes one sample ([out]
    gradient, [in] input) or N stacked rows ([N, out], [N, in]), whose
    weight gradient is the one GEMM grad_out.T @ saved_input. It is added
    into grad_weights tile by tile, about BLOCK_ELEMENTS at a time, so no
    temporary the size of the weights is built. param_grads=False leaves
    out the weight and bias gradients, input_grad=False the input
    gradient: the trainer takes fc1's input gradient per sample and its
    parameter gradients once per batch from the stacked rows, because per
    sample they cost a pass over a weight-sized outer product.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, init_mode: str = "scaled",
                 dtype=np.float64):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            self.weights = np.zeros((out_features, in_features), dtype=dtype)
        else:
            std = _init_std(init_mode, in_features)
            self.weights = _gaussian_init(rng, (out_features, in_features), std, dtype)
        self.bias = np.zeros(out_features, dtype=dtype)
        self.grad_weights = np.zeros(self.weights.shape, dtype=dtype)
        self.grad_bias = np.zeros_like(self.bias)

    def zero_grad(self) -> None:
        self.grad_weights[...] = 0
        self.grad_bias[...] = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.in_features,):
            raise ShapeError(f"expected [{self.in_features}] input, got {x.shape}")
        return self.weights @ x + self.bias

    def backward(self, grad_out: np.ndarray, saved_input: np.ndarray, *,
                 param_grads: bool = True, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients, return gradient wrt input.

        The input gradient has saved_input's shape; with input_grad=False
        nothing is returned.
        """
        if (grad_out.ndim not in (1, 2) or grad_out.shape[:-1] != saved_input.shape[:-1]
                or grad_out.shape[-1] != self.out_features
                or saved_input.shape[-1] != self.in_features):
            raise ShapeError(
                f"grad_out {grad_out.shape} and input {saved_input.shape} do not match "
                f"[{self.out_features}] and [{self.in_features}] (or N rows of them)"
            )
        if param_grads:
            g = grad_out.reshape(-1, self.out_features)
            x = saved_input.reshape(-1, self.in_features)
            self.grad_bias += g.sum(axis=0)
            cols = min(self.in_features, BLOCK_ELEMENTS // _FC_TILE_ROWS)
            rows = max(1, BLOCK_ELEMENTS // cols)
            for c0 in range(0, self.in_features, cols):
                x_slab = x[:, c0 : c0 + cols]
                for r0 in range(0, self.out_features, rows):
                    self.grad_weights[r0 : r0 + rows, c0 : c0 + cols] += (
                        g[:, r0 : r0 + rows].T @ x_slab)
        if not input_grad:
            return None
        return grad_out @ self.weights


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_out: np.ndarray, saved_input: np.ndarray) -> np.ndarray:
    # gradient at exactly 0 is defined as 0
    return np.where(saved_input > 0, grad_out, 0)


@dataclass
class SwitchRecord:
    """Per-window argmax coordinates recorded by maxpool_forward.

    rows/cols index into the pre-pool activation; ties are broken toward
    the smallest row-major index so unpooling is reproducible.
    """

    rows: np.ndarray
    cols: np.ndarray
    input_shape: tuple[int, int, int]

    @property
    def pooled_shape(self) -> tuple[int, int, int]:
        return self.rows.shape


def _window_corners(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strided views of the 2x2 window corners over the last two axes.

    Odd extents are padded with -inf, which no window's maximum selects.
    Returned in row-major order: top left, top right, bottom left,
    bottom right.
    """
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        xp = np.full(x.shape[:-2] + (h + h % 2, w + w % 2), -np.inf, dtype=x.dtype)
        xp[..., :h, :w] = x
        x = xp
    return x[..., 0::2, 0::2], x[..., 0::2, 1::2], x[..., 1::2, 0::2], x[..., 1::2, 1::2]


def maxpool_values(x: np.ndarray) -> np.ndarray:
    """The values of maxpool_forward, without switches, over the last two axes.

    Takes [C,H,W] or a chunk [C,N,H,W]. The maxima are combined in
    maxpool_forward's order, so the values are its bits, NaN and +-inf
    included.
    """
    top_left, top_right, bottom_left, bottom_right = _window_corners(x)
    out = np.maximum(top_left, top_right)
    return np.maximum(out, np.maximum(bottom_left, bottom_right), out=out)


def maxpool_forward(x: np.ndarray) -> tuple[np.ndarray, SwitchRecord]:
    """2x2 max pool of x [C,H,W]; odd extents are padded with -inf (never selected).

    The maximum is taken over the four strided views of the window
    corners; the switch is the first corner, in row-major order, that
    holds it.
    """
    top_left, top_right, bottom_left, bottom_right = _window_corners(x)
    top = np.maximum(top_left, top_right)
    bottom = np.maximum(bottom_left, bottom_right)
    out = np.maximum(top, bottom)
    _, oh, ow = out.shape
    in_bottom = top < out
    in_right = np.where(in_bottom, bottom_left < bottom, top_left < top)
    rows = 2 * np.arange(oh, dtype=np.int32)[None, :, None] + in_bottom
    cols = 2 * np.arange(ow, dtype=np.int32)[None, None, :] + in_right
    return out, SwitchRecord(rows=rows, cols=cols, input_shape=x.shape)


def unpool(values: np.ndarray, switches: SwitchRecord) -> np.ndarray:
    """Place each pooled-grid value at its recorded switch coordinate."""
    if values.shape != switches.pooled_shape:
        raise ShapeError(
            f"values shape {values.shape} does not match switch record "
            f"{switches.pooled_shape}"
        )
    c, h, w = switches.input_shape
    out = np.zeros((c, h, w), dtype=values.dtype)
    chan = np.arange(c)[:, None, None]
    out[chan, switches.rows, switches.cols] = values
    return out


def maxpool_backward(grad_out: np.ndarray, switches: SwitchRecord) -> np.ndarray:
    """Route each output gradient to its argmax location; zeros elsewhere."""
    return unpool(grad_out, switches)


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Return (loss, grad wrt logits) of -log softmax(logits)[label]."""
    n = logits.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} outside class range [0, {n})")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    total = exp.sum()
    probs = exp / total
    loss = float(np.log(total) - shifted[label])
    grad = probs.copy()
    grad[label] -= 1.0
    return loss, grad


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator,
                 dtype=np.float64) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, else 1/(1-p)."""
    keep = rng.random(shape) >= p
    return keep.astype(dtype) / (1.0 - p)
