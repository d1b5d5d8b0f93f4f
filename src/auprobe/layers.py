"""Forward and backward passes for every layer in the network.

Convolution is realized as an explicit matrix multiply over unrolled
patches (im2col). The patch matrix of an image [C,H,W] is a C-contiguous
[C*k*k, H*W] array: row (c, u, v) holds channel c shifted by kernel
offset (u, v), so with K the [out, C*k*k] kernel matrix the three GEMMs
are `K @ cols` (forward), `(cols @ grad.T).T` (kernel gradient) and
`K.T @ grad` (input gradient). The kernel gradient keeps the patch
matrix BLAS's untransposed operand, as `grad @ cols.T` has the same bits
but makes BLAS pack it from its transpose, 1.5-1.7x slower in training
chunks; its transposed result is added into the gradient in place. The
unrolled-kernel matrix is the linear operator of the convolution, so the
backward/deconvolution path is literally its transpose: `backward` and
`transpose_apply` both form `K.T @ y` and scatter-add it with col2im,
the exact adjoint of the im2col gather and the one scatter of the
transposed convolution, so backward's input gradient is the in-frame
part of transpose_apply's unclipped result bit for bit.

Conv operands are chunks of images shaped [channels, images, height,
width], which training, inference and deconvolution run in one pass:
im2col, col2im, ConvLayer.forward, backward and transpose_apply take
nothing else, so an image runs as a chunk of one. A chunk's patch matrix
is [C*k*k, N*H*W], each image's H*W columns in turn, so the kernel
gradient is one GEMM per chunk. FCLayer takes N stacked rows [N,
features], a sample as a row of one. maxpool_forward, maxpool_values and
maxpool_backward pool the last two axes of any array. Calls given a
Scratch compute into buffers it keeps, so a loop over chunks allocates
its large arrays once.
"""

from __future__ import annotations

import math
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
# Bytes of col2im's zero-margined slab frame per block of channels. The
# frame is k*k times the block's result (17 and 10 MB unblocked at
# ModelConfig()'s conv2 and conv3). 2 MiB keeps it small next to the patch
# matrices and its blocks few: 7 and 26 channels there, and one block for
# a reduced_config training chunk.
SCATTER_BYTES = 2 << 20
# Bytes of im2col's column-shifted planes of a block of channels, k
# copies of each padded channel, which the second pass reads back while
# they are in cache. 512 KiB holds every channel of a reduced_config
# training chunk in one block, and 10 and 39 channels of ModelConfig()'s
# conv2 and conv3 in float32, whose im2col it sped up about 1.5x over
# unblocked planes.
SHIFT_BYTES = 512 << 10


class Scratch:
    """Buffers that repeated calls of one layer reuse, one per role.

    A call asks for an array of a role by shape. The first request
    allocates the role's buffer and later requests that fit take a view
    of it, so a loop over chunks of one size allocates nothing after its
    first chunk. Fresh arrays of a few MB land on newly mapped pages
    whenever the allocator hands them out by mmap, and every page then
    costs a fault. An array taken from a role is valid until the next
    request for that role; a larger request replaces the buffer.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def empty(self, role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized C-contiguous array of `shape`."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[role] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def canvas(self, role: str, shape: tuple[int, int, int, int], dtype) -> np.ndarray:
        """A zero-filled chunk [C,N,H,W] whose elements callers never write stay zero.

        Requests that differ only in N share the buffer, as views of its
        first N images, so every image keeps its place and its border.
        """
        buf = self._buffers.get(role)
        if (buf is None or buf.dtype != dtype or buf.shape[0] != shape[0]
                or buf.shape[1] < shape[1] or buf.shape[2:] != tuple(shape[2:])):
            buf = self._buffers[role] = np.zeros(shape, dtype=dtype)
        return buf[:, : shape[1]]


def im2col(x: np.ndarray, kernel_size: int, pad: int,
           scratch: Scratch | None = None) -> np.ndarray:
    """Unroll a chunk x [C,N,H,W] into the patch matrix [C*k*k, N*OH*OW], zero padded.

    The output is OH = H + 2*pad - k + 1 by OW likewise: H by W for the
    same-size pad k // 2, and the "valid" H - k + 1 by W - k + 1 for pad
    0. Each image's OH*OW columns come in turn, each image padded on its
    own. x is copied once into a zero-padded canvas. Then, a block of
    channels at a time, two passes of k copies fill the patch matrix: the
    first copies k column shifts of the canvas into planes
    [k,N,H+2*pad,OW] per channel, the second k row shifts of those planes,
    each image's OH rows one contiguous run. k*k copies straight from the
    canvas, each of runs of one image row, took about twice as long at a
    training chunk's shapes.
    """
    scratch = scratch or Scratch()
    c, n, h, w = x.shape
    k = kernel_size
    tall = h + 2 * pad
    out_h, out_w = tall - k + 1, w + 2 * pad - k + 1
    canvas = scratch.canvas("canvas", (c, n, tall, w + 2 * pad), x.dtype)
    cols = scratch.empty("cols", (c, k, k, n, out_h, out_w), x.dtype)
    canvas[:, :, pad : pad + h, pad : pad + w] = x
    block = max(1, min(c, SHIFT_BYTES // (k * n * tall * out_w * x.itemsize)))
    for c0 in range(0, c, block):
        part = canvas[c0 : c0 + block]
        shifts = scratch.empty("shifts", (len(part), k, n, tall, out_w), x.dtype)
        for v in range(k):
            shifts[:, v] = part[..., v : v + out_w]
        for u in range(k):
            cols[c0 : c0 + len(part), u] = shifts[:, :, :, u : u + out_h]
    return cols.reshape(c * k * k, n * out_h * out_w)


def col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kernel_size: int, pad: int,
           scratch: Scratch | None = None, *, clip: bool = True) -> np.ndarray:
    """Adjoint of im2col: scatter-add a patch matrix to the chunk `shape` [C,N,H,W].

    clip=False keeps what falls outside the frame: the result is k - 1
    wider and starts `pad` rows and columns before it.

    Each of the k*k slabs is one shifted 1-D add. A block of channels at
    a time, the slabs are copied into the top-left corner of zeroed
    planes of the unclipped size; a shift by u rows and v columns moves a
    slab's non-zero part into place, and only zeros cross into the next
    row, image or channel. Every element sums its terms in one (u, v)
    order into zeros, so its bits depend neither on its chunk nor on clip.
    """
    scratch = scratch or Scratch()
    c, n, h, w = shape
    k = kernel_size
    wide_h, wide_w = h + k - 1, w + k - 1
    slabs = cols.reshape(c, k, k, n, h, w)
    out = scratch.empty("col2im", (c, n) + ((h, w) if clip else (wide_h, wide_w)), cols.dtype)
    budget = SCATTER_BYTES // (k * k * wide_h * wide_w * cols.itemsize)
    block = max(1, budget // n)
    # room for any block's cb * n planes, no more as n shrinks: shorter chunks take views
    planes = (k * k, min(c * n, max(n, budget)), wide_h, wide_w)
    for c0 in range(0, c, block):
        part = slabs[c0 : c0 + block]
        cb = len(part)
        frame = scratch.canvas("col2im_frame", planes, cols.dtype)[:, : cb * n]
        frame.reshape(k, k, cb, n, wide_h, wide_w)[..., :h, :w] = part.transpose(1, 2, 0, 3, 4, 5)
        frame = frame.reshape(k * k, -1)
        acc = (scratch.empty("col2im_wide", planes[1:], cols.dtype)[: cb * n]
               .reshape(cb, n, wide_h, wide_w) if clip else out[c0 : c0 + cb])
        flat = acc.reshape(-1)
        flat.fill(0)
        size = flat.size
        for u in range(k):
            for v in range(k):
                shift = u * wide_w + v
                flat[shift:] += frame[u * k + v, : size - shift]
        if clip:
            out[c0 : c0 + cb] = acc[..., pad : pad + h, pad : pad + w]
    return out


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
    backward adds into the gradient buffers; the caller zeroes them.

    forward(x, return_cols=True) also returns the im2col patch matrix it
    multiplied; handing it to backward(cols=...) spares backward the
    second im2col of the same input. backward(input_grad=False) skips
    the input-gradient GEMM and its col2im, which the first conv of a
    network needs (nothing reads the gradient wrt the image). Given a
    Scratch, both compute into its buffers: backward then forms the input
    gradient's patch matrix in the buffer of forward's, which it has read.
    backward's input gradient and transpose_apply are the same operator,
    the GEMM K.T @ y scattered by col2im, so the gradient is the in-frame
    part of transpose_apply's unclipped result bit for bit. Every operand
    is a chunk [channels,N,H,W]; anything else raises ShapeError.

    The kernel gradient is `(cols @ grad.T).T`, added in place: the patch
    matrix is BLAS's first operand, untransposed. `grad @ cols.T` gives
    the same bits, but BLAS then packs the patch matrix, the large
    operand, from its transpose, which took 1.7x and 1.5x as long at
    reduced_config's conv2 and conv3 in training chunks and 1.1x at
    ModelConfig()'s. Only at ModelConfig()'s conv1, whose patch matrix
    has 25 rows, is `grad @ cols.T` faster, by about 10% of 0.7 ms.
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

    def forward(self, x: np.ndarray, *, return_cols: bool = False,
                scratch: Scratch | None = None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The output [out_channels,N,H,W] of a chunk x [C,N,H,W], and the patch matrix if asked.

        The product is one GEMM per image: one GEMM over all N*H*W columns
        can sum in another order where an image's columns do not start on
        a BLAS kernel block, and then an image's bits would depend on the
        chunk it came in.
        """
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(f"expected a chunk [{self.in_channels},N,H,W], got {x.shape}")
        scratch = scratch or Scratch()
        cols = im2col(x, self.kernel_size, self.pad, scratch)
        kmat = self._kernel_matrix
        out = scratch.empty("out", (self.out_channels, cols.shape[1]),
                            np.result_type(kmat, cols))
        n = x.shape[1]
        np.matmul(kmat, cols.reshape(len(cols), n, -1).transpose(1, 0, 2),
                  out=out.reshape(self.out_channels, n, -1).transpose(1, 0, 2))
        out += self.bias[:, None]
        out = out.reshape((self.out_channels,) + x.shape[1:])
        return (out, cols) if return_cols else out

    def backward(self, grad_out: np.ndarray, saved_input: np.ndarray, *,
                 cols: np.ndarray | None = None, input_grad: bool = True,
                 scratch: Scratch | None = None) -> np.ndarray | None:
        """Accumulate parameter gradients, return gradient wrt input.

        saved_input is the chunk [C,N,H,W] forward read; the kernel
        gradient is one GEMM over all its columns. cols: the patch matrix
        forward built from saved_input (rebuilt when None). With
        input_grad=False nothing is returned.
        """
        expected = (self.out_channels,) + saved_input.shape[1:]
        if saved_input.ndim != 4 or grad_out.shape != expected:
            raise ShapeError(f"grad_out {grad_out.shape} and input {saved_input.shape} are "
                             f"not matching chunks [{self.out_channels},N,H,W] and [C,N,H,W]")
        scratch = scratch or Scratch()
        grad_mat = grad_out.reshape(self.out_channels, -1)
        if cols is None:
            cols = im2col(saved_input, self.kernel_size, self.pad, scratch)
        # rows padded by 16 elements: read transposed with a power-of-two row
        # stride, the product took 6-7 ms to add at ModelConfig()'s conv3, not 1
        product = np.empty((len(cols), self.out_channels + 16), np.result_type(cols, grad_mat))
        product = np.matmul(cols, grad_mat.T, out=product[:, : self.out_channels])
        grad_kernels = self.grad_kernels.reshape(self.out_channels, -1)
        grad_kernels += product.T
        self.grad_bias += grad_out.sum(axis=(1, 2, 3))
        if not input_grad:
            return None
        kt = self._kernel_matrix.T
        grad_cols = np.matmul(kt, grad_mat, out=scratch.empty(
            "cols", (len(kt), grad_mat.shape[1]), np.result_type(kt, grad_mat)))
        return col2im(grad_cols, saved_input.shape, self.kernel_size, self.pad, scratch)

    def transpose_apply(self, y: np.ndarray, maps: slice = slice(None)) -> np.ndarray:
        """Pure operator transpose (no bias, no gradient accumulation), unclipped.

        Maps an output-shaped chunk [out_channels,N,H,W] back to input
        space, keeping what falls outside y's frame: the result
        [in_channels,N,H+k-1,W+k-1] starts k // 2 rows and columns before
        y's frame. This is the deconvolution building block. Given `maps`,
        y holds only those output maps, the others count as zero, and only
        their kernels are read.

        This is the GEMM K.T @ y and one col2im, the scatter that also
        forms backward's input gradient, so the result's in-frame part
        [..., k//2 : k//2 + H, k//2 : k//2 + W] is that gradient bit for bit.
        """
        kmat = self._kernel_matrix[maps]
        if y.ndim != 4 or y.shape[0] != len(kmat):
            raise ShapeError(f"expected an output-shaped chunk [{len(kmat)},N,H,W], "
                             f"got {y.shape}")
        cols = kmat.T @ y.reshape(len(kmat), -1)
        return col2im(cols, (self.in_channels,) + y.shape[1:], self.kernel_size, self.pad,
                      clip=False)


class FCLayer:
    """Fully connected layer: y = W x + b.

    forward and backward take N stacked rows ([N, in] input, [N, out]
    gradient), a sample as a row of one; anything else raises ShapeError.
    Rows run as one GEMM each: the forward x @ W.T, the input gradient
    grad_out @ W and the weight gradient grad_out.T @ saved_input. The
    weight gradient is formed tile by tile, at most BLOCK_ELEMENTS at a
    time, by weight_grad_tiles, so no temporary the size of the weights
    is built; backward adds each tile into grad_weights. param_grads=False
    leaves out the weight and bias gradients: the trainer takes only fc1's
    input gradient per head pass, and model.sgd_step applies fc1's weight
    gradient tiles to the weights as they are formed, once per batch from
    the stacked rows, so training never writes fc1's grad_weights.
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"expected rows [N, {self.in_features}], got {x.shape}")
        return x @ self.weights.T + self.bias

    def backward(self, grad_out: np.ndarray, saved_input: np.ndarray, *,
                 param_grads: bool = True) -> np.ndarray:
        """Accumulate parameter gradients, return gradient wrt input [N, in]."""
        if (saved_input.ndim != 2 or saved_input.shape[1] != self.in_features
                or grad_out.shape != (len(saved_input), self.out_features)):
            raise ShapeError(f"grad_out {grad_out.shape} and input {saved_input.shape} are not "
                             f"rows [N, {self.out_features}] and [N, {self.in_features}]")
        if param_grads:
            self.grad_bias += grad_out.sum(axis=0)
            for index, tile in self.weight_grad_tiles(grad_out, saved_input):
                self.grad_weights[index] += tile
        return grad_out @ self.weights

    def weight_grad_tiles(self, grad_rows: np.ndarray, input_rows: np.ndarray):
        """The weight gradient grad_rows.T @ input_rows as (index, tile) pairs.

        grad_rows [N, out] and input_rows [N, in]; index is a (rows, cols)
        pair of slices into the weights and tile is
        grad_rows[:, rows].T @ input_rows[:, cols], of at most
        BLOCK_ELEMENTS, computed into one buffer that the next tile
        overwrites. The tiles cover the weights once, in the same order and
        with the same GEMM shapes on every call.
        """
        cols = min(self.in_features, BLOCK_ELEMENTS // _FC_TILE_ROWS)
        rows = max(1, BLOCK_ELEMENTS // cols)
        buffer = np.empty(rows * cols, dtype=np.result_type(grad_rows, input_rows))
        for c0 in range(0, self.in_features, cols):
            x_slab = input_rows[:, c0 : c0 + cols]
            for r0 in range(0, self.out_features, rows):
                g_slab = grad_rows[:, r0 : r0 + rows]
                tile = buffer[: g_slab.shape[1] * x_slab.shape[1]].reshape(g_slab.shape[1], -1)
                yield ((slice(r0, r0 + rows), slice(c0, c0 + cols)),
                       np.matmul(g_slab.T, x_slab, out=tile))


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu_backward(grad_out: np.ndarray, saved_input: np.ndarray) -> np.ndarray:
    # gradient at exactly 0 is defined as 0
    return np.where(saved_input > 0, grad_out, 0)


@dataclass
class SwitchRecord:
    """Where each 2x2 window's maximum sits, recorded by maxpool_forward.

    index holds, per pooled position, the flat index of the window's
    argmax into the pre-pool activation of shape input_shape; ties are
    broken toward the smallest row-major index so unpooling is
    reproducible.
    """

    index: np.ndarray
    input_shape: tuple[int, ...]

    @property
    def pooled_shape(self) -> tuple[int, ...]:
        return self.index.shape


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


def maxpool_forward(x: np.ndarray,
                    scratch: Scratch | None = None) -> tuple[np.ndarray, SwitchRecord]:
    """2x2 max pool of x [C,H,W] or [C,N,H,W]; odd extents are padded with -inf (never selected).

    The maximum is taken over the four strided views of the window
    corners; the switch is the first corner, in row-major order, that
    holds it.
    """
    top_left, top_right, bottom_left, bottom_right = _window_corners(x)
    shape = top_left.shape
    scratch = scratch or Scratch()

    def take(role, dtype):
        return scratch.empty(role, shape, dtype)

    top = np.maximum(top_left, top_right, out=take("pool_top", x.dtype))
    bottom = np.maximum(bottom_left, bottom_right, out=take("pool_bottom", x.dtype))
    out = np.maximum(top, bottom, out=take("pooled", x.dtype))
    in_bottom = np.less(top, out, out=take("in_bottom", bool))
    # in_right = the right corner holds its row's maximum, in the row in_bottom picks;
    # whole-array boolean ops, as masked ufuncs and np.where run several times slower
    in_right = np.less(top_left, top, out=take("in_right", bool))
    right_below = np.less(bottom_left, bottom, out=take("right_below", bool))
    right_below ^= in_right
    right_below &= in_bottom
    in_right ^= right_below
    # flat index of (2i + in_bottom, 2j + in_right), plus its [H,W] plane's offset
    h, w = x.shape[-2:]
    oh, ow = shape[-2:]
    index = np.multiply(in_bottom, w, out=take("switch", np.intp))
    index += in_right
    index += (np.arange(oh, dtype=np.intp) * (2 * w))[:, None] + np.arange(0, 2 * ow, 2)
    planes = index.reshape(-1, oh * ow)
    planes += (np.arange(len(planes), dtype=np.intp) * (h * w))[:, None]
    return out, SwitchRecord(index, x.shape)


def maxpool_backward(grad_out: np.ndarray, switches: SwitchRecord,
                     pooled: np.ndarray | None = None,
                     scratch: Scratch | None = None) -> np.ndarray:
    """Route each output gradient to its argmax location; zeros elsewhere.

    With `pooled`, this pool's output, it is also the backward of a ReLU
    in front of the pool: only gradients whose pooled value is > 0 pass.
    The pooled value is the ReLU's output at the switch, so this equals
    relu_backward(maxpool_backward(grad_out), relu_input) bit for bit, at
    pooled resolution.
    """
    if grad_out.shape != switches.pooled_shape:
        raise ShapeError(
            f"shape {grad_out.shape} does not match switch record {switches.pooled_shape}")
    if pooled is not None:
        grad_out = np.where(pooled > 0, grad_out, 0)
    out = (scratch or Scratch()).empty("pool_grad", switches.input_shape, grad_out.dtype)
    out.fill(0)
    out.reshape(-1)[switches.index] = grad_out
    return out


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
