import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from auprobe import layers
from auprobe.layers import (
    ConvLayer,
    FCLayer,
    Scratch,
    ShapeError,
    SwitchRecord,
    col2im,
    dropout_mask,
    im2col,
    maxpool_backward,
    maxpool_forward,
    maxpool_values,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)

from oracles import (
    central_difference,
    col2im_transposed,
    conv_direct,
    gaussian_init_one_draw,
    im2col_transposed,
    inner_product,
    maxpool_argmax,
    maxpool_direct,
    relative_error,
    softmax_ce_direct,
    switch_coords,
    transpose_in_frame,
)


def make_conv(in_c, out_c, k=5, seed=0):
    return ConvLayer(in_c, out_c, k, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------- conv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_equals_one_draw(dtype):
    # fc holds 3 x 30000 = 90000 weights: one full draw block and a partial one
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    conv = ConvLayer(3, 4, 5, rng=rng, dtype=dtype)
    fc = FCLayer(30000, 3, rng=rng, dtype=dtype)
    paper = FCLayer(7, 2, rng=rng, init_mode="paper", dtype=dtype)
    expected = [
        (conv.kernels, gaussian_init_one_draw(ref, (4, 3, 5, 5), 1.0 / np.sqrt(75), dtype)),
        (fc.weights, gaussian_init_one_draw(ref, (3, 30000), 1.0 / np.sqrt(30000), dtype)),
        (paper.weights, gaussian_init_one_draw(ref, (2, 7), 1.0, dtype)),
    ]
    for got, want in expected:
        assert got.dtype == dtype
        assert np.array_equal(got, want)
    # the generator is left where the one-draw init leaves it
    assert rng.random() == ref.random()


@pytest.mark.parametrize("k,corner", [(3, 4), (5, 9)])
def test_conv_all_ones_kernel_counts_overlap(k, corner):
    # all-ones input and kernel turn convolution into overlap counting;
    # expected values frozen from the direct-summation oracle (a 5x5
    # window at the corner of a 3x3 image still covers all 9 pixels)
    layer = ConvLayer(1, 1, k)
    layer.kernels[...] = 1.0
    x = np.ones((1, 3, 3))
    out = layer.forward(x[:, None])[:, 0]
    np.testing.assert_array_equal(out, conv_direct(x, layer.kernels, layer.bias))
    assert out[0, 1, 1] == 9
    assert out[0, 0, 0] == corner


def test_conv_identity_kernel():
    layer = ConvLayer(1, 1, 5)
    layer.kernels[0, 0, 2, 2] = 1.0
    x = np.random.default_rng(1).normal(size=(1, 1, 6, 6))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_conv_zero_kernels_bias_only():
    layer = ConvLayer(2, 3, 5)
    layer.bias[...] = [1.0, -2.0, 0.5]
    out = layer.forward(np.random.default_rng(2).normal(size=(2, 1, 4, 4)))
    for o, b in enumerate(layer.bias):
        np.testing.assert_array_equal(out[o], np.full((1, 4, 4), b))


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        make_conv(3, 4).forward(np.zeros((2, 2, 6, 6)))
    with pytest.raises(ShapeError):
        make_conv(3, 4).forward(np.zeros((3, 1, 2, 6, 6)))


@pytest.mark.parametrize("in_c,out_c,h,w,k", [(1, 1, 3, 3, 5), (2, 3, 5, 4, 5), (3, 2, 4, 6, 3)])
def test_conv_matches_direct_summation(in_c, out_c, h, w, k):
    rng = np.random.default_rng(42)
    layer = ConvLayer(in_c, out_c, k, rng=rng)
    layer.bias[...] = rng.normal(size=out_c)
    x = rng.normal(size=(in_c, h, w))
    np.testing.assert_allclose(layer.forward(x[:, None])[:, 0],
                               conv_direct(x, layer.kernels, layer.bias), rtol=1e-12, atol=1e-12)


def test_conv_adjoint_identity():
    rng = np.random.default_rng(7)
    layer = ConvLayer(2, 3, 5, rng=rng)  # zero bias by default
    for _ in range(100):
        x = rng.normal(size=(2, 1, 8, 8))
        y = rng.normal(size=(3, 1, 8, 8))
        lhs = inner_product(layer.forward(x), y)
        rhs = inner_product(x, transpose_in_frame(layer, y))
        denom = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) / denom < 1e-10


def test_conv_backward_zero_grad_out():
    layer = make_conv(2, 3)
    x = np.random.default_rng(3).normal(size=(2, 1, 6, 6))
    grad_in = layer.backward(np.zeros((3, 1, 6, 6)), x)
    assert not grad_in.any()
    assert not layer.grad_kernels.any()
    assert not layer.grad_bias.any()


def test_conv_backward_matches_transpose():
    rng = np.random.default_rng(4)
    layer = ConvLayer(2, 3, 5, rng=rng)
    x = rng.normal(size=(2, 1, 6, 6))
    g = rng.normal(size=(3, 1, 6, 6))
    assert layer.backward(g, x).tobytes() == transpose_in_frame(layer, g).tobytes()


def test_conv_kernel_gradient_finite_difference():
    rng = np.random.default_rng(5)
    layer = ConvLayer(1, 1, 5, rng=rng)
    x = rng.normal(size=(1, 1, 4, 4))
    target = rng.normal(size=(1, 1, 4, 4))  # loss = <target, conv(x)>

    def loss():
        return inner_product(target, layer.forward(x))

    layer.backward(target, x)
    for index in np.ndindex(layer.kernels.shape):
        fd = central_difference(loss, layer.kernels, index)
        assert relative_error(layer.grad_kernels[index], fd) < 1e-4


def test_conv_input_gradient_finite_difference():
    rng = np.random.default_rng(6)
    layer = ConvLayer(2, 2, 3, rng=rng)
    x = rng.normal(size=(2, 1, 4, 4))
    target = rng.normal(size=(2, 1, 4, 4))
    grad_in = layer.backward(target, x)

    def loss():
        return inner_product(target, layer.forward(x))

    for index in np.ndindex(x.shape):
        fd = central_difference(loss, x, index)
        assert relative_error(grad_in[index], fd) < 1e-4


# The patch-matrix layout changed from [H*W, C*k*k] to [C*k*k, H*W]; conv
# results must still equal those of the earlier kernels (tests/oracles.py).
# in_c, out_c, h, w, k: the conv stages of reduced_config and ModelConfig()
MODEL_GEOMETRIES = [
    (1, 8, 48, 48, 5), (8, 16, 24, 24, 5), (16, 32, 12, 12, 5),
    (1, 64, 96, 96, 5), (64, 128, 48, 48, 5), (128, 256, 24, 24, 5),
]
# odd and tiny extents, down to images smaller than the kernel
ODD_GEOMETRIES = [(3, 4, 7, 5, 5), (2, 3, 5, 9, 3), (2, 2, 3, 3, 5), (1, 2, 1, 2, 5)]


def _conv_case(dtype, in_c, out_c, h, w, k):
    rng = np.random.default_rng(in_c * 100 + h)
    layer = ConvLayer(in_c, out_c, k, rng=rng, dtype=dtype)
    layer.bias[...] = rng.normal(size=out_c)
    x = rng.normal(size=(in_c, h, w)).astype(dtype)
    g = rng.normal(size=(out_c, h, w)).astype(dtype)
    return layer, layer.kernels.reshape(out_c, -1), x, g


def _forward_reference(layer, kmat, x):
    ref = im2col_transposed(x, layer.kernel_size, layer.pad) @ kmat.T
    ref += layer.bias
    return ref.T.reshape(layer.out_channels, *x.shape[1:])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES + ODD_GEOMETRIES)
def test_im2col_col2im_equal_transposed_layout(dtype, geometry):
    in_c, _, h, w, k = geometry
    rng = np.random.default_rng(h * w)
    x = rng.normal(size=(in_c, h, w)).astype(dtype)
    cols = im2col(x[:, None], k, k // 2)
    assert cols.flags.c_contiguous and cols.dtype == dtype
    np.testing.assert_array_equal(cols, im2col_transposed(x, k, k // 2).T)
    patches = rng.normal(size=cols.shape).astype(dtype)
    np.testing.assert_array_equal(col2im(patches, (in_c, 1, h, w), k, k // 2)[:, 0],
                                  col2im_transposed(patches.T, x.shape, k, k // 2))
    # a chunk [C,N,H,W] gives each image's patch matrix in turn
    xs = np.stack([x, rng.normal(size=x.shape).astype(dtype)], axis=1)
    chunk = im2col(xs, k, k // 2)
    assert chunk.flags.c_contiguous and chunk.shape == (len(cols), 2 * h * w)
    for i in range(2):
        np.testing.assert_array_equal(chunk.reshape(len(cols), 2, -1)[:, i],
                                      im2col(xs[:, i : i + 1], k, k // 2))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES)
def test_conv_forward_equals_transposed_layout(dtype, geometry):
    layer, kmat, x, _ = _conv_case(dtype, *geometry)
    out, _ = layer.forward(x[:, None], return_cols=True)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out[:, 0], _forward_reference(layer, kmat, x))
    np.testing.assert_array_equal(layer.forward(x[:, None]), out)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES + ODD_GEOMETRIES)
def test_conv_chunk_forward_equals_stacked_images(dtype, geometry):
    # one GEMM over the whole chunk sums odd extents in another order on
    # OpenBLAS; the chunk must still give every image its own bits
    layer, _, x, _ = _conv_case(dtype, *geometry)
    xs = np.stack([x, -x[:, ::-1]], axis=1)
    out, cols = layer.forward(xs, return_cols=True)
    assert out.shape == (layer.out_channels,) + xs.shape[1:] and out.dtype == dtype
    np.testing.assert_array_equal(cols, im2col(xs, layer.kernel_size, layer.pad))
    kmat = layer.kernels.reshape(layer.out_channels, -1)
    for i in range(xs.shape[1]):
        np.testing.assert_array_equal(out[:, i : i + 1], layer.forward(xs[:, i : i + 1]))
        # the bits of one plain 2-D GEMM over the image's own patch matrix
        alone = kmat @ im2col(xs[:, i : i + 1], layer.kernel_size, layer.pad)
        alone += layer.bias[:, None]
        np.testing.assert_array_equal(out[:, i], alone.reshape(out[:, i].shape))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", ODD_GEOMETRIES)
def test_conv_forward_odd_extents_within_summation_bound(dtype, geometry):
    # K @ cols and (cols.T @ K.T).T reach different BLAS kernels; when H*W
    # is not a multiple of the SIMD width they may sum in another order,
    # so here the two may differ by the rounding bound of a length-n dot.
    layer, kmat, x, _ = _conv_case(dtype, *geometry)
    cols = im2col_transposed(x, layer.kernel_size, layer.pad).T
    n = kmat.shape[1] + 1
    bound = n * np.finfo(dtype).eps * (np.abs(kmat) @ np.abs(cols) + np.abs(layer.bias)[:, None])
    diff = np.abs(layer.forward(x[:, None])[:, 0] - _forward_reference(layer, kmat, x))
    assert (diff.reshape(bound.shape) <= bound).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES + ODD_GEOMETRIES)
def test_conv_gradients_equal_transposed_layout(dtype, geometry):
    layer, kmat, x, g = _conv_case(dtype, *geometry)
    k, pad = layer.kernel_size, layer.pad
    ref_cols = im2col_transposed(x, k, pad)
    grad_mat = g.reshape(layer.out_channels, -1)
    ref_kernels = (grad_mat @ ref_cols).reshape(layer.kernels.shape)
    ref_bias = g.sum(axis=(1, 2))
    ref_input = col2im_transposed(grad_mat.T @ kmat, x.shape, k, pad)

    grad_in = layer.backward(g[:, None], x[:, None])
    np.testing.assert_array_equal(grad_in[:, 0], ref_input)
    np.testing.assert_array_equal(layer.grad_kernels, ref_kernels)
    np.testing.assert_array_equal(layer.grad_bias, ref_bias)
    np.testing.assert_array_equal(transpose_in_frame(layer, g[:, None])[:, 0], ref_input)

    # unclipped, it is the same-size transpose of g zero-padded by k // 2
    padded = np.pad(g, ((0, 0), (pad, pad), (pad, pad)))
    ref_unclipped = col2im_transposed(padded.reshape(layer.out_channels, -1).T @ kmat,
                                      (layer.in_channels,) + padded.shape[1:], k, pad)
    np.testing.assert_array_equal(layer.transpose_apply(g[:, None])[:, 0], ref_unclipped)

    # the forward's patch matrix, and no input gradient, give the same parameter gradients
    layer.grad_kernels[...] = 0
    layer.grad_bias[...] = 0
    _, cols = layer.forward(x[:, None], return_cols=True)
    assert layer.backward(g[:, None], x[:, None], cols=cols, input_grad=False) is None
    np.testing.assert_array_equal(layer.grad_kernels, ref_kernels)
    np.testing.assert_array_equal(layer.grad_bias, ref_bias)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES + ODD_GEOMETRIES)
def test_chunk_col2im_equals_per_image(dtype, geometry):
    # a chunk [C,N,H,W] sums each element's k*k terms in a single image's
    # order, clipped or not, whatever chunks ran on the scratch before it
    in_c, _, h, w, k = geometry
    rng = np.random.default_rng(h * w + 1)
    patches = rng.normal(size=(in_c * k * k, 3, h * w)).astype(dtype)
    for clip in (True, False):
        frame = (h, w) if clip else (h + k - 1, w + k - 1)
        fresh = [col2im(np.ascontiguousarray(patches[:, i]), (in_c, 1, h, w), k, k // 2,
                        clip=clip)[:, 0] for i in range(3)]
        assert all(image.shape == (in_c,) + frame for image in fresh)
        # a smaller chunk, or a repeated one, takes views of the first
        # chunk's buffers, its slab frame a non-contiguous one
        scratch = Scratch()
        first = buffers = None
        for n in (3, 2, 1, 3, 3):
            chunk_cols = np.ascontiguousarray(patches[:, :n]).reshape(len(patches), -1)
            chunk = col2im(chunk_cols, (in_c, n, h, w), k, k // 2, scratch, clip=clip)
            assert chunk.shape == (in_c, n) + frame and chunk.dtype == dtype
            for i in range(n):
                assert chunk[:, i].tobytes() == fresh[i].tobytes()
            if first is None:
                first, buffers = chunk, dict(scratch._buffers)
                roles = {"col2im", "col2im_frame"} | ({"col2im_wide"} if clip else set())
                assert buffers.keys() == roles
            assert np.shares_memory(chunk, first)
            assert scratch._buffers.keys() == buffers.keys()
            assert all(scratch._buffers[role] is buf for role, buf in buffers.items())


@pytest.mark.parametrize("clip", [True, False])
def test_col2im_blocks_of_channels(monkeypatch, clip):
    # a frame budget of 3 channels' slabs splits 8 channels into blocks
    # of 3, 3 and 2; the sums do not depend on the blocks
    in_c, n, h, w, k = 8, 2, 7, 6, 5
    patches = np.random.default_rng(11).normal(size=(in_c * k * k, n * h * w))
    whole = col2im(patches, (in_c, n, h, w), k, k // 2, clip=clip)
    channel_frame = k * k * n * (h + k - 1) * (w + k - 1) * patches.itemsize
    assert layers.SCATTER_BYTES >= in_c * channel_frame
    monkeypatch.setattr(layers, "SCATTER_BYTES", 3 * channel_frame + 1)
    scratch = Scratch()
    blocked = col2im(patches, (in_c, n, h, w), k, k // 2, scratch, clip=clip)
    assert scratch._buffers["col2im_frame"].shape[:2] == (k * k, 3 * n)
    assert blocked.tobytes() == whole.tobytes()
    if clip:
        for i in range(n):
            image = np.ascontiguousarray(patches.reshape(len(patches), n, -1)[:, i])
            np.testing.assert_array_equal(
                blocked[:, i], col2im_transposed(image.T, (in_c, h, w), k, k // 2))


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_im2col_blocks_and_chunks_equal_transposed_layout(monkeypatch, k):
    # a shift budget of 3 channels' planes of 3 images splits 8 channels
    # into blocks of 3, 3 and 2, and 2 images into blocks of 4; extents
    # down to one pixel, narrower than the padding, and chunks of every
    # size on one Scratch, whose canvas must keep its zero border
    in_c, pad = 8, k // 2
    rng = np.random.default_rng(k)
    for h, w in [(1, 1), (1, 2), (2, 1), (3, 4), (7, 6)]:
        monkeypatch.setattr(layers, "SHIFT_BYTES", 3 * k * 3 * (h + 2 * pad) * w * 8 + 1)
        scratch = Scratch()
        for n in (3, 2, 1, 3):
            xs = rng.normal(size=(in_c, n, h, w))
            cols = im2col(xs, k, pad, scratch).reshape(in_c * k * k, n, h * w)
            for i in range(n):
                np.testing.assert_array_equal(cols[:, i], im2col_transposed(xs[:, i], k, pad).T)


# one image at ModelConfig(), a training chunk of 2 and a harvest chunk of 9 at reduced_config
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry, n", [(g, n) for g in MODEL_GEOMETRIES[:3] for n in (2, 9)]
                         + [(g, 1) for g in MODEL_GEOMETRIES[3:]])
def test_chunk_kernel_gradient_equals_transposed_operand(dtype, geometry, n):
    # (cols @ grad.T).T, the backward's kernel gradient, has the bits of
    # grad @ cols.T, from forward's patch matrix or from backward's own
    in_c, out_c, h, w, k = geometry
    rng = np.random.default_rng(in_c + n)
    layer = ConvLayer(in_c, out_c, k, rng=rng, dtype=dtype)
    xs = rng.normal(size=(in_c, n, h, w)).astype(dtype)
    g = rng.normal(size=(out_c, n, h, w)).astype(dtype)
    _, kept = layer.forward(xs, return_cols=True)
    grad_mat = g.reshape(out_c, -1)
    want = (grad_mat @ im2col(xs, k, k // 2).T).reshape(layer.kernels.shape)
    for cols in (kept, None):
        layer.grad_kernels[...] = 0
        layer.backward(g, xs, cols=cols, input_grad=False)
        np.testing.assert_array_equal(layer.grad_kernels, want)


def _assert_fused_backward_equals_two_steps(conv_out, grad):
    """maxpool_backward with the pooled values equals relu then pool backward, per image."""
    pooled, switches = maxpool_forward(relu_forward(conv_out), Scratch())
    fused = maxpool_backward(grad, switches, pooled, Scratch())
    assert fused.shape == conv_out.shape and fused.dtype == conv_out.dtype
    for i in range(conv_out.shape[1]):
        image = np.ascontiguousarray(conv_out[:, i])
        image_pooled, image_switches = maxpool_forward(relu_forward(image))
        assert pooled[:, i].tobytes() == image_pooled.tobytes()
        for got, want in zip(switch_coords(switches), switch_coords(image_switches)):
            np.testing.assert_array_equal(got[:, i], want)
        two_steps = relu_backward(maxpool_backward(grad[:, i], image_switches), image)
        assert fused[:, i].tobytes() == two_steps.tobytes()  # signed zeros included


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", MODEL_GEOMETRIES + ODD_GEOMETRIES)
def test_fused_relu_pool_backward_equals_two_steps(dtype, geometry):
    _, out_c, h, w, _ = geometry
    rng = np.random.default_rng(out_c + h)
    # one decimal: ties inside windows; clipped: zeros and whole windows at zero
    conv_out = np.round(np.maximum(rng.normal(size=(out_c, 2, h, w)), -0.3), 1).astype(dtype)
    grad = rng.normal(size=(out_c, 2, (h + 1) // 2, (w + 1) // 2)).astype(dtype)
    grad[rng.random(grad.shape) < 0.1] = -0.0
    _assert_fused_backward_equals_two_steps(conv_out, grad)


@given(
    st.sampled_from([np.float64, np.float32]).flatmap(
        lambda dtype: st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
                                st.integers(1, 9)).flatmap(
            lambda shape: st.tuples(
                hnp.arrays(dtype, shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])),
                hnp.arrays(dtype, shape[:2] + ((shape[2] + 1) // 2, (shape[3] + 1) // 2),
                           elements=st.sampled_from([-2.0, -0.0, 0.0, 3.0])),
            )
        )
    )
)
@settings(max_examples=150)
def test_fused_relu_pool_backward_ties_and_zeros(case):
    _assert_fused_backward_equals_two_steps(*case)


# ---------------------------------------------------------------- relu


def test_relu_definition():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu_forward(x), [0, 0, 2])
    np.testing.assert_array_equal(relu_backward(np.array([5.0, 5.0, 5.0]), x), [0, 0, 5])


def test_relu_identity_on_positive():
    x = np.abs(np.random.default_rng(0).normal(size=(3, 3))) + 0.1
    np.testing.assert_array_equal(relu_forward(x), x)


# ---------------------------------------------------------------- maxpool


def test_maxpool_hand_window():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    out, sw = maxpool_forward(x)
    assert out[0, 0, 0] == 4
    rows, cols = switch_coords(sw)
    assert (rows[0, 0, 0], cols[0, 0, 0]) == (1, 1)


def test_maxpool_tie_rule_first_window_position():
    x = np.ones((1, 4, 4))
    out, sw = maxpool_forward(x)
    np.testing.assert_array_equal(out, np.ones((1, 2, 2)))
    rows, cols = switch_coords(sw)
    np.testing.assert_array_equal(rows[0], [[0, 0], [2, 2]])
    np.testing.assert_array_equal(cols[0], [[0, 2], [0, 2]])


def test_maxpool_ramp_matches_scan():
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    out, _ = maxpool_forward(x)
    np.testing.assert_array_equal(out, maxpool_direct(x))


def test_maxpool_odd_extent_padding_never_selected():
    x = -np.arange(1, 10, dtype=float).reshape(1, 3, 3)
    out, sw = maxpool_forward(x)
    np.testing.assert_array_equal(out, maxpool_direct(x))
    rows, cols = switch_coords(sw)
    assert rows.max() < 3 and cols.max() < 3


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(2, 9)),
        elements=st.floats(-100, 100),
    )
)
@settings(max_examples=80)
def test_maxpool_matches_window_scan(x):
    out, sw = maxpool_forward(x)
    np.testing.assert_array_equal(out, maxpool_direct(x))
    # switches index the attained max
    c, oh, ow = out.shape
    rows, cols = switch_coords(sw)
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                assert x[ch, rows[ch, i, j], cols[ch, i, j]] == out[ch, i, j]


def _assert_pool_equals_argmax(x):
    out, sw = maxpool_forward(x)
    ref, rows, cols = maxpool_argmax(x)
    assert out.dtype == x.dtype
    np.testing.assert_array_equal(out, ref)
    assert maxpool_values(x).tobytes() == out.tobytes()
    for got, want in zip(switch_coords(sw), (rows, cols)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(3, 8, 8), (2, 7, 5), (1, 1, 1), (4, 6, 9), (8, 48, 48)])
def test_maxpool_equals_argmax_reference(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    _assert_pool_equals_argmax(rng.normal(size=shape).astype(dtype))
    # all-equal windows: every switch is the window's top-left corner
    _assert_pool_equals_argmax(np.full(shape, 2.5, dtype=dtype))
    _assert_pool_equals_argmax(np.full(shape, -np.inf, dtype=dtype))


@given(
    st.sampled_from([np.float64, np.float32]).flatmap(
        lambda dtype: hnp.arrays(
            dtype,
            st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
            elements=st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]),
        )
    )
)
@settings(max_examples=150)
def test_maxpool_ties_and_infinities_equal_argmax_reference(x):
    _assert_pool_equals_argmax(x)


@given(
    st.sampled_from([np.float64, np.float32]).flatmap(
        lambda dtype: hnp.arrays(
            dtype,
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
                      st.integers(1, 9)),
            elements=st.sampled_from([np.nan, -np.nan, -np.inf, -1.0, -0.0, 0.0, 2.5,
                                      np.inf]),
        )
    )
)
@settings(max_examples=150)
def test_maxpool_values_are_maxpool_forward_bits(xs):
    # a chunk [C,N,H,W] pools each image as maxpool_forward does, NaN
    # payloads and signed zeros included, odd extents padded alike
    pooled = maxpool_values(xs)
    assert pooled.dtype == xs.dtype
    for i in range(xs.shape[1]):
        image = np.ascontiguousarray(xs[:, i])
        assert pooled[:, i].tobytes() == maxpool_forward(image)[0].tobytes()
        assert maxpool_values(image).tobytes() == pooled[:, i].tobytes()


def test_maxpool_backward_routes_single_value():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    _, sw = maxpool_forward(x)
    grad_in = maxpool_backward(np.array([[[1.0]]]), sw)
    np.testing.assert_array_equal(grad_in, [[[0, 0], [0, 1]]])


def test_maxpool_backward_zero():
    _, sw = maxpool_forward(np.random.default_rng(0).normal(size=(2, 4, 4)))
    assert not maxpool_backward(np.zeros((2, 2, 2)), sw).any()


def test_maxpool_backward_stale_record_rejected():
    _, sw = maxpool_forward(np.zeros((1, 4, 4)))
    with pytest.raises(ShapeError):
        maxpool_backward(np.zeros((1, 3, 3)), sw)


def test_pool_unpool_pool_roundtrip_nonnegative():
    # pooling sits after ReLU in the network, so inputs are nonnegative;
    # with signed values the zeros introduced by unpooling could win
    rng = np.random.default_rng(8)
    x = np.abs(rng.normal(size=(3, 6, 8)))
    pooled, sw = maxpool_forward(x)
    again, _ = maxpool_forward(maxpool_backward(pooled, sw))
    np.testing.assert_array_equal(pooled, again)


def test_unpool_places_only_at_switches():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 4, 4))
    pooled, sw = maxpool_forward(x)
    up = maxpool_backward(pooled, sw)
    assert np.count_nonzero(up) <= pooled.size
    chan = np.arange(2)[:, None, None]
    np.testing.assert_array_equal(up[(chan, *switch_coords(sw))], pooled)


# ---------------------------------------------------------------- fc


def test_fc_forward_hand():
    layer = FCLayer(2, 2)
    layer.weights[...] = [[1.0, 2.0], [3.0, 4.0]]
    layer.bias[...] = [10.0, 20.0]
    np.testing.assert_array_equal(layer.forward(np.array([[1.0, 1.0]])), [[13, 27]])


def test_fc_gradient_finite_difference():
    rng = np.random.default_rng(10)
    layer = FCLayer(5, 3, rng=rng)
    x = rng.normal(size=(1, 5))
    target = rng.normal(size=(1, 3))
    grad_in = layer.backward(target, x)

    def loss():
        return inner_product(target, layer.forward(x))

    for index in np.ndindex(layer.weights.shape):
        fd = central_difference(loss, layer.weights, index)
        assert relative_error(layer.grad_weights[index], fd) < 1e-4
    for index in np.ndindex(x.shape):
        fd = central_difference(loss, x, index)
        assert relative_error(grad_in[index], fd) < 1e-4


def _within_sum_bound(got, exact, terms, abs_sum, dtype):
    """|got - exact| <= terms * eps * abs_sum: the rounding bound of a length-terms sum."""
    return (np.abs(got - exact) <= terms * np.finfo(dtype).eps * abs_sum).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n, out_f, in_f", [(1, 3, 5), (7, 40, 5000), (16, 128, 1152)])
def test_fc_backward_rows_equal_sum_of_outer_products(dtype, n, out_f, in_f):
    # (7, 40, 5000) spans several tiles in both directions, partial ones included
    rng = np.random.default_rng(n)
    layer = FCLayer(in_f, out_f, rng=rng, dtype=dtype)
    g = rng.normal(size=(n, out_f)).astype(dtype)
    x = rng.normal(size=(n, in_f)).astype(dtype)
    start = rng.normal(size=layer.grad_weights.shape).astype(dtype)
    layer.grad_weights[...] = start
    grad_in = layer.backward(g, x)
    g64, x64, w64 = g.astype(np.float64), x.astype(np.float64), layer.weights.astype(np.float64)
    expected = start.astype(np.float64)
    for i in range(n):
        expected += np.outer(g64[i], x64[i])
    assert _within_sum_bound(layer.grad_weights, expected, n + 1,
                             np.abs(g64).T @ np.abs(x64) + np.abs(start), dtype)
    assert _within_sum_bound(layer.grad_bias, g64.sum(axis=0), n,
                             np.abs(g64).sum(axis=0), dtype)
    assert grad_in.shape == x.shape
    for i in range(n):
        assert _within_sum_bound(grad_in[i], w64.T @ g64[i], out_f,
                                 np.abs(w64).T @ np.abs(g64[i]), dtype)


def test_fc_backward_one_sample_is_exact_outer_product():
    rng = np.random.default_rng(12)
    layer = FCLayer(5000, 40, rng=rng)
    g, x = rng.normal(size=(1, 40)), rng.normal(size=(1, 5000))
    grad_in = layer.backward(g, x)
    assert np.array_equal(layer.grad_weights, np.outer(g, x))
    assert np.array_equal(layer.grad_bias, g[0])
    assert np.array_equal(grad_in[0], layer.weights.T @ g[0])


def test_fc_backward_skips_what_is_switched_off():
    rng = np.random.default_rng(13)
    layer = FCLayer(6, 4, rng=rng)
    g, x = rng.normal(size=(3, 4)), rng.normal(size=(3, 6))
    grad_in = layer.backward(g, x, param_grads=False)
    assert not layer.grad_weights.any() and not layer.grad_bias.any()
    np.testing.assert_allclose(grad_in, g @ layer.weights, rtol=1e-15)
    assert layer.backward(g, x).tobytes() == grad_in.tobytes()
    assert layer.grad_weights.any() and layer.grad_bias.any()


@pytest.mark.parametrize("g_shape, x_shape", [((4,), (3, 6)), ((3, 4), (2, 6)),
                                              ((3, 5), (3, 6)), ((1, 3, 4), (1, 3, 6))])
def test_fc_backward_shape_mismatch(g_shape, x_shape):
    layer = FCLayer(6, 4)
    with pytest.raises(ShapeError):
        layer.backward(np.zeros(g_shape), np.zeros(x_shape))


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_logits():
    k = 5
    loss, grad = softmax_cross_entropy(np.zeros(k), 2)
    assert abs(loss - np.log(k)) < 1e-12
    expected = np.full(k, 1.0 / k)
    expected[2] -= 1.0
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_softmax_confident_correct():
    loss, grad = softmax_cross_entropy(np.array([10.0, -10.0]), 0)
    assert 0 < loss < 1e-8
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-6)


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        logits = rng.normal(size=7) * 3
        label = int(rng.integers(7))
        loss, grad = softmax_cross_entropy(logits, label)
        oloss, ograd = softmax_ce_direct(logits, label)
        assert abs(loss - oloss) < 1e-10
        np.testing.assert_allclose(grad, ograd, atol=1e-10)


def test_softmax_probability_vector():
    rng = np.random.default_rng(12)
    for _ in range(50):
        logits = rng.normal(size=9) * 10
        _, grad = softmax_cross_entropy(logits, 0)
        probs = grad.copy()
        probs[0] += 1.0
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) < 1e-12


def test_softmax_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros(3), 3)


def test_softmax_gradient_finite_difference():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=6)
    _, grad = softmax_cross_entropy(logits, 4)

    def loss():
        return softmax_cross_entropy(logits, 4)[0]

    for index in np.ndindex(logits.shape):
        fd = central_difference(loss, logits, index)
        assert relative_error(grad[index], fd) < 1e-4


# ---------------------------------------------------------------- dropout


def test_dropout_mask_statistics():
    rng = np.random.default_rng(14)
    zeroed = 0
    trials, width = 10000, 64
    for _ in range(trials):
        mask = dropout_mask((width,), 0.5, rng)
        zeroed += int((mask == 0).sum())
    fraction = zeroed / (trials * width)
    assert abs(fraction - 0.5) < 0.02
    mask = dropout_mask((1000,), 0.5, rng)
    kept = mask[mask > 0]
    np.testing.assert_allclose(kept, 2.0)
