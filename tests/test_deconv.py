import dataclasses

import numpy as np
import pytest

from auprobe import deconv
from auprobe.deconv import (
    project,
    receptive_field,
    receptive_field_span,
    render_response,
)
from auprobe.imageio import read_image
from auprobe.layers import ConvLayer, ShapeError
from auprobe.model import ModelConfig, Network, reduced_config

from oracles import DeconvStage, project_full_frame, project_stages, reachable_pixels


def project_max(trace, net, layer, map_index):
    """Project the spatial argmax of one map; ties go to the first
    row-major position. Returns (projection, (row, col), value)."""
    fmap = trace.stages[layer - 1].pooled[map_index, 0]
    row, col = np.unravel_index(int(np.argmax(fmap)), fmap.shape)
    return (project(trace, net, layer, map_index, (row, col)), (int(row), int(col)),
            float(fmap[row, col]))


def small_net(seed=0, input_size=16):
    cfg = ModelConfig(input_size=input_size, conv_channels=(2, 3, 4), fc_hidden=8,
                      num_classes=4, seed=seed)
    return Network(cfg)


# ----------------------------------------------------------- projection


def test_identity_kernel_projects_to_itself():
    conv = ConvLayer(1, 1, 5)
    conv.kernels[0, 0, 2, 2] = 1.0
    top = np.zeros((1, 1, 8, 8))
    top[0, 0, 3, 5] = 1.0
    out = project_stages([DeconvStage(conv, switches=None, relu=False)], top)
    np.testing.assert_array_equal(out, top)


def test_zero_activation_projects_to_zero():
    net = small_net(seed=1)
    x = np.random.default_rng(0).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    pool = trace.stages[2].pooled[:, 0]
    zeros = np.argwhere(pool == 0)
    assert len(zeros), "ReLU should produce some zero activations"
    m, r, c = (int(v) for v in zeros[0])
    proj = project(trace, net, 3, m, (r, c))
    assert not proj.any()


def test_projection_shape_is_input_space():
    net = small_net(seed=2)
    x = np.random.default_rng(1).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    proj = project(trace, net, 2, 1, (1, 1))
    assert proj.shape == (1, 16, 16)


def test_linear_toy_reduction_matches_conv_backward():
    # without ReLU or pooling the reverse pathway must equal backprop
    rng = np.random.default_rng(3)
    conv1 = ConvLayer(1, 2, 5, rng=rng)
    conv2 = ConvLayer(2, 3, 5, rng=rng)
    x = rng.normal(size=(1, 1, 10, 10))
    mid = conv1.forward(x)
    one_hot = np.zeros((3, 1, 10, 10))
    one_hot[1, 0, 4, 6] = 1.7
    stages = [DeconvStage(conv1, None, relu=False), DeconvStage(conv2, None, relu=False)]
    via_project = project_stages(stages, one_hot)
    via_backward = conv1.backward(conv2.backward(one_hot.copy(), mid), x)
    np.testing.assert_allclose(via_project, via_backward, atol=1e-10, rtol=0)


def test_positive_homogeneity():
    net = small_net(seed=4)
    x = np.random.default_rng(2).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    top = np.random.default_rng(3).normal(size=trace.stages[2].pooled.shape)
    stages = [
        DeconvStage(net.convs[i], trace.stages[i].switches, relu=True) for i in range(3)
    ]
    base = project_stages(stages, top)
    scaled = project_stages(stages, 2.5 * top)
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-6, atol=1e-12)


def test_support_containment():
    net = small_net(seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=(1, 16, 16))
        trace = net.forward_trace(x)
        layer = int(rng.integers(1, 4))
        pool = trace.stages[layer - 1].pooled[:, 0]
        m = int(rng.integers(pool.shape[0]))
        r = int(rng.integers(pool.shape[1]))
        c = int(rng.integers(pool.shape[2]))
        proj = project(trace, net, layer, m, (r, c))
        x0, y0, x1, y1 = receptive_field(net.config, layer, (r, c))
        outside = proj.copy()
        outside[0, y0 : y1 + 1, x0 : x1 + 1] = 0
        assert not outside.any()


def test_project_max_finds_argmax_with_tie_rule():
    net = small_net(seed=7)
    x = np.random.default_rng(4).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    fmap = trace.stages[2].pooled[2, 0]
    _, loc, value = project_max(trace, net, 3, 2)
    assert value == fmap.max()
    expect = np.unravel_index(int(np.argmax(fmap)), fmap.shape)
    assert loc == tuple(int(v) for v in expect)
    # ties resolve to the first row-major position
    tied = trace.stages[2].pooled
    tied[1, 0, :, :] = 3.0
    _, loc, _ = project_max(trace, net, 3, 1)
    assert loc == (0, 0)


def test_trace_net_mismatch_rejected():
    net_a = small_net(seed=8)
    cfg_b = ModelConfig(input_size=16, conv_channels=(3, 4, 5), fc_hidden=8,
                        num_classes=4, seed=8)
    net_b = Network(cfg_b)
    x = np.random.default_rng(5).normal(size=(1, 16, 16))
    trace = net_a.forward_trace(x)
    with pytest.raises(ShapeError):
        project(trace, net_b, 3, 0, (0, 0))


CHUNK_CONFIGS = [small_net().config, reduced_config(seed=1),
                 dataclasses.replace(reduced_config(seed=1), dtype="float64")]


@pytest.mark.parametrize("config", CHUNK_CONFIGS, ids=["16px", "48px", "48px-float64"])
def test_chunk_projection_equals_chunks_of_one(config):
    net = Network(config)
    rng = np.random.default_rng(config.input_size)
    size = config.input_size
    xs = rng.normal(size=(3, 1, size, size))
    chunk = net.forward_trace(xs, image_id=(4, 5, 6))
    singles = [net.forward_trace(x) for x in xs]
    nonzero = 0
    for layer in (1, 2, 3):
        pooled = chunk.stages[layer - 1].pooled
        c, _, h, w = pooled.shape
        corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
        for m in rng.permutation(c)[:4]:
            peaks = [np.unravel_index(int(np.argmax(pooled[m, k])), (h, w)) for k in range(3)]
            randoms = [(int(rng.integers(h)), int(rng.integers(w))) for _ in range(3)]
            for locations in (peaks, randoms, corners[:3], corners[1:]):
                got = project(chunk, net, layer, int(m), locations)
                assert got.shape == (3, size, size)
                for k, (trace, loc) in enumerate(zip(singles, locations)):
                    alone = project(trace, net, layer, int(m), loc)
                    assert alone.shape == (1, size, size)
                    assert got[k].tobytes() == alone[0].tobytes()
                    nonzero += bool(alone.any())
    assert nonzero >= 3 * 3 * 4  # as many as the peaks, if none were dead


def unit_sets(pooled, rng):
    """Per map: (map, location lists) of corners, edges, each image's peak and random units."""
    c, n, h, w = pooled.shape
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    edges = [(0, w // 2), (h // 2, 0), (h - 1, w // 2), (h // 2, w - 1)]
    for m in range(c):
        peaks = [np.unravel_index(int(np.argmax(pooled[m, k])), (h, w)) for k in range(n)]
        randoms = [(int(rng.integers(h)), int(rng.integers(w))) for _ in range(n)]
        yield m, (corners, corners[::-1], edges, peaks, randoms)


def assert_same_windows(got, want):
    """Equal unit values, and equal switches at every in-grid window position."""
    assert got.top.tobytes() == want.top.tobytes()
    for g, w in zip(got.stages, want.stages, strict=True):
        np.testing.assert_array_equal(g.inside, w.inside)
        np.testing.assert_array_equal(g.index[:, g.inside], w.index[:, w.inside])


# 16 px: the 36 px field of layer 3 is wider than the image; 13 and 15 px:
# odd stage sizes, where the pools pad with -inf; 50 px: stage grids of 50,
# 25 and 13, whose full-trace GEMMs end in partial 16-column blocks
WINDOW_CASES = [(13, "float32"), (15, "float64"), (16, "float32"), (16, "float64"),
                (48, "float32"), (48, "float64"), (50, "float32"), (96, "float32"),
                (15, "float32"), (13, "float64")]
# the window trace keeps the full trace's bits in float32 at these sizes, with
# OpenBLAS's SkylakeX sgemm kernel (model.GEMM_BLOCK_COLUMNS). At the rest, a
# window GEMM can sum an output in another order than the full one:
# sgemm a column of a small GEMM's partial last block (13 px: conv2's 49
# columns), dgemm a small GEMM in another kernel
EXACT_WINDOW_CASES = [(16, "float32"), (48, "float32"), (50, "float32"), (96, "float32")]


@pytest.mark.parametrize("size,dtype", WINDOW_CASES,
                         ids=[f"{size}px-{dtype}" for size, dtype in WINDOW_CASES])
def test_window_projection_equals_full_frame_oracle(size, dtype):
    config = dataclasses.replace(reduced_config(seed=size), input_size=size, dtype=dtype)
    net = Network(config)
    rng = np.random.default_rng(size)
    xs = rng.normal(size=(4, 1, size, size)).astype(dtype)
    trace = net.forward_trace(xs)
    exact = (size, dtype) in EXACT_WINDOW_CASES
    # of a projection's largest magnitude; 2.3e-6 measured at 13 px in float32
    tolerance = 1e-5 if dtype == "float32" else 1e-12
    nonzero = 0
    for layer in (1, 2, 3):
        for m, location_sets in unit_sets(trace.stages[layer - 1].pooled, rng):
            for locations in location_sets:
                got = project(trace, net, layer, m, locations)
                want = project_full_frame(trace, net, layer, m, locations)
                assert got.dtype == want.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(got, want)
                nonzero += int(got.any(axis=(1, 2)).sum())
                windows = net.forward_trace(xs, layer=layer, locations=locations)
                windowed = project(windows, net, layer, m, locations)
                assert windowed.dtype == got.dtype
                if exact:
                    assert_same_windows(windows, deconv._crop(trace, net, layer,
                                                              np.array(locations)))
                    assert windowed.tobytes() == got.tobytes()
                else:
                    scale = np.abs(got).max(axis=(1, 2), keepdims=True)
                    assert (np.abs(windowed - got) <= tolerance * scale).all()
    assert nonzero >= (8 + 16 + 32) * 4  # as many as the peaks' records alone


def test_window_trace_projects_only_its_own_units():
    net = small_net(seed=13)
    xs = np.random.default_rng(9).normal(size=(2, 1, 16, 16))
    windows = net.forward_trace(xs, layer=2, locations=[(1, 2), (3, 0)])
    for layer, locations in ((3, [(1, 2), (3, 0)]), (2, [(1, 2), (3, 1)]), (2, [(1, 2)])):
        with pytest.raises(ShapeError):
            project(windows, net, layer, 0, locations)
    with pytest.raises(ShapeError):
        project(windows, net, 2, 3, [(1, 2), (3, 0)])  # conv2 has 3 maps
    for layer, locations in ((0, [(0, 0)] * 2), (4, [(0, 0)] * 2), (2, [(4, 0), (0, 0)]),
                             (2, [(0, -1), (0, 0)]), (2, [(0, 0)])):
        with pytest.raises(ShapeError):
            net.forward_trace(xs, layer=layer, locations=locations)
    with pytest.raises(ShapeError):
        net.forward_trace(xs[:, 0], layer=2, locations=[(0, 0)] * 2)
    assert project(windows, net, 2, 2, [(1, 2), (3, 0)]).shape == (2, 16, 16)


def test_projection_reads_only_its_maps_kernels():
    # a GEMM over every map's kernels multiplies the other maps' zero signals
    # too, and 0 * NaN would spread to every pixel
    config = reduced_config(seed=12)
    net = Network(config)
    size = config.input_size
    trace = net.forward_trace(np.random.default_rng(12).normal(size=(2, 1, size, size))
                              .astype(config.np_dtype))
    for layer in (1, 2, 3):
        pooled = trace.stages[layer - 1].pooled
        c, n, h, w = pooled.shape
        for m in (0, c - 1):
            peaks = [np.unravel_index(int(np.argmax(pooled[m, k])), (h, w)) for k in range(n)]
            clean = project(trace, net, layer, m, peaks)
            conv = net.convs[layer - 1]
            kernels = conv.kernels.copy()
            conv.kernels[np.arange(c) != m] = np.nan
            try:
                got = project(trace, net, layer, m, peaks)
            finally:
                conv.kernels[...] = kernels
            assert clean.any()
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, clean)


def test_chunk_projection_needs_one_location_per_image():
    net = small_net(seed=11)
    trace = net.forward_trace(np.random.default_rng(8).normal(size=(3, 1, 16, 16)))
    for locations in ([(0, 0), (1, 1)], [(0, 0)] * 4, (0, 0), [0, 0, 0], []):
        with pytest.raises(ShapeError):
            project(trace, net, 3, 0, locations)
    for bad in ((2, 0), (0, 2), (-1, 0), (0, -1)):  # the pooled grid at layer 3 is 2x2
        for k in range(3):
            locations = [(1, 1)] * 3
            locations[k] = bad
            with pytest.raises(ShapeError):
                project(trace, net, 3, 0, locations)
    assert project(trace, net, 3, 0, [(1, 1)] * 3).shape == (3, 16, 16)


def test_out_of_range_indices_rejected():
    net = small_net(seed=9)
    trace = net.forward_trace(np.zeros((1, 16, 16)))
    with pytest.raises(ShapeError):
        project(trace, net, 4, 0, (0, 0))
    with pytest.raises(ShapeError):
        project(trace, net, 3, 99, (0, 0))
    with pytest.raises(ShapeError):
        project(trace, net, 3, 0, (9, 0))


# ------------------------------------------------------ receptive field


def test_receptive_field_spans():
    cfg = ModelConfig(input_size=96, conv_channels=(64, 128, 256), seed=0)
    # frozen from the perturbation oracle: 6, 16, 36 for pooled units of
    # the three conv(5,1)/pool(2,2) stages
    assert [receptive_field_span(cfg, n) for n in (1, 2, 3)] == [6, 16, 36]
    x0, y0, x1, y1 = receptive_field(cfg, 3, (6, 6))
    assert (x1 - x0 + 1, y1 - y0 + 1) == (36, 36)


def test_receptive_field_matches_perturbation_oracle():
    cfg = ModelConfig(input_size=24, conv_channels=(2, 3, 4), fc_hidden=4,
                      num_classes=2, seed=0)
    net = Network(cfg)
    for conv in net.convs:  # positive kernels make reachability monotone
        conv.kernels[...] = 0.01
        conv.bias[...] = 0.0
    for layer, loc in [(1, (5, 7)), (2, (2, 3)), (3, (1, 1)), (3, (0, 0))]:
        def unit(img, layer=layer, loc=loc):
            return float(net.stage_outputs(img[None], layer)[(0, 0) + loc])

        mask = reachable_pixels(unit, (1, 24, 24))
        ys, xs = np.where(mask)
        oracle = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
        assert oracle == receptive_field(cfg, layer, loc)
        # oracle mask is a full rectangle: no holes
        assert mask[oracle[1] : oracle[3] + 1, oracle[0] : oracle[2] + 1].all()


def test_receptive_field_bad_indices():
    cfg = ModelConfig(input_size=16, conv_channels=(2, 3), fc_hidden=4,
                      num_classes=2, seed=0)
    with pytest.raises(ShapeError):
        receptive_field(cfg, 3, (0, 0))
    with pytest.raises(ShapeError):
        receptive_field(cfg, 2, (40, 0))


# --------------------------------------------------------------- render


def test_render_response_writes_decodable_pair(tmp_path):
    net = small_net(seed=10)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    proj, loc, _ = project_max(trace, net, 3, 0)
    rf = receptive_field(net.config, 3, loc)
    source = rng.integers(0, 255, (16, 16)).astype(np.uint8)
    orig, deconv = render_response(proj[0], rf, source, tmp_path / "m0.png")
    a = read_image(orig)
    b = read_image(deconv)
    x0, y0, x1, y1 = rf
    assert a.shape == b.shape == (y1 - y0 + 1, x1 - x0 + 1)
    np.testing.assert_array_equal(a, source[y0 : y1 + 1, x0 : x1 + 1])
