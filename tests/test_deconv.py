import numpy as np
import pytest

from auprobe.deconv import (
    DeconvStage,
    project,
    project_max,
    project_stages,
    receptive_field,
    receptive_field_span,
    render_response,
)
from auprobe.imageio import read_image
from auprobe.layers import ConvLayer, ShapeError
from auprobe.model import ModelConfig, Network

from oracles import reachable_pixels


def small_net(seed=0, input_size=16):
    cfg = ModelConfig(input_size=input_size, conv_channels=(2, 3, 4), fc_hidden=8,
                      num_classes=4, seed=seed)
    return Network(cfg)


# ----------------------------------------------------------- projection


def test_identity_kernel_projects_to_itself():
    conv = ConvLayer(1, 1, 5)
    conv.kernels[0, 0, 2, 2] = 1.0
    top = np.zeros((1, 8, 8))
    top[0, 3, 5] = 1.0
    out = project_stages([DeconvStage(conv, switches=None, relu=False)], top)
    np.testing.assert_array_equal(out, top)


def test_zero_activation_projects_to_zero():
    net = small_net(seed=1)
    x = np.random.default_rng(0).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    pool = trace.stages[2].pool_out
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
    x = rng.normal(size=(1, 10, 10))
    mid = conv1.forward(x)
    one_hot = np.zeros((3, 10, 10))
    one_hot[1, 4, 6] = 1.7
    stages = [DeconvStage(conv1, None, relu=False), DeconvStage(conv2, None, relu=False)]
    via_project = project_stages(stages, one_hot)
    via_backward = conv1.backward(conv2.backward(one_hot.copy(), mid), x)
    np.testing.assert_allclose(via_project, via_backward, atol=1e-10, rtol=0)


def test_positive_homogeneity():
    net = small_net(seed=4)
    x = np.random.default_rng(2).normal(size=(1, 16, 16))
    trace = net.forward_trace(x)
    top = np.random.default_rng(3).normal(size=trace.stages[2].pool_out.shape)
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
        pool = trace.stages[layer - 1].pool_out
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
    fmap = trace.stages[2].pool_out[2]
    _, loc, value = project_max(trace, net, 3, 2)
    assert value == fmap.max()
    expect = np.unravel_index(int(np.argmax(fmap)), fmap.shape)
    assert loc == tuple(int(v) for v in expect)
    # ties resolve to the first row-major position
    tied = trace.stages[2].pool_out
    tied[1, :, :] = 3.0
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


def test_layer1_prepool_rectangle():
    cfg = ModelConfig(input_size=24, conv_channels=(2, 3, 4), fc_hidden=4,
                      num_classes=2, seed=0)
    # after the first conv, before pooling: a plain 5x5 neighborhood
    assert receptive_field(cfg, 1, (7, 9), after_pool=False) == (7, 5, 11, 9)
    # corner clips at (0, 0)
    assert receptive_field(cfg, 1, (0, 0), after_pool=False) == (0, 0, 2, 2)


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
    orig, deconv = render_response(proj, rf, source, tmp_path / "m0.png")
    a = read_image(orig)
    b = read_image(deconv)
    x0, y0, x1, y1 = rf
    assert a.shape == b.shape == (y1 - y0 + 1, x1 - x0 + 1)
    np.testing.assert_array_equal(a, source[y0 : y1 + 1, x0 : x1 + 1])
