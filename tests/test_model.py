import copy
import dataclasses
import json

import numpy as np
import pytest

from auprobe import data, deconv, layers, model
from auprobe.data import DataError
from auprobe.layers import (
    dropout_mask,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from auprobe.model import (
    ModelConfig,
    Network,
    NumericError,
    TrainBuffers,
    TrainConfig,
    build_network,
    load_checkpoint,
    save_checkpoint,
    serialize_network,
    sgd_step,
    train,
)

from oracles import sample_gradients, sgd_step_reference, switch_coords


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyset")
    spec = data.default_synthetic_spec(samples_per_class=4, seed=3)
    return data.generate_synthetic(spec, out)


def small_config(**overrides):
    base = dict(input_size=16, conv_channels=(2, 3, 4), fc_hidden=8,
                num_classes=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ------------------------------------------------------------- building


def test_default_config_layer3_shape():
    cfg = ModelConfig()
    assert cfg.stage_sizes() == [48, 24, 12]
    assert cfg.conv_channels[-1] == 256
    assert cfg.flat_features == 256 * 12 * 12


def test_num_classes_controls_logits():
    net = build_network(small_config(num_classes=7, fc_hidden=6))
    x = np.zeros((1, 1, 16, 16))
    assert net.forward(x).shape == (1, 7)


def test_same_seed_identical_weights():
    a = build_network(small_config(seed=11))
    b = build_network(small_config(seed=11))
    for (_, va, _), (_, vb, _) in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(va, vb)
    c = build_network(small_config(seed=12))
    assert any(
        not np.array_equal(va, vc)
        for (_, va, _), (_, vc, _) in zip(a.parameters(), c.parameters())
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(conv_channels=(64, 64, 128))
    with pytest.raises(ValueError):
        ModelConfig(kernel_size=4)
    with pytest.raises(ValueError):
        ModelConfig(init_mode="magic")
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.5)
    TrainConfig(learning_rate=0.0)  # lr 0 is legal (no-op updates)


def test_init_modes_have_expected_scale():
    paper = build_network(small_config(init_mode="paper", conv_channels=(8, 16, 32), fc_hidden=64))
    scaled = build_network(small_config(init_mode="scaled", conv_channels=(8, 16, 32), fc_hidden=64))
    k = paper.convs[1].kernels  # fan_in = 8*25 = 200
    assert 0.9 < k.std() < 1.1
    ks = scaled.convs[1].kernels
    assert 0.9 / np.sqrt(200) < ks.std() < 1.1 / np.sqrt(200)


def test_wrong_input_shape_rejected():
    net = build_network(small_config())
    with pytest.raises(Exception):
        net.forward(np.zeros((1, 1, 8, 8)))


def test_layer_stack_takes_chunks_and_only_the_traced_projection_one_image():
    # layers and Network.forward take chunks [C, N, H, W] and rows [N, features]
    # alone; forward_trace and deconv.project keep the single-image form
    net = build_network(small_config(seed=13))
    conv, fc = net.convs[1], net.fc2
    x = np.zeros((conv.in_channels, 8, 8))
    g = np.zeros((conv.out_channels, 8, 8))
    single_forms = [
        lambda: conv.forward(x),
        lambda: conv.backward(g, x),
        lambda: conv.transpose_apply(g),
        lambda: fc.forward(np.zeros(fc.in_features)),
        lambda: fc.backward(np.zeros(fc.out_features), np.zeros(fc.in_features)),
        lambda: net.forward(np.zeros((1, 16, 16))),
    ]
    for call in single_forms:
        with pytest.raises(layers.ShapeError):
            call()
    image = np.random.default_rng(13).normal(size=(1, 16, 16))
    one, chunk = net.forward_trace(image), net.forward_trace(image[None])
    for a, b in zip(one.stages, chunk.stages, strict=True):
        assert a.pooled.tobytes() == b.pooled.tobytes()
        assert a.switches.index.tobytes() == b.switches.index.tobytes()
        assert a.switches.input_shape == b.switches.input_shape
    for layer, stage in enumerate(chunk.stages, start=1):
        peaks = stage.pooled[:, 0].reshape(len(stage.pooled), -1)
        m = int(peaks.max(axis=1).argmax())
        loc = np.unravel_index(int(peaks[m].argmax()), stage.pooled.shape[2:])
        got = deconv.project(one, net, layer, m, loc)
        assert got.any()
        assert got.tobytes() == deconv.project(chunk, net, layer, m, [loc]).tobytes()


# ---------------------------------------------------------------- trace


def test_forward_trace_replays_bit_identically():
    net = build_network(small_config(seed=5))
    xs = np.random.default_rng(0).normal(size=(3, 1, 16, 16))
    tr = net.forward_trace(xs, image_id=(7, 8, 9))
    assert tr.image_id == (7, 8, 9)
    assert len(tr.stages) == len(net.convs)
    for k, x in enumerate(xs):
        # each image of the chunk replays through layer calls on a chunk of one
        a = x.astype(np.float32)[:, None]
        for stage, conv in zip(tr.stages, net.convs):
            assert [f.name for f in dataclasses.fields(stage)] == ["pooled", "switches"]
            conv_out = relu_forward(conv.forward(a))
            a, switches = maxpool_forward(conv_out)
            assert stage.pooled.dtype == np.float32
            assert stage.switches.input_shape == (conv.out_channels, 3) + conv_out.shape[2:]
            assert stage.pooled[:, k].tobytes() == a[:, 0].tobytes()
            for got, want in zip(switch_coords(stage.switches), switch_coords(switches)):
                np.testing.assert_array_equal(got[:, k], want[:, 0])


def test_inference_deterministic():
    net = build_network(small_config(seed=6))
    x = np.random.default_rng(1).normal(size=(1, 1, 16, 16))
    assert net.forward(x).tobytes() == net.forward(x).tobytes()
    a = net.forward_trace(x)
    b = net.forward_trace(x)
    for sa, sb in zip(a.stages, b.stages):
        assert sa.pooled.tobytes() == sb.pooled.tobytes()
        assert sa.switches.index.tobytes() == sb.switches.index.tobytes()
        assert sa.switches.input_shape == sb.switches.input_shape


def test_dropout_inactive_at_inference():
    net = build_network(small_config(seed=7))
    xs = np.random.default_rng(2).normal(size=(3, 1, 16, 16))
    plain = net.forward(xs)
    # a training forward and head without a dropout mask must agree with inference exactly
    keep = TrainBuffers(len(net.convs))
    logits = net.head(net.forward(xs, keep=keep), keep=keep)
    np.testing.assert_array_equal(plain, logits)


# ------------------------------------------------------------- training


def test_lr_zero_keeps_weights(tiny_manifest):
    net = build_network(model.reduced_config(seed=2))
    before = [v.copy() for _, v, _ in net.parameters()]
    cfg = TrainConfig(batch_size=8, epochs=1, seed=0, augment=False,
                      learning_rate=0.0, weight_decay=0.0)
    train(net, tiny_manifest, cfg)
    for (_, v, _), b in zip(net.parameters(), before):
        assert v.tobytes() == b.tobytes()


def test_training_deterministic(tiny_manifest):
    results = []
    for _ in range(2):
        net = build_network(model.reduced_config(seed=4))
        train(net, tiny_manifest, TrainConfig(batch_size=8, epochs=2, seed=9, augment=False))
        results.append(serialize_network(net))
    assert results[0] == results[1]


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_training_sample_builds_each_patch_matrix_once(monkeypatch):
    net = build_network(model.reduced_config(seed=4))
    xs = np.random.default_rng(0).random((3, 1, 48, 48))
    masks = np.stack([dropout_mask((net.config.fc_hidden,), 0.5, np.random.default_rng(i),
                                   dtype=np.float32) for i in range(3)])
    calls = _count_calls(monkeypatch, layers, ["im2col", "col2im"])
    keep = TrainBuffers(len(net.convs))
    logits = net.head(net.forward(xs, keep=keep), keep=keep, drop_mask=masks)
    chunk = keep.chunks[-1]
    grad_logits = np.stack([softmax_cross_entropy(row, label)[1]
                            for row, label in zip(logits, [2, 0, 3])])
    _zero_grads(net)
    net.backward(keep, net.head_backward(keep, grad_logits)[1])
    # one im2col per conv for the whole chunk, kept for backward; no col2im into the image
    assert calls == {"im2col": 3, "col2im": 2}
    assert not keep.chunks
    cached = [grad.copy() for _, _, grad in net.parameters()]

    # reference: every conv rebuilds its patch matrix and returns an input gradient
    _zero_grads(net)
    g = net.fc2.backward(grad_logits, keep.fc2_in) * keep.drop_mask
    g = net.fc1.backward(relu_backward(g, keep.fc1_out), keep.flat)
    c, n, h, w = chunk.stages[-1].pooled.shape
    g = g.reshape(n, c, h, w).transpose(1, 0, 2, 3)
    ins = [chunk.x] + [stage.pooled for stage in chunk.stages[:-1]]
    for stage, conv_in, conv in zip(reversed(chunk.stages), reversed(ins), reversed(net.convs)):
        g = conv.backward(maxpool_backward(g, stage.switches, stage.pooled), conv_in)
    assert calls == {"im2col": 6, "col2im": 5}
    for (name, _, grad), expected in zip(net.parameters(), cached):
        if not name.startswith("fc1"):  # backward leaves fc1's parameters to the batch
            assert np.array_equal(grad, expected), name


@pytest.mark.parametrize("fc_hidden, per_batch", [(128, False), (256, True)],
                         ids=["head-per-chunk", "head-per-batch"])
def test_training_rebuilds_patch_matrices_of_all_but_the_last_chunk(tiny_manifest, monkeypatch,
                                                                     fc_hidden, per_batch):
    # one batch of 16 images in 6 chunks (3, 3, 3, 3, 2, 2)
    config = dataclasses.replace(model.reduced_config(seed=4), fc_hidden=fc_hidden)
    assert model.head_per_batch(config) is per_batch
    monkeypatch.setattr(model, "TRAIN_CHUNK_BYTES", 3 * 8 * 5 * 5 * 24 * 24 * 4)  # 3 x conv2's
    log = []  # [call, im2col calls inside it]

    def marked(name, original):
        def call(*args, **kwargs):
            log.append([name, 0])
            return original(*args, **kwargs)
        return call

    def im2col(*args, _original=layers.im2col, **kwargs):
        log[-1][1] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(Network, "forward", marked("forward", Network.forward))
    monkeypatch.setattr(Network, "backward", marked("backward", Network.backward))
    monkeypatch.setattr(layers, "im2col", im2col)
    train(build_network(config), tiny_manifest,
          TrainConfig(batch_size=16, epochs=1, seed=9, augment=False))
    if per_batch:
        # all forward, then backward in reverse: the last chunk's patch matrices are still kept
        assert log == [["forward", 3]] * 6 + [["backward", 0]] + [["backward", 3]] * 5
    else:
        assert log == [["forward", 3], ["backward", 0]] * 6


def test_head_per_batch_when_fc1_outweighs_an_images_patch_matrices():
    # (fc1 weights, one image's patch matrices summed over the convs) in float32 bytes
    def sizes(config):
        return (4 * config.fc_hidden * config.flat_features, 4 * sum(model._patch_elements(config)))

    # CI's cfg.txt is reduced_config()'s geometry; its head.txt trains batches of 8 in 4 chunks
    cfg_txt = ModelConfig(input_size=48, conv_channels=(8, 16, 32), fc_hidden=128, num_classes=4)
    ci_batch = ModelConfig(input_size=64, conv_channels=(2, 4, 8), fc_hidden=512, num_classes=4)
    assert sizes(model.reduced_config()) == sizes(cfg_txt) == (589_824, 921_600)
    assert sizes(ModelConfig()) == (150_994_944, 23_040_000)
    assert sizes(ci_batch) == (1_048_576, 716_800)
    assert model.images_per_chunk(ci_batch, model.TRAIN_CHUNK_BYTES) == 2
    configs = (model.reduced_config(), cfg_txt, ModelConfig(), ci_batch)
    for config, per_batch in zip(configs, (False, False, True, True)):
        assert model.head_per_batch(config) is per_batch
        assert model.head_per_batch(dataclasses.replace(config, dtype="float64")) is per_batch


def test_weight_decay_alone_shrinks_norms():
    net = build_network(small_config(seed=8))
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01, momentum=0.9)
    velocity = {name: np.zeros_like(v) for name, v, _ in net.parameters()}
    norms = [np.linalg.norm(net.fc1.weights)]
    # zero gradient injection, fc1's rows included: only decay moves weights
    fc1_rows = (np.zeros((1, net.fc1.out_features), np.float32),
                np.zeros((1, net.fc1.in_features), np.float32))
    for _ in range(200):
        sgd_step(net, velocity, cfg, 1.0, fc1_rows)
        norms.append(np.linalg.norm(net.fc1.weights))
    diffs = np.diff(norms)
    assert (diffs < 0).all()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_sgd_step_equals_whole_array_reference(dtype):
    # fc1 holds 16 x 5000 = 80000 weights: one full block and a partial one
    cfg = small_config(fc_hidden=5000, dtype=dtype)
    assert (cfg.flat_features * cfg.fc_hidden) % layers.BLOCK_ELEMENTS != 0
    net, ref = build_network(cfg), build_network(cfg)
    train_cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01, momentum=0.9)
    rng = np.random.default_rng(5)
    velocity = {name: rng.normal(size=v.shape).astype(v.dtype) for name, v, _ in net.parameters()}
    ref_velocity = {name: v.copy() for name, v in velocity.items()}
    for _ in range(4):
        for (name, _, grad), (_, _, ref_grad) in zip(net.parameters(), ref.parameters()):
            grad[...] = rng.normal(size=grad.shape)  # fc1's too, which sgd_step must not read
            ref_grad[...] = 0 if name.startswith("fc1.") else grad
        G = rng.normal(size=(3, cfg.fc_hidden)).astype(cfg.np_dtype)
        X = rng.normal(size=(3, cfg.flat_features)).astype(cfg.np_dtype)
        ref.fc1.backward(G, X)
        sgd_step(net, velocity, train_cfg, 1.0 / 3, (G, X))
        sgd_step_reference(ref.parameters(), ref_velocity, train_cfg, 1.0 / 3)
        for (name, value, _), (_, ref_value, _) in zip(net.parameters(), ref.parameters()):
            assert np.array_equal(value, ref_value), name
            assert np.array_equal(velocity[name], ref_velocity[name]), name


def test_sgd_step_non_finite_weight_names_parameter():
    net = build_network(small_config(fc_hidden=5000, num_classes=20))
    velocity = {name: np.zeros_like(v) for name, v, _ in net.parameters()}
    fc1_rows = (np.zeros((1, 5000), np.float32), np.zeros((1, 16), np.float32))
    # fc2 holds 20 x 5000 = 100000 weights: the flat index 99999 is in its last, partial block
    assert net.fc2.weights.size % layers.BLOCK_ELEMENTS != 0
    net.fc2.grad_weights[19, 4999] = np.inf
    with pytest.raises(NumericError, match=r"fc2\.weights"):
        sgd_step(net, velocity, TrainConfig(), 1.0, fc1_rows)


def test_sgd_step_requires_fc1_rows():
    net = build_network(small_config())
    velocity = {name: np.zeros_like(v) for name, v, _ in net.parameters()}
    with pytest.raises(TypeError):
        sgd_step(net, velocity, TrainConfig(), 1.0)


def _zero_grads(net):
    for _, _, grad in net.parameters():
        grad[...] = 0


def _same_bits(a, b) -> bool:
    """Equal arrays down to the sign of zero, which array_equal does not see."""
    return a.dtype == b.dtype and np.array_equal(a.view(f"u{a.itemsize}"),
                                                 b.view(f"u{b.itemsize}"))


def _fused_case(dtype):
    """A network whose fc1 (37 x 4800) ends in a partial row tile and a partial
    column slab, its velocity, and a function drawing a batch's fc1 rows.

    Rows 0-2 and 35-36 of each batch's gradient and the first and last 100
    columns of its input are so small that their products underflow to -0.0,
    so fc1's weight tiles hold -0.0 entries; the weights and velocity there
    hold -0.0 as well. The gradient's column 20 is -0.0 for the bias, whose
    sum is -0.0 or +0.0 as the numpy version has it.
    """
    config = ModelConfig(input_size=32, conv_channels=(2, 4, 300), fc_hidden=37,
                         num_classes=3, dtype=dtype)
    net = build_network(config)
    tile_cols = layers.BLOCK_ELEMENTS // layers._FC_TILE_ROWS
    assert net.fc1.in_features % tile_cols and net.fc1.out_features % layers._FC_TILE_ROWS
    tiny = np.finfo(config.np_dtype).tiny
    under_rows, under_cols = [0, 1, 2, 35, 36], np.r_[0:100, 4700:4800]
    rng = np.random.default_rng(11)
    velocity = {name: rng.normal(size=v.shape).astype(v.dtype) for name, v, _ in net.parameters()}
    for values in (net.fc1.weights, velocity["fc1.weights"]):
        values[np.ix_(under_rows, under_cols)] = -0.0
    for values in (net.fc1.bias, velocity["fc1.bias"]):
        values[20] = -0.0

    def batch_rows(n):
        grad_rows = rng.normal(size=(n, 37)).astype(config.np_dtype)
        input_rows = rng.normal(size=(n, 4800)).astype(config.np_dtype)
        grad_rows[:, under_rows] = -tiny
        input_rows[:, under_cols] = tiny
        grad_rows[:, 20] = -0.0
        return grad_rows, input_rows

    return net, velocity, batch_rows


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fused_fc1_step_equals_buffered_update(dtype):
    """sgd_step given fc1's batch rows leaves the same bits in every weight and
    velocity as oracles.sgd_step_reference on the gradients FCLayer.backward
    accumulates from those rows into zeroed buffers, -0.0 entries included;
    it neither reads nor writes fc1's gradient buffers."""
    fused, velocity, batch_rows = _fused_case(dtype)
    ref, ref_velocity = copy.deepcopy(fused), copy.deepcopy(velocity)
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01, momentum=0.9)
    rng = np.random.default_rng(12)
    for n in (5, 3):
        grad_rows, input_rows = batch_rows(n)
        signed_zero = [(tile == 0) & np.signbit(tile)
                       for _, tile in fused.fc1.weight_grad_tiles(grad_rows, input_rows)]
        assert sum(int(z.sum()) for z in signed_zero) == 5 * 200, "tiles hold no -0.0"
        assert signed_zero[-1].any()  # the partial row tile of the partial column slab
        _zero_grads(ref)
        fused.fc1.grad_weights[...] = np.nan
        fused.fc1.grad_bias[...] = np.nan
        for (name, _, grad), (_, _, r_grad) in zip(fused.parameters(), ref.parameters()):
            if not name.startswith("fc1."):
                grad[...] = r_grad[...] = rng.normal(size=grad.shape)
        ref.fc1.backward(grad_rows, input_rows)
        sgd_step(fused, velocity, cfg, 1.0 / n, (grad_rows, input_rows))
        sgd_step_reference(ref.parameters(), ref_velocity, cfg, 1.0 / n)
        assert np.isnan(fused.fc1.grad_weights).all() and np.isnan(fused.fc1.grad_bias).all()
        for (name, value, _), (_, r_value, _) in zip(fused.parameters(), ref.parameters()):
            assert _same_bits(value, r_value), name
            assert _same_bits(velocity[name], ref_velocity[name]), name
    region = fused.fc1.weights[:3, :100]
    assert not region.any() and np.signbit(region).all()  # -0.0 stayed -0.0


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fused_fc1_non_finite_tile_names_fc1_weights(dtype):
    net, velocity, batch_rows = _fused_case(dtype)
    grad_rows, input_rows = batch_rows(4)
    input_rows[1, 4500] = np.inf  # in the partial column slab
    with pytest.raises(NumericError, match=r"fc1\.weights"):
        sgd_step(net, velocity, TrainConfig(), 0.25, (grad_rows, input_rows))


def test_train_chunk_from_patch_matrix_budget():
    # the training and evaluation chunks at both benchmark geometries
    chunks = [model.images_per_chunk(dataclasses.replace(config, dtype=dtype),
                                     model.TRAIN_CHUNK_BYTES)
              for config in (model.reduced_config(), ModelConfig())
              for dtype in ("float32", "float64")]
    assert chunks == [2, 1, 1, 1]
    # depth counts the first convs only: conv1's patch matrix is half of conv2's
    assert model.images_per_chunk(model.reduced_config(), model.TRAIN_CHUNK_BYTES, 1) == 4


def test_train_batch_gradients_match_per_sample_loop(tiny_manifest, monkeypatch):
    """The first batch's gradients, each batch run as chunks and fc1's from the
    batch's stacked rows (G.T @ X and G's column sum), equal those of the
    earlier loop that ran every layer on one image at a time
    (oracles.sample_gradients). In float64, where the two summation orders
    agree to 1e-12. Chunks of 1, a whole batch, and batches that are not a
    multiple of the chunk, so the last chunk is short. With fc_hidden=256
    fc1 (2.36 MB) outweighs an image's patch matrices (1.84 MB), so the
    head runs once per batch and every chunk but the last rebuilds its
    patch matrices in backward."""
    configs = [dataclasses.replace(model.reduced_config(seed=4), dtype="float64", **change)
               for change in ({}, {"fc_hidden": 256})]
    assert [model.head_per_batch(config) for config in configs] == [False, True]
    labels = model._label_indices(tiny_manifest, configs[0].num_classes)

    class FirstStep(Exception):
        pass

    conv2_patch_bytes = 8 * 5 * 5 * 24 * 24 * 8  # the largest patch matrix, per image
    for config, (batch_size, chunk) in ((config, case) for config in configs
                                         for case in ((8, 1), (8, 8), (8, 3), (12, 5))):
        monkeypatch.setattr(model, "TRAIN_CHUNK_BYTES", chunk * conv2_patch_bytes)
        assert model.images_per_chunk(config, model.TRAIN_CHUNK_BYTES) == chunk
        net = build_network(config)
        initial = serialize_network(net)
        cfg = TrainConfig(batch_size=batch_size, epochs=1, seed=9, augment=False)
        seen = {}

        def capture(net_, velocity, cfg_, grad_scale, fc1_rows):
            seen.update((name, grad.copy()) for name, _, grad in net_.parameters())
            grad_rows, input_rows = fc1_rows
            seen["fc1.weights"] = grad_rows.T @ input_rows
            seen["fc1.bias"] = grad_rows.sum(axis=0)
            raise FirstStep

        with monkeypatch.context() as patch:
            patch.setattr(model, "sgd_step", capture)
            with pytest.raises(FirstStep):
                train(net, tiny_manifest, cfg)

        ref = build_network(config)
        assert serialize_network(ref) == initial
        order = np.random.default_rng([cfg.seed, 1, 0]).permutation(len(tiny_manifest))
        for idx in order[:batch_size]:
            idx = int(idx)
            x = data.eval_transform(data.load_image(tiny_manifest, idx), ref.config.input_size)
            mask = dropout_mask((config.fc_hidden,), cfg.dropout_p,
                                np.random.default_rng([cfg.seed, 1, 2, idx]))
            sample_gradients(ref, x, labels[idx], mask)
        for name, _, expected in ref.parameters():
            got = seen[name]
            assert got.any(), name
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max(),
                                       err_msg=f"{name}, fc_hidden {config.fc_hidden}, "
                                               f"batch {batch_size}, chunk {chunk}")


def test_float64_input_runs_in_network_dtype():
    # a float64 image would otherwise promote every GEMM of a float32 network
    net = build_network(small_config())
    assert net.config.np_dtype == np.float32
    x64 = np.random.default_rng(12).normal(size=(1, 1, 16, 16))
    x32 = x64.astype(np.float32)

    def arrays(trace):
        for stage in trace.stages:
            yield stage.pooled

    pairs = [(net.forward(x64), net.forward(x32)),
             (net.stage_outputs(x64, 2), net.stage_outputs(x32, 2))]
    pairs += zip(arrays(net.forward_trace(x64)), arrays(net.forward_trace(x32)))
    kept = [TrainBuffers(len(net.convs)) for _ in range(2)]
    train_logits = [net.head(net.forward(x, keep=keep)) for x, keep in zip((x64, x32), kept)]
    pairs += [(train_logits[0], train_logits[1]),
              (kept[0].chunks[0].stages[0].cols, kept[1].chunks[0].stages[0].cols)]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


def test_empty_dataset_rejected():
    net = build_network(small_config())
    with pytest.raises(DataError):
        train(net, data.DatasetManifest(rows=[]), TrainConfig(epochs=1))


def test_too_many_labels_rejected(tiny_manifest):
    net = build_network(small_config(num_classes=2))
    net_cfg = model.reduced_config()
    assert net_cfg.num_classes == 4  # tiny_manifest has 4 classes
    with pytest.raises(DataError):
        train(net, tiny_manifest, TrainConfig(epochs=1, augment=False))


def test_nan_loss_aborts(tiny_manifest):
    net = build_network(model.reduced_config(seed=0))
    net.fc2.weights[...] = np.nan
    with pytest.raises(NumericError, match="epoch 1"):
        train(net, tiny_manifest, TrainConfig(batch_size=8, epochs=1, seed=0, augment=False))


def test_metrics_logged(tmp_path, tiny_manifest):
    net = build_network(model.reduced_config(seed=1))
    log = tmp_path / "metrics.csv"
    metrics = train(net, tiny_manifest, TrainConfig(batch_size=8, epochs=3, seed=1, augment=False), log_path=log)
    assert len(metrics) == 3
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc,wallclock_s"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


def test_test_split_accuracy_logged(tmp_path, tiny_manifest):
    net = build_network(model.reduced_config(seed=1))
    cfg = TrainConfig(batch_size=8, epochs=1, seed=1, augment=False, test_count=4)
    metrics = train(net, tiny_manifest, cfg)
    assert metrics[0].test_acc is not None
    assert 0.0 <= metrics[0].test_acc <= 1.0


def test_dropout_fraction_during_training():
    # expected zeroed fraction of the hidden units the ReLU passes is p over many trials
    net = build_network(small_config(seed=9, fc_hidden=64))
    x = np.random.default_rng(3).normal(size=(1, 1, 16, 16))
    keep = TrainBuffers(len(net.convs))
    flat = net.forward(x, keep=keep)
    zeroed = 0
    total = 0
    trial = 0
    while total < 10000:
        mask = dropout_mask((1, 64), 0.5, np.random.default_rng(trial), dtype=np.float32)
        net.head(flat, keep=keep, drop_mask=mask)
        live = keep.fc1_out > 0
        assert live.any()
        zeroed += int((keep.fc2_in[live] == 0).sum())
        total += int(live.sum())
        trial += 1
    assert abs(zeroed / total - 0.5) < 0.02


# ------------------------------------------------------------ checkpoint


def test_checkpoint_roundtrip_bytes(tmp_path):
    net = build_network(small_config(seed=10))
    p1 = tmp_path / "a.ckpt"
    save_checkpoint(net, p1)
    loaded = load_checkpoint(p1)
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (_, va, _), (_, vb, _) in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(va, vb)


def test_checkpoint_float32_roundtrip(tmp_path):
    net = build_network(small_config(seed=10, dtype="float32"))
    p = tmp_path / "f32.ckpt"
    save_checkpoint(net, p)
    loaded = load_checkpoint(p)
    assert loaded.config.dtype == "float32"
    assert loaded.convs[0].kernels.dtype == np.float32


def test_float64_checkpoint_loads_as_float64(tmp_path):
    # as every checkpoint written before float32 became the default
    net = build_network(small_config(seed=10, dtype="float64"))
    p = tmp_path / "f64.ckpt"
    save_checkpoint(net, p)
    assert b'"dtype": "float64"' in p.read_bytes().split(b"\n")[1]
    loaded = load_checkpoint(p)
    assert loaded.config.dtype == "float64"
    for (name, va, _), (_, vb, _) in zip(net.parameters(), loaded.parameters()):
        assert vb.dtype == np.float64, name
        assert np.array_equal(va, vb), name


def test_checkpoint_truncated(tmp_path):
    net = build_network(small_config(seed=10))
    p = tmp_path / "t.ckpt"
    save_checkpoint(net, p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(p)


def test_checkpoint_config_mismatch_named(tmp_path):
    net = build_network(small_config(seed=10))
    p = tmp_path / "m.ckpt"
    save_checkpoint(net, p)
    other = small_config(seed=10, fc_hidden=16)
    with pytest.raises(DataError, match="fc_hidden"):
        load_checkpoint(p, expected_config=other)
    load_checkpoint(p, expected_config=small_config(seed=10))  # exact match fine


@pytest.mark.parametrize("config_edit", [{}, {"new_field": 1}], ids=["same-config", "new-field"])
def test_checkpoint_of_another_version_names_the_version(tmp_path, config_edit):
    # the version is checked before the config, whose fields another version may change
    p = tmp_path / "v2.ckpt"
    save_checkpoint(build_network(small_config(seed=10)), p)
    magic, blob = model.CHECKPOINT_MAGIC, p.read_bytes()
    end = blob.index(b"\n", len(magic))
    header = json.loads(blob[len(magic) : end])
    header["version"] = 2
    header["config"].update(config_edit)
    p.write_bytes(magic + json.dumps(header).encode() + blob[end:])
    with pytest.raises(DataError) as got:
        load_checkpoint(p)
    assert str(got.value) == f"{p}: unsupported checkpoint version 2"


def test_checkpoint_not_a_checkpoint(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"hello world")
    with pytest.raises(DataError):
        load_checkpoint(p)
