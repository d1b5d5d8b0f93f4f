import dataclasses

import numpy as np
import pytest

from auprobe import data, layers, model
from auprobe.data import DataError
from auprobe.layers import (
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
    TrainConfig,
    build_network,
    load_checkpoint,
    save_checkpoint,
    serialize_network,
    sgd_step,
    train,
)

from oracles import sgd_step_reference


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
    x = np.zeros((1, 16, 16))
    assert net.forward(x).shape == (7,)


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
        net.forward(np.zeros((1, 8, 8)))


# ---------------------------------------------------------------- trace


def test_forward_trace_replays_bit_identically():
    net = build_network(small_config(seed=5))
    x = np.random.default_rng(0).normal(size=(1, 16, 16))
    tr = net.forward_trace(x, image_id=7)
    assert tr.image_id == 7
    for stage, conv in zip(tr.stages, net.convs):
        np.testing.assert_array_equal(conv.forward(stage.conv_in), stage.conv_out)
        np.testing.assert_array_equal(relu_forward(stage.conv_out), stage.relu_out)
        pooled, switches = maxpool_forward(stage.relu_out)
        np.testing.assert_array_equal(pooled, stage.pool_out)
        np.testing.assert_array_equal(switches.rows, stage.switches.rows)
        np.testing.assert_array_equal(switches.cols, stage.switches.cols)


def test_inference_deterministic():
    net = build_network(small_config(seed=6))
    x = np.random.default_rng(1).normal(size=(1, 16, 16))
    a = net.forward_trace(x)
    b = net.forward_trace(x)
    assert a.logits.tobytes() == b.logits.tobytes()
    for sa, sb in zip(a.stages, b.stages):
        assert sa.pool_out.tobytes() == sb.pool_out.tobytes()


def test_dropout_inactive_at_inference():
    net = build_network(small_config(seed=7))
    x = np.random.default_rng(2).normal(size=(1, 16, 16))
    plain = net.forward(x)
    # train mode with p=0 must agree with inference exactly
    logits, _ = net.forward(x, train=True, dropout_p=0.0)
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
    x = np.random.default_rng(0).random((1, 48, 48))
    calls = _count_calls(monkeypatch, layers, ["im2col", "col2im"])
    logits, cache = net.forward(x, train=True, dropout_p=0.5,
                                dropout_rng=np.random.default_rng(1))
    _, grad_logits = softmax_cross_entropy(logits, 2)
    net.zero_grads()
    net.backward(cache, grad_logits)
    # one im2col per conv, kept for backward; no col2im into the image
    assert calls == {"im2col": 3, "col2im": 2}
    cached = [grad.copy() for _, _, grad in net.parameters()]

    # reference: every conv rebuilds its patch matrix and returns an input gradient
    net.zero_grads()
    g = net.fc2.backward(grad_logits, cache.fc2_in) * cache.drop_mask
    g = net.fc1.backward(relu_backward(g, cache.fc1_out), cache.flat)
    g = g.reshape(cache.stages[-1].pool_out.shape)
    for stage, conv in zip(reversed(cache.stages), reversed(net.convs)):
        g = relu_backward(maxpool_backward(g, stage.switches), stage.conv_out)
        g = conv.backward(g, stage.conv_in)
    assert calls == {"im2col": 6, "col2im": 5}
    for (name, _, grad), expected in zip(net.parameters(), cached):
        assert np.array_equal(grad, expected), name


def test_weight_decay_alone_shrinks_norms():
    net = build_network(small_config(seed=8))
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01, momentum=0.9)
    velocity = {name: np.zeros_like(v) for name, v, _ in net.parameters()}
    norms = [np.linalg.norm(net.fc1.weights)]
    net.zero_grads()  # zero gradient injection: only decay moves weights
    for _ in range(200):
        sgd_step(net, velocity, cfg, 1.0)
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
        for (_, _, grad), (_, _, ref_grad) in zip(net.parameters(), ref.parameters()):
            grad[...] = rng.normal(size=grad.shape)
            ref_grad[...] = grad
        sgd_step(net, velocity, train_cfg, 1.0 / 3)
        sgd_step_reference(ref.parameters(), ref_velocity, train_cfg, 1.0 / 3)
        for (name, value, _), (_, ref_value, _) in zip(net.parameters(), ref.parameters()):
            assert np.array_equal(value, ref_value), name
            assert np.array_equal(velocity[name], ref_velocity[name]), name


def test_sgd_step_non_finite_weight_names_parameter():
    net = build_network(small_config(fc_hidden=5000))
    velocity = {name: np.zeros_like(v) for name, v, _ in net.parameters()}
    net.zero_grads()
    net.fc1.grad_weights[4999, 15] = np.inf  # in fc1's last, partial block
    with pytest.raises(NumericError, match=r"fc1\.weights"):
        sgd_step(net, velocity, TrainConfig(), 1.0)


def test_train_batch_gradients_match_per_sample_loop(tiny_manifest, monkeypatch):
    """The first batch's gradients, fc1's from one GEMM over the batch, equal
    those of a loop that runs the one-sample Network.backward on each image.
    In float64, where the two summation orders agree to 1e-12."""
    config = dataclasses.replace(model.reduced_config(seed=4), dtype="float64")
    net = build_network(config)
    initial = serialize_network(net)
    cfg = TrainConfig(batch_size=8, epochs=1, seed=9, augment=False)
    seen = {}

    class FirstStep(Exception):
        pass

    def capture(net_, velocity, cfg_, grad_scale):
        seen.update((name, grad.copy()) for name, _, grad in net_.parameters())
        raise FirstStep

    monkeypatch.setattr(model, "sgd_step", capture)
    with pytest.raises(FirstStep):
        train(net, tiny_manifest, cfg)

    ref = build_network(config)
    assert serialize_network(ref) == initial
    labels = model._label_indices(tiny_manifest, ref.config.num_classes)
    order = np.random.default_rng([cfg.seed, 1, 0]).permutation(len(tiny_manifest))
    ref.zero_grads()
    for idx in order[: cfg.batch_size]:
        idx = int(idx)
        x = data.eval_transform(data.load_image(tiny_manifest, idx), ref.config.input_size)
        logits, cache = ref.forward(x, train=True, dropout_p=cfg.dropout_p,
                                    dropout_rng=np.random.default_rng([cfg.seed, 1, 2, idx]))
        _, grad = softmax_cross_entropy(logits, labels[idx])
        ref.backward(cache, grad)
    for name, _, expected in ref.parameters():
        got = seen[name]
        assert got.any(), name
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max(), err_msg=name)


def test_float64_input_runs_in_network_dtype():
    # a float64 image would otherwise promote every GEMM of a float32 network
    net = build_network(small_config())
    assert net.config.np_dtype == np.float32
    x64 = np.random.default_rng(12).normal(size=(1, 16, 16))
    x32 = x64.astype(np.float32)

    def arrays(trace):
        for stage in trace.stages:
            yield from (stage.conv_in, stage.conv_out, stage.relu_out, stage.pool_out)
        yield from (trace.flat, trace.fc1_out, trace.hidden, trace.logits)

    pairs = [(net.forward(x64), net.forward(x32)),
             (net.stage_outputs(x64[None], 2), net.stage_outputs(x32[None], 2))]
    pairs += zip(arrays(net.forward_trace(x64)), arrays(net.forward_trace(x32)))
    train_pass = [net.forward(x, train=True, dropout_rng=np.random.default_rng(1))
                  for x in (x64, x32)]
    pairs += [(train_pass[0][0], train_pass[1][0]),
              (train_pass[0][1].stages[0].cols, train_pass[1][1].stages[0].cols)]
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
    # expected zeroed fraction of hidden units is p over many trials
    net = build_network(small_config(seed=9, fc_hidden=64))
    x = np.random.default_rng(3).normal(size=(1, 16, 16))
    zeroed = 0
    trials = 10000 // 64 + 1
    total = 0
    for t in range(trials):
        _, cache = net.forward(x, train=True, dropout_p=0.5,
                               dropout_rng=np.random.default_rng(t))
        zeroed += int((cache.drop_mask == 0).sum())
        total += cache.drop_mask.size
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


def test_checkpoint_not_a_checkpoint(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"hello world")
    with pytest.raises(DataError):
        load_checkpoint(p)
