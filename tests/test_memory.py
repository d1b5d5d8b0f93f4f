"""Training allocates no temporary the size of a weight matrix.

tracemalloc sees numpy's data buffers, so the peak it records above the
memory already held at the start of a call is that call's largest set
of live temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from auprobe.model import ModelConfig, TrainConfig, build_network, sgd_step

# Peak extra allocation allowed, as a share of fc1's weight bytes. The
# whole-array update took 2.00x and a per-sample np.outer 1.01x.
LIMIT = 0.25


@pytest.fixture()
def net():
    # fc1: 1024 x (64 * 4 * 4) float64 weights, 8 MiB
    net = build_network(ModelConfig(input_size=32, conv_channels=(2, 4, 64),
                                    fc_hidden=1024, num_classes=4, dtype="float64"))
    assert net.fc1.weights.nbytes >= 8 * 2**20
    return net


def peak_extra_bytes(call) -> int:
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_sgd_step_allocates_no_weight_sized_temporary(net):
    rng = np.random.default_rng(0)
    for _, _, grad in net.parameters():
        grad[...] = rng.normal(size=grad.shape)
    velocity = {name: np.zeros_like(value) for name, value, _ in net.parameters()}
    cfg = TrainConfig(learning_rate=0.01, weight_decay=0.001, momentum=0.9)
    extra = peak_extra_bytes(lambda: sgd_step(net, velocity, cfg, 1.0 / 16))
    assert extra < LIMIT * net.fc1.weights.nbytes, extra


def test_fc1_batch_weight_gradient_allocates_no_weight_sized_temporary(net):
    rng = np.random.default_rng(1)
    grad_rows = rng.normal(size=(16, net.fc1.out_features))
    input_rows = rng.normal(size=(16, net.fc1.in_features))
    net.zero_grads()
    extra = peak_extra_bytes(
        lambda: net.fc1.backward(grad_rows, input_rows, input_grad=False))
    assert extra < LIMIT * net.fc1.weights.nbytes, extra
    assert net.fc1.grad_weights.any()


def test_float32_init_builds_no_float64_weight_copy():
    # fc1: 1024 x 1024 float32 weights, 4 MiB. Drawn in one piece, its
    # float64 temporary (8 MiB) and the cast copy were live at once.
    config = ModelConfig(input_size=32, conv_channels=(2, 4, 64), fc_hidden=1024,
                         num_classes=4)
    built = []
    extra = peak_extra_bytes(lambda: built.append(build_network(config)))
    held = sum(value.nbytes + grad.nbytes for _, value, grad in built[0].parameters())
    assert built[0].fc1.weights.dtype == np.float32
    assert extra < held + LIMIT * built[0].fc1.weights.nbytes, extra
