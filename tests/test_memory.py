"""Training allocates no temporary the size of a weight matrix.

tracemalloc sees numpy's data buffers, so the peak it records above the
memory already held at the start of a call is that call's largest set
of live temporaries. It does not see which pages of an allocation are
written, so a train call's growth in resident memory is measured in a
fresh process.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from auprobe import data, model
from auprobe.model import ModelConfig, TrainConfig, build_network, sgd_step, train

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


def test_fused_fc1_step_allocates_no_weight_sized_temporary(net):
    rng = np.random.default_rng(2)
    for name, _, grad in net.parameters():
        if not name.startswith("fc1."):
            grad[...] = rng.normal(size=grad.shape)
    fc1_rows = (rng.normal(size=(16, net.fc1.out_features)),
                rng.normal(size=(16, net.fc1.in_features)))
    velocity = {name: np.zeros_like(value) for name, value, _ in net.parameters()}
    cfg = TrainConfig(learning_rate=0.01, weight_decay=0.001, momentum=0.9)
    extra = peak_extra_bytes(lambda: sgd_step(net, velocity, cfg, 1.0 / 16, fc1_rows))
    assert extra < LIMIT * net.fc1.weights.nbytes, extra
    for name, value in velocity.items():
        assert value.all(), name


# Runs one batch of train in a fresh process and prints its peak-RSS growth
# over the RSS just before the call, and fc1's weight bytes. fc1: 16384 x
# 1024 float32 weights, 64 MiB. The peak is the process's VmHWM, not
# ru_maxrss: Linux carries the high-water mark of the process that ran
# exec into ru_maxrss, which after other tests read over 250 MB before the
# script had done anything.
_TRAIN_RSS_SCRIPT = """
import json, sys
from auprobe import data, model
def status_bytes(field):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024
manifest = data.load_manifest(sys.argv[1])
net = model.build_network(model.ModelConfig(input_size=32, conv_channels=(2, 4, 64),
                                            fc_hidden=16384, num_classes=4))
cfg = model.TrainConfig(batch_size=len(manifest), epochs=1, augment=False)
before = status_bytes("VmRSS")
model.train(net, manifest, cfg)
growth = status_bytes("VmHWM") - before
print(json.dumps({"growth": growth, "fc1_bytes": net.fc1.weights.nbytes}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_train_holds_two_fc1_sized_arrays(tmp_path):
    """A train call's resident memory grows by fc1's velocity and no fc1-sized
    gradient: the update forms fc1's gradient tile by tile, and nothing writes
    the pages of fc1.grad_weights. Zeroing and filling that buffer made the
    growth about 2x fc1's weight bytes."""
    manifest = data.generate_synthetic(data.default_synthetic_spec(samples_per_class=2, seed=1),
                                       tmp_path / "ds")
    assert len(manifest) == 8
    src = str(Path(data.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _TRAIN_RSS_SCRIPT,
                           str(tmp_path / "ds" / "manifest.csv")],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["fc1_bytes"] == 64 * 2**20
    assert result["growth"] < 1.5 * result["fc1_bytes"], result


def test_fc1_batch_weight_gradient_allocates_no_weight_sized_temporary(net):
    rng = np.random.default_rng(1)
    grad_rows = rng.normal(size=(16, net.fc1.out_features))
    input_rows = rng.normal(size=(16, net.fc1.in_features))
    assert not net.fc1.grad_weights.any()
    extra = peak_extra_bytes(lambda: net.fc1.backward(grad_rows, input_rows))
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


def test_batch_head_training_holds_one_chunk_of_patch_matrices(net, tmp_path, monkeypatch):
    """A train call that runs the head once per batch keeps every chunk's pooled
    maps and switches until backward, but the patch matrices of one chunk per
    stage: the others are rebuilt in backward. Kept for every chunk, they would
    cost 184 MB at ModelConfig()'s batches of 8."""
    config = net.config
    assert model.head_per_batch(config)
    patch_bytes = 8 * sum(model._patch_elements(config))  # one image's, 358 KB
    monkeypatch.setattr(model, "TRAIN_CHUNK_BYTES", 1)  # chunks of one image
    manifest = data.generate_synthetic(data.default_synthetic_spec(samples_per_class=4, seed=2),
                                       tmp_path / "ds")
    assert len(manifest) == 16

    def peak(images):
        part = data.DatasetManifest(rows=manifest.rows[:images], base_dir=manifest.base_dir)
        fresh = build_network(config)
        cfg = TrainConfig(batch_size=images, epochs=1, augment=False)
        return peak_extra_bytes(lambda: train(fresh, part, cfg))

    # each further image adds its input, maps, switches and head rows: about 100 KB
    grown = peak(16) - peak(1)
    assert grown < 15 * patch_bytes / 2, (grown, patch_bytes)
