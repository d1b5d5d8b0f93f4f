"""A float32 network computes in float32 from end to end.

Every layer entry point that training, harvest and deconvolution call is
wrapped to record the dtype of each float array it takes or returns. One
float64 array anywhere (a float64 image, a scalar promoted under numpy's
older value-based rules or under NEP 50) would run the GEMMs after it in
float64 and show up here.
"""

import numpy as np
import pytest

from auprobe import data, deconv, harvest, layers, model

# (namespace, name) of every function the three paths call per layer:
# the model and deconv modules hold their own names for the layer helpers.
ENTRY_POINTS = [
    (layers, "im2col"), (layers, "col2im"),
    (layers.ConvLayer, "forward"), (layers.ConvLayer, "backward"),
    (layers.ConvLayer, "transpose_apply"),
    (layers.FCLayer, "forward"), (layers.FCLayer, "backward"),
    (model, "relu_forward"), (model, "relu_backward"),
    (model, "maxpool_forward"), (model, "maxpool_backward"), (model, "maxpool_values"),
    (model, "softmax_cross_entropy"), (model, "dropout_mask"),
    (deconv, "_unpool_window"), (deconv, "relu_forward"),
]


def _float_arrays(values):
    for v in values:
        if isinstance(v, tuple):
            yield from _float_arrays(v)
        elif isinstance(v, np.ndarray) and v.dtype.kind == "f":
            yield v


@pytest.fixture()
def dtypes_seen(monkeypatch):
    seen: dict[str, set] = {}

    def spy(owner, name):
        fn = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            for a in _float_arrays((*args, *kwargs.values(), out)):
                seen.setdefault(key, set()).add(a.dtype)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ENTRY_POINTS:
        spy(owner, name)
    return seen


def test_float32_train_harvest_deconv_stay_float32(tmp_path, dtypes_seen):
    spec = data.default_synthetic_spec(samples_per_class=2, seed=7)
    manifest = data.generate_synthetic(spec, tmp_path)
    net = model.build_network(model.reduced_config(seed=7))
    assert net.config.dtype == "float32"
    model.train(net, manifest, model.TrainConfig(batch_size=4, epochs=1, seed=7))
    for name, value, grad in net.parameters():
        assert value.dtype == grad.dtype == np.float32, name

    db = harvest.harvest(net, manifest)
    rec = harvest.top_n(db, 0, range(db.num_images), 1)[0]
    # eval_transform's default float64 image, cast by forward_trace
    x = data.eval_transform(data.load_image(manifest, rec.image_id), net.config.input_size)
    trace = net.forward_trace(x, image_id=rec.image_id)
    proj = deconv.project(trace, net, db.layer, 0, (rec.row, rec.col))
    assert proj.dtype == np.float32
    assert np.abs(proj).sum() > 0

    assert set(dtypes_seen) == {f"{o.__name__}.{n}" for o, n in ENTRY_POINTS}
    wider = {key: sorted(str(d) for d in found) for key, found in dtypes_seen.items()
             if found != {np.dtype(np.float32)}}
    assert not wider
