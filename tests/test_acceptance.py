"""End-to-end acceptance suite.

One test per exit criterion, each at its stated tolerance; a PASS/FAIL
line per criterion is printed in the terminal summary. The detector
recovery and overfit runs train real models, so this module dominates
suite runtime (several minutes on 2 CPU cores).
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from auprobe import association, data, deconv, harvest, model
from auprobe.cli import main as cli_main
from auprobe.layers import ConvLayer, FCLayer, softmax_cross_entropy
from oracles import inner_product

from conftest import record_criterion
from oracles import (DeconvStage, central_difference, project_stages, relative_error,
                     transpose_in_frame)

RNG = np.random.default_rng


# ------------------------------------------------------------ criterion 1


def test_c1_gradient_correctness():
    t0 = time.time()
    rng = RNG(101)
    checked = 0
    worst = 0.0

    conv = ConvLayer(1, 3, 5, rng=rng)
    x = rng.normal(size=(1, 1, 6, 6))
    target = rng.normal(size=(3, 1, 6, 6))
    conv.backward(target, x)

    def conv_loss():
        return inner_product(target, conv.forward(x))

    for index in np.ndindex(conv.kernels.shape):
        fd = central_difference(conv_loss, conv.kernels, index, eps=1e-5)
        worst = max(worst, relative_error(conv.grad_kernels[index], fd))
        checked += 1
    for index in np.ndindex(conv.bias.shape):
        fd = central_difference(conv_loss, conv.bias, index, eps=1e-5)
        worst = max(worst, relative_error(conv.grad_bias[index], fd))
        checked += 1

    fc = FCLayer(36, 16, rng=rng)
    fx = rng.normal(size=(1, 36))
    ftarget = rng.normal(size=(1, 16))
    fc.backward(ftarget, fx)

    def fc_loss():
        return inner_product(ftarget, fc.forward(fx))

    # Distinct indices, so the count gate is met by the test's design, not by the seed.
    flat = rng.choice(fc.weights.size, size=100, replace=False)
    for index in zip(*np.unravel_index(flat, fc.weights.shape)):
        fd = central_difference(fc_loss, fc.weights, index, eps=1e-5)
        worst = max(worst, relative_error(fc.grad_weights[index], fd))
        checked += 1
    for index in np.ndindex(fc.bias.shape):
        fd = central_difference(fc_loss, fc.bias, index, eps=1e-5)
        worst = max(worst, relative_error(fc.grad_bias[index], fd))
        checked += 1

    logits = rng.normal(size=8)
    label = 3
    _, grad = softmax_cross_entropy(logits, label)

    def sm_loss():
        return softmax_cross_entropy(logits, label)[0]

    for index in np.ndindex(logits.shape):
        fd = central_difference(sm_loss, logits, index, eps=1e-5)
        worst = max(worst, relative_error(grad[index], fd))
        checked += 1

    elapsed = time.time() - t0
    ok = checked >= 200 and worst < 1e-4 and elapsed < 60
    record_criterion(
        "1 gradient correctness",
        ok,
        f"{checked} parameters, max relative error {worst:.2e}, {elapsed:.1f}s",
    )
    assert checked >= 200
    assert worst < 1e-4
    assert elapsed < 60


# ------------------------------------------------------------ criterion 2


def test_c2_adjoint_identity():
    t0 = time.time()
    cfg = model.ModelConfig()
    rng = RNG(202)
    worst = 0.0
    sizes = [cfg.input_size] + cfg.stage_sizes()[:-1]  # spatial size each conv sees
    in_channels = (1,) + cfg.conv_channels[:-1]
    for idx, (cin, cout) in enumerate(zip(in_channels, cfg.conv_channels)):
        layer = ConvLayer(cin, cout, cfg.kernel_size, rng=rng)  # zero bias
        s = sizes[idx]
        for _ in range(100):
            x = rng.normal(size=(cin, 1, s, s))
            y = rng.normal(size=(cout, 1, s, s))
            lhs = inner_product(layer.forward(x), y)
            rhs = inner_product(x, transpose_in_frame(layer, y))
            rel = abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-10
    record_criterion(
        "2 adjoint identity",
        ok,
        f"3 geometries x 100 pairs, worst normalized defect {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


# ------------------------------------------------------------ criterion 3


def test_c3_deconvnet_reduction_and_support():
    # linear toy network: reverse pathway equals backprop exactly
    rng = RNG(303)
    conv1 = ConvLayer(1, 2, 5, rng=rng)
    conv2 = ConvLayer(2, 3, 5, rng=rng)
    x = rng.normal(size=(1, 1, 12, 12))
    mid = conv1.forward(x)
    one_hot = np.zeros((3, 1, 12, 12))
    one_hot[2, 0, 5, 7] = rng.normal() + 2.0
    stages = [
        DeconvStage(conv1, None, relu=False),
        DeconvStage(conv2, None, relu=False),
    ]
    via_project = project_stages(stages, one_hot)
    via_backward = conv1.backward(conv2.backward(one_hot.copy(), mid), x)
    toy_defect = float(np.abs(via_project - via_backward).max())

    # support containment on the full nonlinear default model
    net = model.build_network(model.ModelConfig(seed=30))
    violations = 0
    triples = 0
    for _ in range(5):
        img = rng.normal(size=(1, 96, 96))
        trace = net.forward_trace(img)
        pool = trace.stages[2].pooled[:, 0]
        for _ in range(10):
            m = int(rng.integers(pool.shape[0]))
            r = int(rng.integers(pool.shape[1]))
            c = int(rng.integers(pool.shape[2]))
            proj = deconv.project(trace, net, 3, m, (r, c))
            x0, y0, x1, y1 = deconv.receptive_field(net.config, 3, (r, c))
            outside = proj.copy()
            outside[0, y0 : y1 + 1, x0 : x1 + 1] = 0
            violations += int(outside.any())
            triples += 1
    ok = toy_defect <= 1e-10 and violations == 0 and triples == 50
    record_criterion(
        "3 deconvnet reduction + support containment",
        ok,
        f"linear-toy max defect {toy_defect:.2e}; {violations}/{triples} support violations",
    )
    assert toy_defect <= 1e-10
    assert violations == 0


# ------------------------------------------------------------ criterion 4


def test_c4_distance_unit_suite():
    identical = association.kl_term([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
    hand_kl = association.kl_term([2.0, 1.0], [1.0, 2.0])
    hand_sym = association.symmetric_distance([2.0, 1.0], [1.0, 2.0])
    rng = RNG(404)
    sym_exact = True
    for _ in range(100):
        r = rng.uniform(0, 10, 9)
        q = rng.uniform(0, 10, 9)
        if association.symmetric_distance(r, q) != association.symmetric_distance(q, r):
            sym_exact = False
    worst = np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        r = rng.uniform(0, 10, k)
        q = rng.uniform(0, 10, k)
        worst = min(worst, association.kl_term(r, q, normalize=True))
    ok = (
        identical == 0.0
        and abs(hand_kl - math.log(2)) < 1e-12
        and abs(hand_sym - 2 * math.log(2)) < 1e-12
        and sym_exact
        and worst >= -1e-12
    )
    record_criterion(
        "4 distance function unit suite",
        ok,
        f"kl(R,R)={identical}, hand defects {abs(hand_kl - math.log(2)):.1e}/"
        f"{abs(hand_sym - 2 * math.log(2)):.1e}, normalized min {worst:.2e}",
    )
    assert identical == 0.0
    assert abs(hand_kl - math.log(2)) < 1e-12
    assert abs(hand_sym - 2 * math.log(2)) < 1e-12
    assert sym_exact
    assert worst >= -1e-12


# ------------------------------------------------------------ criterion 5


def test_c5_overfit_sanity(tmp_path):
    t0 = time.time()
    spec = data.default_synthetic_spec(samples_per_class=8, seed=50)
    manifest = data.generate_synthetic(spec, tmp_path)
    assert len(manifest) == 32
    net = model.build_network(model.reduced_config(seed=50))
    cfg = model.TrainConfig(batch_size=8, epochs=300, seed=50, augment=False)
    metrics = model.train(net, manifest, cfg)
    best = max(m.train_acc for m in metrics)
    hit_epoch = next((m.epoch for m in metrics if m.train_acc >= 0.99), None)
    elapsed = time.time() - t0
    ok = best >= 0.99 and elapsed < 600
    record_criterion(
        "5 overfit sanity",
        ok,
        f"accuracy {best:.3f} (>=0.99 at epoch {hit_epoch}), {elapsed:.0f}s",
    )
    assert best >= 0.99
    assert elapsed < 600


# ------------------------------------------------------------ criterion 6


def _recovery_for_seed(seed: int, epochs: int, workdir: Path):
    spec = data.default_synthetic_spec(seed=seed)
    manifest = data.generate_synthetic(spec, workdir)
    assert len(manifest) == 400 and len(spec.units) == 4
    net = model.build_network(model.reduced_config(seed=seed))
    metrics = model.train(net, manifest, model.reduced_train_config(seed=seed, epochs=epochs))
    acc = max(m.train_acc for m in metrics)
    db = harvest.harvest(net, manifest)
    recovered = 0
    details = []
    for unit in spec.units:
        prof = association.profile(db, manifest, unit.unit_id, n=9)
        ratio = prof.argmax_distance / max(float(np.median(prof.distances)), 1e-12)
        rec = harvest.top_n(db, prof.argmax_map, range(db.num_images), 1)[0]
        img = data.load_image(manifest, rec.image_id)
        x = data.eval_transform(img, net.config.input_size, dtype=net.config.np_dtype)
        trace = net.forward_trace(x, image_id=rec.image_id)
        proj = deconv.project(trace, net, db.layer, prof.argmax_map, (rec.row, rec.col))
        box = data.region_in_model_coords(unit.region, spec.canvas_size, net.config.input_size)
        energy = deconv.projection_energy_fraction(proj, box)
        hit = ratio >= 2.0 and energy >= 0.5
        recovered += int(hit)
        details.append(f"u{unit.unit_id}:m{prof.argmax_map} r{ratio:.1f} e{energy:.2f}")
    return acc, recovered, " ".join(details)


def test_c6_detector_recovery():
    t0 = time.time()
    seed_pass = 0
    lines = []
    for seed in (1, 2, 3):
        with tempfile.TemporaryDirectory() as d:
            acc, recovered, detail = _recovery_for_seed(seed, epochs=60, workdir=Path(d))
        passed = acc >= 0.95 and recovered >= 3
        seed_pass += int(passed)
        lines.append(f"seed {seed}: acc {acc:.2f}, {recovered}/4 units [{detail}]")
    elapsed = time.time() - t0
    ok = seed_pass >= 2 and elapsed < 1200
    record_criterion(
        "6 end-to-end detector recovery",
        ok,
        f"{seed_pass}/3 seeds passed in {elapsed:.0f}s; " + "; ".join(lines),
    )
    assert seed_pass >= 2, lines
    assert elapsed < 1200


# ------------------------------------------------------------ criterion 7


def test_c7_augmentation_contract():
    t0 = time.time()
    img = RNG(70).integers(0, 255, size=(64, 64)).astype(np.uint8)
    shapes_ok = True
    stats_ok = True
    for i in range(10000):
        t = data.augment(img, RNG([70, i]))
        if t.shape != (1, 96, 96):
            shapes_ok = False
            break
        if i % 500 == 0:
            if abs(float(t.mean())) >= 1e-6 or abs(float(t.std()) - 1.0) >= 1e-6:
                stats_ok = False
    full_stats = all(
        abs(float(t.mean())) < 1e-6 and abs(float(t.std()) - 1.0) < 1e-6
        for t in (data.augment(img, RNG([71, i])) for i in range(200))
    )
    repro = data.augment(img, RNG(777)).tobytes() == data.augment(img, RNG(777)).tobytes()
    elapsed = time.time() - t0
    ok = shapes_ok and stats_ok and full_stats and repro and elapsed < 60
    record_criterion(
        "7 augmentation contract",
        ok,
        f"10000 samples, shapes {'ok' if shapes_ok else 'BAD'}, standardization "
        f"{'ok' if stats_ok and full_stats else 'BAD'}, reproducible {repro}, {elapsed:.0f}s",
    )
    assert ok


# ------------------------------------------------------------ criterion 8


def test_c8_checkpoint_roundtrip(tmp_path):
    spec = data.default_synthetic_spec(samples_per_class=3, seed=80)
    manifest = data.generate_synthetic(spec, tmp_path / "ds")
    net = model.build_network(model.reduced_config(seed=80))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    model.save_checkpoint(net, p1)
    loaded = model.load_checkpoint(p1)
    model.save_checkpoint(loaded, p2)
    bytes_equal = p1.read_bytes() == p2.read_bytes()

    db_mem = harvest.harvest(net, manifest)
    db_load = harvest.harvest(loaded, manifest)
    f1 = tmp_path / "mem.csv"
    f2 = tmp_path / "load.csv"
    db_mem.save(f1)
    db_load.save(f2)
    rows_equal = f1.read_bytes() == f2.read_bytes()
    ok = bytes_equal and rows_equal
    record_criterion(
        "8 checkpoint round-trip",
        ok,
        f"save-load-save bytes equal: {bytes_equal}; harvest rows equal: {rows_equal}",
    )
    assert ok


# ------------------------------------------------------------ criterion 9


def test_c9_pipeline_determinism(tmp_path):
    spec = data.default_synthetic_spec(samples_per_class=4, seed=90)
    spec_path = tmp_path / "spec.json"
    data.save_synthetic_spec(spec, spec_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "model.input_size=48\nmodel.conv_channels=8,16,32\nmodel.fc_hidden=32\n"
        "model.num_classes=4\nmodel.seed=9\n"
        "train.batch_size=8\ntrain.epochs=2\ntrain.seed=9\ntrain.augment=false\n"
    )
    profiles = []
    argmaxes = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli_main(["pipeline", "--spec", str(spec_path), "--config", str(cfg),
                       "--out", str(out), "--n", "3"])
        assert rc == 0
        csvs = sorted((out / "profiles").glob("au_*.csv"))
        profiles.append({p.name: p.read_bytes() for p in csvs})
        argmaxes.append([association.load_profile_csv(p)[1] for p in csvs])
    same_files = profiles[0].keys() == profiles[1].keys() and len(profiles[0]) == 4
    same_bytes = all(profiles[0][k] == profiles[1][k] for k in profiles[0])
    same_argmax = argmaxes[0] == argmaxes[1]
    ok = same_files and same_bytes and same_argmax
    record_criterion(
        "9 pipeline determinism",
        ok,
        f"profile CSVs identical: {same_bytes}; argmax maps identical: {same_argmax} "
        f"({len(profiles[0])} AUs)",
    )
    assert ok
