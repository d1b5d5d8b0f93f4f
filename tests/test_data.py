from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe import association, cli, data, imageio
from auprobe.data import (
    DataError,
    DatasetManifest,
    ManifestRow,
    augment,
    default_synthetic_spec,
    eval_coordinate_map,
    eval_transform,
    generate_synthetic,
    load_manifest,
    load_synthetic_spec,
    save_synthetic_spec,
    split,
)
from auprobe.harvest import ActivationDB

from oracles import bilinear_sample_masked, resize_meshgrid, standardize_two_pass


@pytest.fixture
def tiny_dataset(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(3):
        name = f"img_{i}.pgm"
        imageio.write_pgm(tmp_path / name, rng.integers(0, 255, (32, 32)).astype(np.uint8))
        rows.append(ManifestRow(name, "joy", frozenset({1, 6, 12}), f"s{i}", f"q{i}"))
    manifest = DatasetManifest(rows=rows, base_dir=tmp_path)
    manifest.save(tmp_path / "manifest.csv")
    return tmp_path / "manifest.csv"


# ------------------------------------------------------------ manifest


def test_load_manifest_happy_path(tiny_dataset):
    m = load_manifest(tiny_dataset)
    assert len(m) == 3
    assert m.rows[0].au_set == frozenset({1, 6, 12})
    assert m.labels() == ["joy"]


def test_au_set_parsing(tmp_path, tiny_dataset):
    text = tiny_dataset.read_text().splitlines()
    assert ";".join(["1", "12", "6"]) not in text[1]  # saved sorted
    m = load_manifest(tiny_dataset)
    assert m.au_ids() == [1, 6, 12]


def test_missing_image_names_row(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "path,label,aus,subject,sequence,crop\nnope.pgm,joy,1,s0,q0,\n"
    )
    with pytest.raises(DataError, match="line 2"):
        load_manifest(tmp_path / "manifest.csv")


def test_malformed_au_rejected(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "path,label,aus,subject,sequence,crop\nx.pgm,joy,1;banana,s0,q0,\n"
    )
    with pytest.raises(DataError, match="line 2"):
        load_manifest(tmp_path / "manifest.csv")


def test_crop_box_applied(tmp_path):
    img = np.zeros((40, 40), dtype=np.uint8)
    img[10:30, 5:25] = 200
    imageio.write_pgm(tmp_path / "f.pgm", img)
    rows = [ManifestRow("f.pgm", "joy", frozenset(), "s", "q", (5, 10, 25, 30))]
    m = DatasetManifest(rows=rows, base_dir=tmp_path)
    crop = data.load_image(m, 0)
    assert crop.shape == (20, 20)
    assert crop.min() == 200


def test_manifest_roundtrip_hash(tiny_dataset, tmp_path):
    m = load_manifest(tiny_dataset)
    m.save(tmp_path / "copy.csv")
    again = load_manifest(tmp_path / "copy.csv", validate_images=False)
    assert again.content_hash() == m.content_hash()


# ------------------------------------------------------------ augment


def test_augment_contract():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 255, (70, 60)).astype(np.uint8)
    t = augment(img, np.random.default_rng(5))
    assert t.shape == (1, 96, 96)
    assert abs(t.mean()) < 1e-6
    assert abs(t.std() - 1.0) < 1e-6


def test_augment_deterministic_per_seed():
    img = np.random.default_rng(1).integers(0, 255, (50, 50)).astype(np.uint8)
    a = augment(img, np.random.default_rng(42))
    b = augment(img, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()
    c = augment(img, np.random.default_rng(43))
    assert a.tobytes() != c.tobytes()


def test_standardize_guard_on_constant_input():
    # the epsilon guard turns zero-variance images into zeros, not NaN
    np.testing.assert_array_equal(data.standardize(np.full((9, 9), 77.0)), np.zeros((9, 9)))
    # a black image stays constant through rotate (zero fill) and resize,
    # so the full augment path hits the guard and yields exact zeros
    t = augment(np.zeros((30, 30), dtype=np.uint8), np.random.default_rng(0))
    np.testing.assert_array_equal(t, np.zeros((1, 96, 96)))
    # nonzero constants pick up zero-filled rotation corners; the guard
    # still keeps everything finite
    t = augment(np.full((30, 30), 77, dtype=np.uint8), np.random.default_rng(0))
    assert np.isfinite(t).all()


@given(st.integers(8, 40), st.integers(8, 40), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_augment_shape_invariant(h, w, seed):
    img = np.random.default_rng(seed).integers(0, 255, (h, w)).astype(np.uint8)
    assert augment(img, np.random.default_rng(seed)).shape == (1, 96, 96)


def test_augment_too_small_rejected():
    with pytest.raises(DataError):
        augment(np.zeros((4, 4)), np.random.default_rng(0))


def test_eval_transform_deterministic():
    img = np.random.default_rng(2).integers(0, 255, (64, 64)).astype(np.uint8)
    a = eval_transform(img, 48)
    b = eval_transform(img, 48)
    assert a.tobytes() == b.tobytes()
    assert a.shape == (1, 48, 48)
    assert abs(a.mean()) < 1e-6 and abs(a.std() - 1.0) < 1e-6


def test_eval_coordinate_map_tracks_bright_pixel():
    src = out = 48
    scale, offset = eval_coordinate_map(src, out)
    img = np.zeros((src, src))
    img[30, 12] = 255.0
    view = data._resized_crop(img, out)
    yy, xx = np.meshgrid(np.arange(out), np.arange(out), indexing="ij")
    cy = (view * yy).sum() / view.sum()
    cx = (view * xx).sum() / view.sum()
    assert abs(cy - (scale * 30 + offset)) < 0.2
    assert abs(cx - (scale * 12 + offset)) < 0.2


def planned_resize(img, out_h, out_w):
    """The whole out_h x out_w resize, sampled through both axes' full plans."""
    h, w = img.shape
    return data._resample(img, data._axis_plan(h, out_h), data._axis_plan(w, out_w))


@pytest.mark.parametrize("h, w", [(48, 48), (8, 8), (13, 40), (120, 33), (96, 96)])
def test_separable_resize_equals_meshgrid_sampling(h, w):
    rng = np.random.default_rng(h * w)
    img = rng.integers(0, 256, (h, w)).astype(np.uint8)
    for out_h, out_w in [(51, 51), (99, 99), (7, 30), (200, 5), (h, w)]:
        assert np.array_equal(planned_resize(img, out_h, out_w), resize_meshgrid(img, out_h, out_w))
    for size in (8, 45, 96):
        view = resize_meshgrid(img, size + 3, size + 3)[1 : 1 + size, 1 : 1 + size]
        assert np.array_equal(eval_transform(img, size), data.standardize(view)[None])
        assert np.array_equal(data.eval_view(img, size),
                              np.clip(np.rint(view), 0, 255).astype(np.uint8))


def test_bilinear_sample_equals_masked_gathers_out_of_range():
    # rotate's coordinates fall outside the image near the corners
    rng = np.random.default_rng(3)
    img = rng.normal(size=(10, 12))
    img[2, 3], img[5, 5], img[0, 11] = np.nan, np.inf, -np.inf
    ys, xs = rng.uniform(-3, 14, (20, 17)), rng.uniform(-3, 15, (20, 17))
    ys[0, :5] = [-1.0, 9.0, 10.0, 0.0, 9.5]
    got = data._bilinear_sample(img, ys, xs)
    assert got.tobytes() == bilinear_sample_masked(img, ys, xs).tobytes()
    square = rng.integers(0, 256, (33, 33)).astype(np.float64)
    yy, xx = np.meshgrid(np.arange(33.0), np.arange(33.0), indexing="ij")
    for degrees in (-15.0, 7.3, 90.0, 180.0):
        theta = np.deg2rad(degrees)
        src_y = 16 + (yy - 16) * np.cos(theta) - (xx - 16) * np.sin(theta)
        src_x = 16 + (yy - 16) * np.sin(theta) + (xx - 16) * np.cos(theta)
        assert np.array_equal(data.rotate(square, degrees),
                              bilinear_sample_masked(square, src_y, src_x))


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "scaled", "constant", "crop"]))
@settings(max_examples=200, deadline=None)
def test_standardize_equals_mean_then_std(h, w, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        img = rng.uniform(0, 255, (h, w))
    elif kind == "scaled":
        img = rng.normal(size=(h, w)) * 10.0 ** rng.uniform(-9, 9)
    elif kind == "constant":
        img = np.full((h, w), float(rng.integers(0, 256)))
    else:
        img = data._resized_crop(rng.integers(0, 256, (h + 8, w + 8)).astype(np.uint8), h + 7)
    assert data.standardize(img).tobytes() == standardize_two_pass(img).tobytes()


OFFSETS = [(top, left) for top in range(4) for left in range(4)]


@pytest.mark.parametrize("h, w", [(8, 8), (9, 13), (13, 40), (31, 31), (48, 48), (57, 44),
                                  (120, 33)])
def test_planned_crop_equals_meshgrid_crop(h, w):
    # every augment offset, upsampled and downsampled, square, non-square and odd
    img = np.random.default_rng(h * 1000 + w).integers(0, 256, (h, w)).astype(np.uint8)
    for size in (8, 45, 48, 96):
        full = resize_meshgrid(img, size + 3, size + 3)
        for top, left in OFFSETS:
            want = full[top : top + size, left : left + size]
            assert data._resized_crop(img, size, top, left).tobytes() == want.tobytes()


def test_planned_crop_keeps_nonfinite_edges_out_of_weight_zero_taps():
    # a clipped coordinate's second tap falls past the last row or column
    # with weight 0; it must read zero, not 0 x inf = nan
    img = np.random.default_rng(11).uniform(0, 255, (9, 14))
    img[-1, 3], img[-1, 10], img[4, -1], img[7, -1] = np.inf, np.nan, -np.inf, np.inf
    with np.errstate(invalid="ignore"):  # inside taps of weight 0 give nan in both
        for size in (8, 45, 48, 96):
            full = resize_meshgrid(img, size + 3, size + 3)
            for top, left in OFFSETS:
                want = full[top : top + size, left : left + size]
                assert data._resized_crop(img, size, top, left).tobytes() == want.tobytes()
        edge = data._resized_crop(img, 45, 3, 3)
        assert planned_resize(img, 30, 30).tobytes() == resize_meshgrid(img, 30, 30).tobytes()
    assert np.isposinf(edge[-1]).any() and np.isneginf(edge[:, -1]).any()


def test_plan_cache_cold_and_warm_give_the_same_bits():
    img = np.random.default_rng(12).integers(0, 256, (37, 52)).astype(np.uint8)

    def outputs():
        crops = [data._resized_crop(img, size, top, left)
                 for size in (8, 48) for top, left in OFFSETS]
        return [out.tobytes() for out in crops + [planned_resize(img, 51, 20)]]

    data._axis_plan.cache_clear()
    cold = outputs()
    hits = data._axis_plan.cache_info().hits
    assert outputs() == cold
    assert data._axis_plan.cache_info().hits > hits
    weights, index = data._axis_plan(37, 51)[0]
    with pytest.raises(ValueError):
        weights[0] = 2.0
    with pytest.raises(ValueError):
        index[0] = 0


# ----------------------------------------------------------- synthetic


def _ncc(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(float) - a.mean()
    b = b.astype(float) - b.mean()
    denom = np.sqrt((a**2).sum() * (b**2).sum())
    return float((a * b).sum() / denom) if denom else 0.0


def test_generate_synthetic_counts_and_tags(tmp_path):
    spec = default_synthetic_spec(samples_per_class=5)
    m = generate_synthetic(spec, tmp_path)
    assert len(m) == 20
    for row in m.rows:
        assert row.au_set == spec.class_rules[row.label]


def test_generate_synthetic_bit_reproducible(tmp_path):
    spec = default_synthetic_spec(samples_per_class=2)
    a = generate_synthetic(spec, tmp_path / "a")
    b = generate_synthetic(spec, tmp_path / "b")
    for ra, rb in zip(a.rows, b.rows):
        assert (a.base_dir / ra.path).read_bytes() == (b.base_dir / rb.path).read_bytes()
    assert a.content_hash() == b.content_hash()


def test_generate_synthetic_zero_jitter_fixed_positions(tmp_path):
    spec = default_synthetic_spec(samples_per_class=2)
    spec.position_jitter = 0
    spec.noise_sigma = 0.0
    spec.intensity_range = (1.0, 1.0)
    m = generate_synthetic(spec, tmp_path)
    imgs = [data.load_image(m, i) for i in range(len(m))]
    # same class, zero jitter, zero noise: identical renderings
    assert imgs[0].tobytes() == imgs[1].tobytes()


def test_glyphs_present_at_recorded_placement(tmp_path):
    import csv

    spec = default_synthetic_spec(samples_per_class=4)
    m = generate_synthetic(spec, tmp_path)
    with open(tmp_path / "placements.csv", newline="") as fh:
        placements = list(csv.DictReader(fh))
    assert placements
    by_path = {r.path: data.load_image(m, i) for i, r in enumerate(m.rows)}
    pad = 2  # border of background around the template so solid glyphs correlate
    for p in placements:
        unit = spec.unit_by_id(int(p["unit_id"]))
        stencil = data.GLYPHS[unit.glyph]()
        gh, gw = stencil.shape
        y, x = int(p["y"]), int(p["x"])
        template = np.pad(stencil, pad)
        img = by_path[p["path"]].astype(float)
        h, w = img.shape
        # clip the padded window at the image border and trim the
        # template to match (corner regions sit 1px from the edge)
        wy0, wx0 = max(y - pad, 0), max(x - pad, 0)
        wy1, wx1 = min(y + gh + pad, h), min(x + gw + pad, w)
        window = img[wy0:wy1, wx0:wx1]
        trimmed = template[
            wy0 - (y - pad) : template.shape[0] - ((y + gh + pad) - wy1),
            wx0 - (x - pad) : template.shape[1] - ((x + gw + pad) - wx1),
        ]
        assert window.shape == trimmed.shape
        assert _ncc(trimmed, window) > 0.9
        # placement stayed inside the unit's region
        x0, y0, x1, y1 = unit.region
        assert x0 <= x and x + gw <= x1 and y0 <= y and y + gh <= y1


def test_overlapping_regions_warn(tmp_path):
    spec = default_synthetic_spec(samples_per_class=1)
    units = list(spec.units)
    units[1] = data.UnitSpec(2, "vbar", units[0].region)
    spec.units = tuple(units)
    with pytest.warns(UserWarning, match="overlap"):
        generate_synthetic(spec, tmp_path)


def test_spec_json_roundtrip(tmp_path):
    spec = default_synthetic_spec(samples_per_class=7, seed=9)
    save_synthetic_spec(spec, tmp_path / "spec.json")
    again = load_synthetic_spec(tmp_path / "spec.json")
    assert again == spec


def test_spec_validation_errors():
    spec = default_synthetic_spec()
    bad = data.SyntheticSpec(
        canvas_size=48,
        units=spec.units,
        class_rules={"A": frozenset({99})},
    )
    with pytest.raises(DataError, match="undefined"):
        bad.validate()
    tiny = data.SyntheticSpec(
        canvas_size=48,
        units=(data.UnitSpec(1, "ring", (0, 0, 4, 4)),),
        class_rules={"A": frozenset({1})},
    )
    with pytest.raises(DataError, match="smaller than its glyph"):
        tiny.validate()


# ---------------------------------------------------------------- split


def test_split_is_partition(tmp_path):
    spec = default_synthetic_spec(samples_per_class=6)
    m = generate_synthetic(spec, tmp_path)
    train, test = split(m, 8, seed=1)
    assert len(train) + len(test) == len(m)
    train_paths = {r.path for r in train.rows}
    test_paths = {r.path for r in test.rows}
    assert not train_paths & test_paths
    assert train_paths | test_paths == {r.path for r in m.rows}
    assert len(test) >= 8


def test_split_reproducible(tmp_path):
    spec = default_synthetic_spec(samples_per_class=4)
    m = generate_synthetic(spec, tmp_path)
    a = split(m, 5, seed=7)
    b = split(m, 5, seed=7)
    assert [r.path for r in a[1].rows] == [r.path for r in b[1].rows]


def test_split_keeps_sequences_together():
    rows = [
        ManifestRow(f"f{i}.pgm", "joy", frozenset(), "s", f"seq{i // 3}")
        for i in range(12)
    ]
    m = DatasetManifest(rows=rows)
    train, test = split(m, 4, seed=0)
    for part in (train, test):
        seqs = {r.sequence for r in part.rows}
        for s in seqs:
            members = [r for r in m.rows if r.sequence == s]
            held = [r for r in part.rows if r.sequence == s]
            assert len(held) == len(members)


def test_split_too_large():
    rows = [ManifestRow("a.pgm", "joy", frozenset(), "s", "q")]
    with pytest.raises(DataError):
        split(DatasetManifest(rows=rows), 1, seed=0)


# ------------------------------------------------------------ encodings


@pytest.mark.parametrize("reader", [
    ActivationDB.load,
    load_manifest,
    association.load_profile_csv,
    cli.parse_config_file,
    load_synthetic_spec,
])
def test_non_utf8_file_is_data_error_naming_it(tmp_path, reader):
    # a UTF-16 byte-order mark and a NUL: not UTF-8 from the first byte
    p = tmp_path / "input.txt"
    p.write_bytes(b"\xff\xfe\x00" + "# auprobe-activation-db v=1\n".encode("utf-16-le"))
    with pytest.raises(DataError, match=r"input\.txt: not UTF-8"):
        reader(p)


# -------------------------------------------------------- atomic writes


def _fail_writes_midway(monkeypatch, name=""):
    """Make write_atomic's writes to files named with `name` in them stop halfway, disk full."""
    import builtins
    import errno

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, payload):
            self.fh.write(payload[: len(payload) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def half_open(path, mode):
        fh = builtins.open(path, mode)
        return HalfWriter(fh) if name in Path(path).name else fh

    monkeypatch.setattr(data, "open", half_open, raising=False)


def test_write_atomic_failure_midway_keeps_earlier_file(tmp_path, monkeypatch):
    target = tmp_path / "artifact.csv"
    data.write_atomic(target, "first\n")
    data.write_atomic(target, b"second\n")
    assert target.read_bytes() == b"second\n"
    with monkeypatch.context() as patch:
        _fail_writes_midway(patch)
        with pytest.raises(OSError, match="No space"):
            data.write_atomic(target, "third, and longer\n" * 100)

    def busy(src, dst):
        raise OSError("busy")

    with monkeypatch.context() as patch:
        patch.setattr(data.os, "replace", busy)
        with pytest.raises(OSError, match="busy"):
            data.write_atomic(target, "fourth\n")
    assert target.read_bytes() == b"second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_generate_synthetic_failure_midway_keeps_earlier_placements(tmp_path, monkeypatch):
    spec = data.default_synthetic_spec(samples_per_class=2, seed=1)
    generate_synthetic(spec, tmp_path)
    earlier = (tmp_path / "placements.csv").read_bytes()
    spec.seed = 2
    with monkeypatch.context() as patch:
        _fail_writes_midway(patch, "placements.csv")
        with pytest.raises(OSError, match="No space"):
            generate_synthetic(spec, tmp_path)
    assert (tmp_path / "placements.csv").read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images", "manifest.csv",
                                                          "placements.csv"]
    generate_synthetic(spec, tmp_path)
    assert (tmp_path / "placements.csv").read_bytes() != earlier


def test_artifact_writers_keep_earlier_file_on_failure(tmp_path, monkeypatch):
    from auprobe import model

    net = model.build_network(model.ModelConfig(input_size=16, conv_channels=(2, 3),
                                                fc_hidden=4, num_classes=2))
    db = ActivationDB([0, 1], np.array([[1.0, 2.0], [3.0, 0.5]]), np.zeros((2, 2), np.int32),
                      np.ones((2, 2), np.int32), 2, {"checkpoint": "c"})
    prof = association.AUDistanceProfile(au_id=1, distances=np.array([0.5, 2.0]),
                                         argmax_map=1, n=3, provenance={})
    metrics = [model.EpochMetrics(1, 0.5, 0.25, None, 1.0)]
    writers = {
        "net.ckpt": lambda path: model.save_checkpoint(net, path),
        "db.csv": db.save,
        "au_1.csv": lambda path: association.save_profile_csv(prof, path),
        "metrics.csv": lambda path: model.write_metrics_csv(metrics, path),
    }
    for name, write in writers.items():
        path = tmp_path / name
        write(path)
        earlier = path.read_bytes()
        with monkeypatch.context() as patch:
            _fail_writes_midway(patch)
            with pytest.raises(OSError):
                write(path)
        assert path.read_bytes() == earlier, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
