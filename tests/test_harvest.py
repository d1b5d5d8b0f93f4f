import dataclasses

import numpy as np
import pytest

from auprobe import data, harvest as harvest_mod, imageio, model
from auprobe.data import DataError
from auprobe.harvest import ActivationDB, chunk_images, harvest, partition_by_au, top_n

from oracles import harvest_per_image, load_activation_db, top_n_records


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("harvestset")
    spec = data.default_synthetic_spec(samples_per_class=3, seed=5)
    manifest = data.generate_synthetic(spec, out)
    net = model.build_network(model.reduced_config(seed=6))
    return net, manifest


def test_one_record_per_image_and_map(setup):
    net, manifest = setup
    db = harvest(net, manifest)
    assert db.num_images == len(manifest) == 12
    assert db.num_maps == 32
    assert db.values.shape == (12, 32)


def test_values_nonnegative_post_relu(setup):
    net, manifest = setup
    db = harvest(net, manifest)
    assert (db.values >= 0).all()


def test_harvest_deterministic(setup):
    net, manifest = setup
    a = harvest(net, manifest)
    b = harvest(net, manifest)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.rows.tobytes() == b.rows.tobytes()
    assert a.provenance == b.provenance


def test_record_location_attains_value(setup):
    net, manifest = setup
    db = harvest(net, manifest)
    x = data.eval_transform(data.load_image(manifest, 3), net.config.input_size)
    fmap = net.stage_outputs(x[None], db.layer)[0]
    for j in (0, 7, 31):
        rec = db.record(3, j)
        assert fmap[j].max() == rec.value
        assert fmap[j, rec.row, rec.col] == rec.value


def test_db_csv_roundtrip(tmp_path, setup):
    net, manifest = setup
    db = harvest(net, manifest)
    p = tmp_path / "db.csv"
    db.save(p)
    again = ActivationDB.load(p)
    np.testing.assert_array_equal(db.values, again.values)
    np.testing.assert_array_equal(db.rows, again.rows)
    np.testing.assert_array_equal(db.cols, again.cols)
    assert again.layer == db.layer
    assert again.provenance == db.provenance
    # saving the loaded db reproduces the file byte for byte
    p2 = tmp_path / "db2.csv"
    again.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_db_provenance_validation(tmp_path, setup):
    net, manifest = setup
    db = harvest(net, manifest)
    p = tmp_path / "db.csv"
    db.save(p)
    ActivationDB.load(p, expect_checkpoint=db.provenance["checkpoint"])
    with pytest.raises(DataError, match="different checkpoint"):
        ActivationDB.load(p, expect_checkpoint="0" * 64)
    with pytest.raises(DataError, match="different manifest"):
        ActivationDB.load(p, expect_manifest="0" * 64)


@pytest.mark.parametrize("row", ["0,0,abc,1,1", "x,0,1.0,1,1", "0,0,1.0,1,2.5"])
def test_db_non_numeric_field_is_data_error(tmp_path, row):
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 f"1,0,2.0,0,0\n{row}\n")
    with pytest.raises(DataError, match=r"db\.csv line 4: "):
        ActivationDB.load(p)


def test_harvest_nan_map_is_numeric_error(setup):
    net, manifest = setup
    kernels = net.convs[2].kernels
    saved = kernels[5].copy()
    kernels[5] = np.nan
    try:
        with pytest.raises(model.NumericError,
                           match=r"layer 3 map 5 of image 0 \(.+\.pgm\)"):
            harvest(net, manifest)
    finally:
        kernels[5] = saved


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_db_non_finite_value_is_data_error(tmp_path, value):
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 f"0,0,2.0,0,0\n0,1,1.0,0,0\n1,0,{value},0,0\n1,1,{value},0,0\n")
    with pytest.raises(DataError, match=rf"db\.csv line 5: non-finite value '{value}'"):
        ActivationDB.load(p)


@pytest.mark.parametrize("value", ["-0.5", "-1e-300"])
def test_db_negative_value_is_data_error(tmp_path, value):
    # one negative peak, below the top of its map, still fails the load
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 f"0,0,2.0,0,0\n0,1,1.0,0,0\n1,0,{value},0,0\n1,1,3.0,0,0\n")
    with pytest.raises(DataError, match=rf"db\.csv line 5: negative peak '{value}'"):
        ActivationDB.load(p)


def test_db_negative_zero_loads(tmp_path):
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 "0,0,-0.0,0,0\n1,0,1.0,0,0\n")
    assert ActivationDB.load(p).values.tolist() == [[0.0], [1.0]]


@pytest.mark.parametrize("first", ["nan", "2.0"])
def test_db_repeated_image_map_is_data_error(tmp_path, first):
    # a repeated (image, map) row would overwrite the first one, NaN or not
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 f"0,0,{first},0,0\n\n1,0,1.0,0,0\n\n0,0,5.0,0,0\n")
    with pytest.raises(DataError, match=r"db\.csv line 7: repeats image 0 map 0"):
        ActivationDB.load(p)


def test_chunk_size_from_patch_matrix_budget():
    # conv2's patch matrix per image is 0.46 MB in reduced_config and
    # 14.7 MB in ModelConfig() in float32, twice that in float64, against
    # a 4 MiB budget
    reduced, paper = model.reduced_config(), model.ModelConfig()
    assert reduced.dtype == paper.dtype == "float32"
    assert [chunk_images(reduced, layer) for layer in (1, 2, 3)] == [18, 9, 9]
    assert [chunk_images(paper, layer) for layer in (1, 2, 3)] == [4, 1, 1]
    reduced64 = dataclasses.replace(reduced, dtype="float64")
    paper64 = dataclasses.replace(paper, dtype="float64")
    assert [chunk_images(reduced64, layer) for layer in (1, 2, 3)] == [9, 4, 4]
    assert [chunk_images(paper64, layer) for layer in (1, 2, 3)] == [2, 1, 1]


@pytest.fixture()
def four_image_chunks(monkeypatch):
    # half the budget: float32 harvests these tests' 12 images in the
    # chunks float64 takes at the full budget, 4 at a time from layer 2 on
    monkeypatch.setattr(harvest_mod, "CHUNK_BYTES", harvest_mod.CHUNK_BYTES // 2)
    assert [chunk_images(model.reduced_config(), layer) for layer in (1, 2, 3)] == [9, 4, 4]


def _subset(manifest, n, crops=None):
    rows = manifest.rows[:n]
    if crops is not None:
        rows = [data.ManifestRow(r.path, r.label, r.au_set, r.subject, r.sequence, crop)
                for r, crop in zip(rows, crops)]
    return data.DatasetManifest(rows=rows, base_dir=manifest.base_dir)


@pytest.mark.parametrize("n", [1, 4, 5, 12])
def test_harvest_equals_per_image_loop(setup, four_image_chunks, n):
    # chunks of 4 images: one, a whole chunk, a chunk and one, three chunks
    net, manifest = setup
    subset = _subset(manifest, n)
    for layer in (1, 2, 3):
        db = harvest(net, subset, layer)
        values, rows, cols = harvest_per_image(net, subset, layer)
        assert db.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(db.rows, rows)
        np.testing.assert_array_equal(db.cols, cols)
        assert db.rows.dtype == db.cols.dtype == np.int32


def test_harvest_mixed_image_sizes_equal_per_image_loop(setup):
    net, manifest = setup
    crops = [(0, 0, 48, 48), (3, 5, 40, 31), (10, 2, 18, 47), (0, 0, 9, 8),
             (20, 20, 48, 48), (1, 1, 47, 12)]
    subset = _subset(manifest, len(crops), crops)
    db = harvest(net, subset)
    values, rows, cols = harvest_per_image(net, subset, 3)
    assert db.values.tobytes() == values.tobytes()
    np.testing.assert_array_equal(db.rows, rows)
    np.testing.assert_array_equal(db.cols, cols)


def test_harvest_past_the_plan_cache_equals_per_image_loop(tmp_path, setup):
    # 70 crop boxes of 93 distinct sides evict resample plans mid-harvest
    net, _ = setup
    rng = np.random.default_rng(7)
    entries = []
    for k in range(70):
        name = f"big{k}.pgm"
        imageio.write_pgm(tmp_path / name, rng.integers(0, 256, (100, 100)).astype(np.uint8))
        entries.append(data.ManifestRow(name, "A", frozenset({1}), crop_box=(0, k, k + 8, 100)))
    manifest = data.DatasetManifest(rows=entries, base_dir=tmp_path)
    data._axis_plan.cache_clear()
    db = harvest(net, manifest)
    info = data._axis_plan.cache_info()
    assert info.misses > info.maxsize == data.PLAN_CACHE_SIZE == info.currsize
    values, rows, cols = harvest_per_image(net, manifest, 3)
    assert db.values.tobytes() == values.tobytes()
    np.testing.assert_array_equal(db.rows, rows)
    np.testing.assert_array_equal(db.cols, cols)


@pytest.mark.parametrize("bad_image", [0, 5, 11])
def test_harvest_nan_image_names_that_image(setup, four_image_chunks, monkeypatch, bad_image):
    # a NaN pixel in one image, in the first, second or third chunk
    net, manifest = setup
    transform, calls = data.eval_transform, []

    def nan_at_bad_image(image, *args, **kwargs):
        x = transform(image, *args, **kwargs)
        if len(calls) % len(manifest) == bad_image:
            x[0, 20, 30] = np.nan
        calls.append(1)
        return x

    monkeypatch.setattr(data, "eval_transform", nan_at_bad_image)
    with pytest.raises(model.NumericError) as expected:
        harvest_per_image(net, manifest, 3)
    assert f"of image {bad_image} (" in str(expected.value)
    calls.clear()
    with pytest.raises(model.NumericError) as got:
        harvest(net, manifest)
    assert str(got.value) == str(expected.value)


def _random_db_lines(rng):
    images, maps = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    ids = rng.choice(50, images, replace=False) - 5  # negative ids parse too
    values = ["-0.0", "0.0", "1.5", "2", "1e-300", "0.30000000000000004", "7e2"]
    lines = [f"{i},{j},{rng.choice(values)},{rng.integers(0, 9)},{rng.integers(0, 9)}"
             for i in ids for j in range(maps)]
    rng.shuffle(lines)
    corrupt = [
        lambda t: "1,2,3,4", lambda t: t + ",5", lambda t: t.replace(",", ",x", 1),
        lambda t: t.split(",", 1)[0] + ",1.0," + t.split(",", 2)[2],
        lambda t: ",".join(t.split(",")[:2] + ["nan"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:2] + ["-inf"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:2] + ["-3.5"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:1] + [str(maps + 1)] + t.split(",")[2:]),
        lambda t: ",".join(t.split(",")[:4] + [" 7"]),
        lambda t: ",".join(t.split(",")[:4] + ["1_0"]),
    ]
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(len(lines)))
        lines[k] = corrupt[int(rng.integers(len(corrupt)))](lines[k])
    if rng.random() < 0.3:
        lines.insert(int(rng.integers(len(lines) + 1)), lines[int(rng.integers(len(lines)))])
    if rng.random() < 0.2:
        lines = [t for t in lines if not t.startswith(f"{ids[-1]},")] or lines
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    if rng.random() < 0.05:
        lines = [""]
    return lines


def test_db_load_equals_per_line_parse(tmp_path):
    rng = np.random.default_rng(11)
    p = tmp_path / "db.csv"
    outcomes = set()
    for _ in range(400):
        lines = _random_db_lines(rng)
        p.write_text("# auprobe-activation-db v=1 layer=2 checkpoint=abc\n"
                     "image_id,map,value,row,col\n" + "\n".join(lines) + "\n")
        try:
            expected = load_activation_db(p)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                ActivationDB.load(p)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split(": ", 1)[1].split(" ")[0])
            continue
        db = ActivationDB.load(p)
        image_ids, values, rows, cols, layer, meta = expected
        assert db.image_ids == image_ids and (db.layer, db.provenance) == (layer, meta)
        assert db.values.tobytes() == values.tobytes()  # -0.0 stays -0.0
        assert db.rows.tobytes() == rows.tobytes() and db.cols.tobytes() == cols.tobytes()
        outcomes.add("loaded")
    assert len(outcomes) >= 6  # loads and several kinds of error


def test_harvest_empty_manifest_rejected(setup):
    net, _ = setup
    with pytest.raises(DataError):
        harvest(net, data.DatasetManifest(rows=[]))


# ------------------------------------------------------------------ top_n


def build_db(values: np.ndarray) -> ActivationDB:
    n, m = values.shape
    zeros = np.zeros((n, m), dtype=np.int32)
    return ActivationDB(list(range(n)), values.astype(float), zeros, zeros, 3, {})


def test_top_n_sorting():
    db = build_db(np.array([[5.0], [3.0], [9.0]]))
    out = top_n(db, 0, {0, 1, 2}, 2)
    assert [r.value for r in out] == [9.0, 5.0]
    assert [r.image_id for r in out] == [2, 0]


def test_top_n_larger_than_subset():
    db = build_db(np.array([[5.0], [3.0]]))
    out = top_n(db, 0, {0, 1}, 9)
    assert len(out) == 2


def test_top_n_tie_prefers_smaller_image_id():
    values = np.zeros((8, 1))
    values[7, 0] = 4.0
    values[2, 0] = 4.0
    db = build_db(values)
    out = top_n(db, 0, set(range(8)), 2)
    assert [r.image_id for r in out] == [2, 7]


def test_top_n_empty_subset_rejected():
    db = build_db(np.ones((3, 2)))
    with pytest.raises(DataError):
        top_n(db, 0, set(), 3)


def test_top_n_subset_restricts():
    db = build_db(np.array([[9.0], [8.0], [7.0], [6.0]]))
    out = top_n(db, 0, {2, 3}, 9)
    assert [r.image_id for r in out] == [2, 3]


@pytest.mark.parametrize("n", [0, -1])
def test_top_n_below_one_rejected(n):
    db = build_db(np.ones((3, 1)))
    with pytest.raises(DataError, match="at least 1"):
        top_n(db, 0, range(3), n)


def test_top_n_matches_sort_of_all_records():
    rng = np.random.default_rng(7)
    for _ in range(200):
        images, maps = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        values = rng.integers(0, 5, (images, maps)) / 4.0  # ties and zeros
        db = build_db(values)
        db.rows[:] = rng.integers(0, 6, (images, maps))
        subset = rng.choice(images, int(rng.integers(1, images + 1)), replace=False)
        j, n = int(rng.integers(maps)), int(rng.integers(1, 12))
        got = top_n(db, j, subset, n)
        assert [(r.value, r.image_id) for r in got] == top_n_records(values, j, subset, n)
        assert all(r.map_index == j and r.row == db.rows[r.image_id, j] for r in got)


def test_top_n_duplicate_free():
    db = build_db(np.ones((5, 1)))
    out = top_n(db, 0, [0, 0, 1, 1, 2], 9)
    assert [r.image_id for r in out] == [0, 1, 2]


# ------------------------------------------------------------- partition


def test_partition_exhaustive_disjoint(setup):
    _, manifest = setup
    for au in manifest.au_ids():
        s, sc = partition_by_au(manifest, au)
        assert not (s & sc)
        assert len(s) + len(sc) == len(manifest)
        for i in s:
            assert au in manifest.rows[i].au_set
        for i in sc:
            assert au not in manifest.rows[i].au_set


def test_partition_missing_au(setup):
    _, manifest = setup
    with pytest.raises(DataError, match="99"):
        partition_by_au(manifest, 99)
