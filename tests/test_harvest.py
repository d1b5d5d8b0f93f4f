import numpy as np
import pytest

from auprobe import data, model
from auprobe.data import DataError
from auprobe.harvest import ActivationDB, harvest, partition_by_au, top_n

from oracles import top_n_records


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
    fmap = net.stage_outputs(x)[db.layer - 1]
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
