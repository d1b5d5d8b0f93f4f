import dataclasses
import warnings

import numpy as np
import pytest

from auprobe import data, harvest as harvest_mod, imageio, model
from auprobe.data import DataError
from auprobe.harvest import ActivationDB, harvest, partition_by_au, top_n

from oracles import harvest_per_image, load_activation_db, save_activation_db_text, top_n_records


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
    assert again.image_ids == db.image_ids == list(range(len(manifest)))
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
    # a repeated (image, map) row would overwrite the first one, NaN or not; it is out of
    # the layout, and that check runs before the value checks
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=3\nimage_id,map,value,row,col\n"
                 f"0,0,{first},0,0\n\n1,0,1.0,0,0\n\n0,0,5.0,0,0\n")
    with pytest.raises(DataError, match=r"db\.csv line 7: expected image 2 map 0, "
                                        r"found image 0 map 0$"):
        ActivationDB.load(p)


def chunk_images(config, layer):
    """Images per harvest chunk at layer, as harvest computes it."""
    return model.images_per_chunk(config, harvest_mod.CHUNK_BYTES, layer)


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
    # the chunk transform serves harvest's chunks and the oracle's per-image eval_transform
    net, manifest = setup
    transform, calls = data.eval_chunk, []

    def nan_at_bad_image(images, *args, **kwargs):
        xs = transform(images, *args, **kwargs)
        for k in range(len(images)):
            if len(calls) % len(manifest) == bad_image:
                xs[k, 0, 20, 30] = np.nan
            calls.append(1)
        return xs

    monkeypatch.setattr(data, "eval_chunk", nan_at_bad_image)
    with pytest.raises(model.NumericError) as expected:
        harvest_per_image(net, manifest, 3)
    assert f"of image {bad_image} (" in str(expected.value)
    calls.clear()
    with pytest.raises(model.NumericError) as got:
        harvest(net, manifest)
    assert str(got.value) == str(expected.value)


def _random_db_lines(rng):
    """A DB body in harvest's layout, often edited out of it or given a bad field."""
    images, maps = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    first = int(rng.random() < 0.1)  # or start at image 1
    values = ["-0.0", "0.0", "1.5", "2", "1e-300", "0.30000000000000004", "7e2"]
    lines = [f"{i},{j},{rng.choice(values)},{rng.integers(0, 9)},{rng.integers(0, 9)}"
             for i in range(first, first + images) for j in range(maps)]
    corrupt = [
        lambda t: "1,2,3,4", lambda t: t + ",5", lambda t: t.replace(",", ",x", 1),
        lambda t: t.split(",", 1)[0] + ",1.0," + t.split(",", 2)[2],
        lambda t: ",".join(t.split(",")[:2] + ["nan"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:2] + ["-inf"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:2] + ["-3.5"] + t.split(",")[3:]),
        lambda t: ",".join(t.split(",")[:1] + [str(maps + 1)] + t.split(",")[2:]),
        lambda t: ",".join(t.split(",")[:4] + [" 7"]),
        lambda t: ",".join(t.split(",")[:4] + ["1_0"]),
        lambda t: t + "\r",  # a CRLF line ending
        lambda t: t.replace(",", "\r,", 1),  # a lone CR inside the line
        lambda t: ",".join(t.split(",")[:3] + ["2147483648"] + t.split(",")[4:]),  # int32 row
        lambda t: ",".join(t.split(",")[:4] + ["2147483648"]),  # int32 col
        lambda t: "9223372036854775808," + t.split(",", 1)[1],  # int64 image id
        lambda t: "-7," + t.split(",", 1)[1],  # a negative image id
    ]
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(len(lines)))
        lines[k] = corrupt[int(rng.integers(len(corrupt)))](lines[k])
    if rng.random() < 0.2:
        a, b = rng.integers(len(lines), size=2)
        lines[a], lines[b] = lines[b], lines[a]
    if rng.random() < 0.2:
        lines.insert(int(rng.integers(len(lines) + 1)), lines[int(rng.integers(len(lines)))])
    if rng.random() < 0.2 and len(lines) > 1:
        del lines[int(rng.integers(len(lines)))]
    if rng.random() < 0.1:
        lines = [t for t in lines if not t.startswith(f"{first + images - 1},")] or lines
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


def test_db_save_equals_per_line_format(tmp_path):
    # signed zero, the smallest subnormal, tiny and float32-origin values
    values = np.array([[-0.0, 5e-324, 1e-300, 0.1], [1.5, 2.0, 1e300, 0.0],
                       [0.30000000000000004, 7e2, 3.0, 1.0]])
    rows = np.arange(12, dtype=np.int32).reshape(3, 4)
    cols = rows[::-1].copy()
    provenance = {"checkpoint": "abc", "manifest": "def"}
    f32 = np.float32(np.random.default_rng(3).uniform(0, 9, (3, 4)))
    for vals in (values, f32, f32.astype(np.float64)):
        db = ActivationDB(vals, rows, cols, 2, provenance)
        db.save(tmp_path / "db.csv")
        assert (tmp_path / "db.csv").read_text() == save_activation_db_text(db)


INT_TOKENS = ["1", "7", "-0", "+1", "+5", " 7", "7 ", "\t3", "0_1", "1_0", "_1", "1__0", "1_",
              "\u0661", "\u0661\u0662", "1.0", "1e3", "", "0x10", "010", "nan", "2147483647",
              "2147483648", "-2147483649", "9223372036854775807", "9223372036854775808",
              "-9223372036854775809"]


@pytest.mark.parametrize("column", ["image_id", "row"])
@pytest.mark.parametrize("token", INT_TOKENS)
def test_db_load_int_column_parses_as_int(tmp_path, column, token):
    # the int64 id and int32 row columns accept what int() accepts and the dtype holds;
    # an id that parses to anything but 1 is out of the layout, and the message names it
    line = f"{token},0,2.5,4,5" if column == "image_id" else f"1,0,2.5,{token},5"
    p = tmp_path / "db.csv"
    p.write_text("# auprobe-activation-db v=1 layer=2\n"
                 f"image_id,map,value,row,col\n0,0,1.5,2,3\n{line}\n")
    dtype = np.int64 if column == "image_id" else np.int32
    try:
        want = int(dtype(int(token)))
    except (ValueError, OverflowError) as exc:
        with pytest.raises(DataError) as got:
            ActivationDB.load(p)
        assert str(got.value) == f"{p} line 4: {exc}"
        return
    if column == "row":
        assert ActivationDB.load(p).record(1, 0).row == want
    elif want == 1:
        assert ActivationDB.load(p).image_ids == [0, 1]
    else:
        with pytest.raises(DataError) as got:
            ActivationDB.load(p)
        assert str(got.value).endswith(f"found image {want} map 0")


DB_HEADER = "# auprobe-activation-db v=1 layer=2\nimage_id,map,value,row,col\n"
DB_TEXT = DB_HEADER + "0,0,1.5,2,3\n1,0,2.5,4,5\n"


@pytest.mark.parametrize("header, version", [("# auprobe-activation-db v=2 layer=3", "'2'"),
                                             ("# auprobe-activation-db layer=3", "None")])
def test_db_version_other_than_1_rejected(tmp_path, header, version):
    p = tmp_path / "db.csv"
    p.write_text(f"{header}\nimage_id,map,value,row,col\n0,0,1.5,2,3\n")
    for load in (ActivationDB.load, load_activation_db):
        with pytest.raises(DataError) as got:
            load(p)
        assert str(got.value) == f"{p}: unsupported activation db version {version}"


def assert_loads_as_oracle(p):
    """ActivationDB.load(p) equals the per-line oracle byte for byte, or raises its message."""
    try:
        image_ids, values, rows, cols, layer, meta = load_activation_db(p)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            ActivationDB.load(p)
        assert str(got.value) == str(exc)
        return
    db = ActivationDB.load(p)
    assert db.image_ids == image_ids and (db.layer, db.provenance) == (layer, meta)
    assert db.values.tobytes() == values.tobytes()
    assert db.rows.tobytes() == rows.tobytes() and db.cols.tobytes() == cols.tobytes()


@pytest.fixture
def per_line_calls(monkeypatch):
    """A list that gets one entry each time load falls back to the per-line parse."""
    calls, parse = [], harvest_mod._parse_per_line

    def counted(*args):
        calls.append(1)
        return parse(*args)

    monkeypatch.setattr(harvest_mod, "_parse_per_line", counted)
    return calls


def save_every_token(p):
    """Save a DB with every kind of token save() writes: signed zero, a subnormal,
    '+' of 1e+300."""
    values = np.array([[-0.0, 5e-324, 1e-300, 0.1], [1.5, 2.0, 1e300, 0.0],
                       [0.30000000000000004, 7e2, 3.0, 1.0]])
    rows = np.arange(12, dtype=np.int32).reshape(3, 4)
    ActivationDB(values, rows, rows[::-1].copy(), 2, {"checkpoint": "abc"}).save(p)


def fail_per_line(*args):
    raise AssertionError("per-line parse used")


def test_saved_db_is_read_by_the_c_reader(tmp_path, monkeypatch):
    p = tmp_path / "db.csv"
    save_every_token(p)
    monkeypatch.setattr(harvest_mod, "_parse_per_line", fail_per_line)
    assert_loads_as_oracle(p)


def test_crlf_copy_of_a_saved_db_is_read_by_the_c_reader(tmp_path, monkeypatch):
    # splitlines() drops the CRs, so the body's lines stay in save()'s alphabet
    p = tmp_path / "db.csv"
    save_every_token(p)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.setattr(harvest_mod, "_parse_per_line", fail_per_line)
    assert_loads_as_oracle(p)


@pytest.mark.parametrize("where", ["mid-line", "line-end"])
def test_c_reader_refuses_every_character_outside_saves_alphabet(tmp_path, where):
    # line breaks included: a body the C reader takes has only the characters save() writes
    p = tmp_path / "db.csv"
    for code in [*range(128), 0x85, 0xE9, 0x661, 0x2028]:
        char = chr(code)
        if char in "0123456789.,-+e" or (where == "line-end" and char in "\r\n"):
            continue
        line = "1,0,2" + char + ".5,4,5" if where == "mid-line" else "1,0,2.5,4,5" + char
        text = DB_HEADER + f"0,0,1.5,2,3\n{line}\n"
        assert harvest_mod._parse_c_reader(text, text.splitlines()) is None, repr(char)
        p.write_bytes(text.encode())
        assert_loads_as_oracle(p)


def test_db_reader_warning_falls_back_to_per_line(tmp_path, monkeypatch, per_line_calls):
    # numpy 1.23-1.24 parse '1.0' into an int column with only a DeprecationWarning
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(harvest_mod.np, "loadtxt", warning_loadtxt)
    p = tmp_path / "db.csv"
    p.write_text(DB_TEXT)
    assert_loads_as_oracle(p)
    assert len(per_line_calls) == 1
    p.write_text(DB_HEADER + "0,0,1.5,2,3\n1,0,2.5,1.0,5\n")
    with pytest.raises(DataError, match=r"line 4: invalid literal for int\(\) with base 10: '1\.0'"):
        ActivationDB.load(p)
    assert len(per_line_calls) == 2


@pytest.mark.parametrize("line, reader", [
    ("0_1,0,2.5,4,5", "per-line"),
    ("\u0661,0,2.5,4,5", "per-line"),
    ("1,0,2.5, 7,5", "per-line"),
    ("1,0,2.5,4,5\r", "c"),  # CRLF ending of one line: splitlines() drops it
    ("1,0,2.5\r,4,5", "per-line"),  # a lone CR splits the line; the C reader rejects the parts
    ("1,0,nan,4,5", "per-line"),
    ("1,0,inf,4,5", "per-line"),
    ("1,0,2.5,1.0,5", "per-line"),  # the C reader rejects it
    ("1e3,0,2.5,4,5", "per-line"),
    ("+1,0,+2.5,+4,5", "c"),  # in save()'s alphabet, and int() reads '+1'
    ("1,0,1e999,4,5", "c"),  # parses to inf on both paths
    ("-7,0,2.5,4,5", "c"),  # parses, then is out of the layout
    ("9223372036854775807,0,2.5,4,5", "c"),
    ("9223372036854775808,0,2.5,4,5", "per-line"),  # the C reader rejects int64 overflow
], ids=["underscore", "arabic-indic", "space", "crlf-line", "lone-cr", "nan", "inf",
        "float-in-int", "exponent-in-int", "plus", "float-overflow", "negative-id", "int64-max-id",
        "int64-overflow-id"])
def test_db_load_picks_its_parse_path(tmp_path, per_line_calls, line, reader):
    p = tmp_path / "db.csv"
    p.write_bytes((DB_HEADER + f"0,0,1.5,2,3\n{line}\n").encode())
    assert_loads_as_oracle(p)
    assert len(per_line_calls) == (reader == "per-line")


@pytest.mark.parametrize("text, per_line", [
    (DB_TEXT.replace("\n", "\r\n"), 0),
    (DB_TEXT.replace("col\n", "col\r\n"), 0),
    (DB_TEXT.replace(" layer", "\x0c layer"), 0),  # splitlines() breaks the line: no column header
], ids=["crlf-file", "crlf-column-line", "form-feed"])
def test_db_line_breaks_split_as_splitlines(tmp_path, per_line_calls, text, per_line):
    p = tmp_path / "db.csv"
    p.write_bytes(text.encode())
    assert_loads_as_oracle(p)
    assert len(per_line_calls) == per_line


def _swap(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]


def _renumber(lines, old, new):
    lines[:] = [f"{new},{t.split(',', 1)[1]}" if t.startswith(f"{old},") else t for t in lines]


# file line 3 + 4 * i + j (list index 2 + 4 * i + j) of the saved 3-image, 4-map DB holds
# image i map j
@pytest.mark.parametrize("edit, line, found, expected", [
    (lambda t: _swap(t, 7, 8), 8, "image 1 map 2", "image 1 map 1"),
    (lambda t: _swap(t, 2, 3), 3, "image 0 map 1", "image 0 map 0"),
    (lambda t: t.pop(7), 8, "image 1 map 2", "image 1 map 1"),
    (lambda t: t.pop(), 14, "the end of the file", "image 2 map 3"),
    (lambda t: t.insert(8, t[7]), 9, "image 1 map 1", "image 1 map 2"),
    (lambda t: t.append(t[2]), 15, "image 0 map 0", "image 3 map 0"),
    (lambda t: _renumber(t, 2, 5), 11, "image 5 map 0", "image 2 map 0"),
    (lambda t: [_renumber(t, i, i + 1) for i in (2, 1, 0)], 3, "image 1 map 0", "image 0 map 0"),
], ids=["swap", "swap-in-image-0", "drop", "drop-last", "duplicate", "duplicate-at-end",
        "renumber", "start-at-image-1"])
def test_db_row_out_of_layout_names_its_line(tmp_path, edit, line, found, expected):
    # save() writes image-major rows, images 0..n-1 and maps 0..m-1; any other order is an error
    p = tmp_path / "db.csv"
    save_every_token(p)
    lines = p.read_text().splitlines()
    edit(lines)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as got:
        ActivationDB.load(p)
    assert str(got.value) == f"{p} line {line}: expected {expected}, found {found}"
    assert_loads_as_oracle(p)


def test_harvest_empty_manifest_rejected(setup):
    net, _ = setup
    with pytest.raises(DataError):
        harvest(net, data.DatasetManifest(rows=[]))


# ------------------------------------------------------------------ top_n


def build_db(values: np.ndarray) -> ActivationDB:
    zeros = np.zeros(values.shape, dtype=np.int32)
    return ActivationDB(values.astype(float), zeros, zeros, 3, {})


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


def test_top_n_unknown_ids_rejected():
    db = build_db(np.ones((3, 1)))
    with pytest.raises(DataError, match=r"not in activation db: \[7, 9\]$"):
        top_n(db, 0, [0, 9, 7, 9], 2)
    with pytest.raises(DataError, match="not in activation db"):
        top_n(db, 0, [1, 2**70], 2)
    with pytest.raises(DataError, match=r"not in activation db: \[-1\]$"):
        top_n(db, 0, [-1, 0], 2)  # not the last row


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
