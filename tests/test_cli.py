import dataclasses
import io
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from auprobe import cli, data, model
from auprobe import harvest as harvest_mod
from auprobe.cli import main, parse_config_file, write_resolved_config
from auprobe.harvest import ActivationDB


@pytest.fixture()
def dataset(tmp_path):
    spec = data.default_synthetic_spec(samples_per_class=3, seed=21)
    out = tmp_path / "ds"
    data.generate_synthetic(spec, out)
    return out / "manifest.csv"


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(
        "\n".join(
            [
                "# desk-scale configuration",
                "model.input_size=48",
                "model.conv_channels=8,16,32",
                "model.fc_hidden=32",
                "model.num_classes=4",
                "model.seed=2",
                "train.batch_size=8",
                "train.epochs=2",
                "train.seed=2",
                "train.augment=false",
            ]
        )
        + "\n"
    )
    return p


def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


def test_config_parse_roundtrip(tmp_path, config_file):
    mc, tc = parse_config_file(config_file)
    assert mc.conv_channels == (8, 16, 32)
    assert tc.augment is False
    resolved = tmp_path / "resolved.txt"
    write_resolved_config(mc, tc, resolved)
    mc2, tc2 = parse_config_file(resolved)
    assert (mc2, tc2) == (mc, tc)


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("model.flux_capacitance=1\n")
    assert main(["train", "--manifest", "x.csv", "--config", str(p), "--out", "o.ckpt"]) == 2


def test_missing_manifest_is_data_error(config_file, tmp_path):
    rc = main(
        ["train", "--manifest", str(tmp_path / "nope.csv"), "--config", str(config_file),
         "--out", str(tmp_path / "o.ckpt")]
    )
    assert rc == 2


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "synth"
    spec = data.default_synthetic_spec(samples_per_class=2, seed=5)
    spec_path = tmp_path / "spec.json"
    data.save_synthetic_spec(spec, spec_path)
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    manifest = data.load_manifest(out / "manifest.csv")
    assert len(manifest) == 8
    assert (out / "spec_resolved.json").is_file()


def test_undecodable_output_path_prints_escaped(tmp_path):
    # a file name's byte 0x80 reaches main as a lone surrogate; a UTF-8
    # stdout with strict errors cannot encode it
    spec = tmp_path / "spec.json"
    data.save_synthetic_spec(data.default_synthetic_spec(samples_per_class=1), spec)
    out = tmp_path / os.fsdecode(b"ds\x80")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with redirect_stdout(stdout):
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        stdout.flush()
    assert stdout.buffer.getvalue().decode("utf-8").endswith("ds\\udc80\n")
    assert (tmp_path / os.fsdecode(b"ds\x80") / "manifest.csv").is_file()


def test_train_with_every_image_on_the_test_side_exits_2(tmp_path, dataset, config_file, capsys):
    # split keeps whole sequences together: with one sequence, any test_count takes them all
    manifest = data.load_manifest(dataset)
    one_sequence = dataclasses.replace(
        manifest, rows=[dataclasses.replace(row, sequence="seq") for row in manifest.rows])
    one_sequence.save(dataset)
    cfg = tmp_path / "split.txt"
    cfg.write_text(config_file.read_text() + "train.test_count=1\n")
    ckpt = tmp_path / "run.ckpt"
    rc = main(["train", "--manifest", str(dataset), "--config", str(cfg), "--out", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "test_count 1 takes every image" in err
    assert not ckpt.exists()


def test_train_harvest_associate_chain(tmp_path, dataset, config_file, capsys):
    ckpt = tmp_path / "run.ckpt"
    log = tmp_path / "metrics.csv"
    assert main(["train", "--manifest", str(dataset), "--config", str(config_file),
                 "--out", str(ckpt), "--log", str(log)]) == 0
    assert ckpt.is_file() and log.is_file()
    assert (tmp_path / "run.config.txt").is_file()

    db_path = tmp_path / "db.csv"
    assert main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    db = ActivationDB.load(db_path)
    assert db.num_images == 12 and db.num_maps == 32

    out = tmp_path / "assoc"
    assert main(["associate", "--db", str(db_path), "--manifest", str(dataset),
                 "--au", "all", "--n", "3", "--out", str(out)]) == 0
    assert (out / "summary" / "index.csv").is_file()
    for au in (1, 2, 3, 4):
        assert (out / "profiles" / f"au_{au}.csv").is_file()
    captured = capsys.readouterr()
    assert "associate: AU 1" in captured.out


def test_associate_rejects_foreign_db(tmp_path, dataset, config_file):
    ckpt = tmp_path / "run.ckpt"
    assert main(["train", "--manifest", str(dataset), "--config", str(config_file),
                 "--out", str(ckpt)]) == 0
    db_path = tmp_path / "db.csv"
    assert main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    # different manifest -> provenance mismatch -> data error
    other = tmp_path / "other"
    data.generate_synthetic(data.default_synthetic_spec(samples_per_class=2, seed=9), other)
    rc = main(["associate", "--db", str(db_path), "--manifest", str(other / "manifest.csv"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_associate_non_numeric_db_field_exits_2(tmp_path, dataset, capsys):
    manifest_hash = data.load_manifest(dataset).content_hash()
    db_path = tmp_path / "db.csv"
    db_path.write_text(f"# auprobe-activation-db v=1 layer=3 manifest={manifest_hash}\n"
                       "image_id,map,value,row,col\n0,0,abc,1,1\n")
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "db.csv line 3" in err


def test_associate_db_of_another_version_exits_2(tmp_path, dataset, capsys):
    db_path = tmp_path / "db.csv"
    db_path.write_text("# auprobe-activation-db v=2 layer=3\n"
                       "image_id,map,value,row,col\n0,0,1.5,1,1\n")
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {db_path}: unsupported activation db version '2'\n"


def test_associate_non_utf8_db_exits_2(tmp_path, dataset, capsys):
    db_path = tmp_path / "db.csv"
    db_path.write_bytes(b"\xff\xfe\x00# auprobe-activation-db v=1 layer=3\n")
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "db.csv: not UTF-8 text" in err


def test_associate_nan_db_value_exits_2(tmp_path, dataset, capsys):
    manifest_hash = data.load_manifest(dataset).content_hash()
    db_path = tmp_path / "db.csv"
    db_path.write_text(f"# auprobe-activation-db v=1 layer=3 manifest={manifest_hash}\n"
                       "image_id,map,value,row,col\n0,0,1.5,1,1\n0,1,nan,1,1\n")
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "db.csv line 4: non-finite value 'nan'" in err


def test_associate_negative_db_value_exits_2(tmp_path, dataset, capsys):
    manifest_hash = data.load_manifest(dataset).content_hash()
    db_path = tmp_path / "db.csv"
    db_path.write_text(f"# auprobe-activation-db v=1 layer=3 manifest={manifest_hash}\n"
                       "image_id,map,value,row,col\n0,0,1.5,1,1\n0,1,-0.5,1,1\n")
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "db.csv line 4: negative peak '-0.5'" in err


def _peaks_at_40(lines):
    return lines[:2] + [",".join(line.split(",")[:3] + ["40", "40"]) for line in lines[2:]]


@pytest.mark.parametrize("mutate", [
    _peaks_at_40,
    lambda lines: [lines[0].replace(" layer=3 ", " layer=7 ")] + lines[1:],
    lambda lines: [lines[0].replace(" layer=3 ", " ")] + lines[1:],
    lambda lines: [lines[0].replace(" input_size=48 ", " input_size=-5 ")] + lines[1:],
    lambda lines: [lines[0].replace(" input_size=48 ", " ")] + lines[1:],
], ids=["peaks-outside-grid", "layer-7", "no-layer", "negative-input-size", "no-input-size"])
def test_associate_db_outside_its_recorded_geometry_exits_2(tmp_path, dataset, config_file,
                                                           capsys, mutate):
    # without --checkpoint the DB's header geometry is all its peaks are checked against
    ckpt = tmp_path / "run.ckpt"
    db_path = tmp_path / "db.csv"
    model.save_checkpoint(model.build_network(parse_config_file(config_file)[0]), ckpt)
    assert main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    lines = db_path.read_text().splitlines()
    mutated = mutate(lines)
    assert mutated != lines
    db_path.write_text("\n".join(mutated) + "\n")
    capsys.readouterr()
    out = tmp_path / "assoc"
    rc = main(["associate", "--db", str(db_path), "--manifest", str(dataset),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["associate", "--db", "db.csv", "--manifest", "m.csv", "--out", "o", "--n", "0"],
    ["associate", "--db", "db.csv", "--manifest", "m.csv", "--out", "o", "--n", "-1"],
    ["deconv", "--checkpoint", "c", "--manifest", "m.csv", "--map", "0", "--out", "o",
     "--top", "0"],
    ["deconv", "--checkpoint", "c", "--manifest", "m.csv", "--map", "0", "--out", "o",
     "--top", "-1"],
    ["pipeline", "--out", "o", "--n", "0"],
])
def test_top_n_count_below_one_is_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("expected a positive integer, got "
                                         f"'{argv[-1]}'")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_non_finite_weight_exits_3(tmp_path, dataset, config_file, capsys, monkeypatch):
    # an infinite gradient under a finite loss: only the weight check can catch it
    monkeypatch.setattr(model, "softmax_cross_entropy",
                        lambda logits, label: (1.0, np.full_like(logits, np.inf)))
    ckpt = tmp_path / "run.ckpt"
    rc = main(["train", "--manifest", str(dataset), "--config", str(config_file),
               "--out", str(ckpt)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numeric failure: ") and "non-finite weight in conv1.kernels" in err
    assert not ckpt.exists()


def test_deconv_writes_montage_and_responses(tmp_path, dataset, config_file, monkeypatch):
    ckpt = tmp_path / "run.ckpt"
    assert main(["train", "--manifest", str(dataset), "--config", str(config_file),
                 "--out", str(ckpt)]) == 0
    traced = []
    forward_trace = model.Network.forward_trace
    monkeypatch.setattr(model.Network, "forward_trace",
                        lambda net, x, image_id=None: traced.append((len(x), image_id))
                        or forward_trace(net, x, image_id))
    out = tmp_path / "dec"
    assert main(["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--map", "1", "--top", "2", "--out", str(out)]) == 0
    assert (out / "map_1_orig.png").is_file()
    assert (out / "map_1_deconv.png").is_file()
    responses = sorted(p.name for p in out.glob("img*_L3_m1_r*_deconv.png"))
    assert len(responses) == 2
    # both records traced once, in one chunk of harvest's 9, for montage and files alike
    assert [(size, len(set(ids))) for size, ids in traced] == [(2, 2)]


def test_deconv_db_writes_the_harvesting_run_bytes(tmp_path, dataset, config_file,
                                                   monkeypatch):
    ckpt = tmp_path / "run.ckpt"
    db_path = tmp_path / "db.csv"
    assert main(["train", "--manifest", str(dataset), "--config", str(config_file),
                 "--out", str(ckpt)]) == 0
    assert main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    base = ["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset), "--map", "3"]
    assert main(base + ["--out", str(tmp_path / "harvested")]) == 0

    def no_harvest(*args, **kwargs):
        raise AssertionError("deconv --db harvested the manifest")

    monkeypatch.setattr(harvest_mod, "harvest", no_harvest)
    assert main(base + ["--db", str(db_path), "--out", str(tmp_path / "loaded")]) == 0
    harvested = sorted(p.name for p in (tmp_path / "harvested").iterdir())
    assert len(harvested) == 2 * 9 + 2  # 9 response pairs and the montage pair
    assert sorted(p.name for p in (tmp_path / "loaded").iterdir()) == harvested
    for name in harvested:
        assert ((tmp_path / "loaded" / name).read_bytes()
                == (tmp_path / "harvested" / name).read_bytes()), name


def test_deconv_db_of_another_checkpoint_exits_2(tmp_path, dataset, config_file, capsys):
    ckpt = tmp_path / "run.ckpt"
    other = tmp_path / "other.ckpt"
    db_path = tmp_path / "db.csv"
    model_cfg = parse_config_file(config_file)[0]
    model.save_checkpoint(model.build_network(model_cfg), ckpt)
    model.save_checkpoint(model.build_network(dataclasses.replace(model_cfg, seed=3)), other)
    assert main(["harvest", "--checkpoint", str(other), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    capsys.readouterr()
    rc = main(["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset),
               "--map", "0", "--db", str(db_path), "--out", str(tmp_path / "dec")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {db_path}: produced by a different checkpoint\n"
    assert not (tmp_path / "dec").exists()


def _set_field(lines, key, match, field, value):
    """A DB's lines with value in field of each body line whose field key is match."""
    rows = [line.split(",") for line in lines[2:]]
    return lines[:2] + [",".join(f[:field] + [value] + f[field + 1:]) if f[key] == match
                        else ",".join(f) for f in rows]


@pytest.mark.parametrize("edit, message", [
    (lambda t: _set_field(t, 0, "11", 0, "12"), "expected image 11 map 0, found image 12 map 0"),
    (lambda t: t + ["12," + line.split(",", 1)[1] for line in t if line.startswith("11,")],
     "peaks outside the manifest"),
    (lambda t: _set_field(t, 1, "0", 3, "6"), "peaks outside the manifest"),
    (lambda t: _set_field(t, 1, "0", 4, "-1"), "peaks outside the manifest"),
], ids=["image-outside-manifest", "image-appended", "row-outside-grid", "negative-col"])
def test_deconv_db_peak_outside_the_network_exits_2(tmp_path, dataset, config_file, capsys,
                                                    edit, message):
    # the 12-image DB's image 11 becomes 12 (out of the layout, at load), a 13th image
    # follows it (in the layout, past the manifest), or every map-0 peak moves
    ckpt = tmp_path / "run.ckpt"
    db_path = tmp_path / "db.csv"
    model.save_checkpoint(model.build_network(parse_config_file(config_file)[0]), ckpt)
    assert main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--out", str(db_path)]) == 0
    db_path.write_text("\n".join(edit(db_path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    rc = main(["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset),
               "--map", "0", "--db", str(db_path), "--out", str(tmp_path / "dec")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_deconv_map_out_of_range_exits_2_before_harvest(tmp_path, dataset, config_file,
                                                       monkeypatch, capsys):
    ckpt = tmp_path / "run.ckpt"
    model.save_checkpoint(model.build_network(parse_config_file(config_file)[0]), ckpt)

    def no_harvest(*args, **kwargs):
        raise AssertionError("harvest ran for an out-of-range --map")

    monkeypatch.setattr(harvest_mod, "harvest", no_harvest)
    rc = main(["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset),
               "--map", "32", "--out", str(tmp_path / "dec")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --map 32 outside 0..31\n"
    assert not (tmp_path / "dec").exists()


def test_env_seed_overrides(tmp_path, dataset, config_file, monkeypatch):
    ckpts = []
    for seed_env in ("77", "78"):
        monkeypatch.setenv(cli.ENV_SEED, seed_env)
        ckpt = tmp_path / f"s{seed_env}.ckpt"
        assert main(["train", "--manifest", str(dataset), "--config", str(config_file),
                     "--out", str(ckpt)]) == 0
        ckpts.append(ckpt.read_bytes())
    assert ckpts[0] != ckpts[1]
    mc, tc = parse_config_file(tmp_path / "s77.config.txt")
    assert mc.seed == 77 and tc.seed == 77


def test_pipeline_default_spec_runs_and_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    spec = data.default_synthetic_spec(samples_per_class=2, seed=13)
    spec_path = tmp_path / "spec.json"
    data.save_synthetic_spec(spec, spec_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "model.input_size=48\nmodel.conv_channels=8,16,32\nmodel.fc_hidden=32\n"
        "model.num_classes=4\nmodel.seed=3\n"
        "train.batch_size=8\ntrain.epochs=2\ntrain.seed=3\ntrain.augment=false\n"
    )
    outputs = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        assert main(["pipeline", "--spec", str(spec_path), "--config", str(cfg),
                     "--out", str(out), "--n", "3"]) == 0
        assert (out / "checkpoint.ckpt").is_file()
        assert (out / "db.csv").is_file()
        assert (out / "config_resolved.txt").is_file()
        profile_bytes = {
            p.name: p.read_bytes() for p in sorted((out / "profiles").glob("au_*.csv"))
        }
        outputs.append((profile_bytes, (out / "db.csv").read_bytes()))
    assert outputs[0][0].keys() == outputs[1][0].keys()
    for name in outputs[0][0]:
        assert outputs[0][0][name] == outputs[1][0][name], name
    assert outputs[0][1] == outputs[1][1]


def test_pipeline_equals_the_subcommand_chain(tmp_path, config_file, capsys, monkeypatch):
    # pipeline runs the subcommands' stage code: their bytes and their progress lines
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    spec_path = tmp_path / "spec.json"
    data.save_synthetic_spec(data.default_synthetic_spec(samples_per_class=3, seed=21),
                             spec_path)
    chain, pipe = tmp_path / "chain", tmp_path / "pipe"
    manifest, ckpt, db_path = chain / "ds" / "manifest.csv", chain / "run.ckpt", chain / "db.csv"
    for argv in (["synth", "--spec", spec_path, "--out", chain / "ds"],
                 ["train", "--manifest", manifest, "--config", config_file, "--out", ckpt],
                 ["harvest", "--checkpoint", ckpt, "--manifest", manifest, "--out", db_path],
                 ["associate", "--db", db_path, "--manifest", manifest, "--n", "3",
                  "--checkpoint", ckpt, "--out", chain / "assoc"]):
        assert main([str(arg) for arg in argv]) == 0
    chain_out = capsys.readouterr().out
    assert main(["pipeline", "--spec", str(spec_path), "--config", str(config_file),
                 "--n", "3", "--out", str(pipe)]) == 0
    # where each chain output lands under the pipeline's run directory
    places = {"ds": "dataset", "run.ckpt": "checkpoint.ckpt", "run.metrics.csv": "metrics.csv",
              "run.config.txt": "config_resolved.txt", "db.csv": "db.csv", "assoc": "."}
    for old, new in places.items():
        chain_out = chain_out.replace(str(chain / old), str(Path(pipe, new)))
    assert capsys.readouterr().out == chain_out + f"pipeline: complete under {pipe}\n"

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    expected = {}
    for old, new in places.items():
        src = chain / old
        found = files(src) if src.is_dir() else {Path(): src.read_bytes()}
        expected.update({Path(new, name): content for name, content in found.items()})
    written = files(pipe)
    assert written.keys() == expected.keys()
    for name, content in written.items():
        if name.name == "metrics.csv":  # wallclock_s, the last column, varies run to run
            content, expected[name] = ([line.rsplit(b",", 1)[0] for line in text.splitlines()]
                                       for text in (content, expected[name]))
        assert content == expected[name], name


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_input_needing_more_memory_than_there_is_exits_2(tmp_path, dataset, command, capsys):
    # the default model at 100000 px asks for a 149 TiB fc1, beyond any process's address space
    cfg = tmp_path / "huge.txt"
    cfg.write_text("model.input_size=100000\n")
    out = {"train": tmp_path / "run.ckpt", "pipeline": tmp_path / "run"}[command]
    rc = main([command, "--manifest", str(dataset), "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert command == "train" or "pipeline stage 'train' failed" in err
    assert not out.is_file() and not (out / "checkpoint.ckpt").exists()


def test_empty_input_option_is_not_the_default(tmp_path, capsys):
    # an empty --spec once rendered the built-in dataset, and an empty
    # pipeline --config trained the desk-scale default
    assert main(["synth", "--spec", "", "--out", str(tmp_path / "ds")]) == 2
    assert not (tmp_path / "ds").exists()
    spec = tmp_path / "spec.json"
    data.save_synthetic_spec(data.default_synthetic_spec(samples_per_class=1), spec)
    assert main(["pipeline", "--spec", str(spec), "--config", "", "--out",
                 str(tmp_path / "run")]) == 2
    assert "stage 'train' failed" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_checkpoint_exits_2(tmp_path, dataset, kind, capsys):
    ckpt = tmp_path / "run.ckpt"
    if kind == "directory":
        ckpt.mkdir()
    rc = main(["harvest", "--checkpoint", str(ckpt), "--manifest", str(dataset),
               "--out", str(tmp_path / "db.csv")])
    assert rc == 2
    assert f"cannot read checkpoint {ckpt}" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--out", ""), ("--out", "."), ("--log", "")])
def test_output_file_naming_no_file_is_usage_error(tmp_path, dataset, config_file, option,
                                                   value):
    # an empty --out once ended in a ValueError traceback from Path.with_suffix
    argv = {"--manifest": str(dataset), "--config": str(config_file),
            "--out": str(tmp_path / "run.ckpt"), option: value}
    assert main(["train", *[part for item in argv.items() for part in item]]) == 1
    assert not (tmp_path / "run.ckpt").exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    data.save_synthetic_spec(data.default_synthetic_spec(samples_per_class=1), spec)
    occupied = tmp_path / "occupied"
    occupied.write_text("a file\n")
    assert main(["synth", "--spec", str(spec), "--out", str(occupied / "ds")]) == 2
    assert main(["pipeline", "--spec", str(spec), "--out", str(occupied)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err), err


@pytest.mark.parametrize("option, path", [("--out", "missing/run.ckpt"),
                                          ("--log", "missing/run.metrics.csv")])
def test_train_under_a_missing_directory_names_the_path(tmp_path, dataset, config_file, capsys,
                                                        monkeypatch, option, path):
    # the error once named a temporary file, the --log one after the whole training run
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    argv = {"--manifest": str(dataset), "--config": str(config_file), "--out": "run.ckpt",
            option: path}
    assert main(["train", *[part for item in argv.items() for part in item]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert path in err and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    bad_manifest = tmp_path / "nope.csv"
    rc = main(["pipeline", "--manifest", str(bad_manifest), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage 'synth'" in err
