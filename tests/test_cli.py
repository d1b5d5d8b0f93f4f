import dataclasses
import io
import os
from contextlib import redirect_stdout

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
                        lambda net, x, image_id=None: traced.append(image_id)
                        or forward_trace(net, x, image_id))
    out = tmp_path / "dec"
    assert main(["deconv", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                 "--map", "1", "--top", "2", "--out", str(out)]) == 0
    assert (out / "map_1_orig.png").is_file()
    assert (out / "map_1_deconv.png").is_file()
    responses = sorted(p.name for p in out.glob("img*_L3_m1_r*_deconv.png"))
    assert len(responses) == 2
    assert len(traced) == len(set(traced)) == 2  # one trace per record, for montage and files


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


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    bad_manifest = tmp_path / "nope.csv"
    rc = main(["pipeline", "--manifest", str(bad_manifest), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage 'synth'" in err
