"""cli.main returns an exit code, whatever its arguments and environment.

Each example draws a subcommand (or a junk word), most of its own options
and a few of any, each with a value or none: a valid input, a path that
is missing, a junk file, an empty file, a directory or a path under a
file, or junk text. It also draws an arbitrary AUPROBE_SEED, or none.
Every call must return 0, 1, 2 or 3 and let no exception escape.
Arguments and the environment are text a process can be given: no NUL,
and bytes that are not UTF-8 arrive as lone surrogates (os.fsdecode).

A valid input is an artifact of the option's kind, built once per
module: a spec, an 8-image manifest whose crop boxes differ in size, a
reduced config that trains one epoch, a checkpoint trained from those
two and the DB harvested with it. With valid inputs a subcommand runs to
its writes. Artifacts are only ever passed to the options that read
them; every other path is relative to a scratch directory the test runs
in, and no other argument holds a "/", so nothing is written elsewhere.
"""

import dataclasses
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe import cli, data, harvest, model
from auprobe.cli import main

COMMAND_OPTIONS = {
    "synth": ["--spec", "--out"],
    "train": ["--manifest", "--config", "--out", "--log"],
    "harvest": ["--checkpoint", "--manifest", "--out"],
    "deconv": ["--checkpoint", "--manifest", "--map", "--top", "--out"],
    "associate": ["--db", "--manifest", "--au", "--n", "--out", "--checkpoint"],
    "pipeline": ["--spec", "--manifest", "--config", "--out", "--n"],
}
OPTIONS = sorted({name for names in COMMAND_OPTIONS.values() for name in names}) + ["--bogus", "-h"]
PATH_KINDS = ["missing", "junk", "empty", "dir", "under-file"]

_PROCESS_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            max_size=12),
    st.binary(max_size=12).filter(lambda raw: b"\x00" not in raw).map(os.fsdecode),
)
_ARGUMENT_TEXT = _PROCESS_TEXT.filter(lambda text: "/" not in text)
_VALUES = st.one_of(
    st.just(("path", "valid")),
    st.sampled_from(PATH_KINDS).map(lambda kind: ("path", kind)),
    st.sampled_from(["-1", "0", "1", "3", "99999999999999999999", "nan", "all", "1,2", ""])
    .map(lambda text: ("text", text)),
    _ARGUMENT_TEXT.map(lambda text: ("text", text)),
    st.none(),
)


# (x0, y0, x1, y1) of the valid manifest's 48 px images, each of another size
CROP_BOXES = [(0, 0, 48, 48), (1, 2, 45, 47), (3, 0, 43, 37), (0, 5, 38, 48),
              (6, 6, 42, 41), (2, 1, 30, 33), (2, 4, 48, 44), (0, 0, 20, 26)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """{option: absolute path of a valid input it reads}."""
    root = tmp_path_factory.mktemp("cli_valid")
    spec = data.default_synthetic_spec(samples_per_class=2, seed=4)
    data.save_synthetic_spec(spec, root / "spec.json")
    manifest = data.generate_synthetic(spec, root / "ds")
    manifest.rows = [dataclasses.replace(row, crop_box=box)
                     for row, box in zip(manifest.rows, CROP_BOXES, strict=True)]
    manifest.save(root / "ds" / "manifest.csv")
    model_cfg = model.reduced_config()
    train_cfg = dataclasses.replace(model.reduced_train_config(), epochs=1)
    cli.write_resolved_config(model_cfg, train_cfg, root / "config.txt")
    net = model.build_network(model_cfg)
    model.train(net, manifest, train_cfg, log_path=root / "metrics.csv")
    model.save_checkpoint(net, root / "run.ckpt")
    harvest.harvest(net, manifest).save(root / "db.csv")
    return {"--spec": root / "spec.json", "--manifest": root / "ds" / "manifest.csv",
            "--config": root / "config.txt", "--checkpoint": root / "run.ckpt",
            "--db": root / "db.csv"}


def _argument(name: str, value, junk: bytes, serial: int, valid: dict) -> str:
    """The argument a drawn value stands for, creating the file it names.

    A valid value of an option that reads no artifact is a new path.
    """
    kind, text = value
    if kind == "text":
        return text
    if text == "valid" and name in valid:
        return str(valid[name])
    path = Path(f"{text}-{serial}")
    if text == "junk":
        path.write_bytes(junk)
    elif text == "empty":
        path.write_bytes(b"")
    elif text == "dir":
        path.mkdir()
    elif text == "under-file":
        Path(f"file-{serial}").write_bytes(junk)
        path = Path(f"file-{serial}") / "inner"
    return str(path)


def _run(argv: list[str], seed: str | None) -> int:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop(cli.ENV_SEED, None)
        if seed is not None:
            os.environ[cli.ENV_SEED] = seed
        code = main(argv)
        out.flush()
        err.flush()
    return code


@st.composite
def _command_lines(draw):
    """(command, [(option, value or None)]): most of the command's own options, a few others."""
    command = draw(st.one_of(st.sampled_from(sorted(COMMAND_OPTIONS)), _ARGUMENT_TEXT))
    own = [(name, draw(_VALUES)) for name in COMMAND_OPTIONS.get(command, [])
           if draw(st.integers(0, 9))]
    other = draw(st.lists(st.tuples(st.sampled_from(OPTIONS), _VALUES), max_size=2))
    return command, own + other


# the valid set's 8 images are fewer than a montage or profile asks for by default
SMALL_SET_WARNINGS = pytest.mark.filterwarnings("ignore:.*only \\d+ images:UserWarning")


@SMALL_SET_WARNINGS
@given(line=_command_lines(), junk=st.binary(max_size=200), seed=st.none() | _PROCESS_TEXT)
@settings(max_examples=400, deadline=None)
def test_main_returns_an_exit_code(workdir, valid, line, junk, seed):
    command, options = line
    case = Path(workdir) / f"case{len(os.listdir(workdir))}"
    case.mkdir()
    names = [name for name, _ in options]
    if command in ("synth", "pipeline") and "--spec" not in names and "--manifest" not in names:
        # without either they render the built-in dataset, and pipeline trains on it
        options = options + [("--spec", ("path", "junk"))]
    previous = os.getcwd()
    os.chdir(case)
    try:
        argv = [command]
        for serial, (name, value) in enumerate(options):
            argv.append(name)
            if value is not None:
                argv.append(_argument(name, value, junk, serial, valid))
        code = _run(argv, seed)
    finally:
        os.chdir(previous)
    assert code in (0, 1, 2, 3), (argv, code)


@pytest.mark.parametrize("command, options, writes", [
    ("synth", ["--spec", "--out", "ds"], ["ds/manifest.csv"]),
    ("train", ["--manifest", "--config", "--out", "run.ckpt"], ["run.ckpt", "run.metrics.csv"]),
    ("harvest", ["--checkpoint", "--manifest", "--out", "db.csv"], ["db.csv"]),
    ("deconv", ["--checkpoint", "--manifest", "--map", "0", "--out", "dec"],
     ["dec/map_0_deconv.png"]),
    ("associate", ["--db", "--manifest", "--checkpoint", "--out", "assoc"],
     ["assoc/summary/index.csv"]),
    ("pipeline", ["--manifest", "--config", "--out", "run"], ["run/db.csv", "run/summary/index.csv"]),
])
@SMALL_SET_WARNINGS
def test_valid_inputs_run_to_their_writes(tmp_path, monkeypatch, valid, command, options,
                                         writes):
    # each option that reads an artifact is followed by the valid one
    argv = [command]
    for arg in options:
        argv += [arg, str(valid[arg])] if arg in valid else [arg]
    monkeypatch.chdir(tmp_path)
    assert _run(argv, None) == 0, argv
    assert all((tmp_path / name).is_file() for name in writes)
    if command == "harvest":  # the fixture harvested the same checkpoint and manifest
        assert (tmp_path / "db.csv").read_bytes() == valid["--db"].read_bytes()
