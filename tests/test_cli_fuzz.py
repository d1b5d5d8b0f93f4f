"""cli.main returns an exit code, whatever its arguments and environment.

Each example draws a subcommand (or a junk word), most of its own options
and a few of any, each with a junk value or none: a path that is missing,
a junk file, an empty file, a directory or a path under a file, or junk
text. It also draws an arbitrary AUPROBE_SEED, or none. Every call must
return 0, 1, 2 or 3 and let no exception escape. Arguments and the
environment are text a process can be given: no NUL, and bytes that are
not UTF-8 arrive as lone surrogates (os.fsdecode). Paths are relative to
a scratch directory the test runs in, and no argument holds a "/", so
nothing is written elsewhere.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe import cli
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
    st.sampled_from(PATH_KINDS).map(lambda kind: ("path", kind)),
    st.sampled_from(["-1", "0", "1", "3", "99999999999999999999", "nan", "all", "1,2", ""])
    .map(lambda text: ("text", text)),
    _ARGUMENT_TEXT.map(lambda text: ("text", text)),
    st.none(),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


def _argument(value, junk: bytes, serial: int) -> str:
    """The argument a drawn value stands for, creating the file it names."""
    kind, text = value
    if kind == "text":
        return text
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


@given(line=_command_lines(), junk=st.binary(max_size=200), seed=st.none() | _PROCESS_TEXT)
@settings(max_examples=400, deadline=None)
def test_main_returns_an_exit_code(workdir, line, junk, seed):
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
                argv.append(_argument(value, junk, serial))
        code = _run(argv, seed)
    finally:
        os.chdir(previous)
    assert code in (0, 1, 2, 3), (argv, code)
