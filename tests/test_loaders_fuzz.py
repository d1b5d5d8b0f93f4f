"""Every file loader returns a value or raises DataError, whatever bytes it reads.

Each loader is fed arbitrary bytes, arbitrary bytes behind its format's
own header, and a valid file of its format with a few bits flipped. The
JSON synthetic spec is also fed valid specs with one field replaced by
an arbitrary JSON value. Inputs that once escaped as other exceptions
(or, for a checkpoint, could allocate a network of any size) are kept
as explicit cases.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe import association, data, model
from auprobe.association import AUDistanceProfile, save_profile_csv
from auprobe.cli import parse_config_file, write_resolved_config
from auprobe.data import DataError
from auprobe.harvest import DB_COLUMNS, ActivationDB


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def _valid_files(directory) -> dict[str, bytes]:
    """One small valid file per loader, keyed by loader name."""
    net = model.build_network(model.ModelConfig(input_size=8, conv_channels=(1, 2), fc_hidden=2,
                                                num_classes=2, seed=1))
    model.save_checkpoint(net, directory / "valid.ckpt")
    ActivationDB(np.array([[1.5, 0.0], [2.25, 3.0]]), np.array([[0, 1], [2, 3]]),
                 np.array([[1, 0], [3, 2]]), 3, {"checkpoint": "abc"}).save(directory / "valid.db")
    save_profile_csv(AUDistanceProfile(au_id=1, distances=np.array([0.5, 2.0]), argmax_map=1,
                                       n=3, provenance={}), directory / "valid.profile.csv")
    write_resolved_config(model.reduced_config(), model.reduced_train_config(),
                          directory / "valid.cfg")
    data.save_synthetic_spec(data.default_synthetic_spec(), directory / "valid.json")
    manifest = ("path,label,aus,subject,sequence,crop\n"
                "a.pgm,happy,1;4,s1,q1,0;0;8;8\nb.pgm,sad,,s2,q2,\n")
    return {
        "load_manifest": manifest.encode(),
        "ActivationDB.load": (directory / "valid.db").read_bytes(),
        "load_checkpoint": (directory / "valid.ckpt").read_bytes(),
        "load_profile_csv": (directory / "valid.profile.csv").read_bytes(),
        "parse_config_file": (directory / "valid.cfg").read_bytes(),
        "load_synthetic_spec": (directory / "valid.json").read_bytes(),
    }


LOADERS = {
    "load_manifest": lambda path: data.load_manifest(path, validate_images=False),
    "ActivationDB.load": ActivationDB.load,
    "load_checkpoint": model.load_checkpoint,
    "load_profile_csv": association.load_profile_csv,
    "parse_config_file": parse_config_file,
    "load_synthetic_spec": data.load_synthetic_spec,
}

HEADERS = {
    "load_manifest": b"path,label,aus,subject,sequence,crop\n",
    "ActivationDB.load": f"# auprobe-activation-db v=1 layer=3\n{DB_COLUMNS}\n".encode(),
    "load_checkpoint": model.CHECKPOINT_MAGIC,
    "load_profile_csv": b"map,distance\n",
    "parse_config_file": b"model.",
    "load_synthetic_spec": b"{",
}


@pytest.fixture(scope="module")
def valid_files(fuzz_dir):
    files = _valid_files(fuzz_dir)
    for name, blob in files.items():  # each valid file loads as it is
        path = fuzz_dir / "check.bin"
        path.write_bytes(blob)
        LOADERS[name](path)
    return files


def _load(directory, name: str, payload: bytes):
    path = directory / "fuzz.bin"
    path.write_bytes(payload)
    return LOADERS[name](path)


def _load_or_data_error(directory, name: str, payload: bytes) -> None:
    try:
        _load(directory, name, payload)
    except DataError:
        pass


@pytest.mark.parametrize("name", sorted(LOADERS))
@given(payload=st.binary(max_size=300), behind_header=st.booleans())
@settings(max_examples=150, deadline=None)
def test_loader_on_arbitrary_bytes(fuzz_dir, name, payload, behind_header):
    _load_or_data_error(fuzz_dir, name, HEADERS[name] + payload if behind_header else payload)


@pytest.mark.parametrize("name", sorted(LOADERS))
@given(flips=st.lists(st.integers(0, 1 << 30), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_loader_on_bit_flipped_file(fuzz_dir, valid_files, name, flips):
    blob = bytearray(valid_files[name])
    for flip in flips:
        bit = flip % (8 * len(blob))
        blob[bit // 8] ^= 1 << (bit % 8)
    _load_or_data_error(fuzz_dir, name, bytes(blob))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=12,
)
_SPEC_PATHS = [("canvas_size",), ("samples_per_class",), ("intensity_range",), ("seed",),
               ("noise_sigma",), ("units",), ("units", 0), ("units", 0, "region"),
               ("units", 0, "unit_id"), ("units", 0, "glyph"), ("class_rules",),
               ("class_rules", "A")]


@given(where=st.sampled_from(_SPEC_PATHS), value=_JSON)
@settings(max_examples=300, deadline=None)
def test_synthetic_spec_with_one_field_replaced(fuzz_dir, valid_files, where, value):
    raw = json.loads(valid_files["load_synthetic_spec"])
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    _load_or_data_error(fuzz_dir, "load_synthetic_spec", json.dumps(raw).encode())


def _checkpoint_with(valid: bytes, edit) -> bytes:
    """valid with its JSON header passed through edit(header)."""
    magic = model.CHECKPOINT_MAGIC
    end = valid.index(b"\n", len(magic))
    header = json.loads(valid[len(magic) : end])
    edit(header)
    return magic + json.dumps(header).encode() + valid[end:]


@pytest.mark.parametrize("edit", [
    lambda h: h["config"].update(fc_hidden=10 ** 12),  # refused before anything is allocated
    lambda h: h["config"].update(conv_channels=[-2, 3]),
    lambda h: h["config"].update(input_size=8.5),
    lambda h: h["config"].update(kernel_size=-1),
    lambda h: h["config"].update(seed=-1),
    lambda h: h["params"][0].pop("name"),
    lambda h: h["params"][1].update(shape=7),
    lambda h: h.update(params=5),
], ids=["huge-fc", "negative-channels", "float-size", "negative-kernel", "negative-seed",
        "unnamed-param", "int-shape", "int-params"])
def test_checkpoint_with_bad_header_field(fuzz_dir, valid_files, edit):
    payload = _checkpoint_with(valid_files["load_checkpoint"], edit)
    with pytest.raises(DataError):
        _load(fuzz_dir, "load_checkpoint", payload)


@pytest.mark.parametrize("name, payload", [
    ("load_manifest", b"path,label,aus,subject,sequence,crop\na.pgm,x,\xc2\xb2,,,\n"),
    ("load_manifest", b"path,label,aus,subject,sequence,crop\na.pgm,x,1,,,--5;0;1;1\n"),
    ("load_synthetic_spec", b"[" * 100000),
    ("load_checkpoint", model.CHECKPOINT_MAGIC + b"[" * 100000 + b"\n"),
], ids=["superscript-au", "double-minus-crop", "deep-json-spec", "deep-json-checkpoint"])
def test_loader_on_known_crashers(fuzz_dir, name, payload):
    with pytest.raises(DataError):
        _load(fuzz_dir, name, payload)


@pytest.mark.parametrize("edit", [
    lambda raw: raw["units"][0].update(unit_id=float("inf")),
    lambda raw: raw["units"][0].update(region=[1, 1, 18]),
    lambda raw: raw.update(class_rules=[]),
    lambda raw: raw.update(seed=-3),  # loaded, then failed in synth with a traceback
    lambda raw: raw.update(intensity_range=[0.5, 0.9, 1.0]),  # the same, for these three
    lambda raw: raw.update(intensity_range=[1.0, 0.5]),
    lambda raw: raw.update(intensity_range=[0.9]),  # ran with numpy's default bounds
    lambda raw: raw.update(intensity_range=[]),
], ids=["infinite-unit-id", "three-value-region", "list-class-rules", "negative-seed",
        "three-value-intensity-range", "reversed-intensity-range", "one-value-intensity-range",
        "empty-intensity-range"])
def test_synthetic_spec_with_bad_field(fuzz_dir, valid_files, edit):
    raw = json.loads(valid_files["load_synthetic_spec"])
    edit(raw)
    with pytest.raises(DataError):
        _load(fuzz_dir, "load_synthetic_spec", json.dumps(raw).encode())
