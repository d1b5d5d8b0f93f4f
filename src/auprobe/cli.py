"""Command-line driver for the whole workbench.

Subcommands: synth, train, harvest, deconv, associate, pipeline.
Exit codes: 0 success, 1 usage error, 2 data error (an input or output
file that cannot be read, parsed or written), 3 numeric failure.
The AUPROBE_SEED environment variable overrides every configured seed
so a whole run can be re-keyed from outside.

Model/training configuration files are flat key=value text with dotted
prefixes, one key per line::

    model.input_size=48
    model.conv_channels=8,16,32
    train.epochs=60

Every run writes the fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from pathlib import Path

from . import association, data, harvest as harvest_mod, model, report
from .data import DataError
from .deconv import render_response
from .imageio import ImageFormatError
from .model import ModelConfig, NumericError, TrainConfig

ENV_SEED = "AUPROBE_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _file_path(raw: str) -> str:
    """An output file path; "" and "." name a directory, not a file."""
    if not Path(raw).name:
        raise argparse.ArgumentTypeError(f"expected a file path, got {raw!r}")
    return raw


# ------------------------------------------------------------- config io


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if "tuple" in str(field.type):
        parts = raw.replace(";", ",").split(",")
        return tuple(int(p.strip()) for p in parts if p.strip())
    return raw


def parse_config_file(path) -> tuple[ModelConfig, TrainConfig]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    model_fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    train_fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    model_kw: dict = {}
    train_kw: dict = {}
    for ln, line in enumerate(data.read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path} line {ln}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            if key.startswith("model."):
                name = key[len("model."):]
                if name not in model_fields:
                    raise DataError(f"{path} line {ln}: unknown key {key!r}")
                model_kw[name] = _coerce(model_fields[name], value)
            elif key.startswith("train."):
                name = key[len("train."):]
                if name not in train_fields:
                    raise DataError(f"{path} line {ln}: unknown key {key!r}")
                train_kw[name] = _coerce(train_fields[name], value)
            else:
                raise DataError(f"{path} line {ln}: keys need a model. or train. prefix")
        except ValueError as exc:
            raise DataError(f"{path} line {ln}: {exc}") from exc
    try:
        return ModelConfig(**model_kw), TrainConfig(**train_kw)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_resolved_config(model_cfg: ModelConfig, train_cfg: TrainConfig, path) -> None:
    lines = []
    for prefix, cfg in (("model", model_cfg), ("train", train_cfg)):
        for f in dataclasses.fields(cfg):
            lines.append(f"{prefix}.{f.name}={_format_value(getattr(cfg, f.name))}")
    data.write_atomic(path, "\n".join(lines) + "\n")


def _env_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None or raw == "":
        return None
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise DataError(f"{ENV_SEED} must be a non-negative integer, got {raw!r}")
    return seed


def _apply_seed_overrides(model_cfg: ModelConfig, train_cfg: TrainConfig):
    seed = _env_seed()
    if seed is None:
        return model_cfg, train_cfg
    return (
        dataclasses.replace(model_cfg, seed=seed),
        dataclasses.replace(train_cfg, seed=seed),
    )


# ----------------------------------------------------------- subcommands


def cmd_synth(args) -> int:
    if args.spec is not None:
        spec = data.load_synthetic_spec(args.spec)
    else:
        spec = data.default_synthetic_spec()
    seed = _env_seed()
    if seed is not None:
        spec.seed = seed
    out = Path(args.out)
    manifest = data.generate_synthetic(spec, out)
    data.save_synthetic_spec(spec, out / "spec_resolved.json")
    print(f"synth: wrote {len(manifest)} images and manifest.csv under {out}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg = parse_config_file(args.config)
    model_cfg, train_cfg = _apply_seed_overrides(model_cfg, train_cfg)
    manifest = data.load_manifest(args.manifest)
    net = model.build_network(model_cfg)
    log_path = Path(args.log) if args.log else Path(args.out).with_suffix(".metrics.csv")
    metrics = model.train(net, manifest, train_cfg, log_path=log_path)
    model.save_checkpoint(net, args.out)
    write_resolved_config(model_cfg, train_cfg,
                          Path(args.out).parent / (Path(args.out).stem + ".config.txt"))
    last = metrics[-1]
    print(
        f"train: {len(metrics)} epochs, final loss {last.train_loss:.4f}, "
        f"accuracy {last.train_acc:.3f}; checkpoint {args.out}"
    )
    return 0


def cmd_harvest(args) -> int:
    net = model.load_checkpoint(args.checkpoint)
    manifest = data.load_manifest(args.manifest)
    db = harvest_mod.harvest(net, manifest)
    db.save(args.out)
    print(f"harvest: {db.num_images} images x {db.num_maps} maps -> {args.out}")
    return 0


def cmd_deconv(args) -> int:
    net = model.load_checkpoint(args.checkpoint)
    manifest = data.load_manifest(args.manifest)
    num_maps = net.config.conv_channels[-1]
    if not 0 <= args.map < num_maps:
        raise DataError(f"--map {args.map} outside 0..{num_maps - 1}")
    db = harvest_mod.harvest(net, manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    responses = list(report.map_responses(db, net, manifest, args.map, args.top))
    report.write_montage(responses, net.config, db.layer, out / f"map_{args.map}")
    for rank, (rec, view, proj, box) in enumerate(responses, start=1):
        render_response(proj, box, view,
                        out / f"img{rec.image_id}_L{db.layer}_m{args.map}_r{rank}.png")
    print(f"deconv: map {args.map}, {len(responses)} responses -> {out}")
    return 0


def _parse_au_list(raw: str, manifest: data.DatasetManifest) -> list[int]:
    if raw == "all":
        return manifest.au_ids()
    try:
        ids = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise DataError(f"--au expects integers or 'all', got {raw!r}") from exc
    if not ids:
        raise DataError("--au list is empty")
    return ids


def cmd_associate(args) -> int:
    manifest = data.load_manifest(args.manifest)
    db = harvest_mod.ActivationDB.load(args.db, expect_manifest=manifest.content_hash())
    net = model.load_checkpoint(args.checkpoint) if args.checkpoint is not None else None
    if net is not None and db.provenance.get("checkpoint") != model.checkpoint_hash(net):
        raise DataError(f"{args.db}: produced by a different checkpoint")
    au_ids = _parse_au_list(args.au, manifest)
    profiles = association.profile_all(db, manifest, au_ids, n=args.n)
    index = report.au_summary(profiles, db, net, manifest, args.out)
    for prof in profiles:
        print(
            f"associate: AU {prof.au_id} -> map {prof.argmax_map} "
            f"(distance {prof.argmax_distance:.4f})"
        )
    print(f"associate: index at {index}")
    return 0


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stage = "synth"
    try:
        if args.manifest is not None:
            manifest = data.load_manifest(args.manifest)
            canvas = None
        else:
            spec = (data.load_synthetic_spec(args.spec) if args.spec is not None
                    else data.default_synthetic_spec())
            seed = _env_seed()
            if seed is not None:
                spec.seed = seed
            manifest = data.generate_synthetic(spec, out / "dataset")
            data.save_synthetic_spec(spec, out / "dataset" / "spec_resolved.json")
            canvas = spec.canvas_size
            print(f"pipeline[synth]: {len(manifest)} images under {out / 'dataset'}")

        stage = "train"
        if args.config is not None:
            model_cfg, train_cfg = parse_config_file(args.config)
        else:
            num_classes = max(2, len(manifest.labels()))
            base = model.reduced_config()
            model_cfg = dataclasses.replace(
                base,
                input_size=canvas if canvas is not None else base.input_size,
                num_classes=num_classes,
            )
            train_cfg = model.reduced_train_config()
        model_cfg, train_cfg = _apply_seed_overrides(model_cfg, train_cfg)
        write_resolved_config(model_cfg, train_cfg, out / "config_resolved.txt")
        net = model.build_network(model_cfg)
        metrics = model.train(net, manifest, train_cfg, log_path=out / "metrics.csv")
        model.save_checkpoint(net, out / "checkpoint.ckpt")
        last = metrics[-1]
        print(
            f"pipeline[train]: {len(metrics)} epochs, loss {last.train_loss:.4f}, "
            f"accuracy {last.train_acc:.3f}"
        )

        stage = "harvest"
        db = harvest_mod.harvest(net, manifest)
        db.save(out / "db.csv")
        print(f"pipeline[harvest]: {db.num_images} x {db.num_maps} records")

        stage = "associate"
        profiles = association.profile_all(db, manifest, manifest.au_ids(), n=args.n)
        report.au_summary(profiles, db, net, manifest, out)
        for prof in profiles:
            print(
                f"pipeline[associate]: AU {prof.au_id} -> map {prof.argmax_map} "
                f"(distance {prof.argmax_distance:.4f})"
            )
    except (DataError, ImageFormatError, NumericError, OSError) as exc:
        raise type(exc)(f"pipeline stage '{stage}' failed: {exc}") from exc
    print(f"pipeline: complete under {out}")
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="auprobe", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic glyph dataset")
    p.add_argument("--spec", help="synthetic spec JSON (omit for the built-in default)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train from scratch on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", type=_file_path, required=True, help="checkpoint path to write")
    p.add_argument("--log", type=_file_path,
                   help="metrics CSV path (default: next to checkpoint)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("harvest", help="record per-map peak activations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", type=_file_path, required=True, help="activation db CSV to write")
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("deconv", help="project one map's top activations to pixels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--map", type=int, required=True)
    p.add_argument("--top", type=_positive_int, default=9)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_deconv)

    p = sub.add_parser("associate", help="rank feature maps per action unit")
    p.add_argument("--db", required=True, help="activation db CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--au", default="all", help="comma-separated AU ids or 'all'")
    p.add_argument("--n", type=_positive_int, default=9)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", help="optional; enables deconvolution montages")
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("pipeline", help="synth (or ingest), train, harvest, associate")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--spec", help="synthetic spec JSON")
    group.add_argument("--manifest", help="existing dataset manifest")
    p.add_argument("--config", help="key=value config file (default: desk-scale)")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--n", type=_positive_int, default=9)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # A path's undecodable bytes arrive as lone surrogates (os.fsdecode);
        # progress lines print them escaped, as stderr does, rather than fail
        # after the outputs are written.
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, ImageFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
