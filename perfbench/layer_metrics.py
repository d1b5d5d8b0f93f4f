"""Which auprobe functions a traced run wraps, and the per-layer metrics.

Layer, model and training metrics come from the traced training stage;
analysis metrics (harvest, association, report, deconv, image reads and
writes) from the traced probe passes. In `paper` the two stages run
different networks, so each layer metric describes the network that
was trained. Times are per call of the named function unless the name
says otherwise; `*_calls`, `records_built`, `write_mb` are per probe
pass. A metric whose function the run could not wrap is left out.
"""

from __future__ import annotations

import os

import numpy as np

from spans import SpanStats, Tracer

# Functions wrapped on top of the layer methods, with their span names.
SIMPLE_TARGETS = {
    "layers.im2col": "layers.im2col",
    "layers.col2im": "layers.col2im",
    "layers.maxpool_forward": "layers.maxpool.fwd",
    "layers.maxpool_backward": "layers.maxpool.bwd",
    "layers.unpool": "layers.unpool",
    "model.Network.forward": "model.forward",
    "model.Network.backward": "model.backward",
    "model.Network.forward_trace": "model.forward_trace",
    "model.Network.stage_outputs": "harvest.stage_outputs",
    "model.train": "model.train",
    "model.sgd_step": "model.sgd_step",
    "model.checkpoint_hash": "model.checkpoint_hash",
    "data.augment": "data.augment",
    "data.eval_transform": "data.eval_transform",
    "data.load_image": "data.load_image",
    "data.generate_synthetic": "data.generate_synthetic",
    "imageio.read_image": "imageio.read",
    "deconv.project": "deconv.project",
    "harvest.harvest": "harvest.harvest",
    "harvest.ActivationDB.load": "harvest.db_load",
    "association.profile": "association.profile",
    "association.profile_all": "association.profile_all",
    "report.plot_profile": "report.plot_profile",
    "report.au_summary": "report.au_summary",
    "report.montage": "report.montage",
}


def plan_tracer(tracer: Tracer) -> None:
    counts = tracer.counts

    def add_file_size(key, arg):
        def hook(args, result):
            counts[key] += os.path.getsize(args[arg])
        return hook

    def add_len(args, result):
        counts["top_n_returned"] += len(result)

    def add_record(args, result):
        counts["records_built"] += 1

    for method, suffix in (("forward", "fwd"), ("backward", "bwd"),
                           ("transpose_apply", "transpose")):
        tracer.plan(f"layers.ConvLayer.{method}", tracer.layer_span(suffix))
    for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
        tracer.plan(f"layers.FCLayer.{method}", tracer.layer_span(suffix))
    for target, name in SIMPLE_TARGETS.items():
        tracer.plan(target, name)
    tracer.plan("imageio.write_image", "imageio.write", add_file_size("write_bytes", 0))
    tracer.plan("harvest.ActivationDB.save", "harvest.db_save", add_file_size("db_bytes", 1))
    tracer.plan("harvest.top_n", "harvest.top_n", add_len)
    tracer.plan("harvest.ActivationRecord.__init__", None, add_record, timed=False)


def conv_geometry(config) -> list[tuple[int, int, int, int]]:
    """(in_channels, out_channels, kernel, spatial size) of each conv."""
    sizes = [config.input_size] + config.stage_sizes()
    ins = (1,) + tuple(config.conv_channels[:-1])
    return [(cin, cout, config.kernel_size, sizes[i])
            for i, (cin, cout) in enumerate(zip(ins, config.conv_channels))]


def per_layer(tracer: Tracer, setup: SpanStats, s: SpanStats, p: SpanStats, passes: int,
              config, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced set-up, training (`s`) and probe passes (`p`).

    `config` is the trained network's; `passes` counts the traced probe passes.
    """
    counts = tracer.counts
    itemsize = np.dtype(config.np_dtype).itemsize
    ms = s.per_call_ms
    out: dict[str, tuple[float, str, tuple[str, ...]]] = {}
    conv = ("layers.ConvLayer.forward", "layers.ConvLayer.backward",
            "layers.ConvLayer.transpose_apply")
    # Conv self time means GEMM time only while im2col and col2im are split out.
    split = conv[:1] + ("layers.im2col", "layers.col2im")

    conv_fwd_calls = 0
    for k, (cin, cout, ksize, hw) in enumerate(conv_geometry(config), start=1):
        base = f"layers.conv{k}"
        own = [f"{base}.fwd", f"{base}.bwd", f"{base}.transpose"]
        conv_fwd_calls += s.calls.get(own[0], 0)
        im2col = s.under_parents("layers.im2col", own)
        col2im = s.under_parents("layers.col2im", own)
        calls = sum(s.calls.get(n, 0) for n in own)
        self_s = sum(s.self_time.get(n, 0.0) for n in own)
        flops = 2 * hw * hw * cin * ksize * ksize * cout * (
            s.calls.get(own[0], 0) + 2 * s.calls.get(own[1], 0) + s.calls.get(own[2], 0))
        out[f"{base}.fwd_ms"] = (ms(own[0]), "ms", conv[:1])
        out[f"{base}.bwd_ms"] = (ms(own[1]), "ms", conv[1:2])
        out[f"{base}.im2col_ms"] = (_ratio(1e3 * im2col[1], im2col[0]), "ms",
                                    (conv[0], "layers.im2col"))
        out[f"{base}.col2im_ms"] = (_ratio(1e3 * col2im[1], col2im[0]), "ms",
                                    (conv[0], "layers.col2im"))
        out[f"{base}.gemm_ms"] = (_ratio(1e3 * self_s, calls), "ms", split)
        out[f"{base}.gemm_gflops"] = (_ratio(flops / 1e9, self_s), "GFLOP/s", split)
        out[f"{base}.im2col_mb"] = (hw * hw * cin * ksize * ksize * itemsize / 1e6, "MB", ())
        if k == 1:
            c1 = s.under_parents("layers.col2im", [own[1]])
            out["layers.conv1.col2im_per_sample"] = (
                _ratio(c1[0], s.calls.get(own[1], 0)), "count", (conv[1], "layers.col2im"))
    out["layers.im2col_per_conv_fwd"] = (
        _ratio(s.calls.get("layers.im2col", 0), conv_fwd_calls), "count",
        (conv[0], "layers.im2col"))

    samples = s.calls.get("model.backward", 0)
    for metric, (span, target) in {
        "layers.maxpool.fwd_ms": ("layers.maxpool.fwd", "layers.maxpool_forward"),
        "layers.maxpool.bwd_ms": ("layers.maxpool.bwd", "layers.maxpool_backward"),
        "layers.fc1.fwd_ms": ("layers.fc1.fwd", "layers.FCLayer.forward"),
        "layers.fc1.bwd_ms": ("layers.fc1.bwd", "layers.FCLayer.backward"),
        "model.sgd_step_ms": ("model.sgd_step", "model.sgd_step"),
        "model.forward_ms": ("model.forward", "model.Network.forward"),
        "model.backward_ms": ("model.backward", "model.Network.backward"),
    }.items():
        out[metric] = (ms(span), "ms", (target,))
    # The input transform the training loop applies: data.augment with
    # augmentation on (`paper`), data.eval_transform with it off (`reduced`).
    out["data.train_transform_ms"] = (ms("data.augment", "data.eval_transform"), "ms",
                                      ("data.augment", "data.eval_transform"))
    for metric, (span, target) in {
        "model.forward_trace_ms": ("model.forward_trace", "model.Network.forward_trace"),
        "model.checkpoint_hash_ms": ("model.checkpoint_hash", "model.checkpoint_hash"),
        "data.eval_transform_ms": ("data.eval_transform", "data.eval_transform"),
        "data.load_image_ms": ("data.load_image", "data.load_image"),
        "imageio.read_ms": ("imageio.read", "imageio.read_image"),
        "imageio.write_ms": ("imageio.write", "imageio.write_image"),
        "deconv.project_ms": ("deconv.project", "deconv.project"),
        "harvest.stage_outputs_ms": ("harvest.stage_outputs", "model.Network.stage_outputs"),
        "harvest.db_save_ms": ("harvest.db_save", "harvest.ActivationDB.save"),
        "harvest.db_load_ms": ("harvest.db_load", "harvest.ActivationDB.load"),
        "harvest.top_n_ms": ("harvest.top_n", "harvest.top_n"),
        "association.profile_ms": ("association.profile", "association.profile"),
        "report.montage_ms": ("report.montage", "report.montage"),
        "report.plot_profile_ms": ("report.plot_profile", "report.plot_profile"),
    }.items():
        out[metric] = (p.per_call_ms(span), "ms", (target,))
    transposes = [n for n in p.calls if n.startswith("layers.") and n.endswith(".transpose")]
    out["deconv.transpose_apply_ms"] = (p.per_call_ms(*transposes), "ms",
                                        ("layers.ConvLayer.transpose_apply",))
    out["model.train_self_ms"] = (_ratio(1e3 * s.self_time.get("model.train", 0.0), samples),
                                  "ms", ("model.train", "model.Network.backward"))
    out["data.generate_synthetic_s"] = (setup.per_call_ms("data.generate_synthetic") / 1e3,
                                        "s", ("data.generate_synthetic",))
    out["imageio.write_mb"] = (counts["write_bytes"] / passes / 1e6, "MB",
                               ("imageio.write_image",))
    out["harvest.db_mb"] = (_ratio(counts["db_bytes"] / 1e6, p.calls.get("harvest.db_save", 0)),
                            "MB", ("harvest.ActivationDB.save",))
    out["harvest.top_n_calls"] = (p.calls.get("harvest.top_n", 0) / passes, "count",
                                  ("harvest.top_n",))
    out["association.records_built"] = (counts["records_built"] / passes, "count",
                                        ("harvest.ActivationRecord.__init__",))
    out["association.records_kept_frac"] = (
        _ratio(counts["top_n_returned"], counts["records_built"]), "frac",
        ("harvest.top_n", "harvest.ActivationRecord.__init__"))
    out["trace.overhead_pct"] = (overhead_pct, "%", ())

    absent = set(tracer.absent)
    return {name: (value, unit) for name, (value, unit, needs) in out.items()
            if not absent.intersection(needs)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
