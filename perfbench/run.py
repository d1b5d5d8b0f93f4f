#!/usr/bin/env python3
"""auprobe benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload reduced --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` as it
stands; nothing is installed. `--trace 0` prints the end-to-end metrics;
`--trace 1` wraps auprobe's public functions, prints the per-layer
metrics and writes every span to `.perfbench/out/`. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the environment and the check results.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reduced", "paper")
DEFAULT_SEED = 1
# Seed kept out of development; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009
# One BLAS thread: steadier on a shared machine, and within nproc anywhere.
BLAS_THREADS = 1

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def code_hash() -> str:
    """Digest of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "auprobe").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np, wl, seed: int, model_seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "python": platform.python_version(),
        "dtype": wl.model_config().dtype,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "model_seed": model_seed,
    }


def settle() -> None:
    """Flush pending writes and collect garbage before a timed pass.

    Files written or deleted earlier (set-up, the previous pass, the
    previous run's clean-up) are otherwise written back while a later step
    runs. On an ext4 disk mounted with `discard`, requests then waited
    40-90 ms on the journal, which set deconv_map_ms_p90. A pass builds
    some 10^5 records; collecting before it starts every pass with the
    same garbage collector state.
    """
    os.sync()
    gc.collect()


def attempt(step, ops: int, tally: dict):
    """Run one step; a step that raises is reported and counted, not fatal."""
    tally["attempted"] += ops
    settle()
    try:
        return step()
    except Exception:
        traceback.print_exc()
        tally["failed"] += ops
        return None


def repeat_check(out_dir: Path, workload: str, seed: int, fingerprint: str):
    """Compare the run's output fingerprint with earlier runs of this code."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fingerprint-{workload}-{seed}-{code_hash()[:16]}.txt"
    if path.is_file():
        earlier = path.read_text(encoding="utf-8")
        return ("output repeats across runs of this code", earlier == fingerprint,
                f"{fingerprint[:24]} vs {earlier[:24]}")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(fingerprint, encoding="utf-8")
    os.replace(tmp, path)
    return ("output repeats across runs of this code", True, "first run of this code")


def run(args, wl, out_dir: Path):
    """Set up, then timed rounds; returns the result's parts.

    Rounds (a train pass, then the workload's probe passes) repeat until
    the workload's minimum of rounds ran and the next round, as long as
    the last one, would end more than half a round after `--seconds`.
    A traced run alternates untraced and traced rounds, at least one of
    each, so that both kinds see the same stretches of machine time.
    """
    import layer_metrics
    import workloads
    from spans import Tracer

    tally = {"attempted": 0, "failed": 0}
    tracer = None
    if args.trace:
        tracer = Tracer()
        layer_metrics.plan_tracer(tracer)
        wl.on_network = tracer.name_layers
        tracer.install()
    setup_times, setup_walls = [], []
    for rep in range(1 if args.trace else wl.setup_reps):
        settle()
        _, wall, seconds = wl.speed.time(lambda: wl.setup(rep))
        setup_times.append(seconds)
        setup_walls.append(wall)
    settle()
    _, once_wall, once_s = wl.speed.time(wl.setup_once)
    setup_s = statistics.median(setup_times) + once_s
    details = {"setup_rep_s": setup_times, "setup_once_s": once_s,
               "setup_rep_wall_s": setup_walls, "setup_once_wall_s": once_wall}
    if tracer is not None:
        setup_range = (0, len(tracer.spans))
        tracer.uninstall()
        tracer.counts.clear()

    rounds = {False: [], True: []}  # traced or not -> [(train, [probe...])]
    ranges = {"train": [], "probe": []}  # span index ranges of traced passes
    least = max(wl.min_rounds, 1 if tracer is None else 2)
    deadline = clock() + args.seconds
    failed = False
    last_round_s = 0.0
    while not failed and (sum(map(len, rounds.values())) < least
                          or clock() + last_round_s / 2 < deadline):
        traced = tracer is not None and len(rounds[True]) < len(rounds[False])
        if traced:
            tracer.install()
        round_start = clock()
        try:
            first = len(tracer.spans) if tracer else 0
            train = attempt(wl.train_pass, wl.train_ops(), tally)
            middle = len(tracer.spans) if tracer else 0
            probes = [attempt(wl.probe_pass, wl.probe_ops(), tally)
                      for _ in range(wl.probe_per_round if train else 0)]
        finally:
            if traced:
                tracer.uninstall()
        last_round_s = clock() - round_start
        failed = train is None or None in probes
        if not failed:
            rounds[traced].append((train, probes))
            if traced:
                ranges["train"].append((first, middle))
                ranges["probe"].append((middle, len(tracer.spans)))

    all_rounds = rounds[False] + rounds[True]
    trains = [t for t, _ in all_rounds]
    probes = [p for _, ps in all_rounds for p in ps]
    ok = not failed and bool(all_rounds)
    checks = wl.train_checks(trains) + wl.probe_checks(probes) if ok else []
    if ok:
        checks.append(repeat_check(out_dir, args.workload, args.seed, wl.fingerprint(trains)))
    correct = ok and tally["failed"] == 0 and all(c for _, c, _ in checks)
    details["round_s"] = [round_seconds(wl, r) for r in all_rounds]
    details["train_s"] = [t["seconds"] for t in trains]
    details["train_wall_s"] = [t["wall_s"] for t in trains]
    details["probe_step_s"] = [{k: p[k] for k in (*workloads.STEPS, "wall_s")} for p in probes]
    details["kernel_s"] = wl.speed.kernel_s
    details["checks"] = [{"name": n, "ok": c, "detail": d} for n, c, d in checks]

    metrics = {}
    if ok and tracer is None:
        metrics["setup_s"] = (setup_s, "s")
        metrics.update(wl.metrics(trains, probes))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        details["latency_samples"] = wl.latency_samples(probes)
    elif ok:
        untraced_s = statistics.median(round_seconds(wl, r) for r in rounds[False])
        traced_s = statistics.median(round_seconds(wl, r) for r in rounds[True])
        probe = tracer.summarize(ranges["probe"])
        metrics = layer_metrics.per_layer(
            tracer, tracer.summarize([setup_range]), tracer.summarize(ranges["train"]),
            probe, sum(len(ps) for _, ps in rounds[True]), wl.model_config(),
            100.0 * (traced_s / untraced_s - 1.0))
        both = tracer.summarize(ranges["train"] + ranges["probe"])
        details.update(
            untraced_round_s=untraced_s, traced_round_s=traced_s, absent=tracer.absent,
            self_ms_per_traced_round={name: 1e3 * t / len(rounds[True])
                                      for name, t in sorted(both.self_time.items())})
    return correct, tally, metrics, details, tracer


def round_seconds(wl, rnd) -> float:
    """Scaled time of a round's timed steps."""
    train, probes = rnd
    return train["seconds"] + sum(map(wl.probe_seconds, probes))


def write_spans(path: Path, tracer, details: dict) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "details": details,
        "columns": ["name", "start_us", "end_us", "parent"],
        "spans": [[name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                   parent] for name, start, end, parent in tracer.spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "auprobe" / "__init__.py").is_file():
        print(f"perfbench: no auprobe package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads

    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        correct, tally, metrics, details, tracer = run(args, wl, state / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(np, wl, args.seed, workloads.MODEL_SEED)
    details = {"workload": args.workload, "env": env, **details}
    if tracer is not None:
        write_spans(state / "out" / f"trace-{args.workload}-{args.seed}.json", tracer, details)
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
