"""The benchmark's workloads: set-up, timed rounds, checks and metrics.

Every workload runs the whole auprobe chain, so every workload reports
every end-to-end metric. Set-up renders the inputs and trains a
desk-scale detector (`reduced_config`, DETECTOR_EPOCHS epochs on the
default 400-image set), the work of `auprobe synth` and `auprobe train`.
The timed region then repeats rounds of two kinds of pass:

- a train pass: `model.train` from the same initial weights on the
  workload's training set, so its loss repeats exactly;
- a probe pass on the detector and a held-out probe set: harvest and
  save the DB; load it and profile every AU; write the AU summary with
  montages; request one montage per last-layer map.

Interleaving the two spreads each metric's samples over the whole run:
on a shared 2-vCPU VM identical work ran at two or three speed levels up
to 1.8x apart, each held for seconds at a time. The workloads differ in
what a train pass trains: the desk-scale network for one epoch
(`reduced`), or the paper-geometry network for one batch (`paper`).

Every workload derives its inputs from the workload seed: the training
sets and the held-out probe set. The models' own seed (weight init,
batch order, dropout) is fixed, so runs on different workload seeds
differ only in their data.

The timed steps call only entry points expected to survive refactors:
`model.train`, `harvest.harvest` (default arguments), `ActivationDB.save`
and `.load`, `association.profile_all`, `report.au_summary` and
`report.montage`. Checks run outside the timed regions.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

import numpy as np
from hostspeed import HostSpeed

from auprobe import association, data, deconv, harvest, imageio, model, report

# Weight init, batch order and dropout of every workload's models. With
# init seed 3 the detector recovered all four synthetic units on almost
# every data seed tried; inits tied to the data seed recovered 2-4 (README.md).
MODEL_SEED = 3
# The held-out probe set is rendered from the workload seed plus this offset.
PROBE_SET_OFFSET = 1_000_000
PROBE_IMAGES_PER_CLASS = 150
DETECTOR_EPOCHS = 4
TOP_N = 9
# Analysis steps after harvest run this often per probe pass, for more
# samples of the cheap steps: deconv_map_ms_p90 needs at least 100 requests.
ASSOCIATE_REPEATS = 6
REPORT_REPEATS = 2
MONTAGE_REPEATS = 2
# Timed steps of a probe pass, each a list of scaled seconds per call.
STEPS = ("harvest_s", "associate_s", "report_s", "montage_s")


def mean(values) -> float:
    return float(statistics.fmean(values))


def params_finite(net) -> bool:
    return all(np.isfinite(value).all() for _, value, _ in net.parameters())


class Pipeline:
    """Train passes and probe passes over inputs rendered from one seed.

    model_cfg, train_cfg: what a train pass trains.
    train_spec: its training set; None trains on the detector's set.
    train_calls: a train pass makes this many `model.train` calls, each on
    one strided slice of the training set, continuing the same network.
    Each call is timed and scaled on its own: a step of a second or less
    follows the host's speed levels (see hostspeed.py), a long one does not.
    setup_reps: set-up is repeated and its median reported.
    min_rounds: rounds a run makes at least. A round is one train pass
    and `probe_per_round` probe passes, so that the deconv_map_ms
    percentiles pool samples from more than one stretch of time.
    """

    def __init__(self, seed: int, work: Path, model_cfg, train_cfg, train_spec,
                 train_calls: int, setup_reps: int, min_rounds: int, probe_per_round: int):
        self.seed = seed
        self.work = work
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        self.train_spec = train_spec
        self.train_calls = train_calls
        self.setup_reps = setup_reps
        self.min_rounds = min_rounds
        self.probe_per_round = probe_per_round
        self.detector_spec = data.default_synthetic_spec(seed=seed)
        self.probe_spec = data.default_synthetic_spec(
            seed=seed + PROBE_SET_OFFSET, samples_per_class=PROBE_IMAGES_PER_CLASS)
        self.on_network = lambda net: None  # the tracer names layers here
        self.speed = HostSpeed()
        self.units = None
        self.first_digest = None
        self.probe_passes = 0

    # ------------------------------------------------------------ set-up

    def setup(self, rep: int) -> None:
        """Render the inputs and build the network a train pass trains."""
        self.detector_set = data.generate_synthetic(self.detector_spec,
                                                    self.work / f"detector{rep}")
        self.probe_set = data.generate_synthetic(self.probe_spec, self.work / f"probe{rep}")
        self.train_set = self.detector_set
        if self.train_spec is not None:
            self.train_set = data.generate_synthetic(self.train_spec, self.work / f"train{rep}")
        self.train_parts = [
            data.DatasetManifest(rows=self.train_set.rows[i::self.train_calls],
                                 base_dir=self.train_set.base_dir)
            for i in range(self.train_calls)]
        if any(part.labels() != self.train_set.labels() for part in self.train_parts):
            raise ValueError("a training slice lacks a class")
        self.net = model.build_network(self.model_cfg)

    def setup_once(self) -> None:
        """One-off set-up after the repeated part: train the detector."""
        self.detector = model.build_network(model.reduced_config(seed=MODEL_SEED))
        model.train(self.detector, self.detector_set,
                    model.reduced_train_config(seed=MODEL_SEED, epochs=DETECTOR_EPOCHS))
        self.on_network(self.detector)

    def model_config(self):
        return self.model_cfg

    # ---------------------------------------------------------- training

    def train_ops(self) -> int:
        return self.train_cfg.epochs * len(self.train_set)

    def train_pass(self) -> dict:
        """`model.train` on each slice in turn, from the initial weights.

        The pass's loss is the last epoch's training loss of every call,
        weighted by slice size: the mean over the whole training set.
        """
        # The first pass trains the network set-up built; later passes
        # build an identical one outside the timed region.
        net, self.net = self.net or model.build_network(self.model_cfg), None
        self.on_network(net)
        record = {"call_s": [], "wall_s": [], "epochs": [], "losses": []}
        for part in self.train_parts:
            epochs, wall, seconds = self.speed.time(
                lambda: model.train(net, part, self.train_cfg))
            record["call_s"].append(seconds)
            record["wall_s"].append(wall)
            record["epochs"].append(len(epochs))
            record["losses"].append([m.train_loss for m in epochs])
        record["seconds"] = sum(record["call_s"])
        record["samples"] = sum(n * len(part) for n, part in zip(record["epochs"],
                                                                 self.train_parts))
        record["loss"] = sum(losses[-1] * len(part) for losses, part in zip(
            record["losses"], self.train_parts)) / len(self.train_set)
        record["params_finite"] = params_finite(net)
        return record

    def train_checks(self, passes: list[dict]) -> list[tuple[str, bool, str]]:
        finals = [p["loss"] for p in passes]
        losses = [x for p in passes for call in p["losses"] for x in call]
        return [
            ("loss finite", all(map(math.isfinite, losses)), f"{len(losses)} epoch losses"),
            ("parameters finite", all(p["params_finite"] for p in passes),
             f"{len(passes)} train passes"),
            ("epochs as configured",
             all(n == self.train_cfg.epochs for p in passes for n in p["epochs"]),
             f"{[p['epochs'] for p in passes]}"),
            ("final loss repeats within the run", len(set(finals)) == 1,
             f"{len(passes)} train passes: {sorted(set(finals))}"),
        ]

    # ---------------------------------------------------------- analysis

    def probe_ops(self) -> int:
        aus = len(self.probe_set.au_ids())
        num_maps = self.detector.config.conv_channels[-1]
        return (len(self.probe_set) + ASSOCIATE_REPEATS * aus + REPORT_REPEATS * aus
                + MONTAGE_REPEATS * num_maps)

    def probe_pass(self) -> dict:
        # Every pass and repetition writes into a fresh directory: rewriting
        # existing files made some requests wait on the filesystem.
        self.probe_passes += 1
        out = self.work / f"out{self.probe_passes}"
        out.mkdir(parents=True)
        db_path = out / "db.csv"
        net, probe_set = self.detector, self.probe_set
        record = {key: [] for key in STEPS}
        record["wall_s"] = {key: [] for key in STEPS}

        def step(key, fn):
            result, wall, scaled = self.speed.time(fn)
            record[key].append(scaled)
            record["wall_s"][key].append(wall)
            return result

        def harvest_and_save():
            db = harvest.harvest(net, probe_set)
            db.save(db_path)
            return db

        def associate():
            loaded = harvest.ActivationDB.load(db_path)
            return loaded, association.profile_all(loaded, probe_set, probe_set.au_ids(),
                                                   n=TOP_N)

        db = step("harvest_s", harvest_and_save)
        for _ in range(ASSOCIATE_REPEATS):
            loaded, profiles = step("associate_s", associate)
        for r in range(REPORT_REPEATS):
            index_path = step("report_s", lambda: report.au_summary(
                profiles, loaded, net, probe_set, out / f"summary{r}"))
        pngs = []
        for r in range(MONTAGE_REPEATS):
            for j in range(net.config.conv_channels[-1]):
                pngs.extend(step("montage_s", lambda: report.montage(
                    loaded, net, probe_set, j, n=TOP_N,
                    out_prefix=out / f"maps{r}" / f"map_{j}")))
        record["checks"] = self._check_pass(db, loaded, profiles, index_path, pngs)
        if self.units is None:
            self.units = self._units_recovered(loaded, profiles)
        return record

    @staticmethod
    def probe_seconds(record: dict) -> float:
        """Scaled time of a probe pass's timed steps."""
        return sum(sum(record[key]) for key in STEPS)

    def _check_pass(self, db, loaded, profiles, index_path, pngs):
        roundtrip = (loaded.image_ids == db.image_ids and loaded.layer == db.layer
                     and loaded.provenance == db.provenance
                     and np.array_equal(loaded.values, db.values)
                     and np.array_equal(loaded.rows, db.rows)
                     and np.array_equal(loaded.cols, db.cols))
        digest = _digest(db)
        if self.first_digest is None:
            self.first_digest = digest
        worst = max(_distance_error(loaded, self.probe_set, prof) for prof in profiles)
        with open(index_path, newline="", encoding="utf-8") as fh:
            index = list(csv.DictReader(fh))
        index_aus = [int(row["au"]) for row in index]
        summary_dir = Path(index_path).parent.parent
        pngs = pngs + [summary_dir / row[k] for row in index
                       for k in ("montage_orig", "montage_deconv")]
        decoded = sum(_decodes(p) for p in pngs)
        return [
            ("db save/load round-trip exact", roundtrip, f"{db.num_images}x{db.num_maps}"),
            ("harvest repeats across passes", digest == self.first_digest,
             "values, rows, cols"),
            ("profile distances match numpy recomputation", worst <= 1e-9,
             f"max relative error {worst:.2e} over {len(profiles)} AUs"),
            ("index.csv has one row per AU", index_aus == self.probe_set.au_ids(),
             f"{index_aus}"),
            ("montage PNGs decode", decoded == len(pngs), f"{decoded}/{len(pngs)}"),
        ]

    @staticmethod
    def probe_checks(passes: list[dict]) -> list[tuple[str, bool, str]]:
        """Each check holds if it held on every pass; a failure keeps its detail."""
        merged: dict[str, tuple[bool, str]] = {}
        for p in passes:
            for name, ok, detail in p["checks"]:
                if name not in merged or (merged[name][0] and not ok):
                    merged[name] = (ok, detail)
        return [(name, ok, detail) for name, (ok, detail) in merged.items()]

    def _units_recovered(self, db, profiles) -> int:
        """C6 rule on the probe set: distance/median >= 2 and region energy >= 0.5."""
        net = self.detector
        config = net.config
        by_au = {p.au_id: p for p in profiles}
        recovered = 0
        for unit in self.probe_spec.units:
            prof = by_au[unit.unit_id]
            ratio = prof.argmax_distance / max(float(np.median(prof.distances)), 1e-12)
            best = harvest.top_n(db, prof.argmax_map, range(db.num_images), 1)[0]
            img = data.load_image(self.probe_set, best.image_id)
            x = data.eval_transform(img, config.input_size, dtype=config.np_dtype)
            trace = net.forward_trace(x, image_id=best.image_id)
            proj = deconv.project(trace, net, db.layer, prof.argmax_map,
                                  (best.row, best.col))
            box = data.region_in_model_coords(unit.region, self.probe_spec.canvas_size,
                                              config.input_size)
            energy = deconv.projection_energy_fraction(proj, box)
            recovered += int(ratio >= 2.0 and energy >= 0.5)
        return recovered

    # ------------------------------------------------------------ results

    def fingerprint(self, trains: list[dict]) -> str:
        """Output that must repeat exactly at the same seed and code."""
        return f"{trains[0]['losses']!r} {self.first_digest}"

    def metrics(self, trains: list[dict], passes: list[dict]) -> dict[str, tuple[float, str]]:
        """Rates and step times are totals over the run's passes (work done
        over time taken), not medians: the host's speed steps between
        levels for seconds at a time, and a median jumps to whichever level
        held half the samples, where a total moves with the share of time."""
        latencies_ms = np.array([1e3 * s for p in passes for s in p["montage_s"]])
        return {
            "train_samples_per_s": (sum(t["samples"] for t in trains)
                                    / sum(t["seconds"] for t in trains), "1/s"),
            "train_loss_final": (trains[0]["loss"], "nats"),
            "harvest_images_per_s": (len(self.probe_set) * len(passes)
                                     / sum(t for p in passes for t in p["harvest_s"]), "1/s"),
            "associate_s": (mean(t for p in passes for t in p["associate_s"]), "s"),
            "report_s": (mean(t for p in passes for t in p["report_s"]), "s"),
            "deconv_map_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "deconv_map_ms_p90": (float(np.percentile(latencies_ms, 90)), "ms"),
            "units_recovered": (float(self.units), "count"),
        }

    @staticmethod
    def latency_samples(passes) -> int:
        return sum(len(p["montage_s"]) for p in passes)


def _digest(db) -> str:
    h = hashlib.sha256()
    for arr in (db.values, db.rows, db.cols):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _distance_error(db, manifest, prof) -> float:
    """Largest relative gap between a profile and an independent recomputation.

    For each map: the top-n peak values of the with-AU and without-AU
    partitions, truncated to a common length, floored at epsilon, summed
    as KL(R||Q) + KL(Q||R).
    """
    has = np.array([prof.au_id in row.au_set for row in manifest.rows])
    top_r = -np.sort(-db.values[has], axis=0)
    top_q = -np.sort(-db.values[~has], axis=0)
    k = min(prof.n, top_r.shape[0], top_q.shape[0])
    r = np.maximum(top_r[:k], association.EPSILON)
    q = np.maximum(top_q[:k], association.EPSILON)
    expected = (r * np.log(r / q)).sum(axis=0) + (q * np.log(q / r)).sum(axis=0)
    scale = np.maximum(np.abs(expected), 1e-12)
    if prof.argmax_map != int(np.argmax(prof.distances)):
        return math.inf
    return float(np.max(np.abs(prof.distances - expected) / scale))


def _decodes(path) -> bool:
    try:
        img = imageio.read_image(path)
    except (OSError, imageio.ImageFormatError):
        return False
    return img.ndim == 2 and img.dtype == np.uint8 and img.size > 0


def reduced(seed, work):
    """Desk-scale path of `pipeline` and C6: 48 px, 8/16/32 channels, batch
    16, no augmentation; a train pass is one epoch on the detector's
    400-image set, in five calls on 80-image slices (five whole batches)."""
    return Pipeline(seed, work, model.reduced_config(seed=MODEL_SEED),
                    model.reduced_train_config(seed=MODEL_SEED, epochs=1), None,
                    train_calls=5, setup_reps=5, min_rounds=3, probe_per_round=1)


# A paper-geometry train pass: one batch of 8 in one `model.train` call.
# At about 0.6 s a sample a pass takes about 5 s and a 30 s run holds two
# rounds; sgd_step is then about a tenth of the pass (1-2% at the paper's
# batch of 64).
PAPER_BATCH = 8
PAPER_SAMPLES = 8


def paper(seed, work):
    """Paper geometry (96 px, 64/128/256 channels, fc 1024, augmentation)
    for PAPER_SAMPLES samples in batches of PAPER_BATCH: GEMM-bound where
    `reduced` is overhead-bound."""
    train_cfg = model.TrainConfig(epochs=1, seed=MODEL_SEED, batch_size=PAPER_BATCH)
    classes = len(data.default_synthetic_spec().class_rules)
    spec = data.default_synthetic_spec(
        canvas_size=96, samples_per_class=PAPER_SAMPLES // classes, seed=seed)
    return Pipeline(seed, work, model.ModelConfig(seed=MODEL_SEED), train_cfg, spec,
                    train_calls=PAPER_SAMPLES // PAPER_BATCH, setup_reps=3, min_rounds=2,
                    probe_per_round=1)


WORKLOADS = {"reduced": reduced, "paper": paper}
