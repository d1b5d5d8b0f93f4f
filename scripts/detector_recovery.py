#!/usr/bin/env python3
"""Detector-recovery experiment on the synthetic glyph dataset.

For each seed: render the default dataset, train the reduced model,
harvest layer-3 activations, and test for every unit whether

  (a) the winning map's distance is at least twice the median over all
      maps, and
  (b) at least half of the squared-pixel energy of that map's top-1
      deconvolution projection falls inside the unit's placement region.

Prints one line per unit and a per-seed verdict.

    python scripts/detector_recovery.py --seeds 1 2 3 --epochs 60
"""

import argparse
import sys
import tempfile
import time

import numpy as np

from auprobe import association, data, deconv, harvest, model


def evaluate_recovery(net, manifest, spec, db, n=9):
    """Per-unit (argmax map, distance ratio, region energy fraction)."""
    results = []
    for unit in spec.units:
        prof = association.profile(db, manifest, unit.unit_id, n=n)
        ratio = prof.argmax_distance / max(float(np.median(prof.distances)), 1e-12)
        rec = harvest.top_n(db, prof.argmax_map, range(db.num_images), 1)[0]
        img = data.load_image(manifest, rec.image_id)
        x = data.eval_transform(img, net.config.input_size)
        trace = net.forward_trace(x, image_id=rec.image_id)
        proj = deconv.project(trace, net, db.layer, prof.argmax_map, (rec.row, rec.col))
        box = data.region_in_model_coords(unit.region, spec.canvas_size,
                                          net.config.input_size)
        energy = deconv.projection_energy_fraction(proj, box)
        results.append((unit.unit_id, prof.argmax_map, ratio, energy))
    return results


def run_seed(seed: int, epochs: int, out_dir: str, n: int = 9) -> bool:
    spec = data.default_synthetic_spec(seed=seed)
    manifest = data.generate_synthetic(spec, out_dir)
    net = model.build_network(model.reduced_config(seed=seed))
    tcfg = model.reduced_train_config(seed=seed, epochs=epochs)
    t0 = time.time()
    metrics = model.train(net, manifest, tcfg)
    acc = metrics[-1].train_acc
    db = harvest.harvest(net, manifest)
    results = evaluate_recovery(net, manifest, spec, db, n=n)
    recovered = sum(1 for _, _, ratio, energy in results if ratio >= 2.0 and energy >= 0.5)
    print(f"seed {seed}: train accuracy {acc:.3f} after {len(metrics)} epochs "
          f"({time.time() - t0:.0f}s)")
    for unit_id, map_index, ratio, energy in results:
        mark = "ok" if ratio >= 2.0 and energy >= 0.5 else "--"
        print(f"  unit {unit_id}: map {map_index:3d}  distance/median {ratio:6.1f}  "
              f"region energy {energy:.2f}  [{mark}]")
    verdict = acc >= 0.95 and recovered >= 3
    print(f"  -> {recovered}/4 units recovered; seed verdict: {'PASS' if verdict else 'FAIL'}")
    return verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()
    passes = 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as d:
            passes += run_seed(seed, args.epochs, d)
    print(f"{passes}/{len(args.seeds)} seeds passed")
    return 0 if passes * 2 >= len(args.seeds) + 1 else 1


if __name__ == "__main__":
    sys.exit(main())
