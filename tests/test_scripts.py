"""scripts/detector_recovery.py, loaded by path and run for one seed and one epoch."""

import dataclasses
import importlib.util
from pathlib import Path

from auprobe import association, data, deconv, harvest, model

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "detector_recovery.py"


def load_script():
    spec = importlib.util.spec_from_file_location("detector_recovery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_detector_recovery_run_seed(tmp_path, capsys, monkeypatch):
    script = load_script()
    seen = []
    evaluate = script.evaluate_recovery

    def capture(net, manifest, spec, db, n=9):
        results = evaluate(net, manifest, spec, db, n=n)
        seen.append((net, manifest, spec, db, n, results))
        return results

    monkeypatch.setattr(script, "evaluate_recovery", capture)
    verdict = script.run_seed(1, epochs=1, out_dir=tmp_path)
    assert isinstance(verdict, bool)
    lines = capsys.readouterr().out.splitlines()
    unit_lines = [line for line in lines if line.startswith("  unit ")]
    verdict_lines = [line for line in lines if "seed verdict:" in line]
    assert len(unit_lines) == 4, lines
    assert verdict_lines == [verdict_lines[0]] and verdict_lines[0].endswith(
        "PASS" if verdict else "FAIL")

    # each unit's region energy is C6's: forward_trace then project on the top-1 record
    [(net, manifest, spec, db, n, results)] = seen
    assert [unit_id for unit_id, *_ in results] == [u.unit_id for u in spec.units]
    for unit, (unit_id, map_index, _, energy), line in zip(spec.units, results, unit_lines):
        prof = association.profile(db, manifest, unit.unit_id, n=n)
        assert map_index == prof.argmax_map
        rec = harvest.top_n(db, map_index, range(db.num_images), 1)[0]
        x = data.eval_transform(data.load_image(manifest, rec.image_id), net.config.input_size,
                                dtype=net.config.np_dtype)
        trace = net.forward_trace(x, image_id=rec.image_id)
        proj = deconv.project(trace, net, db.layer, map_index, (rec.row, rec.col))
        box = data.region_in_model_coords(unit.region, spec.canvas_size, net.config.input_size)
        direct = deconv.projection_energy_fraction(proj, box)
        assert type(energy) is type(direct) and energy == direct, (unit_id, energy, direct)
        assert line.startswith(f"  unit {unit_id}: map {map_index:3d}")
        assert f"region energy {energy:.2f}" in line


def test_detector_recovery_judges_the_best_epoch(tmp_path, capsys, monkeypatch):
    # C6's rule: a seed whose last epoch fell below 0.95 passes on its best epoch
    script = load_script()
    train = model.train

    def best_then_worse(net, manifest, cfg):
        [first] = train(net, manifest, cfg)
        return [dataclasses.replace(first, train_acc=0.97),
                dataclasses.replace(first, epoch=2, train_acc=0.5)]

    monkeypatch.setattr(model, "train", best_then_worse)
    monkeypatch.setattr(script, "evaluate_recovery",
                        lambda net, manifest, spec, db, n=9: [(u.unit_id, 0, 3.0, 0.9)
                                                              for u in spec.units])
    assert script.run_seed(1, epochs=1, out_dir=tmp_path) is True
    out = capsys.readouterr().out
    assert "best train accuracy 0.970 over 2 epochs" in out
    assert out.rstrip().endswith("4/4 units recovered; seed verdict: PASS")
