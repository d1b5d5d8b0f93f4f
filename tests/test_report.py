import csv

import numpy as np
import pytest

from auprobe import data, model, report
from auprobe.association import AUDistanceProfile, load_profile_csv, profile_all
from auprobe.deconv import receptive_field
from auprobe.harvest import harvest
from auprobe.imageio import read_image
from auprobe.report import (
    CHART_MARGIN,
    CHART_PLOT_HEIGHT,
    CHART_TOP,
    au_summary,
    bar_column,
    montage,
    plot_profile,
    render_bar_chart,
)

from oracles import cell_anchor


def make_profile(values, au_id=1, n=9):
    values = np.asarray(values, dtype=float)
    return AUDistanceProfile(
        au_id=au_id,
        distances=values,
        argmax_map=int(np.argmax(values)),
        n=n,
        provenance={},
    )


@pytest.fixture(scope="module")
def trained_setup(tmp_path_factory):
    out = tmp_path_factory.mktemp("reportset")
    spec = data.default_synthetic_spec(samples_per_class=4, seed=11)
    manifest = data.generate_synthetic(spec, out)
    net = model.build_network(model.reduced_config(seed=12))
    db = harvest(net, manifest)
    return net, manifest, db


def test_chart_has_one_bar_per_map():
    values = np.ones(256)
    chart = render_bar_chart(values, 0)
    baseline = CHART_TOP + CHART_PLOT_HEIGHT
    bar_zone = chart[CHART_TOP:baseline, :]
    dark_columns = np.where((bar_zone == 0).any(axis=0))[0]
    assert len(dark_columns) == 256
    assert dark_columns.tolist() == [bar_column(i) for i in range(256)]


def test_chart_all_zero_profile_is_flat_with_marker_at_zero():
    chart = render_bar_chart(np.zeros(32), 0)
    baseline = CHART_TOP + CHART_PLOT_HEIGHT
    bar_zone = chart[CHART_TOP:baseline, :]
    assert (bar_zone == 255).all()  # no bars
    assert (chart[baseline] == 0).any()  # axis still drawn
    marker = chart[2:5, bar_column(0) - 1 : bar_column(0) + 2]
    assert (marker == 0).all()


def test_chart_marker_follows_argmax():
    values = np.zeros(16)
    values[11] = 3.0
    chart = render_bar_chart(values, 11)
    marker_cols = np.where((chart[2:5, :] == 0).any(axis=0))[0]
    assert bar_column(11) in marker_cols
    assert bar_column(0) not in marker_cols


def test_chart_bar_heights_scale():
    values = np.array([1.0, 2.0, 4.0])
    chart = render_bar_chart(values, 2)
    baseline = CHART_TOP + CHART_PLOT_HEIGHT
    heights = [
        int((chart[CHART_TOP:baseline, bar_column(i)] == 0).sum()) for i in range(3)
    ]
    assert heights[2] == CHART_PLOT_HEIGHT
    assert heights[0] == CHART_PLOT_HEIGHT // 4
    assert heights[1] == CHART_PLOT_HEIGHT // 2


def test_plot_profile_writes_png_and_csv(tmp_path):
    prof = make_profile([0.5, 2.0, 1.0], au_id=7)
    png, csv_path = plot_profile(prof, tmp_path / "au_7.png")
    assert png.exists() and csv_path.exists()
    img = read_image(png)
    assert img.shape == report.chart_geometry(3)
    distances, argmax = load_profile_csv(csv_path)
    np.testing.assert_array_equal(distances, prof.distances)
    assert argmax == 1


def test_montage_writes_paired_grids(tmp_path, trained_setup):
    net, manifest, db = trained_setup
    orig, deconv = montage(db, net, manifest, 0, n=9, out_prefix=tmp_path / "map_0")
    a, b = read_image(orig), read_image(deconv)
    assert a.shape == b.shape
    span = min(36, net.config.input_size)
    assert a.shape == (3 * span + 2 * 2, 3 * span + 2 * 2)


def test_map_responses_resizes_each_image_once(trained_setup, monkeypatch):
    net, manifest, db = trained_setup
    calls = []
    resample = data._resample

    def counting_resample(*args):
        calls.append(args)
        return resample(*args)

    # every resize and eval crop samples through the one planned resample
    monkeypatch.setattr(data, "_resample", counting_resample)
    assert len(list(report.map_responses(db, net, manifest, 0, 9))) == 9
    assert len(calls) == 9


@pytest.mark.parametrize("config", [model.reduced_config(), model.ModelConfig()],
                         ids=["48px", "96px"])
def test_cell_offsets_match_unclipped_field_start(config):
    for layer, grid in enumerate(config.stage_sizes(), start=1):
        offsets = set()
        for row in range(grid):
            for col in range(grid):
                box = receptive_field(config, layer, (row, col))
                offset = report._cell_offset(config, layer, (row, col), box)
                assert offset == cell_anchor(box, row, col, config, layer), (layer, row, col)
                offsets.add(offset)
        # border units are clipped at the top and left: 2 px per stage below them
        first = 2 * (2 ** layer - 1)
        assert report._cell_offset(config, layer, (0, 0),
                                   receptive_field(config, layer, (0, 0))) == (first, first)
        assert (0, 0) in offsets and (first, 0) in offsets and (0, first) in offsets


def test_montage_warns_when_short(tmp_path, trained_setup):
    net, manifest, db = trained_setup
    spec = data.default_synthetic_spec(samples_per_class=1, seed=13)
    small_dir = tmp_path / "small"
    small_manifest = data.generate_synthetic(spec, small_dir)
    small_db = harvest(net, small_manifest)
    with pytest.warns(UserWarning, match="smaller"):
        montage(small_db, net, small_manifest, 2, n=9, out_prefix=tmp_path / "map_2")


def test_au_summary_index_references_existing_files(tmp_path, trained_setup):
    net, manifest, db = trained_setup
    profiles = profile_all(db, manifest, manifest.au_ids(), n=3)
    index_path = au_summary(profiles, db, net, manifest, tmp_path)
    with open(index_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["au"]) for r in rows] == manifest.au_ids()
    for row in rows:
        for key in ("profile_csv", "profile_png", "montage_orig", "montage_deconv", "exemplar"):
            assert row[key], f"missing {key}"
            assert (tmp_path / row[key]).is_file()
        read_image(tmp_path / row["exemplar"])  # decodes


def test_au_summary_without_network(tmp_path, trained_setup):
    _, manifest, db = trained_setup
    profiles = profile_all(db, manifest, [1, 2], n=3)
    index_path = au_summary(profiles, db, None, manifest, tmp_path)
    with open(index_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["montage_orig"] == "" and row["montage_deconv"] == ""
        assert (tmp_path / row["profile_png"]).is_file()
        assert (tmp_path / row["exemplar"]).is_file()
