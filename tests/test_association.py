import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auprobe.association import (
    AUDistanceProfile,
    kl_term,
    load_profile_csv,
    profile,
    profile_all,
    save_profile_csv,
    symmetric_distance,
)
from auprobe.data import DataError, DatasetManifest, ManifestRow
from auprobe.harvest import ActivationDB

from oracles import kl_direct, kl_rank_paired, profile_loop


def test_kl_identical_is_exact_zero():
    assert kl_term([2.0, 1.0], [2.0, 1.0]) == 0.0
    assert kl_term([0.0, 0.0], [0.0, 0.0]) == 0.0  # floored equal lists


def test_kl_hand_values_match_oracle():
    got = kl_term([2.0, 1.0], [1.0, 2.0])
    assert abs(got - math.log(2)) < 1e-12
    assert abs(got - kl_direct([2, 1], [1, 2])) < 1e-15


def test_kl_zero_denominator_stays_finite():
    got = kl_term([1.0], [0.0])
    assert abs(got - math.log(1e8)) < 1e-9  # 1 * log(1/eps) ~ 18.42
    assert math.isfinite(got)


def test_kl_length_mismatch():
    with pytest.raises(ValueError):
        kl_term([1.0, 2.0], [1.0])


def test_kl_negative_values_rejected():
    with pytest.raises(ValueError):
        kl_term([-1.0], [1.0])


def test_symmetric_distance_hand_values():
    # the hand example pairs positionally, so the raw-list form applies
    got = symmetric_distance([2.0, 1.0], [1.0, 2.0])
    assert abs(got - 2 * math.log(2)) < 1e-12
    oracle = kl_direct([2, 1], [1, 2]) + kl_direct([1, 2], [2, 1])
    assert abs(got - oracle) < 1e-15


def test_symmetric_distance_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = np.sort(rng.uniform(0, 10, size=9))[::-1]
        q = np.sort(rng.uniform(0, 10, size=9))[::-1]
        ab = symmetric_distance(r, q)
        ba = symmetric_distance(q, r)
        assert ab == ba


def test_symmetric_distance_zero_iff_equal_floored():
    r = np.array([3.0, 2.0, 1.0])
    assert symmetric_distance(r, r.copy()) == 0.0
    q = np.array([3.0, 2.0, 0.5])
    assert symmetric_distance(r, q) > 0.0


def test_each_direction_can_differ():
    r, q = [4.0, 1.0], [2.0, 2.0]
    assert kl_term(r, q) != kl_term(q, r)


def test_normalized_mode_nonnegative_random_pairs():
    rng = np.random.default_rng(1)
    worst = np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        r = np.sort(rng.uniform(0, 10, size=k))[::-1]
        q = np.sort(rng.uniform(0, 10, size=k))[::-1]
        worst = min(worst, kl_term(r, q, normalize=True))
    assert worst >= -1e-12


def test_monotone_separation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = np.sort(rng.uniform(1e-6, 1.0, size=9))[::-1]
        r = q * rng.uniform(1.0, 3.0)  # all r_k >= q_k >= eps
        c = rng.uniform(1.001, 4.0)
        base = kl_term(r, q)
        bigger = kl_term(c * r, q)
        assert bigger > base
        assert abs(bigger - kl_direct(c * r, q)) < 1e-9 * max(1.0, abs(bigger))


@given(st.lists(st.floats(0, 100), min_size=1, max_size=12),
       st.lists(st.floats(0, 100), min_size=1, max_size=12))
@settings(max_examples=100)
def test_symmetry_property(rs, qs):
    k = min(len(rs), len(qs))
    r = np.sort(np.asarray(rs[:k]))[::-1]
    q = np.sort(np.asarray(qs[:k]))[::-1]
    assert symmetric_distance(r, q) == symmetric_distance(q, r)


def test_response_pair_validation():
    # lists pair rank-wise: equal shapes, nonnegative values
    with pytest.raises(ValueError, match="shape mismatch"):
        symmetric_distance([5.0, 4.0, 3.0], [2.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        symmetric_distance([[5.0, 4.0]], [[2.0, -1.0]])
    rows = symmetric_distance([[5.0, 4.0], [2.0, 1.0]], [[2.0, 1.0], [5.0, 4.0]])
    assert rows.shape == (2,)
    assert rows[0] == rows[1] == symmetric_distance([5.0, 4.0], [2.0, 1.0])


def test_kl_rows_match_one_dimensional_sums():
    rng = np.random.default_rng(5)
    for _ in range(200):
        maps, k = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        r = rng.uniform(0, 10, (maps, k)) * (rng.random((maps, k)) > 0.2)
        q = rng.uniform(0, 10, (maps, k))
        rows = kl_term(r, q)
        assert rows.shape == (maps,)
        assert np.array_equal(rows, [kl_term(r[j], q[j]) for j in range(maps)])
        assert np.array_equal(rows, [kl_rank_paired(r[j], q[j]) for j in range(maps)])
        assert np.array_equal(kl_term(r, q, normalize=True),
                              [kl_term(r[j], q[j], normalize=True) for j in range(maps)])
    assert isinstance(kl_term([2.0, 1.0], [1.0, 2.0]), float)


# ------------------------------------------------------------- profiles


def manifest_with_aus(au_sets):
    rows = [
        ManifestRow(f"img{i}.pgm", "x", frozenset(aus), f"s{i}", f"q{i}")
        for i, aus in enumerate(au_sets)
    ]
    return DatasetManifest(rows=rows)


def db_from_values(values):
    values = np.asarray(values, dtype=float)
    zeros = np.zeros(values.shape, dtype=np.int32)
    return ActivationDB(values, zeros, zeros, 3, {"checkpoint": "c", "manifest": "m"})


def random_profile_case(rng):
    """A DB with ties and exact zeros, and an AU mask with both sides nonempty."""
    images, maps = int(rng.integers(2, 40)), int(rng.integers(1, 12))
    if rng.random() < 0.5:
        values = rng.integers(0, 4, (images, maps)) / 2.0  # many ties, many zeros
    else:
        values = rng.uniform(0, 5, (images, maps)) * (rng.random((images, maps)) > 0.3)
    has = np.zeros(images, dtype=bool)
    if rng.random() < 0.25:
        has[rng.integers(images)] = True  # a one-image partition
    else:
        has[rng.permutation(images)[: int(rng.integers(1, images))]] = True
    if rng.random() < 0.25:
        has = ~has  # the one-image side without the unit
    n = int(rng.choice([1, 2, 3, 7, 8, 9, 12, 39]))
    return values, has, n


def test_profile_matches_per_map_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        values, has, n = random_profile_case(rng)
        manifest = manifest_with_aus([{5} if h else set() for h in has])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prof = profile(db_from_values(values), manifest, 5, n=n)
        expected = profile_loop(values, has, n)
        assert np.array_equal(prof.distances, expected)
        assert prof.argmax_map == int(np.argmax(expected))
        assert prof.n == n and prof.provenance["n"] == str(n)


@pytest.mark.parametrize("n", [0, -1])
def test_profile_n_below_one_rejected(n):
    db = db_from_values(np.ones((2, 2)))
    with pytest.raises(DataError, match="at least 1"):
        profile(db, manifest_with_aus([{1}, set()]), 1, n=n)


def test_profile_detector_map_wins():
    # map 1 fires only when AU 7 is present; other maps are noise-free flat
    au_sets = [{7}, {7}, {7}, set(), set(), set()]
    values = np.full((6, 4), 0.5)
    values[:3, 1] = 9.0   # AU-present images light up map 1
    db = db_from_values(values)
    prof = profile(db, manifest_with_aus(au_sets), 7, n=3)
    assert prof.argmax_map == 1
    assert prof.distances[1] > 2 * np.median(prof.distances)


def test_profile_degenerate_all_equal():
    au_sets = [{1}, {1}, set(), set()]
    db = db_from_values(np.full((4, 5), 2.0))
    prof = profile(db, manifest_with_aus(au_sets), 1, n=2)
    np.testing.assert_array_equal(prof.distances, np.zeros(5))
    assert prof.argmax_map == 0  # tie resolves to the smallest index


def test_profile_small_partition_warns_and_truncates():
    au_sets = [{3}, set(), set(), set()]
    db = db_from_values(np.random.default_rng(0).uniform(1, 2, (4, 3)))
    with pytest.warns(UserWarning, match="n=1"):
        prof = profile(db, manifest_with_aus(au_sets), 3, n=9)
    assert prof.distances.shape == (3,)


def test_profile_row_order_invariance():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 5, size=(8, 6))
    au_sets = [{2}, set(), {2}, set(), {2}, set(), {2}, set()]
    base = profile(db_from_values(values), manifest_with_aus(au_sets), 2, n=3)
    perm = rng.permutation(8)
    shuffled_db = db_from_values(values[perm])
    shuffled_manifest = manifest_with_aus([au_sets[i] for i in perm])
    again = profile(shuffled_db, shuffled_manifest, 2, n=3)
    np.testing.assert_allclose(base.distances, again.distances, rtol=0, atol=0)
    assert base.argmax_map == again.argmax_map


def test_profile_au_everywhere_rejected():
    au_sets = [{1}, {1}]
    db = db_from_values(np.ones((2, 2)))
    with pytest.raises(DataError, match="every image"):
        profile(db, manifest_with_aus(au_sets), 1)
    with pytest.raises(DataError, match="absent"):
        profile(db, manifest_with_aus(au_sets), 2)


def test_profile_size_mismatch_rejected():
    db = db_from_values(np.ones((3, 2)))
    with pytest.raises(DataError, match="covers 3"):
        profile(db, manifest_with_aus([{1}, set()]), 1)


def test_profile_all_sorted_and_deterministic():
    au_sets = [{1, 2}, {2}, {1}, set()]
    db = db_from_values(np.random.default_rng(4).uniform(0, 3, (4, 4)))
    m = manifest_with_aus(au_sets)
    profs = profile_all(db, m, [2, 1], n=2)
    assert [p.au_id for p in profs] == [1, 2]


def test_profile_csv_roundtrip(tmp_path):
    prof = AUDistanceProfile(
        au_id=4,
        distances=np.array([0.5, 3.25, 1.0]),
        argmax_map=1,
        n=9,
        provenance={},
    )
    p = tmp_path / "au_4.csv"
    save_profile_csv(prof, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "map,distance"
    assert len(lines) == 5
    assert lines[-1].startswith("argmax,1,")
    distances, argmax = load_profile_csv(p)
    np.testing.assert_array_equal(distances, prof.distances)
    assert argmax == 1


@pytest.mark.parametrize("body, ln", [("0,abc\nargmax,0,0.5", 2),
                                      ("0\nargmax,0,0.5", 2),
                                      ("0,0.5\nargmax,x,0.5", 3)],
                         ids=["bad-distance", "missing-field", "bad-argmax"])
def test_profile_csv_malformed_line_is_data_error(tmp_path, body, ln):
    p = tmp_path / "au_1.csv"
    p.write_text(f"map,distance\n{body}\n")
    with pytest.raises(DataError, match=rf"au_1\.csv line {ln}: malformed line"):
        load_profile_csv(p)
