"""Configuration enumeration, the reflection onto the dual sequence, and extremal states."""

import itertools

import pytest

from qpaths.configs import (
    ENUM_MAX_N,
    ENUM_MAX_TOP,
    PathConfig,
    abscissas,
    dual_config,
    enumerate_configs,
    max_area_abscissas,
    min_area_abscissas,
)
from qpaths.errors import InvalidArgument, SizeLimitExceeded
from qpaths.exact import StartSequence, _duality_exponent, dual_sequence

from lattice_paths import paths_from_abscissas


def test_enumeration_hand_counts():
    one = enumerate_configs(StartSequence((0, 1)))
    assert len(one) == 1 and one[0].total_area() == 1

    two = enumerate_configs(StartSequence((0, 2)))
    assert sorted(c.total_area() for c in two) == [1, 2]

    empty = enumerate_configs(StartSequence((0,)))
    assert len(empty) == 1 and empty[0].total_area() == 0


def test_enumeration_counts_against_independent_dfs():
    # Same oracle idea as in the exact-layer tests, recomputed here so the
    # two files stay independent.
    def paths(start, end, blocked):
        if start[0] < end[0] or start[1] > end[1] or start in blocked:
            return
        if start == end:
            yield (start,)
            return
        for dx, dy in ((-1, 0), (0, 1)):
            nxt = (start[0] + dx, start[1] + dy)
            for rest in paths(nxt, end, blocked):
                yield (start,) + rest

    def count(values):
        n = len(values) - 1

        def recurse(i, blocked):
            if i > n:
                return 1
            total = 0
            for path in paths((values[i], 0), (0, i), blocked):
                total += recurse(i + 1, blocked | set(path))
            return total

        return recurse(0, frozenset())

    for values in ((0, 1), (0, 3), (0, 1, 3), (0, 2, 4), (0, 2, 3, 5)):
        assert len(enumerate_configs(StartSequence(values))) == count(values)


def test_enumeration_guard_rails():
    with pytest.raises(SizeLimitExceeded):
        enumerate_configs(StartSequence((0, 1, 2, 3, 4)))
    with pytest.raises(SizeLimitExceeded):
        enumerate_configs(StartSequence((0, 9)))


def test_dual_config_is_an_area_complementing_bijection_onto_the_dual_ensemble():
    # Every start sequence within the enumeration limits: the map is an
    # involution, it sends the ensemble one-to-one onto the dual's, and a
    # configuration and its image have areas summing to the exponent e of
    # Z_a(q) = q**e Z_dual(1/q).
    sequences = [
        StartSequence((0, *mid, top))
        for n in range(1, ENUM_MAX_N + 1)
        for top in range(n, ENUM_MAX_TOP + 1)
        for mid in itertools.combinations(range(1, top), n - 1)
    ]
    assert len(sequences) == 8 + 28 + 56
    total = 0
    for seq in [StartSequence((0,)), *sequences]:
        dual = dual_sequence(seq)
        e = seq.n * (seq.n + 1) * (3 * seq.top + seq.n + 2) // 6
        assert _duality_exponent(seq) == e
        originals = enumerate_configs(seq)
        images = [dual_config(c) for c in originals]
        assert all(image.starts == dual for image in images)
        assert [dual_config(image) for image in images] == originals
        assert sorted(images, key=lambda c: c.paths) == sorted(
            enumerate_configs(dual), key=lambda c: c.paths
        )
        assert {c.total_area() + image.total_area() for c, image in zip(originals, images)} == {e}
        total += len(originals)
    assert total == 7483


def test_extremal_configs():
    for values in ((0, 1), (0, 2), (0, 1, 3), (0, 2, 4)):
        seq = StartSequence(values)
        # Each array is a configuration's, and the area is its sum.
        areas = {tuple(abscissas(c)): c.total_area() for c in enumerate_configs(seq)}
        assert areas[tuple(min_area_abscissas(seq))] == sum(min_area_abscissas(seq)) == min(areas.values())
        assert areas[tuple(max_area_abscissas(seq))] == sum(max_area_abscissas(seq)) == max(areas.values())


def test_extremal_configs_are_valid_and_extreme_for_larger_sizes():
    seq = StartSequence((0, 2, 5, 7))
    lo = min_area_abscissas(seq)
    hi = max_area_abscissas(seq)
    assert sum(lo) < sum(hi)
    # Both are configurations, and no north step of the minimal state can
    # move left, and none of the maximal state can move right, without the
    # paths touching.
    for b, step in ((lo, -1), (hi, 1)):
        assert abscissas(PathConfig(seq, paths_from_abscissas(seq, b))) == b
        for s in range(len(b)):
            moved = b[:s] + [b[s] + step] + b[s + 1:]
            with pytest.raises(InvalidArgument):
                PathConfig(seq, paths_from_abscissas(seq, moved))


def test_path_config_validation():
    seq = StartSequence((0, 1))
    with pytest.raises(InvalidArgument):
        PathConfig(seq, (((0, 0),),))
    with pytest.raises(InvalidArgument):
        PathConfig(seq, (((0, 0),), ((1, 0), (0, 0))))
