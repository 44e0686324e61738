"""Configuration enumeration, the second path family, and extremal states."""

import pytest

from qpaths.configs import (
    PathConfig,
    abscissas,
    enumerate_configs,
    from_second_family,
    max_area_config,
    min_area_config,
    paths_from_abscissas,
    reflect_second_family,
    to_second_family,
)
from qpaths.errors import InvalidArgument, SizeLimitExceeded
from qpaths.exact import StartSequence, dual_sequence


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


def test_second_family_preserves_area():
    for values in ((0, 1), (0, 2, 3), (0, 1, 4)):
        for c in enumerate_configs(StartSequence(values)):
            image = to_second_family(c)
            assert image.family == "second"
            assert image.total_area() == c.total_area()


def test_second_family_round_trip():
    for c in enumerate_configs(StartSequence((0, 2, 3))):
        assert from_second_family(to_second_family(c)) == c


def test_reflection_lands_on_dual_sequence():
    seq = StartSequence((0, 1, 4))
    dual = dual_sequence(seq)
    originals = enumerate_configs(seq)
    reflected = [reflect_second_family(to_second_family(c)) for c in originals]
    for image in reflected:
        assert image.family == "first"
        assert image.starts == dual
    # The reflection is an area-preserving bijection onto the dual ensemble.
    assert sorted(c.total_area() for c in reflected) == sorted(
        c.total_area() for c in enumerate_configs(dual)
    )


def test_extremal_configs():
    for values in ((0, 1), (0, 2), (0, 1, 3), (0, 2, 4)):
        seq = StartSequence(values)
        areas = [c.total_area() for c in enumerate_configs(seq)]
        assert min_area_config(seq).total_area() == min(areas)
        assert max_area_config(seq).total_area() == max(areas)


def test_extremal_configs_are_valid_and_extreme_for_larger_sizes():
    seq = StartSequence((0, 2, 5, 7))
    lo = min_area_config(seq)
    hi = max_area_config(seq)
    assert lo.total_area() < hi.total_area()
    # No north step of the minimal state can move left, and none of the
    # maximal state can move right, without the paths touching.
    for config, step in ((lo, -1), (hi, 1)):
        b = abscissas(config)
        for s in range(len(b)):
            moved = b[:s] + [b[s] + step] + b[s + 1:]
            with pytest.raises(InvalidArgument):
                PathConfig(seq, paths_from_abscissas(seq, moved), "first")


def test_path_config_validation():
    seq = StartSequence((0, 1))
    with pytest.raises(InvalidArgument):
        PathConfig(seq, (((0, 0),),), "first")
    with pytest.raises(InvalidArgument):
        PathConfig(seq, (((0, 0),), ((1, 0), (0, 0))), "first")
    with pytest.raises(InvalidArgument):
        PathConfig(seq, (((0, 0),), ((1, 0), (1, 1), (0, 1))), "third")
    # Each family-specific operation refuses the other family.
    first = min_area_config(StartSequence((0, 1, 3)))
    second = to_second_family(first)
    for call, message in (
        (lambda: list(second.north_steps()), "north_steps applies to first-family"),
        (lambda: list(first.crossings()), "crossings applies to second-family"),
        (lambda: to_second_family(second), "to_second_family requires a first-family"),
        (lambda: from_second_family(first), "from_second_family requires a second-family"),
        (lambda: reflect_second_family(first), "reflect_second_family requires a second-family"),
        (lambda: abscissas(second), "abscissas requires a first-family"),
    ):
        with pytest.raises(InvalidArgument, match=message):
            call()
