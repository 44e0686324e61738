"""Exact finite-size layer: partition functions and one-point tables.

The oracle here is an independent west/north path enumerator written
against the model definition only; it shares no code with the package.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths.errors import InvalidArgument, NumericalFailure
from qpaths.exact import (
    StartSequence,
    dual_sequence,
    free_path_weight,
    free_path_weight_dual,
    most_likely_exit,
    one_point_exit,
    one_point_exit_det,
    one_point_exit_dual,
    partition_det,
    partition_poly,
    partition_product,
    perturbed_partition,
)
from qpaths.qpoly import QPolynomial

RATIONAL_QS = (Fraction(1, 3), Fraction(2, 5), Fraction(2), Fraction(7, 2))


def _paths_between(start, end, blocked):
    """All west/north paths start -> end avoiding blocked vertices."""
    if start[0] < end[0] or start[1] > end[1] or start in blocked:
        return
    if start == end:
        yield (start,)
        return
    for step in ((-1, 0), (0, 1)):
        nxt = (start[0] + step[0], start[1] + step[1])
        for rest in _paths_between(nxt, end, blocked):
            yield (start,) + rest


def oracle_ensemble(values, *, shift=0):
    """Enumerate non-intersecting families; yields (exit, area) per config.

    Path i runs from (a_i, 0) to (0, i); with shift r > 0 the top path
    instead ends at (0, n + r). The exit abscissa is where the top path
    first reaches row n, and the area counts every north step's abscissa.
    """
    n = len(values) - 1

    def recurse(i, blocked):
        if i > n:
            yield ()
            return
        end = (0, i + shift) if i == n else (0, i)
        for path in _paths_between((values[i], 0), end, blocked):
            for rest in recurse(i + 1, blocked | set(path)):
                yield (path,) + rest

    for family in recurse(0, frozenset()):
        area = sum(
            x0
            for path in family
            for (x0, y0), (x1, y1) in zip(path, path[1:])
            if y1 == y0 + 1
        )
        top = family[-1]
        exit_abscissa = max(x for x, y in top if y == n)
        yield exit_abscissa, area


def oracle_partition(values, q):
    return sum((q**area for _, area in oracle_ensemble(values)), Fraction(0))


def reversal_exponent(values):
    n = len(values) - 1
    return n * (n + 1) * (3 * values[-1] + n + 2) // 6


def random_sequence(rng, n, top):
    inner = sorted(rng.sample(range(1, top), n - 1)) if n > 1 else []
    return StartSequence([0] + inner + [top])


def test_sequence_validation():
    with pytest.raises(InvalidArgument):
        StartSequence([1, 2])
    with pytest.raises(InvalidArgument):
        StartSequence([0, 3, 3])
    with pytest.raises(InvalidArgument):
        StartSequence([0, 4, 2])
    with pytest.raises(InvalidArgument):
        StartSequence([])


def test_dual_sequence_involution():
    rng = random.Random(3)
    for _ in range(20):
        seq = random_sequence(rng, rng.randint(1, 5), rng.randint(5, 12))
        dual = dual_sequence(seq)
        assert dual[0] == 0 and dual.top == seq.top
        assert dual_sequence(dual) == seq


def test_partition_det_equals_product():
    rng = random.Random(11)
    for _ in range(25):
        seq = random_sequence(rng, rng.randint(1, 6), rng.randint(6, 18))
        z = partition_det(seq)
        for q in RATIONAL_QS:
            assert z(q) == partition_product(seq, q)


def test_partition_det_matches_enumeration():
    # Every n=2 sequence with a_2 <= 5 against the independent oracle.
    q = Fraction(2, 3)
    for a1, a2 in itertools.combinations(range(1, 6), 2):
        seq = StartSequence((0, a1, a2))
        assert partition_det(seq)(q) == oracle_partition((0, a1, a2), q)


def test_partition_trivial_cases():
    assert partition_det(StartSequence((0,)))(Fraction(5)) == 1
    # seq=(0,1): the unique configuration has area 1.
    assert list(partition_det(StartSequence((0, 1))).coeffs) == [0, 1]


@given(st.lists(st.integers(min_value=1, max_value=24), max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_partition_poly_equals_det(rest):
    seq = StartSequence((0, *sorted(rest)))
    assert partition_poly(seq) == partition_det(seq)


def test_partition_poly_edge_cases():
    assert partition_poly(StartSequence((0,))) == 1
    assert partition_poly(StartSequence((0, 1))) == QPolynomial.monomial(1)
    # Consecutive starts admit one configuration, of area sum i^2.
    for n in range(6):
        area = n * (n + 1) * (2 * n + 1) // 6
        assert partition_poly(StartSequence(range(n + 1))) == QPolynomial.monomial(area)


def test_partition_duality():
    rng = random.Random(5)
    for n in range(1, 6):
        seq = random_sequence(rng, n, n + rng.randint(1, 6))
        za = partition_det(seq)
        zd = partition_det(dual_sequence(seq))
        for q in (Fraction(2, 3), Fraction(5, 2)):
            assert za(q) == q ** reversal_exponent(list(seq)) * zd(1 / q)


def test_one_point_triple_agreement():
    rng = random.Random(17)
    cases = [(0, 1), (0, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4), (0, 1, 4, 6), (0, 2, 3, 6)]
    for values in cases:
        seq = StartSequence(values)
        n = seq.n
        mass = {}
        for exit_abscissa, area in oracle_ensemble(values):
            mass.setdefault(exit_abscissa, []).append(area)
        for q in RATIONAL_QS:
            z = oracle_partition(values, q)
            for ell in range(seq.top + 1):
                tail = (
                    sum(
                        (q**a for e, areas in mass.items() if e >= ell for a in areas),
                        Fraction(0),
                    )
                    / z
                )
                assert one_point_exit(seq, ell, q) == tail
                assert one_point_exit_det(seq, ell, q) == tail


def test_one_point_boundary_values():
    seq = StartSequence((0, 2, 5))
    q = Fraction(2, 5)
    assert one_point_exit(seq, 0, q) == 1
    # No configuration exits beyond the top start, and cumulative weights
    # decrease in the abscissa.
    values = [one_point_exit(seq, ell, q) for ell in range(seq.top + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(InvalidArgument):
        one_point_exit(seq, seq.top + 1, q)
    with pytest.raises(InvalidArgument):
        one_point_exit(seq, -1, q)


def test_one_point_complementarity():
    rng = random.Random(23)
    for n in range(1, 5):
        seq = random_sequence(rng, n, n + rng.randint(2, 5))
        for q in (Fraction(1, 3), Fraction(7, 2)):
            for ell in range(seq.n + 1, seq.top + 1):
                assert one_point_exit(seq, ell, q) + one_point_exit_dual(
                    seq, ell - 1, q
                ) == 1


def test_one_point_dual_range():
    seq = StartSequence((0, 1, 3))
    q = Fraction(1, 2)
    with pytest.raises(InvalidArgument):
        one_point_exit_dual(seq, seq.n - 1, q)
    with pytest.raises(InvalidArgument):
        one_point_exit_dual(seq, seq.top + seq.n + 1, q)
    assert one_point_exit_dual(seq, seq.top + seq.n, q) == 1


def test_float_routes_match_exact():
    seq = StartSequence((0, 2, 5))
    for q in (0.3, 2.5):
        qf = Fraction(repr(q))
        for ell in range(seq.top + 1):
            assert one_point_exit(seq, ell, q) == pytest.approx(
                float(one_point_exit(seq, ell, qf)), rel=1e-12
            )


def test_free_path_weight_by_hand():
    # One forced north step at abscissa ell, then a staircase with at most
    # r-1 extra rows: weight q^ell [ell+r-1 choose ell]_q.
    q = Fraction(2)
    assert free_path_weight(0, 1, q) == 1
    assert free_path_weight(1, 1, q) == 2
    assert free_path_weight(1, 2, q) == q * (1 + q)
    with pytest.raises(InvalidArgument):
        free_path_weight(1, 0, q)
    with pytest.raises(InvalidArgument):
        free_path_weight(-1, 1, q)


@pytest.mark.parametrize(
    "weight",
    [
        lambda: free_path_weight(40, 3, 1e60),  # overflows
        lambda: free_path_weight(5, 40, 1e-200),  # underflows to 0
        lambda: free_path_weight_dual(StartSequence((0, 2, 4)), 4, 3, 1e60),
        lambda: free_path_weight_dual(StartSequence((0, 2, 4)), 2, 40, 1e-200),
    ],
)
def test_float_free_path_weight_out_of_range(weight):
    with pytest.raises(NumericalFailure, match="outside the float range"):
        weight()


def test_perturbed_partition_matches_shifted_enumeration():
    for values, r in (((0, 1), 1), ((0, 2), 1), ((0, 2), 2), ((0, 1, 3), 1), ((0, 1, 3), 2)):
        seq = StartSequence(values)
        for q in (Fraction(2), Fraction(2, 5), Fraction(1, 2)):
            shifted = sum(
                (q**area for _, area in oracle_ensemble(values, shift=r)), Fraction(0)
            )
            assert perturbed_partition(seq, r, q) == shifted / oracle_partition(values, q)


def test_perturbed_partition_hand_value():
    # seq=(0,1), r=1, q=2: H0*Y0 + H1*Y1 = 1*1 + 1*2 = 3.
    assert perturbed_partition(StartSequence((0, 1)), 1, Fraction(2)) == 3


def test_free_path_weight_dual_hand_values():
    seq = StartSequence((0, 2))
    q = Fraction(1, 2)
    # At the largest admissible abscissa the staircase factor is 1 and only
    # the forced-step exponent r(ell+1) + r(r-1)/2 survives.
    top_ell = seq.top + seq.n
    assert free_path_weight_dual(seq, top_ell, 1, q) == q ** (top_ell + 1)
    assert free_path_weight_dual(seq, seq.n, 1, q) == Fraction(1, 4)
    with pytest.raises(InvalidArgument):
        free_path_weight_dual(seq, seq.n - 1, 1, q)
    with pytest.raises(InvalidArgument):
        free_path_weight_dual(seq, seq.n, 0, q)


def test_most_likely_exit_is_argmax():
    seq = StartSequence((0, 2, 5))
    for q in (Fraction(1, 3), Fraction(7, 2), 0.7):
        for r in (1, 3):
            best = most_likely_exit(seq, r, q)
            scores = [
                one_point_exit(seq, ell, q) * free_path_weight(ell, r, q)
                for ell in range(seq.top + 1)
            ]
            assert scores[best] == max(scores)
            assert all(scores[e] < scores[best] for e in range(best))
