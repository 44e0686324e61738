"""Exact finite-size layer: partition functions and one-point tables.

The oracle here is an independent west/north path enumerator written
against the model definition only; it shares no code with the package.
"""

import dataclasses
import itertools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths import errors, exact
from qpaths.errors import InvalidArgument, NumericalFailure, float_range
from qpaths.exact import (
    StartSequence,
    dual_sequence,
    most_likely_exit,
    one_point_exit,
    one_point_exit_det,
    one_point_exit_dual,
    one_point_table,
    partition_det,
    partition_poly,
    partition_product,
    perturbed_partition,
)
from qpaths.qpoly import QPolynomial, q_binomial

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
    for values in ((0, 1.5, 3), (0, math.nan, 3), (0, math.inf), (0, None), (0, 1.0, 3),
                   (0, np.bool_(True), 3), (0, Fraction(1), 3)):
        with pytest.raises(InvalidArgument, match="must hold integers"):
            StartSequence(values)
    given = StartSequence((0, np.int64(1), np.int32(3)))
    assert given == StartSequence((0, 1, 3))
    assert all(type(a) is int for a in given)


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
    for route in (one_point_exit, one_point_exit_det):
        for ell in (seq.top + 1, -1):
            with pytest.raises(InvalidArgument, match=r"^exit abscissa must lie in \[0, 5\]"):
                route(seq, ell, q)


SEQ = StartSequence((0, 2, 5))
HALF = Fraction(1, 2)
REFUSED_INTEGERS = {
    "sequence_bool": lambda: StartSequence((0, True, 3)),
    "sequence_float": lambda: StartSequence((0, 1.0, 3)),
    **{f"{route.__name__}_{ell}": lambda route=route, ell=ell: route(SEQ, ell, HALF)
       for route in (one_point_exit, one_point_exit_dual, one_point_exit_det) for ell in (2.5, True)},
    # The shift r of the continuation weight W_r, through the law it weighs.
    "free_path_weight_r": lambda: perturbed_partition(SEQ, 2.5, HALF),
    "most_likely_exit_r": lambda: most_likely_exit(SEQ, 1.5, HALF),
}


@pytest.mark.parametrize("call", REFUSED_INTEGERS.values(), ids=REFUSED_INTEGERS.keys())
def test_finite_n_integer_arguments_are_refused(call):
    # One rule for every integer argument: a bool, a float (1.0 too) or an
    # integer out of range raises InvalidArgument, never a wrong value.
    with pytest.raises(InvalidArgument):
        call()


def test_finite_n_integer_arguments_accept_numpy_integers():
    three = np.int64(3)
    assert one_point_exit(SEQ, three, HALF) == one_point_exit(SEQ, 3, HALF)
    assert one_point_exit_dual(SEQ, three, HALF) == one_point_exit_dual(SEQ, 3, HALF)
    assert one_point_exit_det(SEQ, three, HALF) == one_point_exit_det(SEQ, 3, HALF)
    assert perturbed_partition(SEQ, np.int32(2), HALF) == perturbed_partition(SEQ, 2, HALF)
    assert most_likely_exit(SEQ, three, HALF) == most_likely_exit(SEQ, 3, HALF)


def test_one_point_complementarity():
    # The residue route against the determinant on the reflected model at
    # 1/q, where an exit at or beyond ell is one below a_n + n + 1 - ell.
    rng = random.Random(23)
    for n in range(1, 5):
        seq = random_sequence(rng, n, n + rng.randint(2, 5))
        dual = dual_sequence(seq)
        for q in (Fraction(1, 3), Fraction(7, 2)):
            for ell in range(seq.n + 1, seq.top + 1):
                assert one_point_exit(seq, ell, q) + one_point_exit_det(
                    dual, seq.top + n + 1 - ell, 1 / q
                ) == 1


def test_one_point_dual_range():
    seq = StartSequence((0, 1, 3))
    q = Fraction(1, 2)
    with pytest.raises(InvalidArgument):
        one_point_exit_dual(seq, seq.n - 1, q)
    with pytest.raises(InvalidArgument):
        one_point_exit_dual(seq, seq.top + seq.n + 1, q)
    assert one_point_exit_dual(seq, seq.top + seq.n, q) == 1


def test_dual_residue_is_the_direct_one_on_the_reflected_model():
    # The reflection onto the dual sequence (configs.dual_config) maps the
    # dual exit at ell to the direct exit at a_n + n - ell there, at weight 1/q.
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 5)
        seq = random_sequence(rng, n, rng.randint(n, 17))
        dual = dual_sequence(seq)
        for q in (Fraction(2, 5), Fraction(9, 10), Fraction(5, 4), Fraction(7, 3)):
            for ell in range(n, seq.top + n + 1):
                assert one_point_exit_dual(seq, ell, q) == one_point_exit(
                    dual, seq.top + n - ell, 1 / q
                )


@float_range
def _per_route_residue_sum(seq, ell, q, poles, offsets, exponent):
    """q**exponent times the residues at the given poles, each with its own
    numerator offsets, the poles taken in increasing magnitude: the direct
    and dual residue sums written as two separate formulas."""
    values = seq.values
    powers = [q**a for a in values]
    terms = []
    for k in sorted(poles, key=lambda k: abs(powers[k])):
        num = den = q**0
        for s in offsets:
            num *= q ** (values[k] + s - ell) - 1
        for s in range(seq.n + 1):
            if s != k:
                den *= powers[k] - powers[s]
        terms.append(num / den)
    if isinstance(q, Fraction):
        return q**exponent * sum(terms)
    value = q**exponent * math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
    if not math.isfinite(value):
        raise NumericalFailure(f"residue sum at q = {q!r}, ell = {ell} is outside the float range")
    return value


def _per_route_exit(seq, ell, q):
    n = seq.n
    poles = [k for k in range(n + 1) if seq[k] >= ell]
    return _per_route_residue_sum(seq, ell, q, poles, range(1, n + 1), n * ell - n * (n + 1) // 2)


def _per_route_exit_dual(seq, ell, q):
    n = seq.n
    poles = [k for k in range(n + 1) if seq[k] <= ell - n]
    return _per_route_residue_sum(seq, ell, q, poles, range(0, n), n * ell - n * (n - 1) // 2)


def _outcome(fn, *args):
    """A value's type and bits, or the NumericalFailure it raised."""
    try:
        value = fn(*args)
    except NumericalFailure:
        return NumericalFailure
    return type(value), value.hex() if isinstance(value, float) else value


def test_residue_loop_matches_the_per_route_formulas():
    # One residue sum at a base above 1 gives both exit laws; at a rational
    # q it must equal the two per-route formulas at q itself.
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 12)
        seq = random_sequence(rng, n, n + rng.randint(0, 12))
        for q in (Fraction(7, 10), Fraction(3, 2)):
            # Each call on a fresh sequence, so no exit law is shared.
            for ell in range(seq.top + 1):
                assert _outcome(one_point_exit, StartSequence(seq.values), ell, q) == _outcome(
                    _per_route_exit, seq, ell, q
                ), (seq, ell, q)
            for ell in range(n, seq.top + n + 1):
                assert _outcome(one_point_exit_dual, StartSequence(seq.values), ell, q) == _outcome(
                    _per_route_exit_dual, seq, ell, q
                ), (seq, ell, q)


def test_table_matches_the_per_exit_route():
    # The table and the per-ell calls read one stored exit law, so no bit
    # may move, and a failure is the one the per-ell calls meet first. Each
    # per-ell call runs on a fresh sequence, so the table is not checked
    # against the law it reads itself.
    rng = random.Random(37)
    # D_2 of the reflected (0, 39, 40) at 1e5 leaves the doubles, and D_4 at 61.49.
    cases = [(StartSequence((0, 1, 40)), 1e-5), (StartSequence((0, 1, 19, 21, 44)), 61.49)]
    for _ in range(25):
        n = rng.randint(1, 12)
        seq = random_sequence(rng, n, n + rng.randint(0, 12))
        qs = [Fraction(7, 10), Fraction(3, 2)] + [10.0 ** rng.uniform(-3, 3) for _ in range(3)]
        cases += [(seq, q) for q in qs]
    failures = 0
    for seq, q in cases:
        ells = range(seq.top + 1)
        try:
            table = one_point_table(seq, q)
        except NumericalFailure as exc:
            first = next(e for e in ells if _outcome(one_point_exit, StartSequence(seq.values), e, q)
                         is NumericalFailure)
            with pytest.raises(NumericalFailure) as per_ell_exc:
                one_point_exit(StartSequence(seq.values), first, q)
            assert str(exc) == str(per_ell_exc.value), (seq, q)
            failures += 1
            continue
        assert [_outcome(table.__getitem__, e) for e in ells] == [
            _outcome(one_point_exit, StartSequence(seq.values), e, q) for e in ells
        ], (seq, q)
    assert failures >= 2


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10),
       st.floats(min_value=0.05, max_value=3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_float_exit_laws_are_exact_or_refused(gaps, log_q, below):
    # A float H or H_dual either raises NumericalFailure or lies within
    # 1e-10 of the exact exit law at the float's own binary value, for q in
    # [1e-3, 1e3] outside 10**+-0.05. A sum at a base below 1 cancels every
    # digit, and a second, dual, residue sum drifts by up to 3.4e-6 already
    # at n = 10. Nearer 1 the terms grow for every form, and the double
    # sum loses more than 1e-10 unseen: 2.9e-10 on the gaps
    # (1, 1, 1, 1, 1, 6, 6, 6, 6, 6) at q = e**-0.05, 3.2e-7 at e**-0.001.
    seq = StartSequence(tuple(itertools.accumulate(gaps, initial=0)))
    n, top = seq.n, seq.top
    q = 10.0 ** (-log_q if below else log_q)
    exact_seq, qx = StartSequence(seq.values), Fraction(q)
    routes = [(one_point_exit, range(top + 1)), (one_point_exit_dual, range(n, top + n + 1))]
    for route, ells in routes:
        for ell in ells:
            try:
                value = route(seq, ell, q)
            except NumericalFailure:
                continue
            assert type(value) is float
            assert abs(Fraction(value) - route(exact_seq, ell, qx)) <= 1e-10, (seq, q, route, ell)


def test_an_overflowed_pole_denominator_is_refused():
    # D_4 = prod (q**44 - q**a_s) leaves the doubles at q = 61.49. A finite
    # numerator over it is a silent 0 term, which reads H(5) as -7.2e-42
    # where the exact value is 1.
    seq = StartSequence((0, 1, 19, 21, 44))
    with pytest.raises(NumericalFailure, match=r"^residue sum at q = 61\.49, ell = 5 is outside"):
        one_point_exit(seq, 5, 61.49)
    assert one_point_exit(seq, 5, Fraction(61.49)) == 1 - one_point_exit_dual(seq, 4, Fraction(61.49))


def test_exit_law_far_below_one():
    # The top path's last north step lies at x >= n, so H(ell) = 1 there
    # without a sum; beyond it the sum at 1/q = 1e5 overflows and refuses.
    # The sum at q itself reads -12688.5 for H(0), and 1 for the argmax.
    seq = StartSequence((0, 1, 40))
    assert one_point_exit(seq, 0, 1e-5) == 1.0 and one_point_exit(seq, 2, 1e-5) == 1.0
    with pytest.raises(NumericalFailure, match="residue sum"):
        most_likely_exit(seq, 3, 1e-5)
    assert most_likely_exit(seq, 3, Fraction(1e-5)) == 0


EXTREME_QS = (Fraction(1, 1000), Fraction(999, 1000), Fraction(1001, 1000), Fraction(1000, 3))


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=7), st.sampled_from(EXTREME_QS))
@settings(max_examples=60, deadline=None)
def test_integer_residue_sums_match_the_fraction_formulas(gaps, q):
    # The integer route sums the poles over one common denominator; the
    # per-route formulas take a gcd at every Fraction step, and the
    # determinant shares no residue at all. q lies far from 1 and next to
    # it, on both sides.
    seq = StartSequence(tuple(itertools.accumulate(gaps, initial=0)))
    n, top = seq.n, seq.top
    direct = one_point_table(seq, q)
    dual = [one_point_exit_dual(seq, ell, q) for ell in range(n, top + n + 1)]
    assert all(type(v) is Fraction for v in direct + dual)
    assert direct == [_per_route_exit(seq, ell, q) for ell in range(top + 1)]
    assert dual == [_per_route_exit_dual(seq, ell, q) for ell in range(n, top + n + 1)]
    if n <= 4:
        by_det = [one_point_exit_det(seq, ell, q) for ell in range(top + 1)] + [0]
        assert direct == by_det[:-1]
        # H_dual(ell) = 1 - H(ell + 1), and no path exits past a_n.
        assert dual == [1 - by_det[min(ell + 1, top + 1)] for ell in range(n, top + n + 1)]


def _result(fn, *args):
    """A value's type and bits, or the message of the NumericalFailure it raised."""
    try:
        value = fn(*args)
    except NumericalFailure as exc:
        return NumericalFailure, str(exc)
    values = value if isinstance(value, list) else [value]
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _cold(fn, values, *args):
    """fn's result on a fresh sequence, which holds no exit law yet."""
    return _result(fn, StartSequence(values), *args)


def test_a_warm_exit_law_keeps_every_bit():
    # The exit law lives on the sequence for its last q: whatever the
    # calls before, in whatever order, each value and each failure must be
    # the one a fresh sequence gives.
    rng = random.Random(41)
    cases = [((0, 5), 1e60), ((0, 1, 40), 1e-5)]  # the second's sums at 1e5 overflow
    for _ in range(8):
        n = rng.randint(1, 10)
        seq = random_sequence(rng, n, n + rng.randint(0, 10))
        cases += [(seq.values, q) for q in (Fraction(7, 10), Fraction(3, 2), 10.0 ** rng.uniform(-3, 3))]
    recovered = 0
    for values, q in cases:
        seq = StartSequence(values)
        n, top = seq.n, seq.top
        per_ell = [(one_point_exit, ell, q) for ell in range(top + 1)]
        per_ell += [(one_point_exit_dual, ell, q) for ell in range(n, top + n + 1)]
        ascending = sorted(per_ell, key=lambda call: call[1])  # direct, then dual, at each ell
        tables = [(one_point_table, q)]
        steps = tables + ascending + ascending[::-1] + rng.sample(per_ell, len(per_ell)) + tables
        steps += [(fn, r, q) for r in range(1, 2 * n + 1) for fn in (most_likely_exit, perturbed_partition)]
        raised = []
        for fn, *args in steps:
            warm = _result(fn, seq, *args)
            assert warm == _cold(fn, values, *args), (values, q, fn.__name__, args)
            raised.append(warm[0] is NumericalFailure)
        recovered += sum(a and not b for a, b in zip(raised, raised[1:]))
    # Valid calls followed failures on the same sequence.
    assert recovered


def test_the_exit_law_is_kept_per_type_and_value_of_q():
    # 0.5 == Fraction(1, 2) and the two hash alike: a key on q alone would
    # hand the float law to the exact call.
    seq = StartSequence((0, 2, 5))
    assert type(one_point_exit(seq, 1, 0.5)) is float
    exact_value = one_point_exit(seq, 1, Fraction(1, 2))
    assert type(exact_value) is Fraction
    assert exact_value == one_point_exit(StartSequence((0, 2, 5)), 1, Fraction(1, 2))
    # Switching q and back, between equal values of two types too, gives
    # the cold values, types and bits each time.
    for q in (Fraction(1, 2), 0.5, Fraction(1, 2), 0.7, Fraction(3, 2), 0.7, 2.5, Fraction(3, 2)):
        for ell in range(seq.top + 1):
            assert _result(one_point_exit, seq, ell, q) == _cold(one_point_exit, seq.values, ell, q)
            assert _result(one_point_exit_dual, seq, ell + seq.n, q) == _cold(
                one_point_exit_dual, seq.values, ell + seq.n, q)
        assert _result(one_point_table, seq, q) == _cold(one_point_table, seq.values, q)
    # The memo is no dataclass field: a used sequence keeps its ==, hash and repr.
    fresh = StartSequence((0, 2, 5))
    assert seq == fresh and hash(seq) == hash(fresh) and repr(seq) == repr(fresh)
    assert [field.name for field in dataclasses.fields(seq)] == ["values"]


def test_the_exit_law_is_summed_once_per_sequence_and_q(monkeypatch):
    # Traffic, not time: the table, every per-ell call, direct and dual,
    # and the weighted law for r = 1 .. 20 read one law, summed once.
    counts = Counter()
    residue_sum = exact._residue_sum

    def counted(seq, q):
        counts[type(q)] += 1
        return residue_sum(seq, q)

    monkeypatch.setattr(exact, "_residue_sum", counted)
    n = 40
    seq, q = StartSequence(range(0, 2 * n + 1, 2)), 3 ** (1 / n)
    one_point_table(seq, q)
    for ell in range(seq.top + 1):
        one_point_exit(seq, ell, q)
    for ell in range(n, seq.top + n + 1):
        one_point_exit_dual(seq, ell, q)
    for r in range(1, 21):
        most_likely_exit(seq, r, q)
        perturbed_partition(seq, r, q)
    assert counts == {float: 1}
    # Each switch between equal values of two types sums the law afresh,
    # in q's own type. (At 0.5 the float law of n = 40 leaves the doubles.)
    seq = StartSequence(range(0, 21, 2))
    for switch, q in enumerate((0.5, Fraction(1, 2), 0.5), start=2):
        assert type(one_point_exit(seq, seq.top, q)) is type(q)
        assert type(one_point_table(seq, q)[-1]) is type(q)
        assert sum(counts.values()) == switch
    assert counts == {float: 3, Fraction: 1}


def test_a_float_law_keeps_the_outcome_of_each_entry():
    # The numerator N(m), m = a_k - ell, depends on ell: on (0, 744 .. 753)
    # at 1.1 every D_k is finite, N(742) leaves the doubles, so H(11 .. 13)
    # fail while H(14) is finite; from ell = 751 on the power q**(n ell -
    # 55) leaves the doubles, and they fail again. Each per-ell call meets
    # its own entry's outcome, the one a fresh sequence gives; the table
    # and the weighted law meet the lowest failure.
    values, q = (0, *range(744, 754)), 1.1
    seq = StartSequence(values)
    assert one_point_exit(seq, 10, q) == 1.0
    for ell in (11, 12, 13):
        with pytest.raises(NumericalFailure, match=rf"^residue sum at q = 1\.1, ell = {ell} is outside"):
            one_point_exit(seq, ell, q)
    for ell in (14, 15, 400, 750):
        value = one_point_exit(seq, ell, q)
        assert 0 < value < 1 + 1e-9
        assert _result(one_point_exit, seq, ell, q) == _cold(one_point_exit, values, ell, q)
    with pytest.raises(NumericalFailure, match=r"^residue sum is outside the float range \(") as info:
        one_point_exit(seq, 751, q)
    assert isinstance(info.value.__cause__, OverflowError)
    assert math.isfinite(one_point_exit_dual(seq, 13, q))
    with pytest.raises(NumericalFailure, match=r"^residue sum at q = 1\.1, ell = 12 is outside"):
        one_point_exit_dual(seq, 11, q)
    for route in (one_point_table, lambda seq, q: most_likely_exit(seq, 2, q)):
        with pytest.raises(NumericalFailure, match=r"^residue sum at q = 1\.1, ell = 11 is outside"):
            route(seq, q)
    # Past the failures the stored law still serves each entry, and the
    # failures it holds keep no traceback, so no caller's frames.
    assert _result(one_point_exit, seq, 14, q) == _cold(one_point_exit, values, 14, q)
    failures = [h for h in exact._exit_law(seq, q) if isinstance(h, NumericalFailure)]
    assert len(failures) == 6 and all(h.__traceback__ is None for h in failures)


@pytest.mark.parametrize("route", (most_likely_exit, perturbed_partition))
@pytest.mark.parametrize("r", (0, 2.5, True))
def test_a_refused_r_is_refused_before_the_law_is_summed(route, r):
    # The law of (0, 1, 40) at 1e-5 leaves the doubles; a bad r must be
    # named, not that failure.
    with pytest.raises(InvalidArgument, match="^endpoint shift r must"):
        route(StartSequence((0, 1, 40)), r, 1e-5)


def test_a_float_subclass_q_is_a_plain_float():
    # numpy's float64 is a float: it takes the same memo key, and the same
    # result type and bits, as the plain float.
    seq = StartSequence((0, 2, 5))
    value = one_point_exit(seq, 3, np.float64(0.7))
    assert type(value) is float
    assert value.hex() == one_point_exit(StartSequence((0, 2, 5)), 3, 0.7).hex()


def test_float_routes_match_exact():
    seq = StartSequence((0, 2, 5))
    for q in (0.3, 2.5):
        qf = Fraction(repr(q))
        for ell in range(seq.top + 1):
            assert one_point_exit(seq, ell, q) == pytest.approx(
                float(one_point_exit(seq, ell, qf)), rel=1e-12
            )


@float_range
def free_path_weight(ell, r, q):
    """W_r(ell), entry ell of the package's one pass over the continuation
    weights, at a q already through exact._weight."""
    return next(itertools.islice(exact._free_path_weights(r, q), ell, None))


def test_free_path_weight_by_hand():
    # One forced north step at abscissa ell, then a staircase with at most
    # r-1 extra rows: weight q^ell [ell+r-1 choose ell]_q.
    q = Fraction(2)
    assert free_path_weight(0, 1, q) == 1
    assert free_path_weight(1, 1, q) == 2
    assert free_path_weight(1, 2, q) == q * (1 + q)


@pytest.mark.parametrize(
    "weight",
    [
        lambda: free_path_weight(40, 3, 1e60),  # overflows
        lambda: free_path_weight(5, 40, 1e-200),  # underflows to 0
        lambda: free_path_weight(2, 40, 1e60),  # overflows through r
        lambda: free_path_weight(40, 2, 1e-200),  # underflows through ell
        lambda: free_path_weight(293, 376, 0.07956915331304411),  # underflows to a subnormal
    ],
)
def test_float_free_path_weight_out_of_range(weight):
    with pytest.raises(NumericalFailure, match="outside the float range"):
        weight()


def continuation_oracle(ell, r, q):
    """q**ell [ell + r - 1, ell]_q from the q-binomial polynomial, evaluated exactly."""
    return q**ell * q_binomial(ell + r - 1, ell)(q)


ORACLE_FRACTIONS = (Fraction(1, 1000), Fraction(2, 7), Fraction(999, 1000), Fraction(1001, 1000),
                    Fraction(7, 2), Fraction(1000, 3), Fraction(5))


def test_continuation_weights_are_the_q_binomial_at_a_fraction():
    # The one pass keeps every W_r(ell) exact at a rational q on either side
    # of 1 and next to it.
    for q in ORACLE_FRACTIONS:
        for r in range(1, 7):
            weights = list(itertools.islice(exact._free_path_weights(r, q), 25))
            assert weights == [continuation_oracle(ell, r, q) for ell in range(25)], (q, r)
            assert all(type(w) is Fraction for w in weights)
    # perturbed_partition and most_likely_exit weigh the exit law with the
    # same values, on sequences up to n = 12.
    rng = random.Random(33)
    for n in range(1, 13):
        seq = random_sequence(rng, n, n + rng.randint(0, 12))
        q, r = rng.choice(ORACLE_FRACTIONS), rng.randint(1, 6)
        terms = [h * continuation_oracle(ell, r, q) for ell, h in enumerate(one_point_table(seq, q))]
        assert perturbed_partition(seq, r, q) == sum(terms)
        assert most_likely_exit(seq, r, q) == terms.index(max(terms))


def test_continuation_weights_at_a_float_are_the_q_binomial_at_its_binary_value():
    # At a float q the pass runs in doubles; the oracle is taken exactly at
    # the float's binary value.
    for q in (1e-3, 0.37, 0.999, 1.001, 3 ** (1 / 40), 2.5, 10.0, np.float64(0.7)):
        for r in range(1, 7):
            weights = list(itertools.islice(exact._free_path_weights(r, float(q)), 25))
            for ell, w in enumerate(weights):
                assert type(w) is float
                assert w == pytest.approx(float(continuation_oracle(ell, r, Fraction(float(q)))), rel=1e-13)


def test_most_likely_exit_reads_the_table_once_and_formats_no_message(monkeypatch):
    # Traffic, not time: one call reads the exit law once and renders no
    # value while none fails.
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in ((exact, "one_point_table"), (exact, "shown"), (errors, "shown")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    n = 40
    most_likely_exit(StartSequence(range(0, 2 * n + 1, 2)), n // 2, 3 ** (1 / n))
    assert counts == {"one_point_table": 1}
    # The counters see a message that is formed: a failing weight renders q once.
    with pytest.raises(NumericalFailure, match=r"^free path weight at q = 1e\+100, ell = 2 is outside"):
        most_likely_exit(StartSequence((0, 2)), 2, 1e100)
    assert counts["shown"] == 1


def test_perturbed_partition_matches_shifted_enumeration():
    for values, r in (((0, 1), 1), ((0, 2), 1), ((0, 2), 2), ((0, 1, 3), 1), ((0, 1, 3), 2)):
        seq = StartSequence(values)
        for q in (Fraction(2), Fraction(2, 5), Fraction(1, 2)):
            shifted = sum(
                (q**area for _, area in oracle_ensemble(values, shift=r)), Fraction(0)
            )
            assert perturbed_partition(seq, r, q) == shifted / oracle_partition(values, q)


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8, unique=True),
       st.sampled_from((Fraction(7, 10), Fraction(3, 2), Fraction(1, 3), Fraction(5, 2))), st.data())
@settings(max_examples=40, deadline=None)
def test_perturbed_partition_as_a_divided_difference_and_its_mean(rest, q, data):
    # The tangent method in n + 1 terms, exactly.  Identity 1: moving the top
    # sink up r rows replaces column n of the LGV matrix by
    # P_{n+r}(u_i) = [a_i + n + r, n + r]_q, u_i = q**a_i, with
    # P_j(u) = prod_{m <= j} (1 - u q**m) / (1 - q**m); so Z_r / Z is the n-th
    # divided difference of P_{n+r} on the nodes u_i over P_n's leading
    # coefficient c_n.  Identity 2: W_{r+1} / W_r = (q**(l+r) - 1) / (q**r - 1),
    # so under P_r(l) ~ H(l) W_r(l), H the tail law of one_point_table, the
    # mean of q**(l + r) is 1 + (q**r - 1) Z_{r+1} / Z_r.
    seq = StartSequence((0, *sorted(rest)))
    n = seq.n
    r = data.draw(st.integers(min_value=1, max_value=2 * n + 1), label="r")
    nodes = [q**a for a in seq]

    def newton(j, u):
        return math.prod(((1 - u * q**m) / (1 - q**m) for m in range(1, j + 1)), start=Fraction(1))

    c_n = math.prod(((-(q**m)) / (1 - q**m) for m in range(1, n + 1)), start=Fraction(1))
    divided = sum(newton(n + r, u) / math.prod((u - v for v in nodes if v != u), start=Fraction(1))
                  for u in nodes)
    z_r = perturbed_partition(seq, r, q)
    assert divided / c_n == z_r
    weights = [h * continuation_oracle(ell, r, q) for ell, h in enumerate(one_point_table(seq, q))]
    mean = sum(w * q ** (ell + r) for ell, w in enumerate(weights)) / sum(weights)
    assert mean == 1 + (q**r - 1) * perturbed_partition(seq, r + 1, q) / z_r


def test_perturbed_partition_hand_value():
    # seq=(0,1), r=1, q=2: H0*Y0 + H1*Y1 = 1*1 + 1*2 = 3.
    assert perturbed_partition(StartSequence((0, 1)), 1, Fraction(2)) == 3


def test_partition_product_rejects_negative_q():
    with pytest.raises(InvalidArgument, match="positive"):
        partition_product(StartSequence((0, 1, 3)), Fraction(-1, 2))


_SEQ = StartSequence((0, 1, 3))
_Q_ROUTES = {
    "one_point_exit": lambda q: one_point_exit(_SEQ, 1, q),
    "one_point_exit_dual": lambda q: one_point_exit_dual(_SEQ, 3, q),
    "partition_product": lambda q: partition_product(_SEQ, q),
    "one_point_exit_det": lambda q: one_point_exit_det(_SEQ, 1, q),
    "most_likely_exit": lambda q: most_likely_exit(_SEQ, 2, q),
    "perturbed_partition": lambda q: perturbed_partition(_SEQ, 2, q),
}


@pytest.mark.parametrize("route", _Q_ROUTES.values(), ids=_Q_ROUTES.keys())
def test_every_route_refuses_q_outside_the_weight_contract(route):
    exact_only = route in (_Q_ROUTES["partition_product"], _Q_ROUTES["one_point_exit_det"])
    for q, message in ((math.nan, "q must be finite"), (math.inf, "q must be finite"),
                       (0.0, "q = 0 is excluded"), (1.0, "q = 1 is excluded"),
                       (0, "q = 0 is excluded"), (1, "q = 1 is excluded"),
                       (Fraction(1), "q = 1 is excluded"), (-2, "q must be positive")):
        if exact_only and isinstance(q, float):
            message = "requires exact rational q"
        with pytest.raises(InvalidArgument, match=message):
            route(q)


def test_weight_refuses_non_numbers_and_keeps_exact_numbers_exact():
    # A non-number, a bool or a non-finite Decimal is an InvalidArgument,
    # never a raw TypeError, InvalidOperation or OverflowError.
    for q in ("0.5", None, 0.5j, True, Decimal("NaN"), Decimal("Infinity"), np.array([0.5])):
        with pytest.raises(InvalidArgument, match="^q must be "):
            one_point_exit(_SEQ, 1, q)
    # A numpy float of any width computes in doubles; Decimal and Fraction
    # stay exact.
    assert one_point_exit(_SEQ, 1, np.float32(0.5)) == one_point_exit(_SEQ, 1, 0.5)
    assert type(one_point_exit(_SEQ, 1, np.float32(0.5))) is float
    for q in (Decimal("0.5"), Fraction(1, 2), np.int64(2)):
        assert one_point_exit(_SEQ, 1, q) == one_point_exit_det(_SEQ, 1, Fraction(q))


def _retired_dual_weight(seq, ell, r, q):
    """The continuation weight through the complementary family, as the
    package computed it before it was written as the direct weight at 1/q."""
    ell_dual = seq.top + seq.n - ell
    return q ** (r * (ell + 1) + r * (r - 1) // 2) * q_binomial(ell_dual + r - 1, ell_dual)(q)


def test_free_path_weight_at_the_inverse_base_is_the_dual_weight():
    # q**(r(a_n + n + 1) + r(r - 1)/2) free_path_weight(a_n + n - ell, r, 1/q)
    # is the dual continuation weight: exactly for rational q, for every
    # dual exit ell in [n, a_n + n]. Floats agree to 1.8e-15 here.
    for values in ((0, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4, 9)):
        seq = StartSequence(values)
        for ell in range(seq.n, seq.top + seq.n + 1):
            for r in (1, 2, 5):
                e = r * (seq.top + seq.n + 1) + r * (r - 1) // 2
                for q in (Fraction(7, 10), Fraction(3, 2), Fraction(5)):
                    via_direct = q**e * free_path_weight(seq.top + seq.n - ell, r, 1 / q)
                    assert via_direct == _retired_dual_weight(seq, ell, r, q)
                for q in (0.7, 1.5, 5.0):
                    via_direct = q**e * free_path_weight(seq.top + seq.n - ell, r, 1 / q)
                    assert via_direct == pytest.approx(_retired_dual_weight(seq, ell, r, q),
                                                       rel=1e-14)
    # The hand values of the dual form: at the largest dual exit only the
    # forced-step power survives, and (0, 2) at ell = n = 1 gives 1/4.
    seq, q = StartSequence((0, 2)), Fraction(1, 2)
    assert q**4 * free_path_weight(0, 1, 1 / q) == q ** (seq.top + seq.n + 1)
    assert q**4 * free_path_weight(2, 1, 1 / q) == Fraction(1, 4)


def test_reversal_check_counts_mismatched_degrees():
    seq = StartSequence((0, 2, 5))
    z = partition_poly(seq)
    z_dual = partition_poly(dual_sequence(seq))
    assert exact._reversal_check(seq, z, z_dual) == (True, 0)
    # Moving one unit of weight to another degree breaks two coefficients.
    k = z.degree
    broken = z - QPolynomial.monomial(k) + QPolynomial.monomial(k + 1)
    assert exact._reversal_check(seq, broken, z_dual) == (False, 2)


def reversal_by_dicts(seq, z, z_dual):
    """Test-only reference: the duality check on the nonzero coefficients
    of both sides, keyed by degree, over the union of their degrees."""
    e = exact._duality_exponent(seq)
    lhs = {k: c for k, c in enumerate(z.coeffs) if c}
    rhs = {e - k: c for k, c in enumerate(z_dual.coeffs) if c}
    mismatched = sum(lhs.get(k) != rhs.get(k) for k in lhs.keys() | rhs.keys())
    return mismatched == 0, mismatched


# Duality exponents 0, 2, 3, 13, 19 and 46.
_REVERSAL_SEQS = [StartSequence(v) for v in ((0,), (0, 1), (0, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4, 6))]


@given(st.sampled_from(_REVERSAL_SEQS),
       st.lists(st.integers(0, 2), max_size=30), st.lists(st.integers(0, 2), max_size=30))
@settings(max_examples=200, deadline=None)
def test_reversal_check_matches_the_dict_definition(seq, lhs, rhs):
    # Short lists of small coefficients meet e inside, across and outside
    # both degree ranges, and agree often enough to leave few mismatches.
    z, z_dual = QPolynomial(lhs), QPolynomial(rhs)
    assert exact._reversal_check(seq, z, z_dual) == reversal_by_dicts(seq, z, z_dual)
    # The mirror image of z passes.
    e = exact._duality_exponent(seq)
    if z.degree <= e:
        mirror = QPolynomial([z.coeffs[e - k] if e - k < len(z.coeffs) else 0 for k in range(e + 1)])
        assert exact._reversal_check(seq, z, mirror) == (True, 0)


def test_reversal_check_at_zero_and_disjoint_degrees():
    zero, seq = QPolynomial.zero(), StartSequence((0, 3, 4, 6))
    e = exact._duality_exponent(seq)
    assert exact._reversal_check(seq, zero, zero) == (True, 0)
    for z, z_dual in (
        (QPolynomial((1, 0, 2)), zero),  # 2 on the left alone
        (zero, QPolynomial((0, 3, 0, 4))),  # 2 on the right alone
        (QPolynomial((1, 2, 0, 3)), QPolynomial((5, 0, 6))),  # e above both degree ranges
        (QPolynomial.monomial(e + 4, 7), QPolynomial((1, 1))),  # the left above the right
    ):
        assert exact._reversal_check(seq, z, z_dual) == reversal_by_dicts(seq, z, z_dual)
        assert exact._reversal_check(seq, z, z_dual)[1] == sum(map(bool, z.coeffs + z_dual.coeffs))
    # e = 0 puts the right side at degrees 0, -1, -2, ...
    seq = StartSequence((0,))
    assert exact._reversal_check(seq, QPolynomial((4,)), QPolynomial((4, 0, 1))) == (False, 1)
    assert exact._reversal_check(seq, QPolynomial((4,)), QPolynomial((4,))) == (True, 0)


@given(st.lists(st.integers(-60, 60), max_size=25))
@settings(max_examples=100, deadline=None)
def test_cyclotomic_exponents_count_pairs(values):
    # The helper takes what partition_poly gives it, strictly increasing values.
    values = sorted(set(values))
    pairs = [(i, j) for j in range(len(values)) for i in range(j)]
    span = values[-1] - values[0] if values else 0
    brute = {d: sum((values[j] - values[i]) % d == 0 for i, j in pairs)
             - sum((j - i) % d == 0 for i, j in pairs) for d in range(1, span + 1)}
    assert exact._cyclotomic_exponents(values) == brute


@given(st.lists(st.integers(-400, 400), max_size=40, unique=True))
@settings(max_examples=200, deadline=None)
def test_cyclotomic_exponents_of_distinct_values_are_never_negative(values):
    # partition_poly's NumericalFailure on a negative c_d is never reached.
    assert min(exact._cyclotomic_exponents(sorted(values)).values(), default=0) >= 0


def test_partition_poly_at_21_paths_evaluates_to_the_product_form():
    # deg Z is in the thousands, so eval's halves split it several times.
    seq = StartSequence(range(0, 41, 2))
    z = partition_poly(seq)
    assert z.degree > 2_000
    for q in (Fraction(7, 10), Fraction(3, 2), 3):
        assert z(q) == partition_product(seq, q)


@given(st.lists(st.integers(min_value=1, max_value=30), max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_dual_partition_is_the_dual_sequences_product(rest):
    # The dual keeps the multiset of start differences, so its Z is Z's own
    # product moved to the dual's lowest degree.
    seq = StartSequence((0, *sorted(rest)))
    assert exact._dual_partition(seq, partition_poly(seq)) == partition_poly(dual_sequence(seq))


def test_most_likely_exit_is_argmax(monkeypatch):
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
    # No input has been found whose finite exit probability and finite
    # weight multiply past the doubles, so a digit-less H stands in for one.
    monkeypatch.setattr(exact, "one_point_table", lambda seq, q: [1e300] * (seq.top + 1))
    with pytest.raises(NumericalFailure,
                       match=r"^exit weight at q = 10.0, ell = 3 is outside the float range$"):
        most_likely_exit(seq, 3, 10.0)


def test_partition_and_dual_build_what_the_checked_constructor_builds():
    # Z and the dual are built unchecked from Z's trimmed tuple; both must be
    # the polynomials QPolynomial builds, with checks and trimming, from the
    # same lists.  At (0,), E = 0: both shift by 0.
    rng = random.Random(17)
    seqs = [StartSequence((0,)), StartSequence((0, 1)), StartSequence(range(5))]
    seqs += [random_sequence(rng, rng.randint(1, 6), rng.randint(6, 18)) for _ in range(30)]
    for seq in seqs:
        z = partition_poly(seq)
        e, e_dual = exact._lowest_degree(seq), exact._lowest_degree(dual_sequence(seq))
        assert z.coeffs == QPolynomial(list(z.coeffs)).coeffs == partition_det(seq).coeffs
        body = list(z.coeffs[e:])
        assert z.coeffs == QPolynomial([0] * e + body).coeffs
        dual = exact._dual_partition(seq, z)
        assert dual.coeffs == QPolynomial([0] * e_dual + body).coeffs
        for p in (z, dual):
            assert type(p.coeffs) is tuple and all(type(c) is int for c in p.coeffs)
