"""Exact finite-size quantities for the weighted path ensemble.

A model instance is a strictly increasing start sequence a_0=0 < a_1 < ... <
a_n; paths run from (a_i, 0) to (0, i) with west/north unit steps, a north
step at abscissa x carrying weight q**x, and distinct paths sharing no
vertex. This module computes partition functions and exit ("one-point")
quantities exactly, via two independent routes each: symbolic determinants
and closed products/residue sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidArgument, NumericalFailure, float_range
from .qpoly import QPolynomial, cyclotomic, poly_det, power_product, q_binomial, q_binomial_at

Rational = Union[int, Fraction]
Weight = Union[int, Fraction, float]


@dataclass(frozen=True)
class StartSequence:
    """Strictly increasing integer starting abscissas with a_0 = 0."""

    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        if len(vals) == 0:
            raise InvalidArgument("start sequence must be nonempty")
        if vals[0] != 0:
            raise InvalidArgument(f"start sequence must begin at 0, got {vals[0]}")
        for lo, hi in zip(vals, vals[1:]):
            if hi <= lo:
                raise InvalidArgument(f"start sequence must be strictly increasing, got {lo} then {hi}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        """Top path index; the sequence has n+1 entries."""
        return len(self.values) - 1

    @property
    def top(self) -> int:
        return self.values[-1]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def dual_sequence(seq: StartSequence) -> StartSequence:
    """Complementary start sequence of the reflected second path family."""
    top = seq.top
    return StartSequence(tuple(top - seq.values[seq.n - i] for i in range(seq.n + 1)))


def _check_weight_q(q: Weight, *, allow_negative: bool = False) -> None:
    if isinstance(q, float):
        if not math.isfinite(q):
            raise InvalidArgument("q must be finite")
    if q == 1:
        raise InvalidArgument("q = 1 is excluded (uniform weights degenerate the formulas)")
    if q == 0:
        raise InvalidArgument("q = 0 is excluded")
    if not allow_negative and q < 0:
        raise InvalidArgument("q must be positive")


def lgv_matrix(seq: StartSequence) -> list[list[QPolynomial]]:
    """Path-counting matrix: entry (i, j) generates weighted paths (a_i,0) -> (0,j)."""
    return [[q_binomial(a + j, j) for j in range(seq.n + 1)] for a in seq.values]


def partition_det(seq: StartSequence) -> QPolynomial:
    """Partition function as an exact polynomial in q (determinant route)."""
    return poly_det(lgv_matrix(seq))


def _same_class_pairs(values: Sequence[int], d: int) -> int:
    """Number of pairs i < j with values[i] = values[j] mod d."""
    sizes: dict[int, int] = {}
    for v in values:
        sizes[v % d] = sizes.get(v % d, 0) + 1
    return sum(k * (k - 1) // 2 for k in sizes.values())


def partition_poly(seq: StartSequence) -> QPolynomial:
    """Partition function as an exact polynomial in q (cyclotomic product route).

    Z = q**E prod_{i<j} [a_j - a_i]_q / [j - i]_q, and every q-integer [m]_q
    is the product of the cyclotomic polynomials Phi_d over d | m, d >= 2.
    So Z = q**E prod_d Phi_d**c_d, where c_d counts the pairs i < j with
    d | a_j - a_i minus those with d | j - i; no division is needed.
    """
    n = seq.n
    factors = []
    for d in range(2, seq.top + 1):
        c = _same_class_pairs(seq.values, d) - _same_class_pairs(range(n + 1), d)
        if c < 0:
            # Evenly filled residue classes hold the fewest same-class pairs,
            # so distinct starts never give fewer than the indices 0..n do.
            raise NumericalFailure(f"negative multiplicity {c} of cyclotomic factor {d}")
        if c:
            factors.append((cyclotomic(d), c))
    # Z counts configurations by area, so its coefficients are nonnegative
    # and none exceeds Z(1), the number of configurations.
    pairs = [(i, j) for j in range(n + 1) for i in range(j)]
    count = math.prod(seq[j] - seq[i] for i, j in pairs) // math.prod(j - i for i, j in pairs)
    exponent = sum(i * i + (n - i) * (a - i) for i, a in enumerate(seq.values))
    return power_product(factors, count).shift(exponent)


def partition_product(seq: StartSequence, q: Rational) -> Fraction:
    """Partition function at rational q via the factorized ratio form.

    Independent of the determinant route; q in {0, 1} is rejected because the
    ratio degenerates there (the determinant route covers q = 1 separately).
    """
    if isinstance(q, float):
        raise InvalidArgument("partition_product requires exact rational q")
    _check_weight_q(q, allow_negative=True)
    q = Fraction(q)
    n = seq.n
    num = Fraction(1)
    den = Fraction(1)
    powers = [q**a for a in seq.values]
    ref = [q**i for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= powers[j] - powers[i]
            den *= ref[j] - ref[i]
    exponent = n * (n + 1) * (2 * n + 1) // 6
    return q**exponent * num / den


def one_point_exit_det(seq: StartSequence, ell: int, q: Rational) -> Fraction:
    """Probability that the top path exits the strip at abscissa ell or beyond.

    Determinant route: replace the top-path column of the path-counting
    matrix by the column counting weighted paths (a_i, 0) -> (ell, n), and
    divide by the unmodified determinant. Exact polynomial arithmetic, then
    one evaluation at rational q.
    """
    if isinstance(q, float):
        raise InvalidArgument("one_point_exit_det requires exact rational q")
    _check_weight_q(q)
    n = seq.n
    if not 0 <= ell <= seq.top:
        raise InvalidArgument(f"exit abscissa must lie in [0, {seq.top}], got {ell}")
    matrix = lgv_matrix(seq)
    for row, a in zip(matrix, seq.values):
        # No such path when the start lies left of the exit.
        row[n] = q_binomial(a + n - ell, n).shift(n * ell) if a + n >= ell else QPolynomial.zero()
    q = Fraction(q)
    # Z(q) > 0 at every admissible q: its coefficients are nonnegative.
    return poly_det(matrix)(q) / partition_det(seq)(q)


@float_range
def _residue_sum(
    seq: StartSequence, ell: int, q: Weight, poles: Sequence[int], offsets: range, exponent: int
) -> Weight:
    """q**exponent times the sum of the residues at the poles q**a_k.

    One loop for an exact Fraction q and a float q. The terms alternate in
    sign; they are taken in increasing pole magnitude and, at a float,
    summed exactly, to keep the cancellation as mild as possible.
    """
    values = seq.values
    powers = [q**a for a in values]
    terms = []
    for k in sorted(poles, key=lambda k: abs(powers[k])):
        num = den = q**0  # one, in q's number type
        for s in offsets:
            num *= q ** (values[k] + s - ell) - 1
        for s in range(seq.n + 1):
            if s != k:
                den *= powers[k] - powers[s]
        terms.append(num / den)
    if isinstance(q, Fraction):
        return q**exponent * sum(terms)
    # fsum raises on inf - inf, so the terms are checked first.
    value = q**exponent * math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
    if not math.isfinite(value):
        raise NumericalFailure(f"residue sum at q = {q!r}, ell = {ell} is outside the float range")
    return value


def _exact_or_float(q: Weight) -> Union[Fraction, float]:
    return q if isinstance(q, float) else Fraction(q)


def one_point_exit(seq: StartSequence, ell: int, q: Weight) -> Weight:
    """Probability that the top path exits at abscissa ell or beyond (residue route).

    The contour encircles the weight-poles q**a_k with a_k >= ell; the
    residues at a_k in [ell - n, ell) vanish identically. Exact for
    rational q; float q sums the residues in increasing pole magnitude.
    """
    _check_weight_q(q)
    n = seq.n
    if not 0 <= ell <= seq.top:
        raise InvalidArgument(f"exit abscissa must lie in [0, {seq.top}], got {ell}")
    poles = [k for k in range(n + 1) if seq.values[k] >= ell]
    exponent = n * ell - n * (n + 1) // 2
    return _residue_sum(seq, ell, _exact_or_float(q), poles, range(1, n + 1), exponent)


def one_point_exit_dual(seq: StartSequence, ell: int, q: Weight) -> Weight:
    """Exit probability seen from the complementary path family.

    Defined for n <= ell <= a_n + n; the contour encircles the poles with
    a_k <= ell - n. Complementary to the direct route: one_point_exit(seq,
    ell, q) plus one_point_exit_dual(seq, ell - 1, q) equals 1.
    """
    _check_weight_q(q)
    n = seq.n
    if not n <= ell <= seq.top + n:
        raise InvalidArgument(f"dual exit abscissa must lie in [{n}, {seq.top + n}], got {ell}")
    poles = [k for k in range(n + 1) if seq.values[k] <= ell - n]
    exponent = n * ell - n * (n - 1) // 2
    return _residue_sum(seq, ell, _exact_or_float(q), poles, range(0, n), exponent)


def _positive_weight(q: Weight, value: Weight) -> Weight:
    # The weight is positive at q > 0, so a float value of 0 has underflowed.
    if isinstance(q, float) and not 0.0 < value < math.inf:
        raise NumericalFailure(f"free path weight at q = {q!r} is outside the float range")
    return value


@float_range
def free_path_weight(ell: int, r: int, q: Weight) -> Weight:
    """Weight of the unconstrained continuation above the strip.

    Counts the continuation of a path that exits at abscissa ell and ends r
    rows higher on the axis: one forced north step (weight q**ell) times the
    generating polynomial of the remaining staircase.
    """
    if ell < 0:
        raise InvalidArgument("exit abscissa must be >= 0")
    if r < 1:
        raise InvalidArgument("endpoint shift r must be >= 1")
    _check_weight_q(q)
    q = _exact_or_float(q)
    return _positive_weight(q, q**ell * q_binomial_at(ell + r - 1, ell, q))


@float_range
def free_path_weight_dual(seq: StartSequence, ell: int, r: int, q: Weight) -> Weight:
    """Continuation weight expressed through the complementary family."""
    if r < 1:
        raise InvalidArgument("endpoint shift r must be >= 1")
    n = seq.n
    if not n <= ell <= seq.top + n:
        raise InvalidArgument(f"dual exit abscissa must lie in [{n}, {seq.top + n}], got {ell}")
    _check_weight_q(q)
    q = _exact_or_float(q)
    ell_dual = seq.top + n - ell
    exponent = r * (ell + 1) + r * (r - 1) // 2
    return _positive_weight(q, q**exponent * q_binomial_at(ell_dual + r - 1, ell_dual, q))


def _exit_weights(seq: StartSequence, r: int, q: Weight) -> list[Weight]:
    """H(ell) times the continuation weight, for ell = 0 .. a_n."""
    weights = [one_point_exit(seq, ell, q) * free_path_weight(ell, r, q) for ell in range(seq.top + 1)]
    if isinstance(q, float) and not all(map(math.isfinite, weights)):
        raise NumericalFailure(f"exit weight at q = {q!r} is outside the float range")
    return weights


@float_range
def perturbed_partition(seq: StartSequence, r: int, q: Weight) -> Weight:
    """Partition-function ratio for the ensemble with the top endpoint moved up r rows."""
    terms = _exit_weights(seq, r, q)
    return math.fsum(terms) if isinstance(q, float) else sum(terms, Fraction(0))


def most_likely_exit(seq: StartSequence, r: int, q: Weight) -> int:
    """Exit abscissa maximizing the exit-times-continuation weight.

    Ties resolve to the smallest abscissa. Rational q is evaluated exactly;
    float q (for example a fractional power of a rational base) runs in double
    precision.
    """
    weights = _exit_weights(seq, r, q)
    return weights.index(max(weights))
