"""Exact finite-size quantities for the weighted path ensemble.

A model instance is a strictly increasing start sequence a_0=0 < a_1 < ... <
a_n; paths run from (a_i, 0) to (0, i) with west/north unit steps, a north
step at abscissa x carrying weight q**x, and distinct paths sharing no
vertex. This module computes partition functions and exit ("one-point")
quantities exactly, via two independent routes each: symbolic determinants
and closed products/residue sums. At a rational q = p/d the residue sums
run in integer products of p and d, normalised to a Fraction once per
value; a float q computes in doubles. The exit law H(0 .. a_n) is summed
once per (sequence, q) and kept on the sequence; every exit-law function
reads it.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from operator import ne
from typing import Iterator, Sequence, Union

from .errors import (
    InvalidArgument, NumericalFailure, float_range, float_value, integer_value, real_value, shown,
)
from .qpoly import QPolynomial, cyclotomic, poly_det, power_product, q_binomial

Rational = Union[int, Fraction]
Weight = Union[int, Fraction, float]
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


@dataclass(frozen=True)
class StartSequence:
    """Strictly increasing integer starting abscissas with a_0 = 0, held as
    ints: a Python or numpy integer passes, a bool or a float (1.0 too) not.

    :func:`_exit_law` keeps the exit law at the last q on the instance,
    outside the dataclass fields, so it leaves ==, hash and repr alone.
    """

    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]):
        given = tuple(values)
        try:
            vals = tuple(integer_value(v, "start") for v in given)
        except InvalidArgument:
            shown_values = ", ".join(map(shown, given))
            raise InvalidArgument(f"start sequence must hold integers, got [{shown_values}]") from None
        if len(vals) == 0:
            raise InvalidArgument("start sequence must be nonempty")
        if vals[0] != 0:
            raise InvalidArgument(f"start sequence must begin at 0, got {shown(vals[0])}")
        for lo, hi in zip(vals, vals[1:]):
            if hi <= lo:
                raise InvalidArgument(
                    f"start sequence must be strictly increasing, got {shown(lo)} then {shown(hi)}")
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
    """Complementary start sequence of the reflected path model: a_n - a_{n-i}."""
    top = seq.top
    return StartSequence(tuple(top - seq.values[seq.n - i] for i in range(seq.n + 1)))


def _weight(q: Weight) -> Union[Fraction, float]:
    """q as a weight base: an integer, a Fraction or a finite Decimal as a
    Fraction, any other real number through errors.real_value as a plain
    float; a bool or a non-number raises InvalidArgument.

    The one contract on q of the finite-n routes: q is finite, positive and
    not 1. A float q (numpy's too) computes in doubles, every other q exactly.
    A plain float that keeps the contract returns at once.
    """
    if type(q) is float and 0.0 < q < math.inf and q != 1.0:
        return q
    exact = (isinstance(q, numbers.Rational) and not isinstance(q, bool)
             or isinstance(q, Decimal) and q.is_finite())
    q = Fraction(q) if exact else real_value(q, "q")
    if q == 1:
        raise InvalidArgument("q = 1 is excluded (uniform weights degenerate the formulas)")
    if q == 0:
        raise InvalidArgument("q = 0 is excluded")
    if q < 0:
        raise InvalidArgument("q must be positive")
    return q


def lgv_matrix(seq: StartSequence) -> list[list[QPolynomial]]:
    """Path-counting matrix: entry (i, j) generates weighted paths (a_i,0) -> (0,j)."""
    return [[q_binomial(a + j, j) for j in range(seq.n + 1)] for a in seq.values]


def partition_det(seq: StartSequence) -> QPolynomial:
    """Partition function as an exact polynomial in q (determinant route)."""
    return poly_det(lgv_matrix(seq))


def _cyclotomic_exponents(values: Sequence[int]) -> dict[int, int]:
    """partition_poly's c_d, d >= 1, for strictly increasing values: one pass over
    the pairs marks each values[j] - values[i] with +1 and each j - i with -1,
    and c_d sums the marks at the multiples of d."""
    marks = [0] * (max(values, default=0) - min(values, default=0) + 1)
    for j, a in enumerate(values):
        for i in range(j):
            marks[a - values[i]] += 1
            marks[j - i] -= 1
    return {d: sum(marks[d::d]) for d in range(1, len(marks))}


def partition_poly(seq: StartSequence) -> QPolynomial:
    """Partition function as an exact polynomial in q (cyclotomic product route).

    Z = q**E prod_{i<j} [a_j - a_i]_q / [j - i]_q, and every q-integer [m]_q
    is the product of the cyclotomic polynomials Phi_d over d | m, d >= 2.
    So Z = q**E prod_d Phi_d**c_d, where c_d counts the pairs i < j with
    d | a_j - a_i minus those with d | j - i; no division is needed.
    """
    n = seq.n
    factors = []
    for d, c in _cyclotomic_exponents(seq.values).items():
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
    return power_product(factors, count).shift(_lowest_degree(seq))


def _lowest_degree(seq: StartSequence) -> int:
    """E, the lowest degree of Z: the sum of i**2 + (n - i)(a_i - i)."""
    return sum(i * i + (seq.n - i) * (a - i) for i, a in enumerate(seq.values))


def _dual_partition(seq: StartSequence, z: QPolynomial) -> QPolynomial:
    """partition_poly(dual_sequence(seq)) from z = partition_poly(seq): the dual
    keeps the multiset of differences a_j - a_i, on which alone the product's
    factors and bound depend, so only the lowest degree moves."""
    return QPolynomial._of(z.coeffs[_lowest_degree(seq) :]).shift(_lowest_degree(dual_sequence(seq)))


def _duality_exponent(seq: StartSequence) -> int:
    """e = n(n + 1)(3 a_n + n + 2)/6 of the duality Z_a(q) = q**e Z_dual(1/q):
    the area of a configuration plus that of its reflection onto the dual."""
    return seq.n * (seq.n + 1) * (3 * seq.top + seq.n + 2) // 6


def _reversal_check(seq: StartSequence, z: QPolynomial, z_dual: QPolynomial) -> tuple[bool, int]:
    """Partition-function duality Z_a(q) = q**e Z_dual(1/q), on coefficients.

    Holds when Z_a[k] = Z_dual[e - k] for every k; exact for any q. Returns
    whether it holds and the number of degrees where the two sides differ.
    """
    lhs, rhs, e = z.coeffs, z_dual.coeffs, _duality_exponent(seq)
    # Degree k pairs lhs[k] with rhs[e - k]; both exist for lo <= k < hi.
    # Elsewhere a nonzero coefficient of either side is a mismatch.
    lo = max(0, e - len(rhs) + 1)
    hi = max(lo, min(len(lhs), e + 1))
    both = rhs[e + 1 - hi : e + 1 - lo]
    mismatched = sum(map(ne, lhs[lo:hi], reversed(both)))
    for alone in (lhs[:lo], lhs[hi:], rhs[: e + 1 - hi], rhs[e + 1 - lo :]):
        mismatched += len(alone) - alone.count(0)
    return mismatched == 0, mismatched


def partition_product(seq: StartSequence, q: Rational) -> Fraction:
    """Partition function at rational q via the factorized ratio form.

    Independent of the determinant route; q in {0, 1} is rejected because the
    ratio degenerates there (the determinant route covers q = 1 separately).
    """
    if isinstance(q, float):
        raise InvalidArgument("partition_product requires exact rational q")
    q = _weight(q)
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
    q = _weight(q)
    ell = integer_value(ell, "exit abscissa", 0, seq.top)
    n = seq.n
    matrix = lgv_matrix(seq)
    for row, a in zip(matrix, seq.values):
        # No such path when the start lies left of the exit.
        row[n] = q_binomial(a + n - ell, n).shift(n * ell) if a + n >= ell else QPolynomial.zero()
    # Z(q) > 0 at every admissible q: its coefficients are nonnegative.
    return poly_det(matrix)(q) / partition_det(seq)(q)


@float_range
def _residue_sum(seq: StartSequence, q: Weight) -> list:
    """The exit law H(ell) for ell = n + 1 .. a_n, by one residue sum at a
    base above 1.

    At q > 1, H(ell) is q**(n ell - n(n + 1)/2) times the sum over the
    poles k with a_k >= ell of N(m)/D_k, m = a_k - ell. The numerator N(m)
    is the product of q**s - 1 over s = m + 1 .. m + n; the denominator
    D_k, the product of q**a_k - q**a_s over s != k, does not depend on
    ell. Pole k's term has size about q**-(the sum of a_s - a_k over s >
    k), so the top pole's is about 1 and the others fall off: the sum
    cancels little. Below 1 those sizes grow instead, and the sum cancels
    every digit, so at q < 1 it runs on the reflected sequence a_n -
    a_{n-i} at 1/q, whose exit law H* gives H(ell) = 1 - H*(a_n + n + 1 -
    ell): the reflection (configs.dual_config) sends an exit below ell to
    one at or beyond a_n + n + 1 - ell.

    A Fraction q goes to :func:`_exact_residue_sum`. A float q computes in
    doubles in the same shape: one table g(s) = base**s - 1, s < a_n, each
    D_k formed once and each N(m) once, on first use. An entry whose D_k or
    sum leaves the doubles holds its NumericalFailure in place of a value,
    and the pass goes on: N(m) depends on ell, so a failing ell can lie
    next to a finite one.
    """
    n, top = seq.n, seq.top
    ells = range(n + 1, top + 1)
    flip = q < 1
    values = dual_sequence(seq).values if flip else seq.values
    base = 1 / q if flip else q
    reflected = [top + n + 1 - ell for ell in ells] if flip else ells
    if isinstance(q, Fraction):
        sums = _exact_residue_sum(values, reflected, base)
        return [1 - h for h in sums] if flip else sums
    powers = [base**a for a in values]
    g = [base**s - 1 for s in range(top)]
    # D_k for the poles a_k > n, the ones an entry reads. A finite numerator
    # over an infinite D_k would make a silent 0, so a D_k outside the doubles
    # is kept as nan: every term over it is nan, which the entry's check refuses.
    products = (math.prod([pole - power for power in powers[:k] + powers[k + 1 :]]) if a > n else math.nan
                for k, (a, pole) in enumerate(zip(values, powers)))
    dens = [den if math.isfinite(den) else math.nan for den in products]
    numerator = cache(lambda m: math.prod(g[m + 1 : m + n + 1]))

    # Its name makes float_range report a power outside the doubles as the
    # whole pass's does, "residue sum is outside the float range".
    @float_range
    def residue_sum(ell: int, e: int) -> float:
        terms = [numerator(values[k] - e) / dens[k] for k in range(bisect_left(values, e), n + 1)]
        exponent = n * e - n * (n + 1) // 2
        # fsum raises on inf - inf, so the terms are checked first.
        value = base**exponent * math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
        return _checked(value, "residue sum", q, ell)

    sums = []
    for ell, e in zip(ells, reflected):
        try:
            sums.append(1 - residue_sum(ell, e) if flip else residue_sum(ell, e))
        except NumericalFailure as failure:
            sums.append(failure.with_traceback(None))
    return sums


def _checked(value: Weight, what: str, q: Weight, ell: int, positive: bool = False) -> Weight:
    """value, unless float_value refuses it: then its NumericalFailure,
    naming what at q and ell. The message is formed only for a failure."""
    if not isinstance(value, float) or (_FLOAT_MIN if positive else -_FLOAT_MAX) <= value <= _FLOAT_MAX:
        return value
    return float_value(value, f"{what} at q = {shown(q)}, ell = {ell}", positive)


def _exact_residue_sum(values: tuple[int, ...], ells: Sequence[int], base: Fraction) -> list[Fraction]:
    """The residue sums of :func:`_residue_sum` at base = p/d > 1 on values,
    in integers, one Fraction per ell.

    With g(s) = p**s - d**s, base**s - 1 is g(s)/d**s, and base**a_k -
    base**a_s is +-p**min g(|a_k - a_s|)/d**max of the pair. So
    base**(n ell - n(n + 1)/2) N(m)/D_k is p**(n ell - n(n + 1)/2) times
    G(m) d**x_k / B_k, where G(m) is the product of g(s) over s = m + 1 ..
    m + n, x_k is the sum of a_s - a_k over s > k, and B_k is (-1)**(n -
    k) p**y_k times the product of g(|a_k - a_s|) over s != k, with y_k the
    sum of min(a_k, a_s). Over L = lcm(B_k) the poles share one
    denominator: H(ell) is one integer sum of G(m) w_k, with w_k = d**x_k
    L // B_k, and one Fraction per ell, normalised once. Each G(m), a
    product over a slice of the table g, is formed once in the pass, on
    first use.
    """
    n = len(values) - 1
    p, d = base.numerator, base.denominator
    g = [p**s - d**s for s in range(values[-1] + 1)]
    bases, shifts = [], []
    for k, a in enumerate(values):
        others = values[:k] + values[k + 1 :]
        low = sum(min(a, v) for v in others)
        bases.append((-1) ** (n - k) * p**low * math.prod(g[abs(a - v)] for v in others))
        shifts.append(sum(values[k + 1 :]) - (n - k) * a)
    common = math.lcm(*bases)
    weights = [d**x * (common // b) for x, b in zip(shifts, bases)]
    numerator = cache(lambda m: math.prod(g[m + 1 : m + n + 1]))
    sums = []
    for ell in ells:
        total = 0
        for k in range(bisect_left(values, ell), n + 1):
            total += numerator(values[k] - ell) * weights[k]
        # ell > n, so the power of p is positive.
        sums.append(Fraction(total * p ** (n * ell - n * (n + 1) // 2), common))
    return sums


def _exit_law(seq: StartSequence, q: Weight) -> list:
    """H(0 .. a_n) at a weight q, the one exit law every exit-law function
    reads: summed once and kept on seq for the last q it met. A float entry
    outside the doubles holds its NumericalFailure."""
    # The key holds q's type: 0.5 == Fraction(1, 2), and the two hash alike.
    key = (type(q), q)
    law = getattr(seq, "_law", None)
    if law is None or law[0] != key:
        law = (key, [type(q)(1)] * (seq.n + 1) + _residue_sum(seq, q))
        object.__setattr__(seq, "_law", law)
    return law[1]


def _read(h: Weight) -> Weight:
    """An entry of the stored law, or a copy of the failure it holds,
    raised: the stored one keeps no traceback, so no caller's frames."""
    if isinstance(h, NumericalFailure):
        raise NumericalFailure(*h.args) from h.__cause__
    return h


def one_point_exit(seq: StartSequence, ell: int, q: Weight) -> Weight:
    """Probability that the top path exits at abscissa ell or beyond (residue route).

    1 for ell <= n: the top path's last north step lies at x >= n. Beyond
    n, entry ell of the stored exit law, which :func:`_residue_sum` sums.
    Exact for rational q; a float q sums the residues with fsum.
    """
    q = _weight(q)
    ell = integer_value(ell, "exit abscissa", 0, seq.top)
    return _read(_exit_law(seq, q)[ell]) if ell > seq.n else type(q)(1)


def one_point_exit_dual(seq: StartSequence, ell: int, q: Weight) -> Weight:
    """Exit probability seen from the complementary path family, 1 -
    H(ell + 1) for n <= ell <= a_n + n: 1 from a_n on, where no path exits.

    It is the direct exit probability of the reflected sequence at 1/q:
    one_point_exit(dual_sequence(seq), a_n + n - ell, 1/q).
    """
    q = _weight(q)
    ell = integer_value(ell, "dual exit abscissa", seq.n, seq.top + seq.n)
    return type(q)(1) - (_read(_exit_law(seq, q)[ell + 1]) if ell < seq.top else 0)


def one_point_table(seq: StartSequence, q: Weight) -> list[Weight]:
    """The whole exit law: one_point_exit(seq, ell, q) for ell = 0 .. a_n,
    equal to those calls value by value, as a fresh list. A failure is the
    one the per-ell calls meet at the lowest failing ell."""
    return list(map(_read, _exit_law(seq, _weight(q))))


def _free_path_weights(r: int, q: Union[Fraction, float]) -> Iterator[Weight]:
    """W_r(ell) = q**ell [ell + r - 1, ell]_q for ell = 0, 1, ... in one
    pass: the continuation above the strip of a path that exits at abscissa
    ell and ends r rows higher on the axis, one forced north step (weight
    q**ell) and then a staircase. W_r(0) = 1, then the step ratio
    W_r(ell) / W_r(ell - 1) = q (q**(ell + r - 1) - 1) / (q**ell - 1).

    A Fraction q stays exact, reduced at each step; a float q computes in
    doubles. The ratio is formed before it multiplies W, so no intermediate
    exceeds W or q**(ell + r - 1). A W that overflows, or underflows below
    the least normal double, raises NumericalFailure; a power beyond the
    doubles raises OverflowError, for the caller's float_range.
    """
    w, ell = type(q)(1), 0
    while True:
        yield _checked(w, "free path weight", q, ell, positive=True)
        ell += 1
        w *= q * ((q ** (ell + r - 1) - 1) / (q**ell - 1))


@float_range
def _exit_weights(seq: StartSequence, r: int, q: Weight) -> list[Weight]:
    """H(ell) times the continuation weight W_r(ell), for ell = 0 .. a_n."""
    q = _weight(q)
    r = integer_value(r, "endpoint shift r", 1)
    return [_checked(h * w, "exit weight", q, ell)
            for ell, (h, w) in enumerate(zip(one_point_table(seq, q), _free_path_weights(r, q)))]


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
