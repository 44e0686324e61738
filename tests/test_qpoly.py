"""Polynomial layer: q-binomials, exact arithmetic, determinants."""

import decimal
import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths.errors import InvalidArgument
from qpaths.qpoly import (
    QPolynomial,
    _at_power_of_ten,
    cyclotomic,
    poly_det,
    power_product,
    q_binomial,
)


@lru_cache(maxsize=None)
def pascal_q_binomial(a: int, b: int) -> tuple[int, ...]:
    """Independent oracle: coefficient tuple via the q-Pascal recursion.

    [a, b] = [a-1, b-1] + q^b [a-1, b], starting from [a, 0] = [a, a] = 1.
    """
    if b < 0 or b > a:
        return ()
    if b == 0 or b == a:
        return (1,)
    left = pascal_q_binomial(a - 1, b - 1)
    right = pascal_q_binomial(a - 1, b)
    out = [0] * max(len(left), b + len(right))
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[b + i] += c
    return tuple(out)


def cofactor_det(matrix):
    """Independent oracle: Laplace expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = QPolynomial.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_q_binomial_matches_pascal_oracle():
    for a in range(41):
        for b in range(a + 1):
            assert q_binomial(a, b).coeffs == pascal_q_binomial(a, b)


def test_q_binomial_symmetry_and_palindrome():
    for a in range(12):
        for b in range(a + 1):
            p = q_binomial(a, b)
            assert p == q_binomial(a, a - b)
            assert list(p.coeffs) == list(reversed(p.coeffs))


def test_q_binomial_at_one_is_binomial():
    for a in range(11):
        for b in range(a + 1):
            assert q_binomial(a, b)(Fraction(1)) == math.comb(a, b)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, 5).is_zero()
    assert q_binomial(3, -1).is_zero()


def test_truth_value_is_nonzero():
    assert not QPolynomial.zero() and not q_binomial(3, 5)
    assert q_binomial(3, 1) and QPolynomial([0, -1])


def test_q_binomial_rejects_negative_upper():
    with pytest.raises(InvalidArgument):
        q_binomial(-1, 0)


coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
# Products are packed into byte-wide slots, so coefficients at +-2**(8k-1)
# and next to them sit exactly on a slot's sign boundary. Constant lists
# make a product coefficient reach the packing bound itself.
slot_edges = [s * (2 ** (8 * k - 1) + d) for k in range(1, 38) for s in (1, -1) for d in (-1, 0)]
wide_coeffs = st.one_of(
    st.integers(-(2**300), 2**300), st.integers(-3, 3), st.sampled_from(slot_edges)
)
wide_coeff_lists = st.one_of(
    st.lists(wide_coeffs, max_size=120),
    st.builds(lambda c, n: [c] * n, wide_coeffs, st.integers(1, 120)),
)


@given(wide_coeff_lists, wide_coeff_lists)
@settings(max_examples=80, deadline=None)
def test_multiplication_matches_schoolbook(a_coeffs, b_coeffs):
    a = QPolynomial(a_coeffs)
    b = QPolynomial(b_coeffs)
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
        return
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    assert a * b == QPolynomial(out)


@given(coeff_lists, coeff_lists, st.fractions(max_denominator=20))
@settings(max_examples=80, deadline=None)
def test_ring_operations_commute_with_evaluation(a_coeffs, b_coeffs, q):
    a = QPolynomial(a_coeffs)
    b = QPolynomial(b_coeffs)
    assert (a + b)(q) == a(q) + b(q)
    assert (a - b)(q) == a(q) - b(q)
    assert (a * b)(q) == a(q) * b(q)


def test_exact_division_round_trip():
    a = q_binomial(9, 4)
    b = QPolynomial((1, 2, 1))
    assert (a * b).exact_div(b) == a
    assert QPolynomial.zero().exact_div(b).is_zero()
    for num, den, message in (
        ((1, 1, 1), (1, 1), r"\(nonzero remainder\)"),
        ((1, 1), (1, 1, 1), r"\(degree too low\)"),
        ((1, 0, 3), (1, 2), r"^inexact polynomial division$"),
        ((1, 1), (), "division by the zero polynomial"),
    ):
        with pytest.raises(InvalidArgument, match=message):
            QPolynomial(num).exact_div(QPolynomial(den))


def test_monomial_shift_scale():
    p = QPolynomial.monomial(3, 2)
    assert list(p.coeffs) == [0, 0, 0, 2]
    assert list(p.shift(2).coeffs) == [0, 0, 0, 0, 0, 2]
    with pytest.raises(InvalidArgument, match="monomial exponent must be >= 0"):
        QPolynomial.monomial(-1)
    with pytest.raises(InvalidArgument, match="shift exponent must be >= 0"):
        p.shift(-1)
    # The message names the type of the first coefficient that is no int.
    for bad, name in ((1.0, "float"), (Fraction(1, 2), "Fraction"), (None, "NoneType")):
        with pytest.raises(InvalidArgument, match=f"coefficients must be int, got {name}$"):
            QPolynomial((1, bad, 2.5))
    # Equal polynomials hash alike; a non-polynomial is never equal.
    assert len({p, QPolynomial((0, 0, 0, 2)), p.shift(1)}) == 2
    assert p != "2*q^3" and p != 2.0 and p != None  # noqa: E711
    assert repr(p) == "QPolynomial(2*q^3)"
    assert repr(QPolynomial((-1, 1, 1, 0, 1))) == "QPolynomial(-1 + q + q^2 + q^4)"
    assert repr(QPolynomial((0, 3))) == "QPolynomial(3*q)"
    assert repr(QPolynomial.zero()) == "QPolynomial(0)"


def test_shift_builds_what_the_checked_constructor_builds():
    # shift takes its trimmed tuple unchecked; the result must be the one
    # QPolynomial builds, with checks and trimming, from the same list.
    import random

    rng = random.Random(5)
    cases = [QPolynomial.zero(), QPolynomial.one(), QPolynomial((0, 0, 3))]
    for _ in range(200):
        size = rng.choice((10, 10**40))
        cases.append(QPolynomial([rng.randint(-size, size) * rng.randint(0, 1)
                                  for _ in range(rng.randint(0, 12))]))
    for p in cases:
        for k in (0, 1, rng.randint(2, 40)):
            got, want = p.shift(k), QPolynomial(list((0,) * k + p.coeffs))
            assert got.coeffs == want.coeffs and type(got.coeffs) is tuple
            assert all(type(c) is int for c in got.coeffs)
    zero = QPolynomial.zero()
    assert zero.shift(7).coeffs == () and zero.shift(0) == zero


def test_poly_det_matches_cofactor_oracle():
    import random

    rng = random.Random(7)
    for size in (2, 3, 4):
        for _ in range(5):
            matrix = [
                [
                    QPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert poly_det(matrix) == cofactor_det(matrix)
    assert poly_det([]) == QPolynomial.one()
    with pytest.raises(InvalidArgument, match="square matrix"):
        poly_det([[QPolynomial.one(), QPolynomial.one()]])


def test_poly_det_of_q_binomial_matrix():
    matrix = [[q_binomial(i + j + 2, j + 1) for j in range(3)] for i in range(3)]
    assert poly_det(matrix) == cofactor_det(matrix)


def test_eval_exact_and_float():
    p = QPolynomial((1, 0, 2))
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert p(2.0) == 9.0
    assert QPolynomial.zero()(Fraction(2, 3)) == 0
    assert QPolynomial((0, 0, 4))(Fraction(3, 2)) == 9


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=1, max_size=300),
       st.fractions(max_denominator=50))
@settings(max_examples=80, deadline=None)
def test_eval_at_fraction_matches_fraction_horner(coeffs, q):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    assert QPolynomial(coeffs)(q) == acc


def horner(coeffs, q):
    """Test-only reference: Horner's rule in q's own arithmetic."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


# Lengths 0 .. 300 reach past eval's Horner span (64) and split a few
# times; about a third of the coefficients are 0.
long_coeff_lists = st.integers(0, 300).flatmap(lambda n: st.lists(
    st.one_of(st.just(0), st.integers(-(2**80), 2**80)), min_size=n, max_size=n))
exact_points = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=40),
    st.builds(Fraction, st.just(1), st.integers(1, 40)),  # numerator 1
    st.builds(Fraction, st.integers(-40, 40)),  # denominator 1
)


@given(long_coeff_lists, exact_points)
@settings(max_examples=80, deadline=None)
def test_eval_by_halves_matches_horner(coeffs, q):
    value = QPolynomial(coeffs)(q)
    assert value == horner(coeffs, q)
    assert type(value) is type(q)


@given(long_coeff_lists, st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_eval_at_a_float_is_horner_bit_for_bit(coeffs, q):
    # |c| <= 2**80 and |q| <= 4 over 300 terms stay inside the doubles.
    p = QPolynomial(coeffs)
    assert struct.pack("<d", p(q)) == struct.pack("<d", horner(p.coeffs, q))


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 4)), max_size=5
    )
)
@settings(max_examples=60, deadline=None)
def test_power_product_matches_repeated_multiplication(specs):
    # q-binomials have nonnegative coefficients, so their products do too.
    factors = [(q_binomial(a + b, b), e) for a, b, e in specs]
    expected = QPolynomial.one()
    bound = 1
    for p, e in factors:
        for _ in range(e):
            expected = expected * p
        bound *= p(1) ** e
    assert power_product(factors, bound) == expected


def test_power_product_signed_factors_and_digit_boundaries():
    # Phi_6 = 1 - q + q^2 alone has a negative coefficient; Phi_3 * Phi_6 =
    # 1 + q^2 + q^4 does not.
    factors = [(cyclotomic(3), 2), (cyclotomic(6), 2)]
    assert power_product(factors, 9) == QPolynomial((1, 0, 1, 0, 1)) * QPolynomial((1, 0, 1, 0, 1))
    # Coefficient bounds at and next to powers of ten.
    ones = QPolynomial((1, 1))
    for e in (3, 4, 5, 13, 14):
        expected = QPolynomial([math.comb(e, k) for k in range(e + 1)])
        assert power_product([(ones, e)], 2**e) == expected
    for c in (1, 9, 10, 99, 100, 10**20 - 1, 10**20, 2**64 - 1, 2**64):
        assert power_product([(QPolynomial((c, 0, c)), 1)], c) == QPolynomial((c, 0, c))
    assert power_product([], 1) == 1
    assert power_product([(QPolynomial.zero(), 2), (ones, 1)], 1) == 0
    with pytest.raises(InvalidArgument):
        power_product([(ones, 1)], 0)


def test_power_product_decodes_chunks_past_the_digit_cap():
    # A bound past 10**4300 makes each base-10**w chunk longer than int()
    # reads from a string at the default digit cap, so the chunks decode
    # through Decimal.
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        factors = [(cyclotomic(3), 2), (cyclotomic(6), 2), (QPolynomial((1, 1)), 3)]
        expected = (QPolynomial((1, 0, 1, 0, 1)) * QPolynomial((1, 0, 1, 0, 1))
                    * QPolynomial((1, 3, 3, 1)))
        assert power_product(factors, 10**4400) == expected
        assert power_product(factors, 10**4250) == expected  # below the cap: int() reads
    finally:
        sys.set_int_max_str_digits(old_cap)


def string_image(coeffs, w, ctx):
    """The zero-filled-string image that _at_power_of_ten replaced, kept as its
    oracle; each coefficient's digits come through Decimal, which has no
    int-to-str digit cap."""
    pos = "".join(str(decimal.Decimal(max(c, 0))).zfill(w) for c in reversed(coeffs))
    neg = "".join(str(decimal.Decimal(max(-c, 0))).zfill(w) for c in reversed(coeffs))
    return ctx.subtract(decimal.Decimal(pos), decimal.Decimal(neg))


@st.composite
def images(draw):
    """Signed coefficients with zeros, each of fewer than w digits, for widths
    from 1 digit to past the interpreter's 4 300-digit int-from-str cap."""
    w = draw(st.one_of(st.integers(1, 40), st.sampled_from([4299, 4300, 4301, 4400])))
    big = 10**w - 1
    cells = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-big, big),
                      st.sampled_from([big, -big]))
    return draw(st.lists(cells, min_size=1, max_size=12)), w


@given(images())
@settings(max_examples=100, deadline=None)
def test_image_at_a_power_of_ten_matches_the_string_oracle(image):
    coeffs, w = image
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        got = _at_power_of_ten(coeffs, w, ctx)
        assert str(got) == str(string_image(coeffs, w, ctx))
        assert got.as_tuple().exponent == 0
    finally:
        sys.set_int_max_str_digits(old_cap)


def test_cyclotomic_divisor_products():
    for m in range(1, 31):
        product = QPolynomial.one()
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * cyclotomic(d)
        assert product == QPolynomial.monomial(m) - QPolynomial.one()
    assert cyclotomic(1) == QPolynomial((-1, 1))
    assert cyclotomic(6) == QPolynomial((1, -1, 1))
    assert -2 in cyclotomic(105).coeffs
    with pytest.raises(InvalidArgument):
        cyclotomic(0)
