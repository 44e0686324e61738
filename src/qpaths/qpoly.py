"""Exact polynomial arithmetic in the weight variable q.

Dense integer-coefficient polynomials with arbitrary-precision coefficients,
Gaussian (q-deformed) binomials, cyclotomic polynomials, products of powers
with nonnegative coefficients, and a fraction-free Bareiss determinant for
polynomial matrices. Everything here is pure and exact; floats only appear
when a caller evaluates a polynomial at a float point.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, Sequence, Union

from .errors import InvalidArgument

Scalar = Union[int, float, Fraction]


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPolynomial:
    """Polynomial in q with integer coefficients, stored low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise InvalidArgument(f"coefficients must be int, got {type(c).__name__}")
        self.coeffs = _trim(cs)

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "QPolynomial":
        """The polynomial of a tuple of ints with no high zero, taken unchecked."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "QPolynomial":
        if exponent < 0:
            raise InvalidArgument("monomial exponent must be >= 0")
        return cls([0] * exponent + [coefficient])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return QPolynomial(out)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        # Signed Kronecker substitution: evaluate both factors at 2**bits, so
        # Python's big-int product does the convolution in C. Every product
        # coefficient lies strictly inside +-2**(bits-1); adding half a slot
        # to every slot makes each base-2**bits digit nonnegative, so the
        # digits read back directly.
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial.zero()
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        nbytes = bound.bit_length() // 8 + 1
        half = 1 << (8 * nbytes - 1)

        def at_slot_base(coeffs: Sequence[int]) -> int:
            pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in coeffs)
            neg = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in coeffs)
            return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

        n_out = len(a) + len(b) - 1
        halves = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n_out, "little")
        raw = (at_slot_base(a) * at_slot_base(b) + halves).to_bytes(n_out * nbytes, "little")
        return QPolynomial(
            [int.from_bytes(raw[i : i + nbytes], "little") - half
             for i in range(0, n_out * nbytes, nbytes)]
        )

    def shift(self, exponent: int) -> "QPolynomial":
        """Multiply by q**exponent."""
        if exponent < 0:
            raise InvalidArgument("shift exponent must be >= 0")
        if self.is_zero():
            return self
        return QPolynomial._of((0,) * exponent + self.coeffs)

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Exact polynomial division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise InvalidArgument("division by the zero polynomial")
        if self.is_zero():
            return QPolynomial.zero()
        rem = list(self.coeffs)
        div = other.coeffs
        dlead = div[-1]
        dn = len(div)
        qn = len(rem) - dn + 1
        if qn <= 0:
            raise InvalidArgument("inexact polynomial division (degree too low)")
        quot = [0] * qn
        for k in range(qn - 1, -1, -1):
            head = rem[k + dn - 1]
            if head % dlead != 0:
                raise InvalidArgument("inexact polynomial division")
            c = head // dlead
            quot[k] = c
            if c:
                for j in range(dn):
                    rem[k + j] -= c * div[j]
        if any(rem):
            raise InvalidArgument("inexact polynomial division (nonzero remainder)")
        return QPolynomial(quot)

    def __call__(self, q: Scalar) -> Scalar:
        """Value at q: exact at an int or a Fraction, Horner at any other q.

        At q = p/d (d = 1 for an int) the numerator, the sum of c_k p**k
        d**(D - k) with D the degree, is formed by halves
        (:func:`_homogeneous`) and normalised over d**D once. Halves keep the
        big-integer products balanced, where Horner's D steps would each
        grow one accumulator. A float q runs Horner, so every float bit is
        what Horner gives.
        """
        if isinstance(q, int):
            return _homogeneous(self.coeffs, q, 1)
        if isinstance(q, Fraction):
            if not self.coeffs:
                return Fraction(0)
            d = q.denominator
            return Fraction(_homogeneous(self.coeffs, q.numerator, d), d**self.degree)
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPolynomial(0)"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return "QPolynomial(" + " + ".join(parts) + ")"


# _homogeneous runs Horner on spans of at most this many coefficients.
_HORNER_SPAN = 64


def _homogeneous(coeffs: Sequence[int], p: int, d: int) -> int:
    """The sum of c_k p**k d**(len(coeffs) - 1 - k) over the coefficients c_k.

    Split as low + high, the sum is low's times d**len(high) plus
    p**len(low) times high's. Halving at the middle leaves at most two part
    lengths per level, and each power is formed once; spans of at most
    _HORNER_SPAN coefficients run Horner.
    """
    power = cache(pow)

    def halves(cs: Sequence[int]) -> int:
        if len(cs) <= _HORNER_SPAN:
            acc, d_pow = 0, 1
            for c in reversed(cs):
                acc = acc * p + c * d_pow
                d_pow *= d
            return acc
        m = len(cs) // 2
        return halves(cs[:m]) * power(d, len(cs) - m) + power(p, m) * halves(cs[m:])

    return halves(coeffs)


def q_binomial(a: int, b: int) -> QPolynomial:
    """Gaussian binomial of a over b as an exact polynomial in q.

    Zero when b < 0 or b > a; the coefficients are the standard nonnegative
    integers (partitions inside a (a-b) x b box). Negative a is rejected.
    """
    if a < 0:
        raise InvalidArgument(f"q_binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return QPolynomial.zero()
    # [a, b]_q = prod_{s <= b} (q**(a-b+s) - 1) / (q**s - 1), and q**m - 1 is
    # the product of Phi_d over d | m; counting multiples of d among a-b+1..a
    # and among 1..b gives the power of Phi_d, so no division is needed. The
    # coefficients count partitions in an (a-b) x b box, at most C(a, b).
    factors = [(cyclotomic(d), a // d - b // d - (a - b) // d) for d in range(2, a + 1)]
    return power_product(factors, math.comb(a, b))


@lru_cache(maxsize=1024)
def cyclotomic(d: int) -> QPolynomial:
    """The d-th cyclotomic polynomial, for d >= 1.

    q**d - 1 is the product of the cyclotomic polynomials of all divisors of
    d, so dividing it by those of the proper divisors leaves the d-th.
    """
    if d < 1:
        raise InvalidArgument(f"cyclotomic index must be >= 1, got {d}")
    result = QPolynomial.monomial(d) - QPolynomial.one()
    for e in range(1, d):
        if d % e == 0:
            result = result.exact_div(cyclotomic(e))
    return result


def _at_power_of_ten(coeffs: Sequence[int], w: int, ctx: decimal.Context) -> decimal.Decimal:
    """The sum of c_k 10**(k w), exact, by Horner in decimal: converting an
    int that large to Decimal would take time quadratic in its digits."""
    value, scale = decimal.Decimal(0), decimal.Decimal(f"1e{w}")
    for c in reversed(coeffs):
        value = ctx.fma(value, scale, c)
    return value


def power_product(factors: Sequence[tuple[QPolynomial, int]], bound: int) -> QPolynomial:
    """prod p**e over (p, e) in factors, for a product whose coefficients lie in [0, bound].

    Kronecker substitution at q = 10**w with 10**w > bound: each factor
    becomes one exact decimal integer, the powers and a product tree run in
    decimal arithmetic, and the base-10**w digits of the result are its
    coefficients. The caller vouches for the coefficient range; the factors
    themselves may have coefficients of either sign.
    """
    if bound < 1:
        raise InvalidArgument(f"coefficient bound must be >= 1, got {bound}")
    # Exact integer arithmetic: no result can reach this precision, and any
    # rounding would raise. decimal multiplies large operands by a
    # number-theoretic transform, far faster than int's Karatsuba here.
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
    )
    w = bound.bit_length() * 30103 // 100000 + 1  # decimal digits per coefficient
    values = [ctx.power(_at_power_of_ten(p.coeffs, w, ctx), e) for p, e in factors if e]
    values.sort(key=lambda v: v.adjusted())
    while len(values) > 1:
        values = [ctx.multiply(values[i], values[i + 1]) if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    digits = str(values[0]) if values else "1"
    digits = digits.zfill(-(-len(digits) // w) * w)
    starts = range(len(digits), 0, -w)
    try:
        coeffs = [int(digits[i - w : i]) for i in starts]
    except ValueError:  # w past the interpreter's int-from-str digit cap; Decimal has none
        coeffs = [int(decimal.Decimal(digits[i - w : i])) for i in starts]
    return QPolynomial._of(_trim(coeffs))


def poly_det(matrix: Sequence[Sequence[QPolynomial]]) -> QPolynomial:
    """Determinant of a square QPolynomial matrix, Bareiss fraction-free.

    Every division in the elimination is exact in the polynomial ring, so no
    rational functions appear at any point.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise InvalidArgument("poly_det requires a square matrix")
    if n == 0:
        return QPolynomial.one()
    m = [[entry for entry in row] for row in matrix]
    sign = 1
    prev = QPolynomial.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return QPolynomial.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = QPolynomial.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det
