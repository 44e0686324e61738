"""Exception types shared across the package, the float-range guard, the
one rule each on integer and real arguments, and the bounded rendering of
a refused value."""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys


class QpathsError(Exception):
    """Base class for all package errors."""


class InvalidArgument(QpathsError, ValueError):
    """A contract precondition was violated by the caller."""


class UnsupportedConfiguration(QpathsError):
    """The input is well-formed but outside the supported envelope."""


class SizeLimitExceeded(UnsupportedConfiguration):
    """An exact enumeration was requested beyond its guard rails."""


class SingularPoint(QpathsError):
    """A curve evaluation hit a parameter where the map degenerates."""


class NumericalFailure(QpathsError):
    """A numerical routine could not reach its accuracy target."""


class ConfigError(QpathsError):
    """Invalid run configuration; carries the full list of violations."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def float_range(fn):
    """Report an ArithmeticError (such as a float overflow) as NumericalFailure.

    The message names the quantity after the function: ``_residue_sum``
    reads "residue sum". numpy's error mode is left alone: the array
    kernels set their own, and a non-finite or underflowed float that
    raised nothing is left to :func:`float_value`.
    """
    what = fn.__name__.strip("_").replace("_", " ")

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise NumericalFailure(f"{what} is outside the float range ({exc})") from exc

    return checked


def float_value(value, what: str, positive: bool = False):
    """Return value, unless a float that is not finite, or below the least
    normal double where the quantity is positive (it underflowed, to 0 or
    to a subnormal): that raises NumericalFailure."""
    lo = sys.float_info.min if positive else -sys.float_info.max
    if isinstance(value, float) and not lo <= value <= sys.float_info.max:
        raise NumericalFailure(f"{what} is outside the float range")
    return value


def shown(value) -> str:
    """repr(value) for a refusal, bounded: an integer beyond 2**128 shows its
    number of digits, and a value the interpreter will not print (a Fraction
    of more than 4300 digits) its type."""
    if isinstance(value, int) and value.bit_length() > 128:
        size = abs(value)
        digits = (size.bit_length() - 1) * 3010299956 // 10**10 + 1  # at most the count
        while 10**digits <= size:
            digits += 1
        return f"an integer of {digits} digits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to print"


def integer_value(value, what: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """value as an int in [lo, hi]: the one rule on integer arguments.

    A Python or numpy integer passes; a bool, a float (1.0 too) or any other
    number raises InvalidArgument, as does an integer outside [lo, hi].
    Constant time.
    """
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise InvalidArgument(f"{what} must be an integer, got {shown(value)}")
    if not lo <= index <= hi:
        bounds = f"lie in [{lo}, {hi}]" if hi < math.inf else f"be at least {lo}"
        raise InvalidArgument(f"{what} must {bounds}, got {shown(index)}")
    return index


def real_value(value, what: str) -> float:
    """value as a plain finite float: the one rule on real arguments.

    A Python or numpy real number passes (an integer or a Fraction too); a
    bool or any other value raises InvalidArgument, as does a real number
    that is not finite or lies beyond the doubles (a huge integer).  A
    finite plain float, the common case, returns at once.
    """
    if type(value) is float and math.isfinite(value):
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be a real number, got {shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise InvalidArgument(f"{what} lies beyond the float range") from None
    if not math.isfinite(number):
        raise InvalidArgument(f"{what} must be finite, got {shown(value)}")
    return number
