"""Exception types shared across the package, and the float-range guard."""

from __future__ import annotations

import functools

import numpy as np


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

    Overflow, division by zero and invalid operations in numpy raise too;
    array code that masks non-finite values opts out locally. The message
    names the quantity after the function: ``_residue_sum`` reads "residue
    sum". A non-finite or underflowed float that raised nothing is left to
    the caller's own check.
    """
    what = fn.__name__.strip("_").replace("_", " ")

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise NumericalFailure(f"{what} is outside the float range ({exc})") from exc

    return checked
