"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class WignerflowError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(WignerflowError):
    """Inconsistent inputs: mismatched grids, bad config keys, invalid parameters."""


class DomainTooSmallError(WignerflowError):
    """A wavefunction sample does not decay enough at the grid boundary."""


class NumericalConsistencyError(WignerflowError):
    """A numerical self-check failed, or a result exceeds the double range."""


class NotInvertibleError(WignerflowError):
    """No grid node carries enough marginal mass to anchor the inverse transform."""


class IndeterminateResultError(WignerflowError):
    """A diagnostic could not be evaluated (signal below its noise floor)."""


class UnsupportedConfigurationError(WignerflowError):
    """The requested quantity is not defined for this configuration."""


# the largest count, and so grid index, that still converts to a float exactly
_MAX_COUNT = f"<= {2**53}"
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def within(value, bound: str) -> bool:
    """Whether value meets bound, written "op limit" with op one of >, >=, < and <= ("> 0",
    "<= 60"): the one bound language of check_params, check_counts and the CLI config keys."""
    op, limit = bound.split()
    return _OPERATORS[op](value, float(limit))


def check_params(bound: str = "", /, **params) -> None:
    """ConfigurationError naming the first parameter that is not a finite real number within
    bound (or no bound): the one rule for every scalar parameter, so that no nan or inf enters
    the arithmetic, whose non-finite results the catalog reads as 0."""
    for name, value in params.items():
        try:
            ok = math.isfinite(value) and (not bound or within(value, bound))
        except (TypeError, OverflowError):  # not a real number, or an int past the floats
            ok = False
        if not ok:
            rule = f" and {bound}" if bound else ""
            raise ConfigurationError(f"{name} must be finite{rule}, got {value}")


def check_counts(*bounds: str, **counts) -> None:
    """ConfigurationError naming the first count that is not an integer (NumPy's included, a
    bool not) within every bound: the one rule for every grid size, order and quantum number."""
    for name, value in counts.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or not all(within(value, bound) for bound in bounds)):
            rule = " and ".join(bounds)
            raise ConfigurationError(f"{name} must be an integer {rule}, got {value!r}")


def finite_result(what: str, value):
    """value (a float, an array or a tuple of either), or NumericalConsistencyError naming what
    where any of it is not finite: the one rule for a result past the double range."""
    if not np.isfinite(value).all():
        raise NumericalConsistencyError(f"{what} exceeds the double range")
    return value


def reject_nan(what: str, *points) -> None:
    """ConfigurationError at a nan in the float arrays points (min propagates nan)."""
    if any(math.isnan(p.min(initial=0.0)) for p in points):
        raise ConfigurationError(f"{what} query point is nan")
