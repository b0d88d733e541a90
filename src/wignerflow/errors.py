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


def all_finite(value) -> bool:
    """Whether every number in value (a real scalar, an array, or a tuple of scalars or of
    arrays of one shape) is finite: scalars one at a time by math.isfinite, which costs less
    than any NumPy call, arrays by one NumPy reduction, stacked."""
    if isinstance(value, tuple) and np.ndarray not in map(type, value):
        return all(map(math.isfinite, value))
    if isinstance(value, (tuple, np.ndarray)):
        return bool(np.isfinite(value).all())
    return math.isfinite(value)


def all_at_least(value, low: float) -> bool:
    """Whether every number in value (a real scalar or array) is finite and at least low, by
    all_finite's rule: a scalar by comparison alone, an array by one NumPy reduction."""
    if isinstance(value, np.ndarray):
        return bool(((value >= low) & (value < np.inf)).all())
    return bool(low <= value < math.inf)


def finite_result(what: str, value):
    """value (a float, an array or a tuple of either), or NumericalConsistencyError naming what
    where any of it is not finite: the one rule for a result past the double range."""
    if not all_finite(value):
        raise NumericalConsistencyError(f"{what} exceeds the double range")
    return value


def reject_nan(what: str, *points) -> None:
    """ConfigurationError at a nan in the float arrays points (min propagates nan)."""
    if any(math.isnan(p.min(initial=0.0)) for p in points):
        raise ConfigurationError(f"{what} query point is nan")
