"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import math

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


_BOUNDS = {
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    "< 0": lambda v: v < 0.0,
    "> 1": lambda v: v > 1.0,
}


def check_params(bound: str = "", /, **params) -> None:
    """ConfigurationError naming the first parameter that is not a finite real number within
    bound ("> 0", ">= 0", "< 0", "> 1" or none): the one rule for every scalar parameter, so
    that no nan or inf enters the arithmetic, whose non-finite results the catalog reads as 0."""
    for name, value in params.items():
        try:
            ok = math.isfinite(value) and (not bound or _BOUNDS[bound](value))
        except (TypeError, OverflowError):  # not a real number, or an int past the floats
            ok = False
        if not ok:
            within = f" and {bound}" if bound else ""
            raise ConfigurationError(f"{name} must be finite{within}, got {value}")


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
