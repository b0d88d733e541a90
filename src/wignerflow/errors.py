"""Exception hierarchy shared by all modules."""

from __future__ import annotations

import math


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


def reject_nan(what: str, *points) -> None:
    """ConfigurationError at a nan in the float arrays points (min propagates nan)."""
    if any(math.isnan(p.min(initial=0.0)) for p in points):
        raise ConfigurationError(f"{what} query point is nan")
