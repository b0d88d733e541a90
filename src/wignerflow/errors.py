"""Exception hierarchy shared by all modules."""

from __future__ import annotations


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
