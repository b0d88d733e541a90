"""Wigner phase-space quantum mechanics in one dimension (2m = 1 units)."""

from .catalog import (
    AnalyticState,
    Box,
    CoherentGaussian,
    DeltaBound,
    FreeEvolvedGaussian,
    GaussGeneral,
    HarmonicEigen,
    Hermite,
    Soliton,
    box_l1_growth,
    default_grid,
    harmonic_energy,
    hermite_polynomial,
    hudson_positivity,
    laguerre_polynomial,
    normalize_sample,
    sample_catalog_state,
)
from .errors import (
    ConfigurationError,
    DomainTooSmallError,
    IndeterminateResultError,
    NotInvertibleError,
    NumericalConsistencyError,
    UnsupportedConfigurationError,
    WignerflowError,
)
from .flow import (
    Constant,
    Cosine,
    DrivePolicy,
    FlowCoefficients,
    OscillatorParams,
    Tabulated,
    backward_map,
    classical_flow,
    delta_stationary_residual,
    drive_convolutions,
    drive_value,
    field_evaluator,
    flow_coefficients,
    forward_map,
    liouville_residual,
    propagate_field,
    stationary_residual,
)
from .gaussian import (
    GaussianPacket,
    PacketShape,
    density,
    expectation_position,
    packet_shape,
    wavefunction,
    wigner_evolved,
    wigner_evolved_field,
)
from .grids import Grid1D, PhaseSpaceGrid, natural_grid, natural_xi_grid, symmetric_xi_grid
from .special import erf, erfc
from .transform import (
    ContinuityReport,
    WaveSample,
    WignerField,
    continuity_gap,
    invert_wigner,
    momentum_marginal,
    overlap_identity,
    position_marginal,
    purity_separability_check,
    sample_state,
    sup_norm_bound_slack,
    total_mass,
    wigner_transform,
)
from .tunneling import (
    TunnelReport,
    TunnelScenario,
    asymptotic_probability,
    asymptotic_time,
    classify_regime,
    critical_momentum,
    energies,
    figure1_series,
    survival_probability,
    tunnel_report,
)

__version__ = "0.1.0"
