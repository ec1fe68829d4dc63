"""Pseudospectral solver and estimate-verification toolkit for linear and
nonlinear Schrödinger equations with a general constant-coefficient elliptic
part and a multipoint initial condition u(t0) = φ + Σ αₖ u(λₖ)."""

from .errors import (
    BadDimensionError,
    BadExponentError,
    BadPowerError,
    ConfigError,
    ConfigSyntaxError,
    DimensionMismatchError,
    EmptyPairSetError,
    FileFormatError,
    GridMismatchError,
    InadmissiblePairError,
    LambdaOffGridError,
    ModeNotOnLatticeError,
    MpnlsError,
    NegativeSError,
    NoConvergenceError,
    NonFiniteError,
    NonFiniteInputError,
    NonpositiveRError,
    NonpositiveTimeError,
    NotEllipticError,
    NotSymmetricError,
    OddNError,
    ResonanceError,
    UnknownKeyError,
    ValidationError,
)
from .grid import (
    Field,
    SpectralGrid,
    Trajectory,
    build_grid,
    forward_transform,
    inverse_transform,
    random_band_limited,
    read_field_file,
    sample_profile,
    write_field_file,
)
from .linear import (
    DispersiveReport,
    MultipointSpec,
    StrichartzReport,
    apply_propagator,
    boundary_mass_fraction,
    min_abs_denominator,
    multipoint_residual,
    solve_linear_multipoint,
    symbol_lattice,
    verify_dispersive,
    verify_strichartz,
)
from .nonlinear import (
    PicardDiagnostics,
    PowerNonlinearity,
    eval_nonlinearity,
    integral_residual,
    metric_exponent,
    picard_step,
    smallness_indicator,
    solve_nls_multipoint,
)
from .norms import (
    AdmissiblePair,
    RegularityReport,
    apply_riesz,
    canonical_pairs,
    critical_exponent,
    energy,
    is_admissible,
    lebesgue_norm,
    make_pair,
    mass,
    mixed_norm,
    sobolev_norm,
    strichartz_norm,
)
from .symbol import EllipticSymbol, validate_symbol

__version__ = "0.1.0"
