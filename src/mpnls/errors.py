"""Exception hierarchy shared by all mpnls modules."""


class MpnlsError(Exception):
    """Base class for all errors raised by this package."""


# --- elliptic symbol ---------------------------------------------------------

class NotSymmetricError(MpnlsError):
    """Coefficient matrix is not a real symmetric square matrix."""


class NotEllipticError(MpnlsError):
    """Coefficient matrix has an eigenvalue at or below the positivity floor."""


# --- grid and transforms -----------------------------------------------------

class BadDimensionError(MpnlsError):
    """Spatial dimension outside the supported range 1..3."""


class OddNError(MpnlsError):
    """Points per axis must be even (and at least 4)."""


class NonpositiveRError(MpnlsError):
    """Box half-width must be positive."""


class NonFiniteError(MpnlsError):
    """Non-finite values encountered (blow-up or corrupt data)."""


class NonFiniteInputError(NonFiniteError):
    """Input samples contain NaN or Inf."""


class ModeNotOnLatticeError(MpnlsError):
    """Plane-wave mode index is not an integer lattice point."""


class FileFormatError(MpnlsError):
    """Field file is malformed or does not match the target grid."""


# --- norms -------------------------------------------------------------------

class BadExponentError(MpnlsError):
    """Lebesgue/time exponent outside its admissible range."""


class NegativeSError(MpnlsError):
    """Regularity order s must be nonnegative."""


class BadPowerError(MpnlsError):
    """Nonlinearity power p must be positive."""


class EmptyPairSetError(MpnlsError):
    """Strichartz norm needs at least one admissible pair."""


class InadmissiblePairError(MpnlsError):
    """Exponent pair violates the admissibility condition for this dimension."""


# --- solvers -----------------------------------------------------------------

class GridMismatchError(MpnlsError):
    """Fields/trajectories live on different grids or time axes."""


class DimensionMismatchError(GridMismatchError):
    """The symbol's dimension does not match the grid's."""


class ResonanceError(MpnlsError):
    """Multipoint denominator nearly vanishes at some lattice frequency."""

    def __init__(self, message, min_abs=None, eps_res=None):
        super().__init__(message)
        self.min_abs = min_abs
        self.eps_res = eps_res


class LambdaOffGridError(MpnlsError):
    """A multipoint time lambda_k does not lie on the trajectory time grid."""


class NonpositiveTimeError(MpnlsError):
    """Dispersive-decay check requires strictly positive times."""


class NoConvergenceError(MpnlsError):
    """Fixed-point iteration failed to converge within max_iter."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- configuration -----------------------------------------------------------

class ConfigError(MpnlsError):
    """Base class for configuration problems."""


class ConfigSyntaxError(ConfigError):
    """Config text is not valid JSON."""


class UnknownKeyError(ConfigError):
    """Config contains a key outside the strict schema."""


class ValidationError(ConfigError):
    """Config value violates a module precondition (named in the message)."""
