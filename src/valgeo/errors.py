"""Exception types shared across the package."""


class RankError(ValueError):
    """Input matrix is rank deficient where full rank is required."""


class DimensionError(ValueError):
    """Dimensions of subspaces/bodies are inconsistent or out of range."""


class ScopeError(ValueError):
    """Requested configuration is outside the supported desk-scale scope."""


class PolynomialFitError(RuntimeError):
    """Steiner moment residual exceeds threshold (sample budget too small)."""
