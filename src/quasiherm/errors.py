"""Exception hierarchy for the quasiherm toolkit.

Every failure mode raised by the numerical kernels and pipelines derives
from :class:`QuasiHermError`, so callers can catch the whole family at once.
"""

from __future__ import annotations


class QuasiHermError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(QuasiHermError):
    """Input required to be Hermitian deviates beyond tolerance."""


class NotPositiveDefinite(QuasiHermError):
    """A value required to be strictly positive (a symmetry coefficient) is not."""


class _RefusedFactor(QuasiHermError):
    """A factor failed the singular-value gate; ``cond`` is its σ_max/σ_min, inf at σ_min = 0."""

    def __init__(self, message: str, cond: float):
        super().__init__(message)
        self.cond = cond


class SingularTransform(_RefusedFactor):
    """Factor singular at roundoff, σ_min ≤ max(ZERO_NORM_FLOOR, ε·σ_max); ``cond`` may be inf."""


class IllConditioned(_RefusedFactor):
    """Condition number σ_max/σ_min (``cond``) exceeds the configured cap."""


class ComplexSpectrum(QuasiHermError):
    """Spectrum failed the reality gate.

    ``eigenvalues`` holds the offending eigenvalue(s).
    """

    def __init__(self, message: str, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues) if eigenvalues is not None else []


class NonDiagonalizable(_RefusedFactor):
    """Eigenvector rows are numerically defective; ``cond`` is the rows' σ_max/σ_min."""


class ResidualExceeded(QuasiHermError):
    """A certified operator identity exceeded its residual bound.

    Carries the identity's name so failures localize.
    """

    def __init__(self, identity: str, value: float, bound: float):
        super().__init__(
            f"identity '{identity}' residual {value:.3e} exceeds bound {bound:.3e}"
        )
        self.identity = identity
        self.value = value
        self.bound = bound


class InvalidModelParameters(QuasiHermError):
    """Model parameters violate the model's validity conditions."""


class ParseError(QuasiHermError):
    """Input file or payload is malformed."""
