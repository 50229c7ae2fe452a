"""Exception types shared across the package.

Every error raised on purpose by this library derives from
:class:`KPRankOneError`, so callers can catch one base class. The
subclasses additionally inherit from the closest builtin (ValueError,
ArithmeticError, ...) so generic handling keeps working.
"""

from __future__ import annotations

__all__ = [
    "KPRankOneError",
    "DimensionError",
    "DegenerateInputError",
    "InadmissibleTripleError",
    "GenerationError",
    "SingularShiftError",
    "PoleError",
    "RangeError",
    "IndeterminateScaleError",
    "DegenerateSpectrumError",
    "GeometryError",
    "ScenarioError",
]


class KPRankOneError(Exception):
    """Base class for all library errors."""


class DimensionError(KPRankOneError, ValueError):
    """Matrix dimensions do not match the operation's contract."""


class DegenerateInputError(KPRankOneError, ValueError):
    """Input is numerically singular where full rank is required."""


class InadmissibleTripleError(KPRankOneError, ValueError):
    """Matrix data fails the rank-one admissibility test.

    Carries the validator's diagnostic report in ``report`` when one was
    produced before the failure.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class GenerationError(KPRankOneError, RuntimeError):
    """Random generation gave up before finding an admissible instance."""


class SingularShiftError(KPRankOneError, ValueError):
    """A shift with negative multiplicity hit a (near-)singular factor."""


class PoleError(KPRankOneError, ArithmeticError):
    """Evaluation was requested at a zero of tau."""


class RangeError(KPRankOneError, OverflowError):
    """A value left the representable range of double precision."""


class IndeterminateScaleError(KPRankOneError, ArithmeticError):
    """All terms of a residual are too small to define a relative scale."""


class DegenerateSpectrumError(KPRankOneError, ValueError):
    """Colliding spectra produced a near-zero denominator in a product."""


class GeometryError(KPRankOneError, RuntimeError):
    """Interpolation nodes or lattice parameters could not be placed away
    from the spectrum."""


class ScenarioError(KPRankOneError, ValueError):
    """A scenario file failed to parse or validate."""
