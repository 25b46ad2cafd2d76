"""Exception hierarchy.

Every domain error raised by the library derives from BratteliError so the
CLI can map library failures to exit code 1 uniformly.  The message always
names the violated invariant.
"""


class BratteliError(ValueError):
    """Base class for all domain errors."""


class InvalidDiagram(BratteliError):
    """Diagram invariants are violated: ``violations`` lists them all, the first
    as the message (empty if the levels cannot form a diagram)."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class PathError(BratteliError):
    """A path is malformed or not contained in the diagram."""


class NotTailRelated(BratteliError):
    """Two paths are not tail equivalent (different length or range)."""


class SupportViolation(BratteliError):
    """A probability assignment breaks positivity or normalization."""


class IncompatibleData(BratteliError):
    """Supplied distributions are not compatible with the cotransition."""


class NotAMeasure(BratteliError):
    """A cylinder table is not additive under one-step extension."""


class NotHarmonic(BratteliError):
    """A candidate sequence fails the backward harmonic recursion."""


class NotACocycle(BratteliError):
    """A torus-valued function violates the cocycle identities."""


class NotAMatrixUnit(BratteliError):
    """A family of partial isometries violates the matrix-unit identities."""


class ShapeMismatch(BratteliError):
    """An algebra element is supported outside the expected relation."""


class WindowError(BratteliError):
    """Skew-product data refers to a group element outside the window."""


class FileFormatError(ValueError):
    """An input file does not follow the documented format.

    Deliberately not a BratteliError: the CLI reports it as a parse failure
    (exit code 2), not as a domain error (exit code 1).
    """
