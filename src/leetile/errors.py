"""Shared exception types."""


class LeeTileError(Exception):
    """Base class for errors raised by this package."""


class SingularMatrixError(LeeTileError, ValueError):
    """An integer matrix that must be nonsingular has determinant zero."""


class FactorizationError(LeeTileError, ValueError):
    """An order is too large to factor within the configured bound."""


class ArmCollisionError(LeeTileError, ValueError):
    """The arm set of a basis collapses: two arms (or an arm and the
    identity) coincide in the quotient group, so it can never have the
    required 2n+1 distinct elements."""


class RejectedCandidateError(LeeTileError, ValueError):
    """An operation that requires a verified tiling candidate was given a
    candidate that fails verification.  Carries the failing report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"candidate rejected: {report.failed_condition}")
