"""Typed errors shared across the toolkit."""


class RieszPointsError(Exception):
    """Base class for all toolkit errors."""


class CoincidentPointsError(RieszPointsError):
    """Two points, or a probe and a point, coincide, so the kernel between
    them is undefined.

    Distinguishable from floating-point overflow: near-coincident points
    give huge finite energies, exactly coincident points raise this.
    """


class UnsupportedOracleError(RieszPointsError):
    """No equilibrium oracle available for this kernel/shape combination."""


class InfeasiblePointError(RieszPointsError):
    """A point required to lie in the set does not."""


class SetDefinitionError(RieszPointsError):
    """A set definition file or text block could not be parsed."""


class MissingHolderDataError(RieszPointsError):
    """The operation needs a declared Holder exponent s on the set."""
