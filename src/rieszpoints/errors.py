"""Typed errors shared across the toolkit."""


class RieszPointsError(Exception):
    """Base class for all toolkit errors."""


class SingularityError(RieszPointsError):
    """Kernel or potential evaluated at a zero displacement.

    Self-pairs must be excluded structurally by the caller; a silent
    infinity would corrupt optimizer gradients and energy orderings.
    """


class CoincidentPointsError(RieszPointsError):
    """Two configuration points coincide, so pair energies are undefined.

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
