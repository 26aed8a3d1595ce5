"""Exception types shared across the package."""


class KacCrystalError(Exception):
    """Base class for all package errors."""


class NotDominant(KacCrystalError):
    """Weight fails the dominance inequalities required by the operation."""


class HookViolation(KacCrystalError):
    """Partition does not fit the hook region for the given rank."""


class MalformedHookTableau(KacCrystalError):
    """Tableau is not a valid semistandard filling of a hook-shaped diagram."""


class PreconditionViolated(KacCrystalError):
    """Input weight lies outside the window where the map is defined."""


class InsertionOverflow(KacCrystalError):
    """Bumping exited the bounding rectangle, or a cell edit left the inner
    boundary of a tableau."""


class MalformedElement(KacCrystalError):
    """Serialized Kac crystal element or tableau fails validation; names the
    field."""


class SizeCapExceeded(KacCrystalError):
    """Graph generation would exceed the configured vertex cap."""

    def __init__(self, cardinality, cap):
        super().__init__(
            "graph has %d vertices, exceeding cap %d" % (cardinality, cap)
        )
        self.cardinality = cardinality
        self.cap = cap


class NotIsomorphic(KacCrystalError):
    """Edge-colored graphs cannot be matched along colored edges."""


class MultipleSources(KacCrystalError):
    """A crystal expected to have a unique source has several."""
