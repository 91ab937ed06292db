"""Exception types shared across the package."""


class HgwError(Exception):
    """Base class for all package-specific errors."""


class GroupSpecError(HgwError):
    """A group expression failed to parse or to define a valid group."""


class UncoveredOrder(GroupSpecError):
    """The group's order has no entries in the catalog."""


class EnumerationOverflow(HgwError):
    """A closure or subgroup enumeration exceeded its configured cap."""


class TheoremViolation(HgwError):
    """A runtime contract that is guaranteed by theory failed; indicates a bug."""


class BlockSystemViolation(HgwError):
    """A permutation did not map a block system to itself."""

    def __init__(self, message: str, block=None):
        super().__init__(message)
        self.block = block


class FixtureFailure(HgwError):
    """A bundled verification fixture did not reproduce its expected data."""
