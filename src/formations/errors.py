"""Exception types shared across the package."""


class FormationsError(Exception):
    """Base class for all package errors."""


class ClosureExceedsCap(FormationsError):
    """Generating a group produced more elements than the configured cap."""


class LatticeExceedsCap(FormationsError):
    """Group order or subgroup count exceeds the lattice caps."""


class NotNormal(FormationsError):
    """A quotient was requested by a non-normal subgroup."""


class NotNormalized(FormationsError):
    """induced_action requires the acting subgroup to normalize its target."""


class NotMaximal(FormationsError):
    """The subgroup is not maximal in its parent."""


class NoSatellite(FormationsError):
    """The formation has no canonical local satellite table."""


class InvalidParams(FormationsError):
    """Parameters out of range, or contradicting the formation's metadata."""


class DslSyntaxError(FormationsError):
    """Parse failure; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DslSemanticError(FormationsError):
    """Well-formed input with an invalid value (non-prime p, r < 1, ...)."""


class UnknownBuiltin(FormationsError):
    """Group spec names a builtin that is not in the table."""


class CorpusParseError(FormationsError):
    """Corpus file is malformed; message names the offending entry."""


class CacheVersionMismatch(FormationsError):
    """Lattice cache file was written by an incompatible schema version."""
