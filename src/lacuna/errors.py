"""Exception hierarchy for the lacuna engine.

Every failure mode that the CLI maps to an exit code or a machine-readable
error envelope has its own class here, so callers can distinguish a usage
error from a broken certificate.
"""

from __future__ import annotations


class LacunaError(Exception):
    """Base class for all lacuna errors."""


# --- dimension functions -------------------------------------------------

class RejectNonPositive(LacunaError):
    """Gauge exponent must be positive."""


class RejectNotDominated(LacunaError):
    """The requested gauge does not sit strictly below x^d."""


class OutOfDomain(LacunaError):
    """Evaluation argument outside (0, domain_cap]."""


class Undecidable(LacunaError):
    """Certified comparison still straddles the threshold at the precision cap.

    Callers must treat this as "not certified" (i.e. as False).
    """


# --- patterns -------------------------------------------------------------

class ZeroPattern(LacunaError):
    """All coefficients vanish; there is nothing to avoid."""


class DimensionMismatch(LacunaError):
    """Evaluation points do not match the pattern's arity/dimension."""


# --- schedule / engine -----------------------------------------------------

class ScheduleOverflow(LacunaError):
    """A build would go past the level cap or hold too many cubes
    (engine.MAX_LEAF_CUBES)."""


class Starved(LacunaError):
    """No admissible cube tuple exists yet; the build must advance first."""


class PlacementFailure(LacunaError):
    """A lattice cube escaped its parent.

    This cannot happen when the ball-fitting certificate for beta holds, so
    it is treated as an internal-consistency fatal error.
    """


class StructureViolation(LacunaError):
    """Nestedness, counts, side lengths or tiling of the cube tree are broken."""


# --- certification ----------------------------------------------------------

class GapViolated(LacunaError):
    """A placed cube does not have the certified lattice form / gap."""


class MeasureViolated(LacunaError):
    """A per-level mass bound failed (wrong avoidance-level schedule)."""

    def __init__(self, level: int, message: str = ""):
        self.level = level
        super().__init__(message or f"mass bound failed at level {level}")


class EntryNotProcessed(LacunaError):
    """Certification was requested for a schedule entry the build never reached."""


# --- application builders ----------------------------------------------------

class RejectUnit(LacunaError):
    """Quotient target 1 is excluded by hypothesis."""


class RejectRange(LacunaError):
    """Ratio parameter must lie in (1, oo)."""


class AllRowsZero(LacunaError):
    """Every component of a vector-valued pattern vanishes."""


class DegenerateTriplet(LacunaError):
    """Triplet entries must be pairwise distinct."""


class EnclosureTooWide(LacunaError):
    """The rational enclosure of an irrational target is too wide for the
    requested avoidance margin."""


# --- I/O and CLI ---------------------------------------------------------------

class UnsupportedDimension(LacunaError):
    """The requested export only exists for small ambient dimension."""


class FormatError(LacunaError):
    """Malformed input file (patterns, tree, app spec or points)."""
