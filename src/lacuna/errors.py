"""Exception hierarchy for the lacuna engine.

Every failure mode that the CLI maps to an exit code or a machine-readable
error envelope has its own class here, so callers can distinguish a usage
error from a broken certificate.  The exit code follows from the class: a
UsageError exits 2, any other LacunaError exits 1.
"""

from __future__ import annotations


class LacunaError(Exception):
    """Base class for all lacuna errors."""


class UsageError(LacunaError):
    """A usage or configuration error (exit 2): bad arguments, malformed or
    unsupported input, or a request past a fixed limit."""


# --- dimension functions -------------------------------------------------

class RejectNonPositive(UsageError):
    """Gauge exponent must be positive."""


class RejectNotDominated(UsageError):
    """The requested gauge does not sit strictly below x^d."""


class OutOfDomain(LacunaError):
    """Evaluation argument outside the gauge's domain, which each comparison
    decides: 0 < r <= 1 for pow, 0 < r <= 1/2 with -ln r >= 1/s for powlog."""


class Undecidable(LacunaError):
    """Certified comparison still straddles the threshold at the precision cap.

    Callers must treat this as "not certified" (i.e. as False).
    """


# --- patterns -------------------------------------------------------------

class ZeroPattern(UsageError):
    """All coefficients vanish; there is nothing to avoid."""


class DimensionMismatch(LacunaError):
    """Evaluation points do not match the pattern's arity/dimension."""


# --- schedule / engine -----------------------------------------------------

class ScheduleOverflow(UsageError):
    """A build would go past the level cap or hold too many cubes
    (engine.MAX_LEAF_CUBES)."""


class PlacementFailure(LacunaError):
    """A lattice cube escaped its parent: the one geometric assertion of a
    placement (geometry.place_on_lattice).

    It cannot happen while beta >= compute_beta (ball fitting), which a
    build uses and every state checks, so it is an engine self-check,
    treated as an internal-consistency fatal error.
    """


class StructureViolation(LacunaError):
    """The recipe does not fit together: dimensions that differ, a schedule
    off the construction's conditions or edited, or an off-lattice side."""


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

class RejectUnit(UsageError):
    """Quotient target 1 is excluded by hypothesis."""


class RejectRange(UsageError):
    """Ratio parameter must lie in (1, oo)."""


class AllRowsZero(UsageError):
    """Every component of a vector-valued pattern vanishes."""


class DegenerateTriplet(UsageError):
    """Triplet entries must be pairwise distinct."""


class EnclosureTooWide(LacunaError):
    """The rational enclosure of an irrational target is too wide for the
    requested avoidance margin."""


# --- I/O and CLI ---------------------------------------------------------------

class UnsupportedDimension(UsageError):
    """The ambient dimension is past a fixed limit: d <= 5 for every command
    (tuple addresses have 32 digits), d <= 2 for the SVG export."""


class FormatError(UsageError):
    """Malformed input file (patterns, tree, app spec or points)."""
