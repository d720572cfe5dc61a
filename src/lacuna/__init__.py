"""lacuna: pattern-avoiding nested cube sets with exact certificates.

Builds, to finite depth and in exact arithmetic, compact unions of
nested cubes inside [1,2]^d that avoid a given list of linear patterns on
scheduled tuples, together with machine-checkable certificates: per-entry
avoidance gaps and a mass-distribution lower bound for the generalized
Hausdorff measure of the limit set.
"""

from .apps import (
    AppSpec,
    DifferenceTarget,
    complex_triplet_patterns,
    difference_points,
    parallelogram_patterns,
    plane_patterns,
    quotient_patterns,
    ratio_patterns,
    run_app,
    split_vector_pattern,
    trapezoid_patterns,
)
from .certify import (
    AvoidanceReport,
    GapCertificate,
    MeasureCertificate,
    box_dimension_profile,
    brute_oracle,
    certify_gap,
    certify_measure,
    covered_instance_scan,
    covered_violations,
    spot_check_gap,
)
from .dimfn import DimensionFunction, make_dimfn, parse_dimfn
from .engine import (
    ConstructionState,
    block_lattice,
    build,
    build_tree,
    init_state,
    place_on_lattice,
    read_tree,
    validate_structure,
    write_tree,
)
from .pattern import (
    LinearPattern,
    NormalizedPattern,
    eval_pattern,
    key_inequality_check,
    load_patterns,
    make_pattern,
    normalize,
    save_patterns,
)
from .schedule import (
    ScheduleEntry,
    compute_beta,
    compute_levels,
    level_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AppSpec",
    "AvoidanceReport",
    "ConstructionState",
    "DifferenceTarget",
    "DimensionFunction",
    "GapCertificate",
    "LinearPattern",
    "MeasureCertificate",
    "NormalizedPattern",
    "ScheduleEntry",
    "block_lattice",
    "box_dimension_profile",
    "brute_oracle",
    "build",
    "build_tree",
    "certify_gap",
    "certify_measure",
    "complex_triplet_patterns",
    "compute_beta",
    "compute_levels",
    "covered_instance_scan",
    "covered_violations",
    "difference_points",
    "eval_pattern",
    "init_state",
    "key_inequality_check",
    "level_profile",
    "load_patterns",
    "make_dimfn",
    "make_pattern",
    "normalize",
    "parallelogram_patterns",
    "parse_dimfn",
    "place_on_lattice",
    "plane_patterns",
    "quotient_patterns",
    "ratio_patterns",
    "read_tree",
    "run_app",
    "save_patterns",
    "split_vector_pattern",
    "spot_check_gap",
    "trapezoid_patterns",
    "validate_structure",
    "write_tree",
]
