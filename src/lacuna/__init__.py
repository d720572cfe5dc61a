"""lacuna: pattern-avoiding nested cube sets with exact certificates.

Builds, to finite depth and in exact arithmetic, compact unions of
nested cubes inside [1,2]^d that avoid a given list of linear patterns on
scheduled tuples, together with machine-checkable certificates: per-entry
avoidance gaps and a mass-distribution lower bound for the generalized
Hausdorff measure of the limit set.

The API is the modules themselves (lacuna.engine, lacuna.certify, ...).
The package imports none of them, so each command loads only what it runs.
"""

__version__ = "0.1.0"
