from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from lacuna.dimfn import make_dimfn
from lacuna.engine import Level, build, init_state
from lacuna.pattern import make_pattern


def walk_levels(state, stop=None):
    """Levels 0..stop of a state (stop defaults to its depth), walked once
    and returned: the one way a test reads a state's levels.  A test that
    reads several levels walks once and indexes the list; a test that reads
    one level k walks only as far as k and takes the last."""
    stop = state.depth if stop is None else stop
    return [level for _, level in state.walk(stop)]


def with_levels(state, levels):
    """A copy of a state whose walk yields the given levels in place of the
    ones its recipe makes: the one way a test corrupts geometry.  Its level
    0 is levels[0], so side_num reads a scaled level 0's denominator."""
    copy = state.replace()
    copy._level0 = levels[0]
    copy.walk = lambda stop: enumerate(levels[: stop + 1])
    return copy


def _move_cube(state, k, i, lower):
    """A copy of a built state with cube i of level k moved to the rational
    lower corner `lower`.  When the corner is off level k's denominator,
    every level's denominator and corners are scaled by one factor, so the
    sides and the ratios between levels stay as built."""
    levels, d = walk_levels(state), state.d
    den = levels[k].den
    f = lcm(*(Fraction(x * den).denominator for x in lower))
    levels = [Level(lvl.den * f, [f * x for x in lvl.lowers]) for lvl in levels]
    levels[k].lowers[i * d : (i + 1) * d] = [int(x * den * f) for x in lower]
    return with_levels(state, levels)


@pytest.fixture(scope="session")
def move_cube():
    """Corrupt the geometry of a built state in memory: tree files hold only
    the recipe, so a corrupted cube can no longer come from a file."""
    return _move_cube


@pytest.fixture(scope="session")
def ap_pattern():
    return make_pattern(1, [[1], [-2], [1]])


@pytest.fixture(scope="session")
def quotient2_pattern():
    return make_pattern(1, [[2], [-1]])


@pytest.fixture(scope="session")
def sqrt_gauge():
    return make_dimfn("pow", Fraction(1, 2), 1)


@pytest.fixture(scope="session")
def ap_tree_12(ap_pattern, sqrt_gauge):
    """Depth-12 build for the 3-term AP pattern under h = x^(1/2)."""
    return build(init_state(1, [ap_pattern], sqrt_gauge), 12)


@pytest.fixture(scope="session")
def ap_tree_7(ap_pattern, sqrt_gauge):
    return build(init_state(1, [ap_pattern], sqrt_gauge), 7)
