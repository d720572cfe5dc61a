from __future__ import annotations

import ast
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacuna
from lacuna.errors import FormatError
from lacuna.differences import exp_bounds
from lacuna.lnexp import ln2_bounds, ln_bounds
from lacuna.engine import SQRT_PRECISION, sqrt_d_bounds
from lacuna.qmath import decimal_ratio, digit_limit, format_rational, parse_rational
from reference import iroot, nth_root_bounds, perfect_root

mpmath.mp.dps = 60


def as_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


positive_rationals = st.fractions(
    min_value=Fraction(1, 10**9), max_value=Fraction(10**9), max_denominator=10**9
)


class TestParsing:
    def test_roundtrip(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert format_rational(Fraction(6, 4)) == "3/2"

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(st.fractions(max_denominator=10**30), st.integers(-(10**30), 10**30)))
    def test_format_rational_writes_the_fraction(self, x):
        # one renderer (format_ratio) for both: 'p' or 'p/q' in lowest terms
        assert format_rational(x) == str(Fraction(x))

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "3/0", "", "a/b", "1/-2"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    def test_decimal_ratio_is_truncation(self):
        assert decimal_ratio(1175, 1152, 6) == "1.019965"
        assert decimal_ratio(-1, 3, 4) == "-0.3333"
        assert decimal_ratio(5, 1, 0) == "5"
        assert decimal_ratio(2350, 2304, 6) == "1.019965"  # unreduced

    def test_digit_limit_is_zero_without_the_interpreters_limit(self, monkeypatch):
        # 3.10.0-3.10.6 have no sys.get_int_max_str_digits
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        assert digit_limit() == 4300
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert digit_limit() == 0


class TestRoots:
    @pytest.mark.parametrize(
        "n,q,want",
        [(0, 3, 0), (1, 5, 1), (8, 3, 2), (80, 3, 4), (81, 4, 3), (3**45, 45, 3)],
    )
    def test_iroot_exact_window(self, n, q, want):
        assert iroot(n, q) == want
        assert iroot(n + 1, q) >= want
        if n > 0:
            assert iroot(n - 1, q) <= want

    @given(n=st.integers(min_value=0, max_value=10**30), q=st.integers(2, 7))
    @settings(max_examples=150)
    def test_iroot_floor_property(self, n, q):
        r = iroot(n, q)
        assert r**q <= n < (r + 1) ** q

    def test_perfect_root(self):
        assert perfect_root(Fraction(1, 576), 2) == Fraction(1, 24)
        assert perfect_root(Fraction(27, 8), 3) == Fraction(3, 2)
        assert perfect_root(Fraction(2), 2) is None

    @given(x=positive_rationals, q=st.integers(2, 5))
    @settings(max_examples=100)
    def test_nth_root_encloses(self, x, q):
        lo, hi = nth_root_bounds(x, q, 40)
        assert hi - lo <= Fraction(1, 2**40)
        assert lo**q <= x <= hi**q

    def test_sqrt_bounds_exact_square(self):
        assert nth_root_bounds(Fraction(4), 2, 20) == (Fraction(2), Fraction(2))
        lo, hi = nth_root_bounds(Fraction(2), 2, 30)
        assert lo < hi and lo * lo < 2 < hi * hi

    @pytest.mark.parametrize("d", range(1, 10))
    def test_sqrt_d_bounds_are_the_root_enclosure(self, d):
        # integer square roots give the enclosure the q-th root code gave
        assert sqrt_d_bounds(d) == nth_root_bounds(Fraction(d), 2, SQRT_PRECISION)


class TestTranscendentals:
    @given(x=positive_rationals)
    @settings(max_examples=80, deadline=None)
    def test_ln_encloses(self, x):
        lo, hi = ln_bounds(x, 40)
        true = mpmath.log(as_mpf(x))
        assert as_mpf(lo) <= true <= as_mpf(hi)
        assert hi - lo <= Fraction(1, 2**40)

    def test_ln2(self):
        lo, hi = ln2_bounds(50)
        assert as_mpf(lo) <= mpmath.log(2) <= as_mpf(hi)
        assert hi - lo <= Fraction(1, 2**50)

    @given(
        x=st.fractions(
            min_value=Fraction(-20), max_value=Fraction(20), max_denominator=10**6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_encloses(self, x):
        lo, hi = exp_bounds(x, 40)
        true = mpmath.e ** as_mpf(x)
        assert as_mpf(lo) <= true <= as_mpf(hi)
        assert hi - lo <= Fraction(1, 2**40)

    def test_ln_of_one_is_zero(self):
        assert ln_bounds(Fraction(1), 30) == (Fraction(0), Fraction(0))


#: The math functions the package may call: each is exact on integers.
EXACT_MATH = {"ceil", "gcd", "isqrt", "lcm", "perm"}


def float_uses(tree: ast.AST) -> list[str]:
    """Where a module's syntax reaches a float: a float literal, the name
    float, or a math name outside EXACT_MATH, imported or as an attribute
    of an imported math module."""
    found = []
    math_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {a.asname or a.name for a in node.names if a.name == "math"}
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {line}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {line}: the name float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {line}: math.{a.name}" for a in node.names
                      if a.name not in EXACT_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in EXACT_MATH):
            found.append(f"line {line}: math.{node.attr}")
    return found


def test_no_float_reaches_the_package():
    # exactness is not up for trade: no float on any path, certified or not
    package = Path(lacuna.__file__).parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if (uses := float_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


@pytest.mark.parametrize("source, flagged", [
    ("x = 0.5", True),
    ("y = float(1)", True),
    ("from math import sqrt", True),
    ("import math\nz = math.log(2)", True),
    ("import math as m\nz = m.floor(1)", True),
    ("from math import ceil, gcd\nimport math\nz = math.lcm(2, 3)", False),
])
def test_float_guard_sees_each_kind(source, flagged):
    assert bool(float_uses(ast.parse(source))) == flagged
