import random
import sys
from fractions import Fraction

import pytest

from setcons.intervals import Interval, IntervalSet, Universe, as_value, format_value, parse_interval_set

from helpers import HALF_LINE, assert_same_membership, iv, probe_points, random_set
from oracles import full_line


def test_normalize_merges_adjacent():
    s = IntervalSet.of(Interval.closed(4, 5), Interval.make(5, 7, False, True))
    assert s == iv("[4,7]")
    assert_same_membership(s, lambda a, b: a or b, iv("[4,5]"), iv("(5,7]"))


def test_normalize_empty():
    assert IntervalSet.of() == IntervalSet.empty()


def test_normalize_merges_overlap():
    s = IntervalSet.of(Interval.closed(2, 5), Interval.closed(4, 7))
    assert s == iv("[2,7]")
    assert_same_membership(s, lambda a, b: a or b, iv("[2,5]"), iv("[4,7]"))


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        s = random_set(rng)
        assert IntervalSet.of(*s.intervals) == s


def test_normalize_keeps_true_gaps():
    s = IntervalSet.of(Interval.closed_open(4, 5), Interval.make(5, 7, False, True))
    assert len(s.intervals) == 2
    assert not s.contains(5)


def test_union_intersect_references():
    assert iv("[4,7]") & iv("[8,11]") == IntervalSet.empty()
    assert iv("[2,5]") | (iv("[4,7]") & iv("[8,11]")) == iv("[2,5]")


def test_idempotence():
    rng = random.Random(5)
    for _ in range(20):
        s = random_set(rng)
        assert (s | s) == s
        assert (s & s) == s


def test_complement_flips_endpoints():
    assert iv("[4,7]").complement_in(HALF_LINE) == iv("[0,4) | (7,inf)")
    assert iv("[8,11]").complement_in(HALF_LINE) == iv("[0,8) | (11,inf)")


def test_complement_axioms():
    u = HALF_LINE
    assert IntervalSet.empty().complement_in(u) == u.carrier
    assert u.carrier.complement_in(u) == IntervalSet.empty()
    rng = random.Random(3)
    for _ in range(30):
        s = random_set(rng) & u.carrier
        c = s.complement_in(u)
        assert (s | c) == u.carrier
        assert (s & c) == IntervalSet.empty()


def test_complement_requires_containment():
    u = Universe.of(Interval.closed(0, 10))
    with pytest.raises(ValueError):
        iv("[5,20]").complement_in(u)


def test_difference_and_sym_diff():
    assert iv("[2,5]") ^ iv("[2,5]") == IntervalSet.empty()
    assert iv("[2,5]") ^ iv("[4,7]") == iv("[2,4) | (5,7]")
    assert iv("[2,5]") - IntervalSet.empty() == iv("[2,5]")


def test_contains_point_exact_at_endpoints():
    s = iv("[0,4) | (7,inf)")
    assert s.contains(0) and s.contains(3)
    assert not s.contains(4)
    assert not s.contains(7) and s.contains(Fraction(71, 10))


def test_equals_is_canonical():
    assert (iv("[4,5]") | iv("(5,7]")) == iv("[4,7]")
    assert iv("[4,5) | [5,7]") == iv("[4,7]")


def test_equals_matches_probe_extensionality():
    rng = random.Random(27)
    for _ in range(60):
        s, t = random_set(rng), random_set(rng)
        probe_equal = all(s.contains(p) == t.contains(p) for p in probe_points(s, t))
        assert (s == t) == probe_equal


def test_measure():
    assert iv("[2,5]").measure(Interval.closed(0, 10)) == 3
    assert iv("[0,4) | (7,inf)").measure(Interval.closed(0, 10)) == 7
    assert iv("empty").measure(Interval.closed(0, 10)) == 0


def test_measure_of_an_integral_set_is_an_int():
    # Integral lengths add up as ints, never as Fractions.
    window = Interval.closed(0, 10)
    for text in ("[2,5]", "[0,4) | (7,12]", "[3,3]", "empty"):
        assert type(iv(text).measure(window)) is int
    assert iv("[1/2,3]").measure(window) == Fraction(5, 2)


def test_singletons():
    s = IntervalSet.of(Interval.singleton(13))
    assert s.contains(13) and not s.contains(Fraction(129, 10))
    assert str(s) == "[13,13]"


def test_membership_probes_all_ops():
    rng = random.Random(42)
    for _ in range(60):
        s, t = random_set(rng), random_set(rng)
        assert_same_membership(s | t, lambda a, b: a or b, s, t)
        assert_same_membership(s & t, lambda a, b: a and b, s, t)
        assert_same_membership(s - t, lambda a, b: a and not b, s, t)
        assert_same_membership(s ^ t, lambda a, b: a != b, s, t)
        c = s.complement_in(full_line())
        assert_same_membership(c, lambda a: not a, s)


def test_boolean_algebra_axioms():
    rng = random.Random(9)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(40):
        a = random_set(rng) & u.carrier
        b = random_set(rng) & u.carrier
        c = random_set(rng) & u.carrier
        assert (a | (b | c)) == ((a | b) | c)
        assert (a & (b & c)) == ((a & b) & c)
        assert (a | b) == (b | a)
        assert (a & b) == (b & a)
        assert (a | (a & b)) == a
        assert (a & (a | b)) == a
        assert (a | (b & c)) == ((a | b) & (a | c))
        assert (a & (b | c)) == ((a & b) | (a & c))
        na = a.complement_in(u)
        assert (a | na) == u.carrier
        assert (a & na) == IntervalSet.empty()


def test_partial_order_equivalence():
    rng = random.Random(17)
    for _ in range(60):
        a, b = random_set(rng), random_set(rng)
        meets = (a & b) == a
        joins = (a | b) == b
        assert meets == joins == a.is_subset(b)


def test_literal_round_trip():
    rng = random.Random(23)
    for _ in range(40):
        s = random_set(rng)
        assert parse_interval_set(str(s)) == s
    assert parse_interval_set("empty") == IntervalSet.empty()
    assert parse_interval_set("X", HALF_LINE) == HALF_LINE.carrier
    assert str(iv("(-inf,3] | [7/2,4)")) == "(-inf,3] | [7/2,4)"


def test_literal_takes_ascii_digits_only():
    with pytest.raises(ValueError) as err:
        parse_interval_set("[0,\u0663]")
    assert [d.render() for d in err.value.diagnostics] == ["1:4: error: unexpected character '\u0663'"]


def test_literal_rejects_closed_infinity():
    with pytest.raises(ValueError):
        parse_interval_set("[2,inf]")
    with pytest.raises(ValueError, match="closed endpoint must be finite"):
        Interval((2, 0), (float("inf"), 0))


def test_interval_is_its_two_keys():
    assert Interval._fields == ("lo_key", "hi_key")
    assert Interval.make(0, float("inf"), False, True) == Interval((0, 1), (float("inf"), -1))
    assert str(Interval((Fraction(1, 2), 0), (3, -1))) == "[1/2,3)"


@pytest.mark.parametrize("lo_key, hi_key", [
    ((float("-inf"), 0), (1, 0)),
    ((0, 0), (float("inf"), 0)),
    ((0, -1), (1, 0)),
    ((0, 2), (1, 0)),
    ((0, 0), (1, 1)),
    ((1, 0), (0, 0)),
], ids=["closed -inf low", "closed inf high", "low eps -1", "low eps 2", "high eps 1", "reversed"])
def test_raw_constructor_rejects_malformed_keys(lo_key, hi_key):
    with pytest.raises(ValueError):
        Interval(lo_key, hi_key)


def test_interval_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        Interval.closed(5, 2)
    with pytest.raises(ValueError):
        Interval.closed_open(3, 3)


def test_universe_nonempty():
    with pytest.raises(ValueError):
        Universe(IntervalSet.empty())


@pytest.mark.parametrize("digits", [1, 639, 640, 641, 4300, 4301, 9000])
def test_format_value_prints_any_length(digits):
    # Under the smallest conversion limit Python allows, values of any
    # length print as Python's own conversion prints them without a limit.
    values = [10**digits - 1, Fraction(-(10**digits) - 7, 3), Fraction(10**digits + 1, 10**digits)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [format_value(v) for v in values]
    finally:
        sys.set_int_max_str_digits(0)
    try:
        want = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


@pytest.mark.parametrize("x", [7, "7", " 7 ", "4/2", "4.0", "-0", 2.0, Fraction(6, 3)])
def test_as_value_gives_an_int_for_an_integral_value(x):
    value = as_value(x)
    assert type(value) is int and value == Fraction(x.strip() if isinstance(x, str) else x)


@pytest.mark.parametrize("x", ["7/2", "3.5", 3.5, Fraction(7, 2)])
def test_as_value_gives_a_fraction_for_any_other_finite_value(x):
    value = as_value(x)
    assert type(value) is Fraction and value == Fraction(7, 2)


@pytest.mark.parametrize("x, want", [("inf", float("inf")), (" -inf", float("-inf")), (float("inf"), float("inf"))])
def test_as_value_gives_a_float_for_an_infinity(x, want):
    assert as_value(x) == want and type(as_value(x)) is float


@pytest.mark.parametrize("x", [True, False, None, b"7"])
def test_as_value_refuses_other_types(x):
    with pytest.raises(TypeError):
        as_value(x)
