"""Exact algebra of finite interval unions over a real-line universe.

Sets are stored in a canonical form: an ordered tuple of pairwise disjoint,
non-adjacent intervals.  An interval is the tuple of two sort keys
``(value, eps)``, one for the first and one for the last point it holds:
eps 0 is the point ``value`` itself (a closed end), 1 the point just above
it (an open low end) and -1 the point just below it (an open high end), so
keys compare as the points they stand for and intervals sort as their key
pairs.  Intervals, sets and universes are named tuples.  Two sets are equal
as sets of points if and only if they are structurally equal, which keeps
set equality decidable and bit-stable.  Values are canonical too
(:func:`as_value`): an ``int`` when finite and integral, else a
``fractions.Fraction`` when finite, else a float infinity (always open), so
parsing, sorts, merges and printing over integral ends stay on ints.  A
division of values goes through ``Fraction`` and ``as_value``.

Because every operand is already sorted and canonical, union, intersection,
difference and the subset test are single linear merges over the two
interval tuples (two pointers, no re-sorting), and each builds only the
intervals of its result, straight from the operands' keys.  The complement
inside a universe is the universe's carrier minus the set, with no
complement against the whole line in between; symmetric difference is the
union of the two differences.  The text form ``[a,b] | (c,d]`` is read by
the system grammar (:func:`parse_interval_set` hands it over).
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union as _Union

NEG_INF = float("-inf")
POS_INF = float("inf")

Value = _Union[int, Fraction, float]


def as_value(x) -> Value:
    """The canonical endpoint value of ``x``: an ``int`` for a finite integer,
    a ``Fraction`` for any other finite rational, a float for an infinity."""
    if isinstance(x, bool):
        raise TypeError("boolean is not a point value")
    if isinstance(x, str):
        x = x.strip()
        if x.isascii() and x.isdigit():
            return int(x)
        x = float(x) if x in ("inf", "-inf") else Fraction(x)
    if isinstance(x, int):
        return int(x)
    if isinstance(x, float):
        if x == POS_INF or x == NEG_INF:
            return x
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot use {x!r} as an endpoint value")
    return x.numerator if x.denominator == 1 else x


def format_value(v: Value) -> str:
    # The infinities are the only float values; a type test is much cheaper
    # than comparing a Fraction with a float.
    if isinstance(v, float):
        return "inf" if v > 0 else "-inf"
    try:
        return str(v)
    except ValueError:  # past the interpreter's int-to-str limit, which Decimal does not apply
        text = str(Decimal(v.numerator))
        return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"


def _succ(hi_key):
    # The low key of the first point after a high key.
    return (hi_key[0], hi_key[1] + 1)


def _pred(lo_key):
    # The high key of the last point before a low key.
    return (lo_key[0], lo_key[1] - 1)


class Interval(namedtuple("Interval", "lo_key hi_key")):
    """A single nonempty interval: the sort keys of the first and the last
    point it contains.  A low key's eps is 0 (closed) or 1 (open), a high
    key's 0 (closed) or -1 (open); an infinite end is open.  The raw
    constructor takes the keys as they are and rejects any that no interval
    has; :meth:`make` builds one from any values :func:`as_value` accepts.
    """

    __slots__ = ()

    def __new__(cls, lo_key, hi_key):
        (lo, lo_eps), (hi, hi_eps) = lo_key, hi_key
        if lo_eps not in (0, 1) or hi_eps not in (-1, 0):
            raise ValueError(f"not the keys of an interval: {lo_key}, {hi_key}")
        if (not lo_eps and isinstance(lo, float)) or (not hi_eps and isinstance(hi, float)):
            raise ValueError("a closed endpoint must be finite")
        self = tuple.__new__(cls, (lo_key, hi_key))
        if lo_key > hi_key:
            raise ValueError(f"empty interval: {self}")
        return self

    @classmethod
    def make(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> "Interval":
        lo_v, hi_v = as_value(lo), as_value(hi)
        return cls((lo_v, 0 if lo_closed and not isinstance(lo_v, float) else 1),
                   (hi_v, 0 if hi_closed and not isinstance(hi_v, float) else -1))

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls.make(lo, hi, True, True)

    @classmethod
    def closed_open(cls, lo, hi) -> "Interval":
        return cls.make(lo, hi, True, False)

    @classmethod
    def singleton(cls, p) -> "Interval":
        return cls.make(p, p, True, True)

    def length(self) -> Value:
        lo, hi = self.lo_key[0], self.hi_key[0]
        if isinstance(lo, float) or isinstance(hi, float):
            return POS_INF
        return hi - lo

    def __str__(self) -> str:
        (lo, lo_eps), (hi, hi_eps) = self.lo_key, self.hi_key
        return f"{'(' if lo_eps else '['}{format_value(lo)},{format_value(hi)}{')' if hi_eps else ']'}"


def _canonical(spans: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sort and merge overlapping or adjacent intervals."""
    return _join_sorted(sorted(spans))


def _join_sorted(ordered: Iterable[Interval]) -> tuple[Interval, ...]:
    """Merge overlapping or adjacent intervals given in ascending lo_key order."""
    out: list[Interval] = []
    for iv in ordered:
        if out and iv.lo_key <= _succ(out[-1].hi_key):
            if iv.hi_key > out[-1].hi_key:
                out[-1] = Interval(out[-1].lo_key, iv.hi_key)
        else:
            out.append(iv)
    return tuple(out)


class IntervalSet(namedtuple("IntervalSet", "intervals", defaults=((),))):
    """Canonical finite union of intervals; immutable and hashable.

    Construct through :meth:`of`, which normalizes, rather than the raw
    constructor.
    """

    __slots__ = ()

    @classmethod
    def of(cls, *spans: Interval) -> "IntervalSet":
        return cls(_canonical(spans))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    # -- predicates ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def contains(self, p) -> bool:
        key = (as_value(p), 0)
        for iv in self.intervals:
            if iv.lo_key > key:
                return False
            if key <= iv.hi_key:
                return True
        return False

    def is_subset(self, other: "IntervalSet") -> bool:
        # Each interval of self must lie inside one interval of other: the
        # first one of other that does not end before it starts.
        theirs = other.intervals
        n = len(theirs)
        j = 0
        for a in self.intervals:
            while j < n and theirs[j].hi_key < a.lo_key:
                j += 1
            if j == n or theirs[j].lo_key > a.lo_key or a.hi_key > theirs[j].hi_key:
                return False
        return True

    # -- core operations -------------------------------------------------

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        mine, theirs = self.intervals, other.intervals
        if not theirs:
            return self
        if not mine:
            return other
        # One merge of the two sorted tuples by lo_key, then one joining pass.
        na, nb = len(mine), len(theirs)
        ordered: list[Interval] = []
        i = j = 0
        while i < na and j < nb:
            if mine[i].lo_key <= theirs[j].lo_key:
                ordered.append(mine[i])
                i += 1
            else:
                ordered.append(theirs[j])
                j += 1
        ordered += mine[i:] or theirs[j:]
        return IntervalSet(_join_sorted(ordered))

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        # Every nonempty a & b of two canonical operands is a whole component
        # of the result, and the two-pointer sweep meets them in order, so
        # the pieces are canonical as they come.
        mine, theirs = self.intervals, other.intervals
        na, nb = len(mine), len(theirs)
        out: list[Interval] = []
        i = j = 0
        while i < na and j < nb:
            a, b = mine[i], theirs[j]
            if a.hi_key <= b.hi_key:
                first_end = a
                i += 1
            else:
                first_end = b
                j += 1
            last_start = a if a.lo_key >= b.lo_key else b
            if last_start.lo_key <= first_end.hi_key:
                if last_start is first_end:
                    out.append(last_start)
                else:
                    out.append(Interval(last_start.lo_key, first_end.hi_key))
        return IntervalSet(tuple(out))

    def complement_in(self, universe: "Universe | IntervalSet") -> "IntervalSet":
        carrier = universe.carrier if isinstance(universe, Universe) else universe
        if not self.is_subset(carrier):
            raise ValueError(f"{self} is not contained in the universe {carrier}")
        return carrier - self

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        # One two-pointer sweep: each interval of self is cut by the
        # intervals of other that meet it, and only the pieces left between
        # them are built.  A piece lies inside one interval of self and
        # between two of other, so the pieces are canonical as they come.
        theirs = other.intervals
        nb = len(theirs)
        out: list[Interval] = []
        j = 0
        for a in self.intervals:
            while j < nb and theirs[j].hi_key < a.lo_key:
                j += 1
            lo = a.lo_key  # where the uncut rest of a starts
            while j < nb and theirs[j].lo_key <= a.hi_key:
                b = theirs[j]
                if lo < b.lo_key:
                    out.append(Interval(lo, _pred(b.lo_key)))
                if b.hi_key >= a.hi_key:
                    break  # b covers the rest of a, and may reach the next interval
                lo = _succ(b.hi_key)
                j += 1
            else:
                out.append(a if lo is a.lo_key else Interval(lo, a.hi_key))
        return IntervalSet(tuple(out))

    def __xor__(self, other: "IntervalSet") -> "IntervalSet":
        return (self - other) | (other - self)

    # -- reporting helpers -------------------------------------------------

    def measure(self, window: Interval) -> Value:
        """Total length of the part of the set inside ``window``."""
        lengths = [iv.length() for iv in (self & IntervalSet((window,))).intervals]
        return POS_INF if POS_INF in lengths else sum(lengths)

    def __str__(self) -> str:
        if not self.intervals:
            return "empty"
        return " | ".join(map(Interval.__str__, self.intervals))


def elementary_pieces(sets: Iterable[IntervalSet]) -> tuple[Interval, ...]:
    """The line cut at every finite endpoint of ``sets``, in ascending order:
    each endpoint as a point and each gap between or around endpoints as an
    open interval.  Every set built from ``sets`` by union, intersection and
    complement holds each piece wholly or not at all."""
    values = sorted({
        key[0]
        for s in sets
        for iv in s.intervals
        for key in (iv.lo_key, iv.hi_key)
        if not isinstance(key[0], float)
    })
    pieces = []
    below = (NEG_INF, 1)
    for v in values:
        point = (v, 0)
        pieces += (Interval(below, (v, -1)), Interval(point, point))
        below = (v, 1)
    pieces.append(Interval(below, (POS_INF, -1)))
    return tuple(pieces)


_EMPTY = IntervalSet(())


class Universe(namedtuple("Universe", "carrier")):
    """The unity element: every set in a system lives inside ``carrier``."""

    __slots__ = ()

    def __new__(cls, carrier: IntervalSet):
        if carrier.is_empty():
            raise ValueError("universe must be nonempty")
        return tuple.__new__(cls, (carrier,))

    @classmethod
    def of(cls, *spans: Interval) -> "Universe":
        return cls(IntervalSet.of(*spans))

    def contains_set(self, s: IntervalSet) -> bool:
        return s.is_subset(self.carrier)

    def complement(self, s: IntervalSet) -> IntervalSet:
        return s.complement_in(self.carrier)

    def __str__(self) -> str:
        return str(self.carrier)


def parse_interval_set(text: str, universe: "Universe | None" = None) -> IntervalSet:
    """Parse a set literal with the system format's grammar
    (:func:`setcons.dsl.parse_set_literal`); bad input raises a ValueError."""
    from .dsl import parse_set_literal  # dsl imports this module

    return parse_set_literal(text, universe)
