"""Exact algebra of finite interval unions over a real-line universe.

Sets are stored in a canonical form: an ordered tuple of pairwise disjoint,
non-adjacent intervals with exact open/closed endpoints.  Two sets are equal
as sets of points if and only if they are structurally equal, which keeps set
equality decidable and bit-stable.  Finite endpoints are rationals
(``fractions.Fraction``); unbounded endpoints are the float infinities and
are always open.  In an interval's sort keys an integral endpoint is an
``int``, so merges, bisections and sorts over integral endpoints compare
ints in C and never reach ``Fraction`` comparison.

Because every operand is already sorted and canonical, union, intersection,
difference and the subset test are single linear merges over the two
interval tuples (two pointers, no re-sorting), and each builds only the
intervals of its result.  The complement inside a universe is the
universe's carrier minus the set, with no complement against the whole
line in between; symmetric difference is the union of the two differences.
The text form ``[a,b] | (c,d]`` is read by the system grammar
(:func:`parse_interval_set` hands it over).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union as _Union

NEG_INF = float("-inf")
POS_INF = float("inf")

Value = _Union[Fraction, float]


def as_value(x) -> Value:
    """Coerce ``x`` to a finite Fraction or an infinite float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a point value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x == POS_INF or x == NEG_INF:
            return x
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if s == "inf":
            return POS_INF
        if s == "-inf":
            return NEG_INF
        return Fraction(s)
    raise TypeError(f"cannot use {x!r} as an endpoint value")


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


@dataclass(frozen=True, slots=True)
class Endpoint:
    """One interval bound; infinite values are always open."""

    value: Value
    closed: bool

    def __post_init__(self):
        if self.closed and isinstance(self.value, float):
            raise ValueError("a closed endpoint must be finite")

    def flip(self) -> "Endpoint":
        return Endpoint(self.value, not self.closed)


def _key(e: Endpoint, eps_open: int):
    # (value, eps): eps 0 = the point itself, 1 = just above it, -1 = just
    # below it.  An integral Fraction enters as an int, which compares exactly.
    v = e.value
    if type(v) is Fraction and v.denominator == 1:
        v = v.numerator
    return (v, 0 if e.closed else eps_open)


def _succ(hi_key):
    # First position strictly after a high key; comparable with low keys.
    return (hi_key[0], hi_key[1] + 1)


@dataclass(frozen=True, slots=True)
class Interval:
    """A single nonempty interval with exact endpoint closedness.

    ``lo_key``/``hi_key`` are the sort keys of the first and last point the
    interval contains; they are derived from the endpoints, computed once,
    and take no part in equality or hashing.  An integral endpoint enters
    its key as an ``int``; nothing reads a value back out of a key.
    """

    lo: Endpoint
    hi: Endpoint
    lo_key: tuple = field(init=False, repr=False, compare=False)
    hi_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo_key, hi_key = _key(self.lo, 1), _key(self.hi, -1)
        if lo_key > hi_key:
            raise ValueError(f"empty interval: {self}")
        object.__setattr__(self, "lo_key", lo_key)
        object.__setattr__(self, "hi_key", hi_key)

    @classmethod
    def make(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> "Interval":
        lo_v, hi_v = as_value(lo), as_value(hi)
        if isinstance(lo_v, float):
            lo_closed = False
        if isinstance(hi_v, float):
            hi_closed = False
        return cls(Endpoint(lo_v, lo_closed), Endpoint(hi_v, hi_closed))

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
        if isinstance(self.lo.value, float) or isinstance(self.hi.value, float):
            return POS_INF
        return self.hi.value - self.lo.value

    def __str__(self) -> str:
        lb = "[" if self.lo.closed else "("
        rb = "]" if self.hi.closed else ")"
        return f"{lb}{format_value(self.lo.value)},{format_value(self.hi.value)}{rb}"


def _canonical(spans: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sort and merge overlapping or adjacent intervals."""
    return _join_sorted(sorted(spans, key=lambda iv: (iv.lo_key, iv.hi_key)))


def _join_sorted(ordered: Iterable[Interval]) -> tuple[Interval, ...]:
    """Merge overlapping or adjacent intervals given in ascending lo_key order."""
    out: list[Interval] = []
    for iv in ordered:
        if out and iv.lo_key <= _succ(out[-1].hi_key):
            if iv.hi_key > out[-1].hi_key:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of intervals; immutable and hashable.

    Construct through :meth:`of` / :meth:`from_intervals` (which normalize)
    rather than the raw constructor.
    """

    intervals: tuple[Interval, ...] = ()

    @classmethod
    def of(cls, *spans: Interval) -> "IntervalSet":
        return cls(_canonical(spans))

    @classmethod
    def from_intervals(cls, spans: Iterable[Interval]) -> "IntervalSet":
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
                    out.append(Interval(last_start.lo, first_end.hi))
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
            lo, lo_key = a.lo, a.lo_key  # where the uncut rest of a starts
            while j < nb and theirs[j].lo_key <= a.hi_key:
                b = theirs[j]
                if lo_key < b.lo_key:
                    out.append(Interval(lo, b.lo.flip()))
                if b.hi_key >= a.hi_key:
                    break  # b covers the rest of a, and may reach the next interval
                lo, lo_key = b.hi.flip(), _succ(b.hi_key)
                j += 1
            else:
                out.append(a if lo is a.lo else Interval(lo, a.hi))
        return IntervalSet(tuple(out))

    def __xor__(self, other: "IntervalSet") -> "IntervalSet":
        return (self - other) | (other - self)

    # -- reporting helpers -------------------------------------------------

    def measure(self, window: Interval) -> Value:
        """Total length of the part of the set inside ``window``."""
        clipped = self & IntervalSet((window,))
        total = Fraction(0)
        for iv in clipped.intervals:
            length = iv.length()
            if isinstance(length, float):
                return POS_INF
            total += length
        return total

    def __str__(self) -> str:
        if not self.intervals:
            return "empty"
        return " | ".join(str(iv) for iv in self.intervals)


def elementary_pieces(sets: Iterable[IntervalSet]) -> tuple[Interval, ...]:
    """The line cut at every finite endpoint of ``sets``, in ascending order:
    each endpoint as a point and each gap between or around endpoints as an
    open interval.  Every set built from ``sets`` by union, intersection and
    complement holds each piece wholly or not at all."""
    values = sorted({
        ep.value
        for s in sets
        for iv in s.intervals
        for ep in (iv.lo, iv.hi)
        if not isinstance(ep.value, float)
    })
    pieces = []
    below = Endpoint(NEG_INF, False)
    for v in values:
        pieces.append(Interval(below, Endpoint(v, False)))
        pieces.append(Interval.singleton(v))
        below = Endpoint(v, False)
    pieces.append(Interval(below, Endpoint(POS_INF, False)))
    return tuple(pieces)


_EMPTY = IntervalSet(())


@dataclass(frozen=True, slots=True)
class Universe:
    """The unity element: every set in a system lives inside ``carrier``."""

    carrier: IntervalSet

    def __post_init__(self):
        if self.carrier.is_empty():
            raise ValueError("universe must be nonempty")

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
