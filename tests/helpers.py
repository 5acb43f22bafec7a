"""Shared test utilities: reference systems, random generators, and the
independent oracles (membership probes, brute-force permutation search,
direct neighborhood simulation) used to cross-check the library."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from setcons.boolmat import BoolMatrix
from setcons.expr import Difference, EmptyLit, SetExpr, SetMap, SymDiff, UniverseLit, Var
from setcons.intervals import Interval, IntervalSet, Universe, parse_interval_set

from oracles import FnMap, as_set_map, ends, entry, from_rows

# -- reference systems -------------------------------------------------------

HALF_LINE = Universe.of(Interval.closed_open(0, float("inf")))
BOX200 = Universe.of(Interval.closed(0, 200))
UNIT = Universe.of(Interval.closed(0, 1))


def iv(text: str, universe: Universe | None = None) -> IntervalSet:
    return parse_interval_set(text, universe)


def ref3_binary() -> FnMap:
    """Three-bit map with two equilibria (one attractive) and a 2-cycle."""

    def fn(x):
        x1, x2, x3 = x
        return (
            x3 & (x1 | (1 - x2)),
            (x3 & (x1 | x2)) | ((1 - x3) & ((1 - x1) | x2)),
            x1,
        )

    return FnMap(3, fn)


def cyclic3_map() -> SetMap:
    """Three-variable set map whose incidence has a self-loop."""
    return SetMap(
        (
            Var(0) | (Var(1) & Var(2)),
            Var(0) | ~Var(1),
            ~Var(0) & ~Var(1) & ~Var(2),
        ),
        HALF_LINE,
    )


CYCLIC3_START = (iv("[2,5]"), iv("[4,7]"), iv("[8,11]"))


def frozen_map(rules: Sequence[SetExpr], universe: Universe, *constants: IntervalSet) -> SetMap:
    """The map of a system with these ``rules`` and named ``constants``, in
    the parser's form: constant j is the variable ``len(rules) + j``, with
    the identity rule and frozen at its value."""
    n = len(rules)
    return SetMap(tuple(rules) + tuple(Var(n + j) for j in range(len(constants))), universe, constants)


def pinned6_map(pinned: IntervalSet | None = None) -> SetMap:
    """Six agents whose third rule is pinned to a constant set C, the
    seventh variable."""
    c = pinned if pinned is not None else iv("[40,60] | [100,120]")
    return frozen_map(
        (
            Var(2) | (Var(1) & Var(4)),
            Var(2),
            Var(6),
            Var(0) | (Var(1) & Var(2)) | (Var(4) & Var(5)),
            Var(1) & Var(2),
            (Var(0) & Var(2)) | Var(1) | Var(4),
        ),
        BOX200,
        c,
    )


def unit_embedding_of_ref3() -> SetMap:
    """The three-bit reference map lifted to sets over [0,1] (single cell)."""
    return SetMap(
        (
            Var(2) & (Var(0) | ~Var(1)),
            (Var(2) & (Var(0) | Var(1))) | (~Var(2) & (~Var(0) | Var(1))),
            Var(0),
        ),
        UNIT,
    )


# -- random generators --------------------------------------------------------


def random_set(rng: random.Random, lo=0, hi=24, max_parts=3, denominator=4) -> IntervalSet:
    """Union of up to max_parts rational-endpoint intervals inside [lo, hi]."""
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        a = Fraction(rng.randint(lo * denominator, hi * denominator), denominator)
        b = Fraction(rng.randint(lo * denominator, hi * denominator), denominator)
        if a > b:
            a, b = b, a
        if a == b:
            parts.append(Interval.singleton(a))
        else:
            parts.append(Interval.make(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet.of(*parts)


def random_word(rng: random.Random, k: int) -> int:
    """A k-bit word drawn one bit at a time, cell 0 first."""
    word = 0
    for h in range(k):
        word |= rng.randint(0, 1) << h
    return word


def random_expr(rng: random.Random, n: int, depth: int) -> SetExpr:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Var(rng.randrange(n))
        if roll < 0.9:
            return EmptyLit()
        return UniverseLit()
    op = rng.randrange(5)
    if op == 0:
        return ~random_expr(rng, n, depth - 1)
    left = random_expr(rng, n, depth - 1)
    right = random_expr(rng, n, depth - 1)
    return (left | right, left & right, Difference(left, right), SymDiff(left, right))[op - 1]


def random_set_map(rng: random.Random, n: int, depth: int, universe: Universe) -> SetMap:
    return SetMap(tuple(random_expr(rng, n, depth) for _ in range(n)), universe)


def random_bool_matrix(rng: random.Random, n: int, density: float = 0.35) -> BoolMatrix:
    return from_rows(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    )


def random_binary_map(rng: random.Random, n: int) -> FnMap:
    table = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(1 << n)]
    return FnMap(n, lambda x: table[sum(bit << j for j, bit in enumerate(x))])


# -- oracles -------------------------------------------------------------------


def probe_points(*sets: IntervalSet) -> list[Fraction]:
    """Rational probes at, just around, and between every finite endpoint."""
    values = set()
    for s in sets:
        for interval in s.intervals:
            for value, _ in ends(interval):
                if not isinstance(value, float):
                    values.add(value)
    points = set()
    offsets = (Fraction(0), Fraction(1, 13), Fraction(-1, 13), Fraction(1), Fraction(-1))
    for v in values:
        for off in offsets:
            points.add(v + off)
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        points.add(Fraction(a + b, 2))
    points.update((Fraction(-1000), Fraction(1000), Fraction(1, 2)))
    return sorted(points)


def is_canonical_value(v) -> bool:
    """An endpoint value of the canonical type: an ``int`` exactly when it
    is finite and integral, a ``Fraction`` for any other finite value, and a
    float only for an infinity."""
    if isinstance(v, float):
        return math.isinf(v)
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def assert_canonical_values(*sets: IntervalSet) -> None:
    for s in sets:
        for interval in s.intervals:
            for value, _ in ends(interval):
                assert is_canonical_value(value), f"{value!r} in {s}"


def assert_same_membership(result: IntervalSet, expected_fn, *operands: IntervalSet) -> int:
    """Check ``result`` against a pointwise boolean combination of the
    operands' memberships; returns the number of probes evaluated."""
    count = 0
    for p in probe_points(result, *operands):
        want = expected_fn(*(s.contains(p) for s in operands))
        assert result.contains(p) == want, f"probe {p}: got {result.contains(p)}, want {want}"
        count += 1
    return count


def brute_force_triangularizable(a: BoolMatrix) -> bool:
    """Search all n! permutations for a strictly lower or upper conjugate."""
    n = a.n
    for perm in itertools.permutations(range(n)):
        lower = all(
            entry(a, perm[i], perm[j]) == 0 for i in range(n) for j in range(i, n)
        )
        if lower:
            return True
        upper = all(
            entry(a, perm[i], perm[j]) == 0 for i in range(n) for j in range(0, i + 1)
        )
        if upper:
            return True
    return False


def direct_vnn_verdict(f: FnMap, x_eq) -> bool:
    """Neighborhood attractiveness by plain simulation: confinement of one
    step plus absorption of every neighbor within n steps."""
    hood = {x_eq}
    for j in range(f.n):
        hood.add(x_eq[:j] + (1 - x_eq[j],) + x_eq[j + 1 :])
    if any(f.step(y) not in hood for y in hood):
        return False
    for y in hood:
        state = y
        for _ in range(f.n):
            state = f.step(state)
        if state != x_eq:
            return False
    return True


def consensus_oracle(linear) -> IntervalSet:
    """Brute force through the encoded system: a cell belongs to the
    consensus region iff the all-agents-on-this-cell state is fixed by the
    translated map."""
    from setcons.encoding import build_partition, translate_map

    from oracles import cell_map

    entries = [e for row in linear.entries for e in row]
    p = build_partition([e for e in entries if not e.is_empty()], linear.universe)
    enc = translate_map(as_set_map(linear), p)
    n = len(linear.entries)
    region = IntervalSet.empty()
    for h in range(p.kappa):
        g = cell_map(enc, h)
        pinned = tuple((w >> h) & 1 for w in enc.pinned_words)
        state = (1,) * n + pinned
        if g.step(state)[:n] == (1,) * n:
            region = region | p.regions[h]
    return region


@dataclass(frozen=True)
class TopologyView:
    """Communication structure read off the incidence matrix: agent j feeds
    agent i exactly when rule i depends on variable j."""

    agents: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # (source j, target i)

    @classmethod
    def from_incidence(cls, agents: Sequence[str], b: BoolMatrix) -> "TopologyView":
        edges = [(j, i) for i in range(b.n) for j in range(b.n) if entry(b, i, j)]
        return cls(tuple(agents), tuple(edges))

    def to_json_dict(self) -> dict:
        return {"agents": list(self.agents), "edges": [[self.agents[j], self.agents[i]] for j, i in self.edges]}
