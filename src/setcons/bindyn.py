"""Iteration and convergence analysis of Boolean maps.

A state is n words of ``width`` bits, and bit h of every output word
depends only on bit h of the inputs, as with bitwise operations: the map
is ``width`` copies of one n-bit map, stepped together.  A 0/1 state is
width 1.  Independent states of one map step together in the same way:
:meth:`BinaryMap.tile` lays them side by side in wider words, so the
derivative at a state and at its n single-word flips takes one step.  The
exhaustive scans (equilibria, exact dependencies) enumerate all 2**n 0/1
states and are guarded by an arity cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .boolmat import BoolMatrix, column_at_most_one, dependency_order, is_nilpotent
from .caps import DEFAULT, Caps, check_states
from .errors import OrbitLimitError

State = tuple[int, ...]


def format_bits(x: State) -> str:
    return "".join(str(b) for b in x)


def parse_bits(text: str) -> State:
    if any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


def flip(x: State, j: int) -> State:
    return x[:j] + (1 - x[j],) + x[j + 1 :]


def all_states(n: int) -> Iterator[State]:
    for mask in range(1 << n):
        yield tuple((mask >> j) & 1 for j in range(n))


def binary_distance(x: State, y: State) -> State:
    """Componentwise exclusive-or vector."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return tuple(a ^ b for a, b in zip(x, y))


def repunit(width: int, copies: int) -> int:
    """Bit 0 of each of ``copies`` segments of ``width`` bits: a ``width``-bit
    word times this repeats the word in every segment."""
    return ((1 << width * copies) - 1) // ((1 << width) - 1)


class BinaryMap:
    """A total deterministic map on states of n words of ``width`` bits.

    ``tile(copies)``, when given, returns the same map on words of
    ``copies * width`` bits, every ``width``-bit segment stepped as one
    state; a bitwise map builds it without leaving its words.
    """

    def __init__(
        self,
        n: int,
        fn: Callable[[State], State],
        width: int = 1,
        tile: Callable[[int], "BinaryMap"] | None = None,
    ):
        if n < 1:
            raise ValueError("arity must be positive")
        if width < 1:
            raise ValueError("word width must be positive")
        self.n = n
        self._fn = fn
        self.width = width
        self._tile = tile

    @classmethod
    def from_table(cls, outputs: Sequence[State]) -> "BinaryMap":
        size = len(outputs)
        n = size.bit_length() - 1
        if size != 1 << n or n < 1:
            raise ValueError("table length must be 2**n")
        table = list(outputs)

        def fn(x: State) -> State:
            mask = 0
            for j, bit in enumerate(x):
                if bit:
                    mask |= 1 << j
            return table[mask]

        return cls(n, fn)

    @classmethod
    def from_components(cls, fns: Sequence[Callable[[State], int]]) -> "BinaryMap":
        fns = list(fns)
        return cls(len(fns), lambda x: tuple(f(x) for f in fns))

    def step(self, x: State) -> State:
        if len(x) != self.n:
            raise ValueError(f"state has {len(x)} words, map expects {self.n}")
        y = self._fn(tuple(x))
        if len(y) != self.n:
            raise ValueError("evaluator returned a state of the wrong arity")
        return tuple(y)

    def iterate(self, x: State, steps: int) -> State:
        for _ in range(steps):
            x = self.step(x)
        return x

    def tile(self, copies: int) -> "BinaryMap":
        """This map on words of ``copies * width`` bits: segment c of every
        word (bits c*width and up) holds one state, and the states step
        independently.  Without a ``tile`` function the segments are
        stepped one after another inside each step."""
        if copies < 1:
            raise ValueError("copies must be positive")
        if self._tile is not None:
            return self._tile(copies)
        w, mask = self.width, (1 << self.width) - 1

        def fn(words: State) -> State:
            out = [0] * self.n
            for shift in range(0, copies * w, w):
                for i, y in enumerate(self.step(tuple((x >> shift) & mask for x in words))):
                    out[i] |= y << shift
            return tuple(out)

        return BinaryMap(self.n, fn, copies * w)


def walk(f: BinaryMap, x0: State, budget: int) -> tuple[list[State], int | None]:
    """Step from ``x0`` at most ``budget`` times, stopping at the first
    repeated state: the distinct states in visit order, and the index of the
    one the last step returned to, or None if no state repeated."""
    x = tuple(x0)
    seen = {x: 0}
    for _ in range(budget):
        x = f.step(x)
        if x in seen:
            return list(seen), seen[x]
        seen[x] = len(seen)
    return list(seen), None


@dataclass(frozen=True)
class OrbitSummary:
    """Transient length, cycle period, and the cycle's states in visit order."""

    transient: int
    period: int
    cycle: tuple[State, ...]

    def to_json_dict(self) -> dict:
        return {
            "transient": self.transient,
            "period": self.period,
            "cycle": [format_bits(x) for x in self.cycle],
        }


def orbit(f: BinaryMap, x0: State, max_steps: int | None = None) -> OrbitSummary:
    """Follow iterates until a state repeats; closes within 2**(n*width) steps."""
    budget = (1 << f.n * f.width) if max_steps is None else max_steps
    if budget < 1:
        raise ValueError("max_steps must be at least 1")
    path, start = walk(f, x0, budget)
    if start is None:
        raise OrbitLimitError(f"no closure within {budget} steps from {format_bits(tuple(x0))}")
    return OrbitSummary(transient=start, period=len(path) - start, cycle=tuple(path[start:]))


def _bit_states(f: BinaryMap, caps: Caps, scan: str) -> Iterator[State]:
    """The 2**n states of a 0/1 map, once the width and the cap allow it."""
    if f.width != 1:
        raise ValueError(f"the {scan} runs over 0/1 states, not {f.width}-bit words")
    check_states(f.n, caps, scan)
    return all_states(f.n)


def equilibria(f: BinaryMap, caps: Caps = DEFAULT) -> list[State]:
    """All fixed points, sorted; exhaustive over the 2**n state space."""
    return sorted(x for x in _bit_states(f, caps, "equilibria enumeration") if f.step(x) == x)


def derivative_blocks(f: BinaryMap, x: State) -> tuple[BoolMatrix, ...]:
    """The n x n derivative at ``x`` in every bit position, one block per
    position: entry (i, j) of block h is 1 iff flipping bit h of input j
    changes bit h of output i.  Flipping word j in all positions at once
    moves each position's outputs by that position's own derivative, so
    one step of ``f`` tiled n + 1 times finds them all: segment 0 holds
    ``x`` and segment j + 1 holds ``x`` with word j flipped.  Each distinct
    block is built once."""
    return _derivative(f, x)[1]


def _derivative(f: BinaryMap, x: State) -> tuple[State, tuple[BoolMatrix, ...]]:
    """``f(x)``, read from segment 0 of the step, and the derivative blocks."""
    n, w = f.n, f.width
    full, rep = (1 << w) - 1, repunit(w, n + 1)
    y = f.tile(n + 1).step(tuple(xi * rep ^ (full << (i + 1) * w) for i, xi in enumerate(x)))
    # One string per entry (i, j), rows in order and columns from j = n-1
    # down, with character h for position h: zipped, they give every
    # position's block with each row a binary numeral.
    entries = [
        format(((yi >> (j + 1) * w) ^ yi) & full, f"0{w}b")[::-1]
        for yi in y
        for j in reversed(range(n))
    ]
    built: dict[tuple[str, ...], BoolMatrix] = {}
    blocks = []
    for chars in zip(*entries):
        block = built.get(chars)
        if block is None:
            bits = "".join(chars)
            block = built[chars] = BoolMatrix(n, tuple(int(bits[i * n : (i + 1) * n], 2) for i in range(n)))
        blocks.append(block)
    return tuple(yi & full for yi in y), tuple(blocks)


def discrete_derivative(f: BinaryMap, x: State) -> BoolMatrix:
    """Entry (i, j) = 1 iff flipping input j changes output i at ``x``: the
    one derivative block of a 0/1 map."""
    if f.width != 1:
        raise ValueError(f"a {f.width}-bit map has one derivative per bit; use derivative_blocks")
    return derivative_blocks(f, x)[0]


def semantic_incidence(f: BinaryMap, caps: Caps = DEFAULT) -> BoolMatrix:
    """Exact dependency matrix: the join of the derivative over all states."""
    rows = [0] * f.n
    for x in _bit_states(f, caps, "dependency scan"):
        for i, row in enumerate(discrete_derivative(f, x).rows):
            rows[i] |= row
    return BoolMatrix(f.n, tuple(rows))


def dependency_witness(f: BinaryMap, i: int, j: int, caps: Caps = DEFAULT) -> State | None:
    """A state where flipping input j changes output i, if one exists."""
    for x in _bit_states(f, caps, "dependency scan"):
        if f.step(x)[i] != f.step(flip(x, j))[i]:
            return x
    return None


def is_vnn_attractive(f: BinaryMap, x_eq: State) -> bool:
    """Neighborhood attractiveness decided on the derivative at the
    equilibrium: in every bit position it must be nilpotent with at most one
    entry per column.  The derivative's step also gives f(x_eq), in its
    segment 0.  Each distinct block is checked once."""
    image, blocks = _derivative(f, x_eq)
    if image != tuple(x_eq):
        raise ValueError(f"{format_bits(tuple(x_eq))} is not an equilibrium")
    return all(is_nilpotent(d) and column_at_most_one(d) for d in dict.fromkeys(blocks))


@dataclass(frozen=True)
class BinaryContraction:
    """Contractivity verdict; when positive, ``q`` iterations from any start
    land on the unique fixed point."""

    contractive: bool
    q: int | None = None
    fixed_point: State | None = None

    def __bool__(self) -> bool:
        return self.contractive


def binary_contractivity(
    f: BinaryMap, incidence: BoolMatrix | None = None, caps: Caps = DEFAULT
) -> BinaryContraction:
    """Decide contractivity by one dependency walk over the incidence
    matrix; ``q`` is its longest dependency chain.

    Uses the supplied matrix, or else the exact dependency scan.
    """
    m = semantic_incidence(f, caps) if incidence is None else incidence
    if m.n != f.n:
        raise ValueError("incidence dimension mismatch")
    witness, q = dependency_order(m)
    if witness is None:
        return BinaryContraction(False)
    fixed = f.iterate((0,) * f.n, q)
    return BinaryContraction(True, q, fixed)
