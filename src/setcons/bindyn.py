"""Iteration and local convergence of the translated Boolean map.

A state is n words of ``width`` bits, and bit h of every output word
depends only on bit h of the inputs: each free component folds its
program with bitwise operations on the words, and each frozen one outputs
its pinned word, so the map is ``width`` copies of one n-bit map, stepped
together.  Independent states of one map step together in the same way:
:meth:`BinaryMap.tile` lays them side by side in wider words, so the
derivative at a state and at its n single-word flips takes one step.
:func:`walk` follows one run to its first repeated state, and
:func:`is_vnn_attractive` decides neighbourhood attractiveness on that
derivative.
"""

from __future__ import annotations

from typing import Sequence

from .boolmat import BoolMatrix, column_at_most_one, is_nilpotent
from .expr import SetExpr, bit_ops, fold

State = tuple[int, ...]


def repunit(width: int, copies: int) -> int:
    """Bit 0 of each of ``copies`` segments of ``width`` bits: a ``width``-bit
    word times this repeats the word in every segment."""
    return ((1 << width * copies) - 1) // ((1 << width) - 1)


class BinaryMap:
    """The map on n words of ``width`` bits whose free components are the
    postorder ``programs`` on bitwise operations and whose frozen ones
    output the ``pinned`` words."""

    def __init__(self, programs: Sequence[Sequence[SetExpr]], pinned: State, width: int):
        self.programs = tuple(programs)
        self.pinned = tuple(pinned)
        self.n = len(self.programs) + len(self.pinned)
        self.width = width
        self._ops = bit_ops((1 << width) - 1)

    def step(self, x: State) -> State:
        if len(x) != self.n:
            raise ValueError(f"state has {len(x)} words, map expects {self.n}")
        ops = self._ops
        return tuple([fold(program, x, ops) for program in self.programs]) + self.pinned

    def iterate(self, x: State, steps: int) -> State:
        for _ in range(steps):
            x = self.step(x)
        return x

    def tile(self, copies: int) -> "BinaryMap":
        """This map on words of ``copies * width`` bits: segment c of every
        word (bits c*width and up) holds one state, and the states step
        independently, with every pinned word repeated in each segment."""
        if copies < 1:
            raise ValueError("copies must be positive")
        rep = repunit(self.width, copies)
        return BinaryMap(self.programs, tuple(word * rep for word in self.pinned), self.width * copies)


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


def _derivative(f: BinaryMap, x: State) -> tuple[State, tuple[BoolMatrix, ...]]:
    """``f(x)`` and the n x n derivative at ``x`` in every bit position, one
    block per position: entry (i, j) of block h is 1 iff flipping bit h of
    input j changes bit h of output i.  Flipping word j in all positions at
    once moves each position's outputs by that position's own derivative,
    so one step of ``f`` tiled n + 1 times finds them all: segment 0 holds
    ``x``, and gives ``f(x)``, and segment j + 1 holds ``x`` with word j
    flipped.  Each distinct block is built once."""
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


def is_vnn_attractive(f: BinaryMap, x_eq: State) -> bool:
    """Neighborhood attractiveness decided on the derivative at the
    equilibrium: in every bit position it must be nilpotent with at most one
    entry per column.  The derivative's step also gives f(x_eq), in its
    segment 0.  Each distinct block is checked once."""
    image, blocks = _derivative(f, x_eq)
    if image != tuple(x_eq):
        raise ValueError(f"{tuple(x_eq)} is not an equilibrium")
    return all(is_nilpotent(d) and column_at_most_one(d) for d in dict.fromkeys(blocks))
