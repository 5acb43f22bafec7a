"""Square binary matrices: incidence matrices and derivative blocks.

Rows are stored as Python int bitmasks (bit j of ``rows[i]`` is entry
``(i, j)``), which makes the tests below word operations.  One
source-elimination walk over the dependency digraph, ``dependency_order``,
decides nilpotency and returns the triangularizing order with the
nilpotency index, or a dependency cycle; ``column_at_most_one`` is the
other half of the neighbourhood-attractiveness test.  The routes the walk
replaced (matrix powers, a separate elimination and a cycle walk), the
matrix product and the conjugation by a permutation are kept in the tests
as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass


def _bits_of(mask: int):
    j = 0
    while mask:
        if mask & 1:
            yield j
        mask >>= 1
        j += 1


@dataclass(frozen=True, slots=True)
class BoolMatrix:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal the declared dimension")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row mask has bits outside the matrix")


@dataclass(frozen=True, slots=True)
class Permutation:
    """order[k] = original index placed at position k."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("not a permutation")


def dependency_order(a: BoolMatrix) -> tuple[Permutation, int] | tuple[None, tuple[int, ...]]:
    """One source-elimination walk over the dependency digraph (edge i -> j
    when entry (i, j) is set).

    Repeatedly emits the lowest-index row that is zero on the still-alive
    columns, recording each row's depth: one more than the deepest row it
    reads.  When every row is emitted, ``a`` is nilpotent; the order
    conjugates it to strictly lower triangular form and the longest chain,
    ``max(depth, default=1)``, is its nilpotency index q.  Otherwise every
    alive row reads an alive row, and following the lowest one from the
    lowest alive row closes a directed cycle, returned as ``(None, cycle)``.
    """
    alive = (1 << a.n) - 1
    order: list[int] = []
    depth = [0] * a.n
    while alive:
        pick = next((i for i in _bits_of(alive) if a.rows[i] & alive == 0), None)
        if pick is None:
            path = [next(_bits_of(alive))]
            while (nxt := next(_bits_of(a.rows[path[-1]] & alive))) not in path:
                path.append(nxt)
            return None, tuple(path[path.index(nxt):])
        depth[pick] = 1 + max((depth[j] for j in _bits_of(a.rows[pick])), default=0)
        order.append(pick)
        alive &= ~(1 << pick)
    return Permutation(tuple(order)), max(depth, default=1)


def is_nilpotent(a: BoolMatrix) -> bool:
    """True iff some power of ``a`` vanishes."""
    return dependency_order(a)[0] is not None


def column_at_most_one(a: BoolMatrix) -> bool:
    """True iff no column holds two entries: the rows' masks are ORed into
    the columns seen once and the columns seen twice."""
    seen = twice = 0
    for row in a.rows:
        twice |= seen & row
        seen |= row
    return twice == 0
