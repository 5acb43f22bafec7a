"""Square binary matrices over the (or, and) semiring.

Rows are stored as Python int bitmasks (bit j of ``rows[i]`` is entry
``(i, j)``), which makes joins and products cheap word operations.
One source-elimination walk over the dependency digraph, ``dependency_order``,
decides nilpotency and returns the triangularizing order with the
nilpotency index, or a dependency cycle.  The routes it replaced (matrix
powers, a separate elimination and a cycle walk) are kept in the tests as
independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intervals import IntervalSet, Universe


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

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BoolMatrix":
        masks = []
        for row in rows:
            m = 0
            for j, bit in enumerate(row):
                if bit not in (0, 1, False, True):
                    raise ValueError("entries must be 0 or 1")
                if bit:
                    m |= 1 << j
            masks.append(m)
        return cls(len(masks), tuple(masks))

    @classmethod
    def zero(cls, n: int) -> "BoolMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __matmul__(self, other: "BoolMatrix") -> "BoolMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = 0
            for k in _bits_of(row):
                acc |= other.rows[k]
            out.append(acc)
        return BoolMatrix(self.n, tuple(out))

    def apply(self, v: "BoolVector") -> "BoolVector":
        if v.n != self.n:
            raise ValueError("dimension mismatch")
        mask = 0
        for i, row in enumerate(self.rows):
            if row & v.mask:
                mask |= 1 << i
        return BoolVector(self.n, mask)

    def transpose(self) -> "BoolMatrix":
        out = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in _bits_of(row):
                out[j] |= 1 << i
        return BoolMatrix(self.n, tuple(out))

    def le(self, other: "BoolMatrix") -> bool:
        """Elementwise order: every 1 of self is a 1 of other."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(self.entry(i, j)) for j in range(self.n)) for i in range(self.n))


@dataclass(frozen=True, slots=True)
class BoolVector:
    n: int
    mask: int

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BoolVector":
        mask = 0
        count = 0
        for j, bit in enumerate(bits):
            count += 1
            if bit:
                mask |= 1 << j
        return cls(count, mask)

    def bit(self, j: int) -> int:
        return (self.mask >> j) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(j) for j in range(self.n))

    def scale(self, scalar: int) -> "BoolVector":
        return self if scalar else BoolVector(self.n, 0)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits())


@dataclass(frozen=True, slots=True)
class Permutation:
    """order[k] = original index placed at position k."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("not a permutation")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.order)

    def to_matrix(self) -> BoolMatrix:
        # Column k holds a 1 at row order[k], so P^T A P conjugates by order.
        rows = [0] * self.n
        for k, i in enumerate(self.order):
            rows[i] |= 1 << k
        return BoolMatrix(self.n, tuple(rows))

    def conjugate(self, a: BoolMatrix) -> BoolMatrix:
        if a.n != self.n:
            raise ValueError("dimension mismatch")
        return BoolMatrix.from_rows(
            [[a.entry(self.order[i], self.order[j]) for j in range(self.n)] for i in range(self.n)]
        )

    def permute_vector(self, v: BoolVector) -> BoolVector:
        if v.n != self.n:
            raise ValueError("dimension mismatch")
        return BoolVector.from_bits(v.bit(self.order[i]) for i in range(self.n))


def is_strictly_lower(a: BoolMatrix) -> bool:
    return all(row >> i == 0 for i, row in enumerate(a.rows))


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


# -- spectral tests for matrices of sets -------------------------------------


def has_empty_eigenvalue(entries: Sequence[Sequence[IntervalSet]], universe: Universe) -> bool:
    """True iff some column's union falls short of the whole universe."""
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for j in range(n):
        col_union = IntervalSet.empty()
        for i in range(n):
            col_union = col_union | entries[i][j]
        if col_union != universe.carrier:
            return True
    return False


def has_universe_eigenvalue(entries: Sequence[Sequence[IntervalSet]], universe: Universe) -> bool:
    """For matrices with entries in {empty, universe} only: whether the
    whole-universe scalar is an eigenvalue, decided on the 0/1 projection."""
    n = len(entries)
    rows = []
    for row in entries:
        if len(row) != n:
            raise ValueError("matrix must be square")
        mask = 0
        for j, e in enumerate(row):
            if e == universe.carrier:
                mask |= 1 << j
            elif not e.is_empty():
                raise ValueError(f"entry {e} is neither empty nor the universe")
        rows.append(mask)
    shadow = BoolMatrix(n, tuple(rows))
    return dependency_order(shadow)[0] is None
