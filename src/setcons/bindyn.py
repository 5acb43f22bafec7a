"""Iteration and convergence analysis of maps on binary state vectors.

States are plain tuples of 0/1 ints.  A :class:`BinaryMap` wraps any total
evaluator; constructors exist for explicit truth tables and for maps whose
(syntactic) incidence structure is known up front.  Exhaustive operations
(equilibria, exact dependency extraction) enumerate all 2**n states and are
guarded by an arity cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .boolmat import BoolMatrix, column_at_most_one, dependency_order, is_nilpotent
from .caps import DEFAULT, Caps
from .errors import CapExceeded, OrbitLimitError

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


class BinaryMap:
    """A total deterministic map on n-bit states."""

    def __init__(self, n: int, fn: Callable[[State], State], incidence: BoolMatrix | None = None):
        if n < 1:
            raise ValueError("arity must be positive")
        if incidence is not None and incidence.n != n:
            raise ValueError("incidence dimension mismatch")
        self.n = n
        self._fn = fn
        self.incidence = incidence

    @classmethod
    def from_table(cls, outputs: Sequence[State], incidence: BoolMatrix | None = None) -> "BinaryMap":
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

        return cls(n, fn, incidence)

    @classmethod
    def from_components(
        cls, fns: Sequence[Callable[[State], int]], incidence: BoolMatrix | None = None
    ) -> "BinaryMap":
        fns = list(fns)

        def fn(x: State) -> State:
            return tuple(f(x) for f in fns)

        return cls(len(fns), fn, incidence)

    def step(self, x: State) -> State:
        if len(x) != self.n:
            raise ValueError(f"state has {len(x)} bits, map expects {self.n}")
        y = self._fn(tuple(x))
        if len(y) != self.n:
            raise ValueError("evaluator returned a state of the wrong arity")
        return tuple(y)

    def iterate(self, x: State, steps: int) -> State:
        for _ in range(steps):
            x = self.step(x)
        return x


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
    """Follow iterates until a state repeats; always closes within 2**n steps."""
    budget = (1 << f.n) if max_steps is None else max_steps
    if budget < 1:
        raise ValueError("max_steps must be at least 1")
    seen = {tuple(x0): 0}
    path = [tuple(x0)]
    x = tuple(x0)
    for t in range(1, budget + 1):
        x = f.step(x)
        if x in seen:
            start = seen[x]
            return OrbitSummary(transient=start, period=t - start, cycle=tuple(path[start:]))
        seen[x] = t
        path.append(x)
    raise OrbitLimitError(f"no closure within {budget} steps from {format_bits(tuple(x0))}")


def equilibria(f: BinaryMap, caps: Caps = DEFAULT) -> list[State]:
    """All fixed points, sorted; exhaustive over the 2**n state space."""
    if f.n > caps.enumeration:
        raise CapExceeded(f"equilibria enumeration needs 2**{f.n} states (cap {caps.enumeration})")
    return sorted(x for x in all_states(f.n) if f.step(x) == x)


def discrete_derivative(f: BinaryMap, x: State) -> BoolMatrix:
    """Entry (i, j) = 1 iff flipping input j changes output i at ``x``."""
    fx = f.step(x)
    rows = [0] * f.n
    for j in range(f.n):
        fj = f.step(flip(tuple(x), j))
        for i in range(f.n):
            if fx[i] != fj[i]:
                rows[i] |= 1 << j
    return BoolMatrix(f.n, tuple(rows))


def semantic_incidence(f: BinaryMap, caps: Caps = DEFAULT) -> BoolMatrix:
    """Exact dependency matrix: the join of the derivative over all states."""
    if f.n > caps.enumeration:
        raise CapExceeded(f"dependency scan needs 2**{f.n} states (cap {caps.enumeration})")
    rows = [0] * f.n
    for x in all_states(f.n):
        for j in range(f.n):
            if x[j]:
                continue  # each unordered pair once
            fx = f.step(x)
            fj = f.step(flip(x, j))
            for i in range(f.n):
                if fx[i] != fj[i]:
                    rows[i] |= 1 << j
    return BoolMatrix(f.n, tuple(rows))


def dependency_witness(f: BinaryMap, i: int, j: int, caps: Caps = DEFAULT) -> State | None:
    """A state where flipping input j changes output i, if one exists."""
    if f.n > caps.enumeration:
        raise CapExceeded(f"dependency scan needs 2**{f.n} states (cap {caps.enumeration})")
    for x in all_states(f.n):
        if f.step(x)[i] != f.step(flip(x, j))[i]:
            return x
    return None


def is_vnn_attractive(f: BinaryMap, x_eq: State) -> bool:
    """Neighborhood attractiveness decided on the derivative at the
    equilibrium: it must be nilpotent with at most one entry per column."""
    if f.step(x_eq) != tuple(x_eq):
        raise ValueError(f"{format_bits(tuple(x_eq))} is not an equilibrium")
    d = discrete_derivative(f, x_eq)
    return is_nilpotent(d) and column_at_most_one(d)


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

    Uses the supplied matrix, then the map's attached one, then an exact
    dependency scan as a last resort.
    """
    m = incidence if incidence is not None else f.incidence
    if m is None:
        m = semantic_incidence(f, caps)
    if m.n != f.n:
        raise ValueError("incidence dimension mismatch")
    witness, q = dependency_order(m)
    if witness is None:
        return BinaryContraction(False)
    fixed = f.iterate((0,) * f.n, q)
    return BinaryContraction(True, q, fixed)
