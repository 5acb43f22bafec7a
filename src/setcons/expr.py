"""Expression trees for set-valued update maps.

A :class:`SetMap` bundles one expression per state variable together with the
universe and any named constant sets.  Expressions use union, intersection,
complement, difference and symmetric difference.  Maps referencing named
constants can be rewritten into constant-free form by
:func:`augment_constants`, which turns every constant into a trailing frozen
state variable.

Every question asked of an expression is one walk and one fold.
:func:`postorder` flattens a tree, with an explicit stack, into its
program: the nodes with every child before its parent.  :func:`fold` runs a
program bottom-up on a value stack, given a ``leaf`` function for the
variables and named constants and an ``ops`` table from every other node
type to a function of its children's values.  The algebras are:

- interval sets (:func:`set_ops`): ``| & ^`` and the universe's complement,
  for :func:`evaluate` and :meth:`SetMap.eval`;
- ints (:func:`bit_ops`): ``| & ^`` and complement ``x ^ mask``, one bit per
  evaluation, for the encoding's word maps and the :func:`truth_columns`
  of the equilibria scan;
- trees: node constructors, for :func:`augment_constants`.

The binary operators' symbols and precedences are :data:`BINARY_OPS`, which
the parser reads.  A SetMap compiles each component once, so expressions of
any depth are evaluated without recursion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .boolmat import BoolMatrix
from .intervals import IntervalSet, Universe


class SetExpr:
    """Base class for expression nodes; instances are immutable."""

    __slots__ = ()

    def __or__(self, other: "SetExpr") -> "SetExpr":
        return Union(self, other)

    def __and__(self, other: "SetExpr") -> "SetExpr":
        return Intersect(self, other)

    def __invert__(self) -> "SetExpr":
        return Complement(self)


@dataclass(frozen=True, slots=True)
class Var(SetExpr):
    index: int


@dataclass(frozen=True, slots=True)
class ConstRef(SetExpr):
    name: str


@dataclass(frozen=True, slots=True)
class UniverseLit(SetExpr):
    pass


@dataclass(frozen=True, slots=True)
class EmptyLit(SetExpr):
    pass


@dataclass(frozen=True, slots=True)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class Intersect(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class Complement(SetExpr):
    child: SetExpr


@dataclass(frozen=True, slots=True)
class Difference(SetExpr):
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True, slots=True)
class SymDiff(SetExpr):
    left: SetExpr
    right: SetExpr


# -- the one walk and the one fold ---------------------------------------------

# Children of each operator node.  The literals X and empty are the nullary
# operators of an algebra (its top and bottom); Var and ConstRef are the
# leaves, whose values come from the caller's ``leaf`` function.
_ARITY = {UniverseLit: 0, EmptyLit: 0, Complement: 1, Union: 2, Intersect: 2, Difference: 2, SymDiff: 2}


def postorder(e: SetExpr) -> tuple[SetExpr, ...]:
    """The nodes of ``e``, every child before its parent and left subtrees
    before right ones: the program that :func:`fold` runs.  The walk keeps
    its own stack, so an expression of any depth is safe."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        out.append(node)
        arity = _ARITY.get(type(node))
        if arity == 2:
            stack.append(node.left)
            stack.append(node.right)
        elif arity == 1:
            stack.append(node.child)
        elif arity is None and type(node) not in (Var, ConstRef):
            raise TypeError(f"unknown node {node!r}")
    out.reverse()
    return tuple(out)


def fold(program: Sequence[SetExpr], leaf, ops):
    """Evaluate a :func:`postorder` program bottom-up on a value stack.

    A Var or ConstRef node is replaced by ``leaf(node)``; any other node by
    ``ops[type(node)]`` applied to the values of its children (none for the
    literals, one for Complement, left and right for the rest).
    """
    stack = []
    push, pop = stack.append, stack.pop
    for node in program:
        kind = type(node)
        arity = _ARITY.get(kind)
        if arity is None:
            push(leaf(node))
        elif arity == 2:
            right = pop()
            push(ops[kind](pop(), right))
        elif arity == 1:
            push(ops[kind](pop()))
        else:
            push(ops[kind]())
    return pop()


def bind(values: Sequence, constants: Mapping = {}):
    """The ``leaf`` function reading Var i as ``values[i]`` and a named
    constant from ``constants``."""

    def leaf(node):
        if type(node) is Var:
            return values[node.index]
        try:
            return constants[node.name]
        except KeyError:
            raise ValueError(f"unbound constant {node.name!r}") from None

    return leaf


def set_ops(universe: Universe) -> dict:
    """The algebra of interval sets inside ``universe``."""
    complement = universe.complement
    return {
        UniverseLit: lambda: universe.carrier,
        EmptyLit: IntervalSet.empty,
        Union: operator.or_,
        Intersect: operator.and_,
        Complement: complement,
        Difference: lambda left, right: left & complement(right),
        SymDiff: operator.xor,
    }


def bit_ops(mask: int) -> dict:
    """The algebra of ints as bit vectors under ``mask``: with mask 1 the
    two-element algebra {0, 1}, with a wider mask one bit per evaluation."""
    return {
        UniverseLit: lambda: mask,
        EmptyLit: lambda: 0,
        Union: operator.or_,
        Intersect: operator.and_,
        Complement: lambda x: x ^ mask,
        Difference: lambda left, right: left & (right ^ mask),
        SymDiff: operator.xor,
    }


# Trees: every node rebuilt from its rewritten children.
_TREE = {kind: kind for kind in _ARITY}


def _variables(program: Sequence[SetExpr]) -> set[int]:
    return {node.index for node in program if type(node) is Var}


def _check_arity(program: Sequence[SetExpr], n: int, component: str) -> None:
    for v in _variables(program):
        if not 0 <= v < n:
            raise ValueError(f"{component} references variable index {v} outside arity {n}")


def _constants(program: Sequence[SetExpr]) -> set[str]:
    return {node.name for node in program if type(node) is ConstRef}


def evaluate(
    e: SetExpr,
    state: Sequence[IntervalSet],
    constants: Mapping[str, IntervalSet],
    universe: Universe,
) -> IntervalSet:
    return fold(postorder(e), bind(state, constants), set_ops(universe))


# The binary operators of the surface syntax, read by the parser
# (:mod:`setcons.dsl`): symbol -> (node type, precedence), a higher
# precedence binding tighter.  Every one of them groups to the left.
BINARY_OPS = {"|": (Union, 1), "\\": (Difference, 2), "^": (SymDiff, 2), "&": (Intersect, 3)}


@dataclass(frozen=True)
class SetMap:
    """A vector of update expressions: component i defines the next value of
    state variable i.  ``frozen_values`` pins the values of the trailing
    variables introduced by constant augmentation; their rules are the
    identity and their incidence rows are reported as zero (they act as
    sources feeding the rest of the system)."""

    components: tuple[SetExpr, ...]
    universe: Universe
    constants: tuple[tuple[str, IntervalSet], ...] = ()
    frozen_values: tuple[IntervalSet, ...] = ()
    # The postorder program of each component, compiled once.
    programs: tuple[tuple[SetExpr, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.components)
        if n < 1:
            raise ValueError("a map needs at least one component")
        if len(self.frozen_values) > n:
            raise ValueError("more frozen values than components")
        object.__setattr__(self, "programs", tuple(postorder(c) for c in self.components))
        bound = {name for name, _ in self.constants}
        for i, program in enumerate(self.programs):
            _check_arity(program, n, f"component {i}")
            missing = _constants(program) - bound
            if missing:
                raise ValueError(f"component {i} references unbound constants {sorted(missing)}")
        k = len(self.frozen_values)
        for offset in range(k):
            idx = n - k + offset
            if self.components[idx] != Var(idx):
                raise ValueError("frozen components must be identity rules")

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def frozen_count(self) -> int:
        return len(self.frozen_values)

    @property
    def constants_map(self) -> dict[str, IntervalSet]:
        return dict(self.constants)

    def eval(self, state: Sequence[IntervalSet]) -> tuple[IntervalSet, ...]:
        if len(state) != self.arity:
            raise ValueError(f"state has arity {len(state)}, map has {self.arity}")
        for s in state:
            if not self.universe.contains_set(s):
                raise ValueError(f"state component {s} escapes the universe")
        leaf = bind(state, self.constants_map)
        ops = set_ops(self.universe)
        return tuple(fold(program, leaf, ops) for program in self.programs)

    def incidence(self) -> BoolMatrix:
        """Syntactic dependency matrix; frozen rows reported as zero."""
        n = self.arity
        first_frozen = n - self.frozen_count
        rows = []
        for i, program in enumerate(self.programs):
            if i >= first_frozen:
                rows.append(0)
                continue
            mask = 0
            for v in _variables(program):
                mask |= 1 << v
            rows.append(mask)
        return BoolMatrix(n, tuple(rows))


def augment_constants(f: SetMap) -> SetMap:
    """Turn every named constant into a trailing frozen state variable.

    The rewritten map is constant-free; a constant-free input is returned
    unchanged.  New variables follow the constants' declaration order.
    """
    if not f.constants:
        return f
    n = f.arity
    index_of = {name: n + j for j, (name, _) in enumerate(f.constants)}

    def leaf(node: SetExpr) -> SetExpr:
        return Var(index_of[node.name]) if type(node) is ConstRef else node

    components = tuple(fold(program, leaf, _TREE) for program in f.programs)
    components += tuple(Var(n + j) for j in range(len(f.constants)))
    values = tuple(value for _, value in f.constants)
    return SetMap(
        components=components,
        universe=f.universe,
        constants=(),
        frozen_values=f.frozen_values + values,
    )


def truth_columns(arity: int) -> tuple[int, ...]:
    """Each variable's truth table over the 2**arity inputs: bit ``mask`` of
    variable j's int is set iff j is in ``mask`` (runs of 2**j 0s, 2**j 1s).
    A column starts as one run of each and is doubled, each copy shifted
    past the last, until it spans 2**arity bits: linear in the table size."""
    size = 1 << arity
    columns = []
    for j in range(arity):
        run = 1 << j
        word, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            word |= word << width
            width *= 2
        columns.append(word)
    return tuple(columns)


def as_linear(f: SetMap) -> "LinearSetMap | None":
    """Detect the shape 'union of (coefficient & variable) terms' per row.

    Returns the coefficient matrix when every component fits, else None.
    Coefficients may be named constants, the empty/universe literals, or a
    bare variable (coefficient = universe); absent terms mean empty.
    """
    n = f.arity
    consts = f.constants_map
    entries = [[IntervalSet.empty() for _ in range(n)] for _ in range(n)]

    def term_coeff(term: SetExpr) -> tuple[int, IntervalSet] | None:
        if type(term) is Var:
            return term.index, f.universe.carrier
        if type(term) is not Intersect:
            return None
        for var, coeff in ((term.left, term.right), (term.right, term.left)):
            if type(var) is Var and type(coeff) in (ConstRef, UniverseLit, EmptyLit):
                return var.index, evaluate(coeff, (), consts, f.universe)
        return None

    for i, comp in enumerate(f.components):
        # The union's operands, left to right.
        terms: list[SetExpr] = []
        stack = [comp]
        while stack:
            term = stack.pop()
            if type(term) is Union:
                stack.append(term.right)
                stack.append(term.left)
            else:
                terms.append(term)
        for term in terms:
            if type(term) is EmptyLit:
                continue
            parsed = term_coeff(term)
            if parsed is None:
                return None
            j, coeff = parsed
            entries[i][j] = entries[i][j] | coeff
    return LinearSetMap(tuple(tuple(row) for row in entries), f.universe)


@dataclass(frozen=True)
class LinearSetMap:
    """Update rule 'next_i = union over j of (entries[i][j] & state_j)'."""

    entries: tuple[tuple[IntervalSet, ...], ...]
    universe: Universe

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("coefficient matrix must be square")
            for e in row:
                if not self.universe.contains_set(e):
                    raise ValueError(f"coefficient {e} escapes the universe")
