"""Expression trees for set-valued update maps.

A :class:`SetMap` bundles one expression per variable together with the
universe.  Expressions use union, intersection, complement, difference and
symmetric difference over the variables and the literals ``X`` and
``empty``.  A node is a named tuple of its children (a :class:`Var` of
its index) that compares its type too: ``Union(a, b) != Intersect(a, b)``.
A named constant set is a frozen variable from the parser on:
the map's trailing variables, each with the identity rule and a pinned
value in :attr:`SetMap.frozen_values`.

Every question asked of an expression is one walk and one fold.
:func:`postorder` flattens a tree, with an explicit stack, into its
program: the nodes with every child before its parent.  :func:`fold` runs a
program bottom-up on a value stack, reading variable i from a sequence of
values and every other node type from an ``ops`` table, a function of its
children's values.  The algebras are:

- interval sets (:func:`set_ops`): ``| & ^`` and the universe's complement,
  for :meth:`SetMap.eval`;
- ints (:func:`bit_ops`): ``| & ^`` and complement ``x ^ mask``, one bit per
  evaluation, for the encoding's word maps and the :func:`truth_columns`
  of the equilibria scan.

The binary operators' symbols and precedences are :data:`BINARY_OPS`, which
the parser reads.  A SetMap compiles each component once, so expressions of
any depth are evaluated without recursion.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Sequence

from .boolmat import BoolMatrix
from .intervals import IntervalSet, Universe


class SetExpr:
    """Base class for expression nodes.  A node lists it first among its
    bases, so that two nodes are equal only when their types are too."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __or__(self, other: "SetExpr") -> "SetExpr":
        return Union(self, other)

    def __and__(self, other: "SetExpr") -> "SetExpr":
        return Intersect(self, other)

    def __invert__(self) -> "SetExpr":
        return Complement(self)


class Var(SetExpr, namedtuple("Var", "index")):
    __slots__ = ()


class UniverseLit(SetExpr, namedtuple("UniverseLit", "")):
    __slots__ = ()


class EmptyLit(SetExpr, namedtuple("EmptyLit", "")):
    __slots__ = ()


class Union(SetExpr, namedtuple("Union", "left right")):
    __slots__ = ()


class Intersect(SetExpr, namedtuple("Intersect", "left right")):
    __slots__ = ()


class Complement(SetExpr, namedtuple("Complement", "child")):
    __slots__ = ()


class Difference(SetExpr, namedtuple("Difference", "left right")):
    __slots__ = ()


class SymDiff(SetExpr, namedtuple("SymDiff", "left right")):
    __slots__ = ()


# -- the one walk and the one fold ---------------------------------------------

# Children of each operator node.  The literals X and empty are the nullary
# operators of an algebra (its top and bottom); Var is the leaf, whose value
# comes from the caller's sequence of values.
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
        if arity:
            stack += node  # a node is the tuple of its children, left before right
        elif arity is None and type(node) is not Var:
            raise TypeError(f"unknown node {node!r}")
    out.reverse()
    return tuple(out)


def fold(program: Sequence[SetExpr], values: Sequence, ops):
    """Evaluate a :func:`postorder` program bottom-up on a value stack.

    Var i is replaced by ``values[i]``; any other node by
    ``ops[type(node)]`` applied to the values of its children (none for the
    literals, one for Complement, left and right for the rest).
    """
    stack = []
    push, pop = stack.append, stack.pop
    for node in program:
        kind = type(node)
        arity = _ARITY.get(kind)
        if arity is None:
            push(values[node.index])
        elif arity == 2:
            right = pop()
            push(ops[kind](pop(), right))
        elif arity == 1:
            push(ops[kind](pop()))
        else:
            push(ops[kind]())
    return pop()


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


def _variables(program: Sequence[SetExpr]) -> set[int]:
    return {node.index for node in program if type(node) is Var}


# The binary operators of the surface syntax, read by the parser
# (:mod:`setcons.dsl`): symbol -> (node type, precedence), a higher
# precedence binding tighter.  Every one of them groups to the left.
BINARY_OPS = {"|": (Union, 1), "\\": (Difference, 2), "^": (SymDiff, 2), "&": (Intersect, 3)}


class SetMap(namedtuple("SetMap", "components universe frozen_values programs")):
    """A vector of update expressions: component i defines the next value of
    variable i.  ``frozen_values`` pins the values of the trailing
    variables, the system's named constants; their rules are the identity
    and their incidence rows are reported as zero (they act as sources
    feeding the rest of the system).  ``programs``, the postorder program
    of each component, is compiled once by the constructor."""

    __slots__ = ()

    def __new__(cls, components: tuple[SetExpr, ...], universe: Universe,
                frozen_values: tuple[IntervalSet, ...] = ()):
        n = len(components)
        if n < 1:
            raise ValueError("a map needs at least one component")
        if len(frozen_values) > n:
            raise ValueError("more frozen values than components")
        programs = tuple(postorder(c) for c in components)
        for i, program in enumerate(programs):
            for v in _variables(program):
                if not 0 <= v < n:
                    raise ValueError(f"component {i} references variable index {v} outside arity {n}")
        k = len(frozen_values)
        for offset in range(k):
            idx = n - k + offset
            if components[idx] != Var(idx):
                raise ValueError("frozen components must be identity rules")
        return tuple.__new__(cls, (components, universe, frozen_values, programs))

    def __getnewargs__(self):  # copy and pickle rebuild a map from its first three fields
        return self[:3]

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def frozen_count(self) -> int:
        return len(self.frozen_values)

    def eval(self, state: Sequence[IntervalSet]) -> tuple[IntervalSet, ...]:
        if len(state) != self.arity:
            raise ValueError(f"state has arity {len(state)}, map has {self.arity}")
        for s in state:
            if not self.universe.contains_set(s):
                raise ValueError(f"state component {s} escapes the universe")
        ops = set_ops(self.universe)
        return tuple(fold(program, state, ops) for program in self.programs)

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


def is_linear(f: SetMap) -> bool:
    """Whether every free component is a union of terms, each ``empty``, a
    free variable, or a free variable intersected with a coefficient on
    either side: a frozen variable (a named constant), ``X`` or ``empty``."""
    n = f.arity - f.frozen_count

    def free(e: SetExpr) -> bool:
        return type(e) is Var and e.index < n

    def coefficient(e: SetExpr) -> bool:
        return type(e) in (UniverseLit, EmptyLit) or (type(e) is Var and e.index >= n)

    stack = list(f.components[:n])
    while stack:
        term = stack.pop()
        if type(term) is Union:
            stack += (term.left, term.right)
        elif not (type(term) is EmptyLit or free(term) or (type(term) is Intersect and (
                free(term.left) and coefficient(term.right) or free(term.right) and coefficient(term.left)))):
            return False
    return True
