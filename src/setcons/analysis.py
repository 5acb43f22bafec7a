"""Top-level convergence analyzers for set-valued systems.

A system's named constants are its map's trailing frozen variables, from
the parser on: sources whose rows are zero and whose words stay pinned.
Global contractivity is decided on the 0/1 projection of the incidence
matrix.  The global fixed point and local attractiveness step the
translated map on n words of kappa bits, one bit per cell, and equilibria
step it on truth tables, one bit per free state, for every pinned pattern
of the cells: no matrix over the n*kappa bits is ever built.  Independent
evaluations share one wider word, side by side: the fixed point's two runs
and the consensus bounds' two states (2*kappa bits each), the derivative's
n + 1 states ((n+1)*kappa bits) and the pinned patterns' truth tables, so
each takes the steps of one.  For any map, a common set of the free agents
is fixed exactly when it lies between the consensus bounds, and for a
linear map the lower bound is empty.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple, Sequence

from .bindyn import BinaryMap, is_vnn_attractive, repunit
from .boolmat import Permutation, dependency_order
from .caps import DEFAULT, Caps, check_states
from .encoding import EncodedSystem, Partition, translate_map
from .errors import SetconsError
from .expr import SetMap, truth_columns
from .intervals import IntervalSet

SetVector = tuple[IntervalSet, ...]

# The widest word that equilibria_sbm packs pinned patterns into: 2**20
# bits, the truth tables of one pattern at the default enumeration cap.  A
# wider segment is stepped alone.
PACKED_BITS = 1 << 20


class ContractivityVerdict(NamedTuple):
    """Outcome of the global convergence test on an n-variable map.

    ``witness`` triangularizes the 0/1 incidence projection when the map is
    contractive; ``cycle`` names a dependency cycle when it is not.  ``q``
    bounds the number of rounds to the unique fixed point.
    """

    contractive: bool
    witness: Permutation | None = None
    q: int | None = None
    cycle: tuple[int, ...] | None = None


def is_contractive_sbm(f: SetMap) -> ContractivityVerdict:
    """Decide global contractivity on the incidence matrix's 0/1 projection.

    Frozen rows count as sources (zero rows).  One walk over the
    dependency digraph gives either a triangularizing witness order and
    ``q``, the number of variables on its longest dependency chain, or a
    dependency cycle.  The translated map on n*kappa bits has the block
    incidence ``B kron I``, which is nilpotent exactly when ``B`` is, so the
    verdict holds for every partition.
    """
    witness, found = dependency_order(f.incidence())
    if witness is None:
        return ContractivityVerdict(False, cycle=found)
    return ContractivityVerdict(True, witness=witness, q=found)


def global_fixed_point(
    enc: EncodedSystem, start: Sequence[IntervalSet], verdict: ContractivityVerdict | None = None
) -> SetVector:
    """Iterate a contractive map to its unique fixed point on words.

    The start must be a union of the encoding's cells.  The result is
    verified to be independent of the start by a second run from the
    componentwise complement (frozen components stay pinned), stepped side
    by side with the first on words of 2*kappa bits.  Only its free words
    are decoded; the frozen ones encode the map's own frozen values.
    """
    f = enc.set_map
    if verdict is None:
        verdict = is_contractive_sbm(f)
    if not verdict.contractive:
        raise ValueError("the map is not contractive; no unique fixed point is guaranteed")
    start = tuple(start)
    if len(start) != f.arity:
        raise ValueError("start state arity mismatch")
    k = f.frozen_count
    if k and start[f.arity - k :] != f.frozen_values:
        raise ValueError("frozen components of the start must carry their pinned values")
    if verdict.q is None:
        raise SetconsError("a contractive verdict must carry its round bound q")
    # The start in the low kappa bits of every word and its complement in
    # the high ones (frozen words pinned in both): both runs in q steps.
    kappa, n_visible = enc.kappa, f.arity - k
    full = (1 << kappa) - 1
    words = enc.encode_state(start)
    packed = tuple(w | (w ^ full if i < n_visible else w) << kappa for i, w in enumerate(words))
    packed = enc.map.tile(2).iterate(packed, verdict.q)
    state, check = tuple(w & full for w in packed), tuple(w >> kappa for w in packed)
    if check != state:
        raise SetconsError("two starts reached different fixed points")
    return tuple(enc.partition.decode(w) for w in state[:n_visible]) + f.frozen_values


class CellEquilibriaReport(NamedTuple):
    """Fixed points of the translated map, cell by cell.

    The map's equilibria are exactly the independent combinations of one
    per-cell fixed point for every cell, so ``total`` is the product of the
    per-cell counts.  ``listed`` expands them into set vectors when the
    count stays under the listing cap.
    """

    partition: Partition
    per_cell: tuple[tuple[tuple[int, ...], ...], ...]
    total: int
    listed: tuple[SetVector, ...] | None

    def to_json_dict(self) -> dict:
        out = {
            "cells": self.partition.kappa,
            "per_cell_counts": [len(fps) for fps in self.per_cell],
            "total": self.total,
        }
        if self.listed is not None:
            out["equilibria"] = [[str(s) for s in vec] for vec in self.listed]
        return out


def equilibria_sbm(
    f: SetMap, partition: Partition, caps: Caps = DEFAULT, list_all: bool = True
) -> CellEquilibriaReport:
    """Enumerate equilibria through the per-cell structure of the encoding.

    Cells whose frozen variables carry the same pinned bits share one n-bit
    map, evaluated on a segment of 2**n_free bits: free variable j reads its
    truth-table column, a frozen one 0 or all ones, and the fixed states
    are the set bits of the AND over the free i of ``~(out_i ^ column_i)``.
    The distinct patterns' segments lie side by side in words of up to
    :data:`PACKED_BITS` bits, so one step serves them all.
    """
    enc = translate_map(f, partition)
    n_free = f.arity - f.frozen_count
    check_states(n_free, caps, "per-cell enumeration")
    size = 1 << n_free
    full = (1 << size) - 1
    columns = truth_columns(n_free)
    pins = [tuple((w >> h) & 1 for w in enc.pinned_words) for h in range(partition.kappa)]
    patterns = list(dict.fromkeys(pins))
    found = {}
    batch = max(1, PACKED_BITS // size)
    for first in range(0, len(patterns), batch):
        group = patterns[first : first + batch]
        width = size * len(group)
        rep = repunit(size, len(group))
        pinned = tuple(
            sum(full << s * size for s, bits in enumerate(group) if bits[c])
            for c in range(f.frozen_count)
        )
        words = tuple(column * rep for column in columns) + pinned
        fixed = (1 << width) - 1
        for x, y in zip(words[:n_free], BinaryMap(f.programs[:n_free], pinned, width).step(words)):
            fixed &= ~(x ^ y)
        states: list[list[tuple[int, ...]]] = [[] for _ in group]
        for m in re.finditer("1", bin(fixed)[:1:-1]):  # character ``i`` is bit ``i``
            s, mask = divmod(m.start(), size)
            states[s].append(tuple((mask >> i) & 1 for i in range(n_free)) + group[s])
        found.update((bits, tuple(sorted(fps))) for bits, fps in zip(group, states))
    cells = tuple(found[bits] for bits in pins)
    total = math.prod(len(fps) for fps in cells)
    listed: tuple[SetVector, ...] | None = None
    if list_all and 0 < total <= caps.listing:
        listed = tuple(
            enc.decode_state([sum(fp[i] << h for h, fp in enumerate(choice)) for i in range(f.arity)])
            for choice in itertools.product(*cells)
        )
    return CellEquilibriaReport(partition, cells, total, listed)


def is_locally_attractive_sbm(enc: EncodedSystem, x_eq: Sequence[IntervalSet]) -> bool:
    """Attractiveness of an equilibrium in its one-complemented-component
    neighborhood, decided on the translated map's derivative.

    That derivative on n*kappa bits is block-diagonal with one n x n block
    per cell, and each of its columns lies inside one block.  So it is
    nilpotent with at most one entry per column exactly when every block
    is: the word map's :func:`~setcons.bindyn.is_vnn_attractive`.
    """
    f = enc.set_map
    x_eq = tuple(x_eq)
    if f.eval(x_eq) != x_eq:
        raise ValueError("not an equilibrium")
    k = f.frozen_count
    if k and x_eq[f.arity - k :] != f.frozen_values:
        raise ValueError("frozen components of the equilibrium must carry their pinned values")
    return is_vnn_attractive(enc.map, enc.encode_state(x_eq))


class ConsensusBounds(NamedTuple):
    """The consensus values of a system: the common sets S of the free
    agents that the map fixes, with the constants at their pinned values.
    S is one exactly when ``lower`` ⊆ S ⊆ ``upper``; ``exists`` says that a
    nonempty one does, and then ``upper`` is one."""

    exists: bool
    upper: IntervalSet
    lower: IntervalSet

    def to_json_dict(self) -> dict:
        out = {"exists": self.exists, "region": str(self.upper)}
        if not self.lower.is_empty():
            out["lower"] = str(self.lower)
        return out


def consensus_bounds(enc: EncodedSystem) -> ConsensusBounds:
    """The bounds of the consensus values, from one step of the word map.

    In each cell a common set S puts every free agent at 1 or every one at
    0, so S is fixed exactly when every cell inside it fixes the all-ones
    free state and every cell outside it the all-zeros one: ``upper`` is
    the union of the cells of the first kind (R1) and ``lower`` of those
    not of the second (X \\ R0).  The two states step side by side, all
    ones in the low kappa bits and all zeros in the high ones (the frozen
    words pinned in both), and the AND over the free i of
    ``~(out_i ^ in_i)`` holds R1 in its low half and R0 in its high half.
    """
    f = enc.set_map
    kappa, n_free = enc.kappa, f.arity - f.frozen_count
    full = (1 << kappa) - 1
    words = (full,) * n_free + tuple(w | w << kappa for w in enc.pinned_words)
    fixed = (1 << 2 * kappa) - 1
    for x, y in zip(words[:n_free], enc.map.tile(2).step(words)):
        fixed &= ~(x ^ y)
    upper, lower = fixed & full, (fixed >> kappa) ^ full
    decode = enc.partition.decode
    return ConsensusBounds(upper != 0 and lower & ~upper == 0, decode(upper), decode(lower))
