"""Slow reference implementations that the library's fast paths are
checked against, and checks that only tests need.

Each one is the plain, obviously correct form of a library routine:

- the pairwise intersection, the union that sorts the concatenation again,
  the subset test through intersection, the complement against the whole
  line with the difference, symmetric difference and complement inside a
  universe built on it, the piece labels found by one merge walk, the
  partition found by trying all 2**m signatures, the cells' regions sorted
  and joined from their pieces, and the simulator's distance lengths
  measured on the sets themselves.  They use only each
  other and the interval constructors, never the library operations they
  check.
- the set-level dynamics that the word map replaced: encoding by one
  intersection per cell, the simulator that evaluates the set map and
  re-encodes every round, and the global fixed point iterated on sets.
- the recursive expression walkers that the postorder fold replaced: one
  function per question, each dispatching on the node type and calling
  itself on the children.  They use only the node classes and the interval
  set operators.
- the consensus path for linear maps only that the word map's consensus
  bounds replaced: the linear shape read off a map, :class:`LinearSetMap`,
  and the region as the intersection of the rows' coefficient unions.
- named constants as the library read them before the parser made each
  one a frozen variable: a test-only leaf, :class:`NamedConst`, the
  rewrite of those leaves into trailing frozen variables, and the linear
  map read off rules over them.
- the four routes that the one dependency walk replaced: the Boolean
  matrix powers behind the nilpotency test and the nilpotency index, the
  source elimination that emits a triangularizing order, and the second
  elimination and walk that find a dependency cycle.  They use only the
  matrix product and the row masks.
- the translated map on n*kappa bits that the cell-sliced word map
  replaced: one n-bit map per cell, evaluated by the recursive walker, the
  flat variable-major layout with its ``B kron I`` incidence, the n*kappa
  derivative, the per-cell equilibria scan, the equilibria scan that steps
  the word map once per free state, and the column test one entry at a
  time.
- the word steps that packing replaced: the derivative by n + 1 separate
  steps, the global fixed point by two runs one after the other, and the
  equilibria by one step per pinned pattern.
- the set-literal parser with its own regex tokenizer that the system
  grammar replaced.  It uses only ``as_value`` and the interval
  constructors.
- the tokenizer that matched blanks as tokens of their own and counted
  every line and column by hand, and the expression parser with one method
  per precedence level that precedence climbing replaced.  The parser
  reuses the library's statement and literal grammar, so the two differ
  only in tokens, positions and expressions.
- direct checks of the paper's bounds and of attractiveness by simulation,
  built on the library's public operations.
- the parts of the former library that no pipeline path runs and that tests
  use as references: the 0/1 Boolean-map scans (equilibria, derivative,
  exact dependencies), orbits and 0/1 contractivity, the matrix product and
  the other matrix and permutation helpers, set distances, composition,
  the linear map as a SetMap, the system printer, and the truth columns
  built by one big-int division.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from setcons import dsl
from setcons.analysis import ContractivityVerdict, is_contractive_sbm
from setcons.bindyn import BinaryMap, _derivative, format_bits, walk
from setcons.boolmat import BoolMatrix, Permutation, dependency_order
from setcons.caps import DEFAULT, Caps, check_states
from setcons.dsl import Diagnostic, DslError, SystemSpec
from setcons.encoding import EncodedSystem, Partition, build_partition, dedup_generators, translate_map
from setcons.errors import CellEncodingError, SetconsError
from setcons.expr import (
    BINARY_OPS,
    Complement,
    Difference,
    EmptyLit,
    Intersect,
    SetExpr,
    SetMap,
    SymDiff,
    Union,
    UniverseLit,
    Var,
    fold,
    postorder,
    truth_columns,
)
from setcons.intervals import Interval, IntervalSet, Universe, as_value
from setcons.sim import Trajectory, random_interval_set, sampling_window

INF = float("inf")


def ends(iv: Interval) -> tuple[tuple, tuple]:
    """The low and the high end of ``iv`` as ``(value, closed)``, decoded from
    its sort keys, so that the oracles reason about ends and not about the
    library's key arithmetic."""
    (lo, lo_eps), (hi, hi_eps) = iv.lo_key, iv.hi_key
    return (lo, lo_eps == 0), (hi, hi_eps == 0)


def pairwise_and(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Intersect every interval of ``a`` with every interval of ``b``."""
    raw = []
    for x in a.intervals:
        for y in b.intervals:
            (x_lo, x_hi), (y_lo, y_hi) = ends(x), ends(y)
            # The later low end and the earlier high end; at equal values an
            # open end is the later low and the earlier high one.
            lo = max(x_lo, y_lo, key=lambda end: (end[0], not end[1]))
            hi = min(x_hi, y_hi, key=lambda end: (end[0], end[1]))
            if lo[0] < hi[0] or (lo[0] == hi[0] and lo[1] and hi[1]):
                raw.append(Interval.make(lo[0], hi[0], lo[1], hi[1]))
    return IntervalSet.of(*raw)


def resorting_or(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Sort and merge the concatenation of both interval tuples."""
    return IntervalSet.of(*a.intervals, *b.intervals)


def subset_via_and(a: IntervalSet, b: IntervalSet) -> bool:
    return pairwise_and(a, b) == a


def complement_line(s: IntervalSet) -> IntervalSet:
    """Complement relative to the whole extended real line: the gaps before,
    between and after the set's intervals."""
    spans = [ends(iv) for iv in s.intervals]
    if not spans:
        return full_line()
    out = []
    (first, first_closed), _ = spans[0]
    if first != -INF:
        out.append(Interval.make(-INF, first, False, not first_closed))
    for (_, (v, v_closed)), ((w, w_closed), _) in zip(spans, spans[1:]):
        out.append(Interval.make(v, w, not v_closed, not w_closed))
    _, (last, last_closed) = spans[-1]
    if last != INF:
        out.append(Interval.make(last, INF, not last_closed, False))
    return IntervalSet(tuple(out))


def complement_within(s: IntervalSet, carrier: IntervalSet) -> IntervalSet:
    """The complement inside ``carrier``, which must contain ``s``."""
    if not subset_via_and(s, carrier):
        raise ValueError(f"{s} is not contained in the universe {carrier}")
    return pairwise_and(complement_line(s), carrier)


def difference_via_complement(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return pairwise_and(a, complement_line(b))


def xor_via_complements(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return resorting_or(difference_via_complement(a, b), difference_via_complement(b, a))


def merge_walk_membership(s: IntervalSet, pieces: Sequence[Interval]) -> list[int]:
    """1 for every piece inside ``s``, else 0, for ascending pieces that
    each lie wholly inside or outside ``s``: one merge walk over the pieces
    and the set's intervals."""
    spans = s.intervals
    n = len(spans)
    j = 0
    out = []
    for piece in pieces:
        while j < n and spans[j].hi_key < piece.lo_key:
            j += 1
        out.append(1 if j < n and spans[j].lo_key <= piece.lo_key else 0)
    return out


def signature_scan_partition(
    generators: Sequence[IntervalSet], universe: Universe
) -> tuple[tuple[tuple[int, ...], ...], tuple[IntervalSet, ...]]:
    """Signatures and regions of every nonempty cell, found by intersecting
    the generators or their complements for each of the 2**m signatures,
    from all-ones down to all-zeros."""
    gens = tuple(generators)
    m = len(gens)
    carrier = universe.carrier
    complements = [complement_within(g, carrier) for g in gens]
    signatures = []
    regions = []
    for code in range((1 << m) - 1, -1, -1):
        sig = tuple((code >> (m - 1 - i)) & 1 for i in range(m))
        region = carrier
        for i, bit in enumerate(sig):
            region = pairwise_and(region, gens[i] if bit else complements[i])
        if region.intervals:
            signatures.append(sig)
            regions.append(region)
    return tuple(signatures), tuple(regions)


def sort_and_join_regions(partition: Partition) -> tuple[IntervalSet, ...]:
    """Each cell's region as the union of its pieces: gathered per cell,
    then sorted and joined."""
    cells: list[list[Interval]] = [[] for _ in partition.regions]
    for piece, h in zip(partition.pieces, partition.piece_cells):
        cells[h].append(piece)
    return tuple(IntervalSet.of(*c) for c in cells)


def measure(s: IntervalSet, window: Interval) -> Fraction:
    """Total length of the part of ``s`` inside a finite window."""
    clipped = pairwise_and(s, IntervalSet((window,)))
    return sum((hi[0] - lo[0] for lo, hi in map(ends, clipped.intervals)), Fraction(0))


def set_level_distance_lengths(traj: Trajectory, window: Interval) -> tuple[float, ...]:
    """Per round, the total window length of every agent's symmetric
    difference with its closure-state set."""
    final = traj.rounds[traj.transient] if traj.closed else traj.rounds[-1]
    lengths = []
    for state in traj.rounds:
        total = Fraction(0)
        for s, t in zip(state, final):
            gap = xor_via_complements(s, t)
            total += measure(gap, window)
        lengths.append(float(total))
    return tuple(lengths)


def set_level_distances(traj: Trajectory, regions: Sequence[IntervalSet]) -> tuple[int, ...]:
    """Per round, how many (agent, cell) pairs the closure state differs in:
    the cells that meet each agent's symmetric difference with its
    closure-state set."""
    final = traj.rounds[traj.transient] if traj.closed else traj.rounds[-1]
    counts = []
    for state in traj.rounds:
        total = 0
        for s, t in zip(state, final):
            gap = xor_via_complements(s, t)
            total += sum(1 for region in regions if pairwise_and(gap, region).intervals)
        counts.append(total)
    return tuple(counts)


# -- the set-level dynamics that the word dynamics replaced ----------------------


def intersecting_encode(partition: Partition, s: IntervalSet) -> int:
    """The word of ``s`` found by intersecting it with every cell, checked
    by decoding it again."""
    word = 0
    for h, region in enumerate(partition.regions):
        if not (s & region).is_empty():
            word |= 1 << h
    if partition.decode(word) != s:
        for h, region in enumerate(partition.regions):
            if (word >> h) & 1 and not region.is_subset(s):
                raise CellEncodingError(
                    f"{s} straddles the cell {region}; it is not in the algebra "
                    "generated by the partition's generators"
                )
        raise CellEncodingError(f"{s} is not a union of partition cells")
    return word


def set_level_simulate(
    spec: SystemSpec, max_rounds: int | None = None, seed: int | None = None, random_init: bool = False
) -> Trajectory:
    """The simulator that evaluates the set map every round and encodes
    every state by intersections to detect closure."""
    f = spec.set_map()
    window = sampling_window(spec.universe, spec.initials + f.frozen_values)
    initials = list(spec.initials)
    if random_init:
        rng = random.Random(seed)
        initials = [random_interval_set(rng, spec.universe, window=window) for _ in spec.variables]
    generators = dedup_generators(initials + list(f.frozen_values))
    partition = build_partition(generators, spec.universe)
    if max_rounds is None:
        max_rounds = spec.options_map.get("max_rounds", 2 * f.arity * partition.kappa)

    def encode_state(state):
        return tuple(intersecting_encode(partition, s) for s in state)

    n_visible = len(spec.variables)
    state = tuple(initials) + f.frozen_values
    states = [state]
    encoded = [encode_state(state)]
    seen = {encoded[0]: 0}
    transient = period = None
    for t in range(1, max_rounds + 1):
        state = f.eval(state)
        words = encode_state(state)
        if words in seen:
            transient = seen[words]
            period = t - transient
            break
        seen[words] = t
        states.append(state)
        encoded.append(words)
    closed = transient is not None
    consensus = None
    if closed and period == 1:
        final = states[transient]
        if all(s == final[0] for s in final[:n_visible]):
            consensus = final[0]
    final_words = encoded[transient] if closed else encoded[-1]
    cell_lengths = [region.measure(window) for region in partition.regions]
    return Trajectory(
        agents=spec.variables,
        rounds=tuple(s[:n_visible] for s in states),
        transient=transient,
        period=period,
        consensus=consensus,
        distances=tuple(
            sum((a ^ b).bit_count() for a, b in zip(words, final_words)) for words in encoded
        ),
        distance_lengths=tuple(
            float(sum(
                cell_lengths[h]
                for a, b in zip(words[:n_visible], final_words)
                for h in range(partition.kappa)
                if ((a ^ b) >> h) & 1
            ))
            for words in encoded
        ),
        closed=closed,
        window=window,
    )


def set_level_fixed_point(
    f: SetMap, start: Sequence[IntervalSet], verdict: ContractivityVerdict | None = None
) -> tuple[IntervalSet, ...]:
    """The global fixed point by q set-level rounds from the start and q from
    its componentwise complement (frozen components stay pinned)."""
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
    state = start
    for _ in range(verdict.q):
        state = f.eval(state)
    n_visible = f.arity - k
    check = tuple(f.universe.complement(s) for s in start[:n_visible]) + f.frozen_values
    for _ in range(verdict.q):
        check = f.eval(check)
    if check != state:
        raise SetconsError("two starts reached different fixed points")
    return state


# -- the linear-only consensus path that the consensus bounds replaced ------------


def as_linear(f: SetMap) -> "LinearSetMap | None":
    """Detect the shape 'union of (coefficient & variable) terms' in every
    free row, over the free variables.

    Returns the coefficient matrix when every free component fits, else
    None.  A coefficient is a frozen variable (a named constant), the
    empty or universe literal, or absent from a bare free variable (the
    universe); absent terms mean empty.
    """
    n = f.arity - f.frozen_count
    coefficients = {UniverseLit(): f.universe.carrier, EmptyLit(): IntervalSet.empty()}
    coefficients.update((Var(n + j), value) for j, value in enumerate(f.frozen_values))
    entries = [[IntervalSet.empty() for _ in range(n)] for _ in range(n)]

    def term_coeff(term: SetExpr) -> tuple[int, IntervalSet] | None:
        if type(term) is Var:
            return (term.index, f.universe.carrier) if term.index < n else None
        if type(term) is not Intersect:
            return None
        for var, coeff in ((term.left, term.right), (term.right, term.left)):
            # Only a leaf is looked up: hashing a deep tree would recurse.
            if type(var) is Var and var.index < n and type(coeff) in (Var, UniverseLit, EmptyLit):
                if coeff in coefficients:
                    return var.index, coefficients[coeff]
        return None

    for i, comp in enumerate(f.components[:n]):
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


@dataclass(frozen=True)
class ConsensusVerdict:
    """Existence and extent of common fixed points of a linear map: every
    nonempty subset of ``region`` is a consensus value."""

    exists: bool
    region: IntervalSet

    def to_json_dict(self) -> dict:
        return {"exists": self.exists, "region": str(self.region)}


def consensus_region(linear: LinearSetMap) -> ConsensusVerdict:
    """Intersection over rows of each row's coefficient union."""
    region = linear.universe.carrier
    for row in linear.entries:
        row_union = IntervalSet.empty()
        for e in row:
            row_union = row_union | e
        region = region & row_union
    return ConsensusVerdict(not region.is_empty(), region)


# -- recursive expression walkers ----------------------------------------------


@dataclass(frozen=True, slots=True)
class NamedConst(SetExpr):
    """A constant set referred to by name: the leaf that the parser and the
    library replaced by a frozen variable.  Only the oracles read it."""

    name: str


def recursive_evaluate(e, state, universe) -> IntervalSet:
    def ev(node):
        return recursive_evaluate(node, state, universe)

    if isinstance(e, Var):
        return state[e.index]
    if isinstance(e, UniverseLit):
        return universe.carrier
    if isinstance(e, EmptyLit):
        return IntervalSet.empty()
    if isinstance(e, Union):
        return ev(e.left) | ev(e.right)
    if isinstance(e, Intersect):
        return ev(e.left) & ev(e.right)
    if isinstance(e, Complement):
        return universe.complement(ev(e.child))
    if isinstance(e, Difference):
        return ev(e.left) & universe.complement(ev(e.right))
    if isinstance(e, SymDiff):
        return ev(e.left) ^ ev(e.right)
    raise TypeError(f"unknown node {e!r}")


def recursive_bit_evaluate(e: SetExpr, bits) -> int:
    def ev(node):
        return recursive_bit_evaluate(node, bits)

    if isinstance(e, Var):
        return bits[e.index]
    if isinstance(e, UniverseLit):
        return 1
    if isinstance(e, EmptyLit):
        return 0
    if isinstance(e, Union):
        return ev(e.left) | ev(e.right)
    if isinstance(e, Intersect):
        return ev(e.left) & ev(e.right)
    if isinstance(e, Complement):
        return 1 - ev(e.child)
    if isinstance(e, Difference):
        return ev(e.left) & (1 - ev(e.right))
    if isinstance(e, SymDiff):
        return ev(e.left) ^ ev(e.right)
    raise TypeError(f"unknown node {e!r}")


_PRECEDENCE = {Union: 1, Difference: 2, SymDiff: 2, Intersect: 3}
_SYMBOL = {Union: "|", Intersect: "&", Difference: "\\", SymDiff: "^"}


def recursive_expr_to_text(e: SetExpr, names=None) -> str:
    def render(node, parent_prec, right_side):
        if isinstance(node, Var):
            return names[node.index] if names is not None else f"X{node.index + 1}"
        if isinstance(node, NamedConst):
            return node.name
        if isinstance(node, UniverseLit):
            return "X"
        if isinstance(node, EmptyLit):
            return "empty"
        if isinstance(node, Complement):
            return "~" + render(node.child, 4, False)
        prec = _PRECEDENCE[type(node)]
        assoc = isinstance(node, (Union, Intersect))
        left = render(node.left, prec, False)
        right = render(node.right, prec if assoc else prec + 1, True)
        text = f"{left} {_SYMBOL[type(node)]} {right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text

    return render(e, 0, False)


def _rebuild(e: SetExpr, leaf) -> SetExpr:
    """Rebuild a tree bottom-up, replacing each leaf by ``leaf(node)``."""
    if isinstance(e, (Var, NamedConst, UniverseLit, EmptyLit)):
        return leaf(e)
    if isinstance(e, Complement):
        return Complement(_rebuild(e.child, leaf))
    return type(e)(_rebuild(e.left, leaf), _rebuild(e.right, leaf))


def recursive_augmented_components(rules: Sequence[SetExpr], names: Sequence[str]) -> tuple[SetExpr, ...]:
    """The components of the map of ``rules`` whose :class:`NamedConst`
    leaves read the constants ``names``: constants become the trailing
    variables, in declaration order, with identity rules."""
    n = len(rules)
    index_of = {name: n + j for j, name in enumerate(names)}
    rewritten = tuple(
        _rebuild(c, lambda node: Var(index_of[node.name]) if isinstance(node, NamedConst) else node)
        for c in rules
    )
    return rewritten + tuple(Var(n + j) for j in range(len(names)))


def named_as_linear(rules: Sequence[SetExpr], constants: dict, universe: Universe) -> LinearSetMap | None:
    """The linear map of ``rules`` over named constants, read the way the
    library read it before constants became frozen variables: a term is a
    bare variable, or a variable intersected with a :class:`NamedConst`,
    ``X`` or ``empty`` on either side."""
    n = len(rules)
    entries = [[IntervalSet.empty() for _ in range(n)] for _ in range(n)]
    leaf_value = {UniverseLit: lambda node: universe.carrier, EmptyLit: lambda node: IntervalSet.empty(),
                  NamedConst: lambda node: constants[node.name]}

    def term_coeff(term: SetExpr) -> tuple[int, IntervalSet] | None:
        if type(term) is Var:
            return term.index, universe.carrier
        if type(term) is not Intersect:
            return None
        for var, coeff in ((term.left, term.right), (term.right, term.left)):
            if type(var) is Var and type(coeff) in leaf_value:
                return var.index, leaf_value[type(coeff)](coeff)
        return None

    for i, rule in enumerate(rules):
        # The union's operands, left to right.
        terms: list[SetExpr] = []
        stack = [rule]
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
    return LinearSetMap(tuple(tuple(row) for row in entries), universe)


def recursive_composed_components(f: SetMap, g: SetMap) -> tuple[SetExpr, ...]:
    """The components of ``compose(f, g)``: g's rules substituted into f's."""
    return tuple(
        _rebuild(c, lambda node: g.components[node.index] if isinstance(node, Var) else node)
        for c in f.components
    )


# -- the dependency walks that one source elimination replaced -------------------


def _bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


def power_is_nilpotent(a: BoolMatrix) -> bool:
    """True iff the n-th Boolean power of ``a``, reached by squaring, vanishes."""
    if a.n == 0:
        return True
    m = a
    steps = 1
    while steps < a.n:
        m = matmul(m, m)
        steps *= 2
    return not any(m.rows)


def power_nilpotency_index(a: BoolMatrix) -> int | None:
    """Smallest positive q with a**q = 0, or None if there is no such q."""
    m = a
    for q in range(1, a.n + 1):
        if not any(m.rows):
            return q
        m = matmul(m, a)
    return 1 if a.n == 0 else None


def elimination_order(a: BoolMatrix) -> Permutation | None:
    """Repeatedly emit the lowest-index row that is zero on the still-alive
    columns; None when some rows can never be emitted."""
    alive = (1 << a.n) - 1
    order = []
    for _ in range(a.n):
        pick = None
        for i in _bits(alive):
            if a.rows[i] & alive == 0:
                pick = i
                break
        if pick is None:
            return None
        order.append(pick)
        alive &= ~(1 << pick)
    return Permutation(tuple(order))


def elimination_cycle(a: BoolMatrix) -> tuple[int, ...] | None:
    """Strip rows that read no alive row until none is left to strip, then
    follow the lowest alive successor from the lowest alive row until a row
    repeats; None if every row is stripped."""
    alive = (1 << a.n) - 1
    changed = True
    while changed:
        changed = False
        for i in _bits(alive):
            if a.rows[i] & alive == 0:
                alive &= ~(1 << i)
                changed = True
    if alive == 0:
        return None
    start = _bits(alive)[0]
    path = [start]
    seen = {start: 0}
    while True:
        nxt = _bits(a.rows[path[-1]] & alive)[0]
        if nxt in seen:
            return tuple(path[seen[nxt]:])
        seen[nxt] = len(path)
        path.append(nxt)


# -- the translated map on n*kappa bits, one cell at a time ---------------------


def kron_identity(m: BoolMatrix, k: int) -> BoolMatrix:
    """Kronecker product with the k-dimensional identity.

    Index layout is variable-major: original index i maps to the block of
    indices i*k .. i*k + k - 1.
    """
    big = []
    for row in m.rows:
        block = 0
        for j in range(m.n):
            if (row >> j) & 1:
                block |= 1 << (j * k)
        for h in range(k):
            big.append(block << h)
    return BoolMatrix(m.n * k, tuple(big))


def flat_bits(words: Sequence[int], k: int) -> tuple[int, ...]:
    """A word state laid out variable-major: bit h of word i at i*k + h."""
    return tuple((w >> h) & 1 for w in words for h in range(k))


def cell_map(enc: EncodedSystem, h: int) -> BinaryMap:
    """The n-bit map acting inside cell h: each free component is its
    expression in the two-element algebra, each frozen one outputs bit h of
    its pinned word."""
    free = enc.set_map.components[: enc.arity - len(enc.pinned_words)]
    pinned = tuple((w >> h) & 1 for w in enc.pinned_words)

    def fn(bits):
        return tuple(recursive_bit_evaluate(e, bits) for e in free) + pinned

    return BinaryMap(enc.arity, fn)


def flat_map(enc: EncodedSystem) -> BinaryMap:
    """The translated map on n*kappa bits in variable-major layout, every
    cell stepped by its own cell map."""
    n, k = enc.arity, enc.kappa
    cells = [cell_map(enc, h) for h in range(k)]

    def fn(bits):
        out = [0] * (n * k)
        for h in range(k):
            cell_out = cells[h].step(tuple(bits[i * k + h] for i in range(n)))
            for i in range(n):
                out[i * k + h] = cell_out[i]
        return tuple(out)

    return BinaryMap(n * k, fn)


def flat_derivative_at(enc: EncodedSystem, bits: Sequence[int]) -> BoolMatrix:
    """The n*kappa derivative, assembled from every cell map's derivative:
    flipping a bit of cell h can only move outputs inside cell h."""
    n, k = enc.arity, enc.kappa
    rows = [0] * (n * k)
    for h in range(k):
        d = discrete_derivative(cell_map(enc, h), tuple(bits[i * k + h] for i in range(n)))
        for i in range(n):
            for j in range(n):
                if entry(d, i, j):
                    rows[i * k + h] |= 1 << (j * k + h)
    return BoolMatrix(n * k, tuple(rows))


def per_cell_equilibria(enc: EncodedSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every cell's fixed points, one cell map step per cell and state."""
    n_free = enc.arity - len(enc.pinned_words)
    out = []
    for h in range(enc.kappa):
        g = cell_map(enc, h)
        pinned = tuple((w >> h) & 1 for w in enc.pinned_words)
        fixed = []
        for mask in range(1 << n_free):
            bits = tuple((mask >> i) & 1 for i in range(n_free)) + pinned
            if g.step(bits) == bits:
                fixed.append(bits)
        out.append(tuple(sorted(fixed)))
    return tuple(out)


def word_scan_equilibria(enc: EncodedSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every cell's fixed points, one kappa-bit word step per free state:
    the state is put into every cell at once, and the cells where it is
    fixed are the AND over the components of ``~(out_i ^ in_i)``."""
    step = enc.map.step
    n_free, k = enc.arity - len(enc.pinned_words), enc.kappa
    full = (1 << k) - 1
    pinned = [tuple((w >> h) & 1 for w in enc.pinned_words) for h in range(k)]
    per_cell: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for mask in range(1 << n_free):
        free = tuple((mask >> i) & 1 for i in range(n_free))
        words = tuple(full if bit else 0 for bit in free) + enc.pinned_words
        fixed = full
        for x, y in zip(words, step(words)):
            fixed &= ~(x ^ y)
        for h in range(k):
            if (fixed >> h) & 1:
                per_cell[h].append(free + pinned[h])
    return tuple(tuple(sorted(fps)) for fps in per_cell)


def stepwise_derivative_blocks(f: BinaryMap, x: Sequence[int]) -> tuple[BoolMatrix, ...]:
    """The derivative blocks by n + 1 separate steps, one at ``x`` and one
    with each word flipped in all positions, read one entry at a time."""
    n, full = f.n, (1 << f.width) - 1
    x = tuple(x)
    fx = f.step(x)
    moved = [
        [a ^ b for a, b in zip(fx, f.step(x[:j] + (x[j] ^ full,) + x[j + 1 :]))]
        for j in range(n)
    ]
    blocks = []
    for h in range(f.width):
        rows = [0] * n
        for j, column in enumerate(moved):
            for i, bits in enumerate(column):
                rows[i] |= ((bits >> h) & 1) << j
        blocks.append(BoolMatrix(n, tuple(rows)))
    return tuple(blocks)


def two_run_fixed_point(
    enc: EncodedSystem, start: Sequence[IntervalSet], verdict: ContractivityVerdict
) -> tuple[IntervalSet, ...]:
    """The global fixed point by q word steps from the start and q more from
    its componentwise complement (frozen words stay pinned), one run after
    the other."""
    if verdict.q is None:
        raise SetconsError("a contractive verdict must carry its round bound q")
    state = enc.encode_state(tuple(start))
    n_visible, full = enc.arity - len(enc.pinned_words), (1 << enc.kappa) - 1
    check = tuple(w ^ full for w in state[:n_visible]) + state[n_visible:]
    state, check = enc.map.iterate(state, verdict.q), enc.map.iterate(check, verdict.q)
    if check != state:
        raise SetconsError("two starts reached different fixed points")
    return enc.decode_state(state)


def per_pattern_equilibria(enc: EncodedSystem) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every cell's fixed points, one truth-table step of 2**n_free bits per
    distinct pinned pattern of the cells."""
    n_free = enc.arity - len(enc.pinned_words)
    size = 1 << n_free
    full = (1 << size) - 1
    columns = truth_columns(n_free)
    pins = [tuple((w >> h) & 1 for w in enc.pinned_words) for h in range(enc.kappa)]
    found = {}
    for bits in dict.fromkeys(pins):
        pinned = tuple(full if bit else 0 for bit in bits)
        fixed = full
        for x, y in zip(columns, enc.word_map(pinned, size).step(columns + pinned)):
            fixed &= ~(x ^ y)
        found[bits] = tuple(sorted(
            tuple((mask >> i) & 1 for i in range(n_free)) + bits
            for mask in range(size) if (fixed >> mask) & 1
        ))
    return tuple(found[bits] for bits in pins)


def column_at_most_one_by_entries(a: BoolMatrix) -> bool:
    """Count every column's entries one ``entry`` call at a time."""
    for j in range(a.n):
        if sum(entry(a, i, j) for i in range(a.n)) > 1:
            return False
    return True


def block_incidence_verdict(f: SetMap, partition: Partition) -> bool:
    """Contractivity decided on the n*kappa block incidence B kron I of the
    translated map."""
    return power_is_nilpotent(kron_identity(f.incidence(), partition.kappa))


def flat_local_verdict(f: SetMap, x_eq: Sequence[IntervalSet], partition: Partition) -> bool:
    """Local attractiveness decided on the whole n*kappa derivative."""
    enc = translate_map(f, partition)
    d = flat_derivative_at(enc, flat_bits(enc.encode_state(tuple(x_eq)), enc.kappa))
    return power_is_nilpotent(d) and column_at_most_one_by_entries(d)


# -- the set-literal parser that the system grammar replaced ----------------------
#
# [a,b]  (a,b)  [a,b)  (a,b]  joined with `|`, plus `empty` and `X` (the
# universe).  Numbers are decimal rationals (7, 3.5, 1/3) with the sign
# attached, and `inf`/`-inf`.

_REGEX_LIT_TOKEN = re.compile(
    r"\s*(?:(?P<brack>[\[\]\(\)|,])|(?P<inf>-?inf\b)|(?P<num>-?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


def _regex_lit_tokens(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _REGEX_LIT_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"bad interval literal near {rest[:12]!r}")
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


def regex_parse_interval_set(text: str, universe: Universe | None = None) -> IntervalSet:
    """Parse the textual literal syntax into a canonical IntervalSet."""
    tokens = _regex_lit_tokens(text)
    if not tokens:
        raise ValueError("empty interval literal")
    if tokens == ["empty"]:
        return IntervalSet.empty()
    if tokens == ["X"]:
        if universe is None:
            raise ValueError("universe literal X needs a universe")
        return universe.carrier
    spans = []
    i = 0
    while i < len(tokens):
        opener = tokens[i]
        if opener not in "[(":
            raise ValueError(f"expected interval, found {opener!r}")
        if i + 4 >= len(tokens):
            raise ValueError("truncated interval literal")
        lo, comma, hi, closer = tokens[i + 1 : i + 5]
        if comma != ",":
            raise ValueError("expected ',' inside interval")
        if closer not in ")]":
            raise ValueError(f"expected interval close, found {closer!r}")
        lo_v, hi_v = as_value(lo), as_value(hi)
        if opener == "[" and isinstance(lo_v, float):
            raise ValueError("an infinite endpoint cannot be closed")
        if closer == "]" and isinstance(hi_v, float):
            raise ValueError("an infinite endpoint cannot be closed")
        spans.append(Interval.make(lo_v, hi_v, opener == "[", closer == "]"))
        i += 5
        if i < len(tokens):
            if tokens[i] != "|":
                raise ValueError(f"expected '|' between intervals, found {tokens[i]!r}")
            i += 1
    return IntervalSet.of(*spans)


# -- the hand-counted tokenizer and the three-level expression parser ------------


class HandCountedToken(NamedTuple):
    kind: str  # IDENT NUMBER PUNCT NEWLINE EOF
    text: str
    line: int
    column: int


_HAND_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\f\v]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[\[\]\(\),=|&^~\\\-])"
)


def hand_counted_tokenize(text: str) -> list[HandCountedToken]:
    """Tokens with the line and column of their first character, each
    advanced by hand over every lexeme, blanks and comments included."""
    tokens: list[HandCountedToken] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _HAND_TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError([Diagnostic("error", line, col, f"unexpected character {text[pos]!r}")])
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "newline":
            tokens.append(HandCountedToken("NEWLINE", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind in ("number", "ident", "punct"):
                tokens.append(HandCountedToken(kind.upper(), lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(HandCountedToken("EOF", "", line, col))
    return tokens


class ThreeLevelParser(dsl._Parser):
    """The system parser on hand-counted tokens, with one method per
    precedence level of the binary operators: ``|``, then ``\\``/``^``,
    then ``&``."""

    def __init__(self, text: str):
        super().__init__("")  # the parser's state, without the library's tokens
        self.text, self.tokens = text, hand_counted_tokenize(text)

    def diagnostic(self, tok, message, hint):
        return Diagnostic("error", tok.line, tok.column, message, hint)

    def parse_expr(self, names, lowest):
        return self.parse_union(names)

    def parse_union(self, names) -> SetExpr:
        left = self.parse_diff(names)
        while self.at_punct("|"):
            self.advance()
            left = Union(left, self.parse_diff(names))
        return left

    def parse_diff(self, names) -> SetExpr:
        left = self.parse_intersect(names)
        while self.at_punct("\\") or self.at_punct("^"):
            op = self.advance().text
            right = self.parse_intersect(names)
            left = Difference(left, right) if op == "\\" else SymDiff(left, right)
        return left

    def parse_intersect(self, names) -> SetExpr:
        left = self.parse_atom(names)
        while self.at_punct("&"):
            self.advance()
            left = Intersect(left, self.parse_atom(names))
        return left


def three_level_parse(text: str) -> SystemSpec:
    return ThreeLevelParser(text).parse_system()


def three_level_parse_set_literal(text: str, universe: Universe | None = None) -> IntervalSet:
    parser = ThreeLevelParser(text)
    parser.tokens = [tok for tok in parser.tokens if tok.kind != "NEWLINE"]
    value = parser.parse_interval_set(universe)
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(tok, f"unexpected {tok.text!r} after the set literal")
    return value


# -- checks only tests need -------------------------------------------------------


def check_distance_bound(f: SetMap, x: Sequence[IntervalSet], y: Sequence[IntervalSet]) -> bool:
    """Whether distance(f(x), f(y)) is componentwise inside B(f) * distance(x, y)."""
    lhs = set_distance(f.eval(x), f.eval(y))
    rhs = incidence_apply(f.incidence(), set_distance(x, y))
    return all(l.is_subset(r) for l, r in zip(lhs, rhs))


def check_composition_bound(f: SetMap, g: SetMap) -> bool:
    """Whether the composed map's incidence is bounded by the product of the
    factors' incidences."""
    return matrix_le(compose(f, g).incidence(), matmul(f.incidence(), g.incidence()))


def find_bound_counterexample(
    f: SetMap, m: BoolMatrix, partition: Partition, caps: Caps = DEFAULT
) -> tuple[tuple[IntervalSet, ...], tuple[IntervalSet, ...]] | None:
    """A state pair violating the distance bound for a candidate matrix ``m``.

    Exists exactly when ``m`` misses a live dependency of ``f``; the pair is
    built from one cell region and a binary witness of that dependency.
    """
    enc = translate_map(f, partition)
    live = semantic_incidence(cell_map(enc, 0), caps)
    for i in range(f.arity):
        for j in range(f.arity):
            if entry(live, i, j) and not entry(m, i, j):
                bits = dependency_witness(cell_map(enc, 0), i, j, caps)
                assert bits is not None
                region = partition.regions[0]
                x = tuple(region if b else IntervalSet.empty() for b in bits)
                y = x[:j] + (x[j] ^ region,) + x[j + 1 :]
                lhs = set_distance(f.eval(x), f.eval(y))
                rhs = incidence_apply(m, set_distance(x, y))
                assert not lhs[i].is_subset(rhs[i])
                return x, y
    return None


def block_incidence_check(f: SetMap, partition: Partition, caps: Caps = DEFAULT) -> bool:
    """Structural check of the translated map's incidence: the dependency
    matrix extracted from the per-cell binary map, blown up cell-blockwise,
    must equal the source map's incidence Kroneckered with the identity."""
    enc = translate_map(f, partition)
    observed = kron_identity(semantic_incidence(cell_map(enc, 0), caps), enc.kappa)
    expected = kron_identity(f.incidence(), enc.kappa)
    return observed == expected


def is_locally_attractive_direct(f: SetMap, x_eq: Sequence[IntervalSet]) -> bool:
    """Local attractiveness checked by direct set-level simulation over the
    neighborhood (each neighbor complements one whole component)."""
    x_eq = tuple(x_eq)
    if f.eval(x_eq) != x_eq:
        raise ValueError("not an equilibrium")
    hood = [x_eq] + [
        x_eq[:j] + (f.universe.complement(x_eq[j]),) + x_eq[j + 1 :] for j in range(f.arity)
    ]
    hood_set = set(hood)
    for y in hood:
        if f.eval(y) not in hood_set:
            return False
    for y in hood:
        state = y
        for _ in range(f.arity):
            state = f.eval(state)
        if state != x_eq:
            return False
    return True


def is_vnn_attractive_direct(f: BinaryMap, x_eq: tuple[int, ...]) -> bool:
    """Neighborhood attractiveness by direct simulation: one step never
    leaves the state and its one-bit-flip neighbors, and every neighbor is
    absorbed within n steps."""
    x_eq = tuple(x_eq)
    if f.step(x_eq) != x_eq:
        raise ValueError(f"{format_bits(x_eq)} is not an equilibrium")
    hood = {x_eq} | {flip(x_eq, j) for j in range(len(x_eq))}
    for y in hood:
        if f.step(y) not in hood:
            return False
    for y in hood:
        if f.iterate(y, f.n) != x_eq:
            return False
    return True


# -- the 0/1 Boolean-map API, matrix helpers and set-map extras ------------------


def from_rows(rows) -> BoolMatrix:
    """The matrix with 0/1 entries ``rows[i][j]``."""
    masks = []
    for row in rows:
        m = 0
        for j, bit in enumerate(row):
            if bit not in (0, 1, False, True):
                raise ValueError("entries must be 0 or 1")
            if bit:
                m |= 1 << j
        masks.append(m)
    return BoolMatrix(len(masks), tuple(masks))


def zero_matrix(n: int) -> BoolMatrix:
    return BoolMatrix(n, (0,) * n)


def identity_matrix(n: int) -> BoolMatrix:
    return BoolMatrix(n, tuple(1 << i for i in range(n)))


def entry(a: BoolMatrix, i: int, j: int) -> int:
    return (a.rows[i] >> j) & 1


def matmul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """The (or, and) product: row i of ``a @ b`` joins the rows of ``b`` that
    row i of ``a`` selects."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    out = []
    for row in a.rows:
        acc = 0
        for k in _bits(row):
            acc |= b.rows[k]
        out.append(acc)
    return BoolMatrix(a.n, tuple(out))


def transpose(a: BoolMatrix) -> BoolMatrix:
    out = [0] * a.n
    for i, row in enumerate(a.rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return BoolMatrix(a.n, tuple(out))


def matrix_le(a: BoolMatrix, b: BoolMatrix) -> bool:
    """Elementwise order: every 1 of ``a`` is a 1 of ``b``."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return all(r & ~s == 0 for r, s in zip(a.rows, b.rows))


def to_lists(a: BoolMatrix) -> list[list[int]]:
    return [[entry(a, i, j) for j in range(a.n)] for i in range(a.n)]


def matrix_text(a: BoolMatrix) -> str:
    return "\n".join(" ".join(str(entry(a, i, j)) for j in range(a.n)) for i in range(a.n))


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def permutation_matrix(p: Permutation) -> BoolMatrix:
    # Column k holds a 1 at row order[k], so P^T A P conjugates by order.
    rows = [0] * len(p.order)
    for k, i in enumerate(p.order):
        rows[i] |= 1 << k
    return BoolMatrix(len(p.order), tuple(rows))


def conjugate(p: Permutation, a: BoolMatrix) -> BoolMatrix:
    """``a`` with rows and columns reordered by ``p``."""
    n = len(p.order)
    if a.n != n:
        raise ValueError("dimension mismatch")
    return from_rows([[entry(a, p.order[i], p.order[j]) for j in range(n)] for i in range(n)])


def is_strictly_lower(a: BoolMatrix) -> bool:
    return all(row >> i == 0 for i, row in enumerate(a.rows))


def parse_bits(text: str) -> tuple[int, ...]:
    if any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


def flip(x: tuple[int, ...], j: int) -> tuple[int, ...]:
    return x[:j] + (1 - x[j],) + x[j + 1 :]


def all_states(n: int):
    for mask in range(1 << n):
        yield tuple((mask >> j) & 1 for j in range(n))


def binary_distance(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise exclusive-or vector."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return tuple(a ^ b for a, b in zip(x, y))


def map_from_components(fns) -> BinaryMap:
    """The 0/1 map whose output bit i is ``fns[i](x)``."""
    fns = list(fns)
    return BinaryMap(len(fns), lambda x: tuple(f(x) for f in fns))


def _bit_states(f: BinaryMap, caps: Caps, scan: str):
    """The 2**n states of a 0/1 map, once the width and the cap allow it."""
    if f.width != 1:
        raise ValueError(f"the {scan} runs over 0/1 states, not {f.width}-bit words")
    check_states(f.n, caps, scan)
    return all_states(f.n)


def equilibria(f: BinaryMap, caps: Caps = DEFAULT) -> list[tuple[int, ...]]:
    """All fixed points of a 0/1 map, sorted; exhaustive over the 2**n states."""
    return sorted(x for x in _bit_states(f, caps, "equilibria enumeration") if f.step(x) == x)


def derivative_blocks(f: BinaryMap, x) -> tuple[BoolMatrix, ...]:
    """The derivative at ``x`` in every bit position (the library's one tiled step)."""
    return _derivative(f, x)[1]


def discrete_derivative(f: BinaryMap, x) -> BoolMatrix:
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


def dependency_witness(f: BinaryMap, i: int, j: int, caps: Caps = DEFAULT) -> tuple[int, ...] | None:
    """A state where flipping input j changes output i, if one exists."""
    for x in _bit_states(f, caps, "dependency scan"):
        if f.step(x)[i] != f.step(flip(x, j))[i]:
            return x
    return None


class OrbitLimitError(SetconsError):
    """Orbit iteration hit its step budget before closing a cycle."""


@dataclass(frozen=True)
class OrbitSummary:
    """Transient length, cycle period, and the cycle's states in visit order."""

    transient: int
    period: int
    cycle: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "transient": self.transient,
            "period": self.period,
            "cycle": [format_bits(x) for x in self.cycle],
        }


def orbit(f: BinaryMap, x0, max_steps: int | None = None) -> OrbitSummary:
    """Follow iterates until a state repeats; closes within 2**(n*width) steps."""
    budget = (1 << f.n * f.width) if max_steps is None else max_steps
    if budget < 1:
        raise ValueError("max_steps must be at least 1")
    path, start = walk(f, x0, budget)
    if start is None:
        raise OrbitLimitError(f"no closure within {budget} steps from {format_bits(tuple(x0))}")
    return OrbitSummary(transient=start, period=len(path) - start, cycle=tuple(path[start:]))


@dataclass(frozen=True)
class BinaryContraction:
    """Contractivity verdict; when positive, ``q`` iterations from any start
    land on the unique fixed point."""

    contractive: bool
    q: int | None = None
    fixed_point: tuple[int, ...] | None = None


def binary_contractivity(
    f: BinaryMap, incidence: BoolMatrix | None = None, caps: Caps = DEFAULT
) -> BinaryContraction:
    """Contractivity of a 0/1 map by one dependency walk over the supplied
    incidence matrix, or else the exact dependency scan; ``q`` is its
    longest dependency chain."""
    m = semantic_incidence(f, caps) if incidence is None else incidence
    if m.n != f.n:
        raise ValueError("incidence dimension mismatch")
    witness, q = dependency_order(m)
    if witness is None:
        return BinaryContraction(False)
    return BinaryContraction(True, q, f.iterate((0,) * f.n, q))


def set_distance(x: Sequence[IntervalSet], y: Sequence[IntervalSet]) -> tuple[IntervalSet, ...]:
    """Componentwise symmetric difference of two set vectors."""
    if len(x) != len(y):
        raise ValueError("arity mismatch")
    return tuple(a ^ b for a, b in zip(x, y))


def incidence_apply(b: BoolMatrix, d: Sequence[IntervalSet]) -> tuple[IntervalSet, ...]:
    """Incidence matrix times set vector: row i unions the d_j it selects."""
    if b.n != len(d):
        raise ValueError("dimension mismatch")
    out = []
    for i in range(b.n):
        acc = IntervalSet.empty()
        for j in range(b.n):
            if entry(b, i, j):
                acc = acc | d[j]
        out.append(acc)
    return tuple(out)


# Trees: every node rebuilt from its rewritten children.
_TREE = {kind: kind for kind in (UniverseLit, EmptyLit, Complement, Union, Intersect, Difference, SymDiff)}


def compose(f: SetMap, g: SetMap) -> SetMap:
    """The syntactic composition x -> f(g(x))."""
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    if f.frozen_values != g.frozen_values:
        raise ValueError("the maps pin different frozen values")
    # g's frozen rules are the identity, so f's stay so.
    return SetMap(tuple(fold(program, g.components, _TREE) for program in f.programs), f.universe, f.frozen_values)


def linear_spec(linear: LinearSetMap) -> SystemSpec:
    """A linear map as a system with one named constant per entry, each
    read as the frozen variable the parser makes of it, and empty initial
    sets."""
    n = len(linear.entries)
    constants = []
    rules = []
    for i in range(n):
        term: SetExpr | None = None
        for j in range(n):
            constants.append((f"a{i + 1}_{j + 1}", linear.entries[i][j]))
            piece = Intersect(Var(n + len(constants) - 1), Var(j))
            term = piece if term is None else Union(term, piece)
        rules.append(term)
    variables = tuple(f"X{i + 1}" for i in range(n))
    return SystemSpec(linear.universe, tuple(constants), variables, (IntervalSet.empty(),) * n, tuple(rules))


def as_set_map(linear: LinearSetMap) -> SetMap:
    """The dynamics of a linear map as a SetMap with one frozen variable per entry."""
    return linear_spec(linear).set_map()


def division_truth_columns(arity: int) -> tuple[int, ...]:
    """Each variable's truth table over the 2**arity inputs, one run pair
    times the repunit of its width, found by one big-int division."""
    full = (1 << (1 << arity)) - 1
    return tuple((((1 << (1 << j)) - 1) << (1 << j)) * (full // ((1 << (2 << j)) - 1)) for j in range(arity))


def full_line() -> IntervalSet:
    """The whole extended real line as a set."""
    return IntervalSet.of(Interval.make(float("-inf"), float("inf")))


def real_line() -> Universe:
    return Universe(full_line())


# The printer: (text, precedence) pairs, with the symbols and precedences of
# the parser's table.  An operand is parenthesised when its precedence is
# below the bound its position demands; atoms never are.
_ATOM = 4


def _paren(value: tuple[str, int], bound: int) -> str:
    text, prec = value
    return f"({text})" if prec < bound else text


def _infix(symbol: str, kind: type, prec: int):
    # A right operand of the same precedence keeps its parentheses, as every
    # operator groups to the left; the right operand of ``\`` and ``^``
    # keeps them unless it is an atom.
    right_bound = _ATOM if kind in (Difference, SymDiff) else prec + 1
    return lambda left, right: (f"{_paren(left, prec)} {symbol} {_paren(right, right_bound)}", prec)


_TEXT = {
    UniverseLit: lambda: ("X", _ATOM),
    EmptyLit: lambda: ("empty", _ATOM),
    Complement: lambda child: ("~" + _paren(child, _ATOM), _ATOM),
    **{kind: _infix(symbol, kind, prec) for symbol, (kind, prec) in BINARY_OPS.items()},
}


def expr_to_text(e: SetExpr, names: Sequence[str] | None = None) -> str:
    """Render an expression in the DSL surface syntax with minimal parens."""

    program = postorder(e)
    n = max((node.index + 1 for node in program if type(node) is Var), default=0)
    leaves = [(names[i] if names is not None else f"X{i + 1}", _ATOM) for i in range(n)]
    return fold(program, leaves, _TEXT)[0]


def pretty_print(spec: SystemSpec) -> str:
    """Canonical text form; parsing it back yields a structurally equal spec."""
    lines = [f"universe {spec.universe.carrier}"]
    if spec.constants:
        lines.append("")
        for name, value in spec.constants:
            lines.append(f"const {name} = {value}")
    lines.append("")
    for name, init in zip(spec.variables, spec.initials):
        lines.append(f"state {name} = {init}")
    lines.append("")
    names = spec.variables + tuple(name for name, _ in spec.constants)
    for name, rule in zip(spec.variables, spec.rules):
        lines.append(f"rule {name} = {expr_to_text(rule, names)}")
    if spec.options:
        lines.append("")
        for key, value in spec.options:
            lines.append(f"option {key} = {value}")
    return "\n".join(lines) + "\n"
