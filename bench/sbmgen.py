"""Seeded generator of synthetic ``.sbm`` systems.

The parameters are the scaling axes of the system: agents ``n``, named
constants ``c`` (so ``m = n + c`` partition generators when every initial
set is a generator), intervals per set, and the shape of the rule graph:

* ``dag``: rule i reads only agents before it and constants, so the
  system is contractive by construction;
* ``chain``: ``X0 = C`` and ``Xi = X(i-1) & C`` with all agents empty, so
  a run closes after exactly ``n`` rounds on the consensus ``C``;
* ``cyclic``: every rule may read any agent.

Each generator returns a :class:`System`: the ``.sbm`` text plus facts that
follow from the construction: the cell count from an independent endpoint
sweep, the contraction bound ``q`` from the rule graph, the chain's
consensus, and a cyclic run's transient, period and distances from the
generator's own cell-by-cell run.  The benchmark checks the program's
output against those facts.  The same seed always gives the same bytes.

This module does not import ``setcons``: its facts must not come from the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

UNIVERSE_HI = 1000
OPS = ("|", "&", "\\", "^")


@dataclass(frozen=True)
class System:
    text: str
    facts: dict


@dataclass(frozen=True)
class Span:
    lo: int
    hi: int
    lo_closed: bool
    hi_closed: bool

    def __str__(self) -> str:
        return f"{'[' if self.lo_closed else '('}{self.lo},{self.hi}{']' if self.hi_closed else ')'}"

    def has_point(self, p: int) -> bool:
        return self.lo < p < self.hi or (p == self.lo and self.lo_closed) or (p == self.hi and self.hi_closed)

    def has_gap(self, a: int, b: int) -> bool:
        """Whether the open gap (a, b) between two consecutive breakpoints lies inside."""
        return self.lo <= a and b <= self.hi


def set_text(spans) -> str:
    """Canonical text of a union of sorted, disjoint, non-touching spans:
    the same string the library prints for it."""
    return " | ".join(str(s) for s in spans) if spans else "empty"


def random_set(rng: random.Random, parts: int, hi: int = UNIVERSE_HI) -> tuple[Span, ...]:
    """``parts`` disjoint intervals with distinct integer endpoints in [0, hi]
    and random brackets.  Distinct endpoints keep the union canonical."""
    ends = sorted(rng.sample(range(hi + 1), 2 * parts))
    return tuple(
        Span(ends[2 * i], ends[2 * i + 1], rng.random() < 0.5, rng.random() < 0.5)
        for i in range(parts)
    )


def cell_masks(sets, hi: int = UNIVERSE_HI) -> tuple[int, list[int]]:
    """Cut the universe [0, hi] by ``sets`` into cells: the distinct
    membership signatures over the elementary pieces (each breakpoint and
    each open gap between consecutive breakpoints).  Returns the cell count
    and, per set, an int whose bit h says whether the set holds cell h."""
    points = sorted({0, hi} | {e for spans in sets for s in spans for e in (s.lo, s.hi)})
    signatures: dict[tuple, int] = {}
    for k, p in enumerate(points):
        signatures.setdefault(tuple(any(s.has_point(p) for s in spans) for spans in sets), len(signatures))
        if k + 1 < len(points):
            q = points[k + 1]
            sig = tuple(any(s.has_gap(p, q) for s in spans) for spans in sets)
            signatures.setdefault(sig, len(signatures))
    masks = [0] * len(sets)
    for sig, h in signatures.items():
        for i, inside in enumerate(sig):
            if inside:
                masks[i] |= 1 << h
    return len(signatures), masks


def _tree(rng: random.Random, names, depth: int, negate: float):
    """A full binary expression tree of the given depth.  Leaves are
    ``(name, negated)``; inner nodes are ``(op, left, right)``."""
    if depth == 0:
        return (rng.choice(names), rng.random() < negate)
    return (rng.choice(OPS), _tree(rng, names, depth - 1, negate), _tree(rng, names, depth - 1, negate))


def _text(node) -> str:
    if len(node) == 2:
        return ("~" if node[1] else "") + node[0]
    return f"({_text(node[1])} {node[0]} {_text(node[2])})"


def _reads(node) -> set:
    return {node[0]} if len(node) == 2 else _reads(node[1]) | _reads(node[2])


def _bits(node, env, full: int) -> int:
    """Evaluate a tree cell-wise: every value is an int whose bit h says
    whether the set holds cell h, and ``full`` is the universe."""
    if len(node) == 2:
        value = env[node[0]]
        return value ^ full if node[1] else value
    op, a, b = node[0], _bits(node[1], env, full), _bits(node[2], env, full)
    if op == "|":
        return a | b
    if op == "&":
        return a & b
    if op == "^":
        return a ^ b
    return a & ~b


def _distinct_sets(rng: random.Random, count: int, max_parts: int, hi: int):
    out: list[tuple[Span, ...]] = []
    while len(out) < count:
        s = random_set(rng, rng.randint(1, max_parts), hi)
        if s not in out:
            out.append(s)
    return out


def orbit(trees, agents, consts, masks, kappa: int, budget: int):
    """Iterate the rules cell-wise from the initial masks until a state
    repeats.  Returns ``(transient, period, states)``, with transient and
    period None when ``budget`` rounds pass without a repeat."""
    full = (1 << kappa) - 1
    env = dict(zip(consts, masks[len(agents):]))
    state = tuple(masks[: len(agents)])
    seen = {state: 0}
    states = [state]
    for t in range(1, budget + 1):
        env.update(zip(agents, state))
        state = tuple(_bits(tree, env, full) for tree in trees)
        if state in seen:
            return seen[state], t - seen[state], states
        seen[state] = t
        states.append(state)
    return None, None, states


def dag(seed, n: int, c: int, kappa: int | None = None, q: int | None = None,
        max_parts: int = 3, depth: int = 3) -> System:
    """Rule i is a random depth-``depth`` expression over agents before i and
    the ``c`` constants.  Initial sets and constants have 1..max_parts
    intervals and are pairwise distinct, so m = n + c.  When ``kappa`` or
    ``q`` is given, candidates are drawn until the sets cut exactly that many
    cells and the contraction bound is exactly ``q``, so that every system of
    a workload costs about the same."""
    rng = random.Random(f"dag:{seed}:{n}:{c}:{kappa}:{q}:{max_parts}:{depth}")
    consts = [f"C{j + 1}" for j in range(c)]
    agents = [f"X{i + 1}" for i in range(n)]
    while True:
        sets = _distinct_sets(rng, n + c, max_parts, UNIVERSE_HI)
        cells = cell_masks(sets)[0]
        if kappa is not None and cells != kappa:
            continue
        level = dict.fromkeys(consts, 0)
        trees = []
        for i, name in enumerate(agents):
            tree = _tree(rng, consts + agents[:i], depth, 0.2)
            level[name] = 1 + max(level[r] for r in _reads(tree))
            trees.append(tree)
        # the nilpotency index of the incidence is the longest dependency path + 1
        bound = 1 + max(level.values())
        if q is None or bound == q:
            break
    text = _header(UNIVERSE_HI, consts, sets[n:], agents, sets[:n], [_text(t) for t in trees])
    return System(text, {"n": n, "m": n + c, "kappa": cells, "q": bound, "variables": n + c})


def chain(seed, n: int, parts: int) -> System:
    """``X0 = C``, ``Xi = X(i-1) & C``, all agents empty; C has ``parts``
    intervals.  Round t has C in agents 0..t-1 and empty elsewhere, so the
    run closes with transient n, period 1 and consensus C."""
    rng = random.Random(f"chain:{seed}:{n}:{parts}")
    hi = max(UNIVERSE_HI, 10 * parts)
    cset = random_set(rng, parts, hi)
    agents = [f"X{i}" for i in range(n)]
    rules = ["C"] + [f"{agents[i - 1]} & C" for i in range(1, n)]
    text = _header(hi, ["C"], [cset], agents, [()] * n, rules)
    measure = sum(s.hi - s.lo for s in cset)
    return System(text, {"n": n, "m": 1, "consensus": set_text(cset), "measure": measure})


def cyclic(seed, n: int, c: int, rounds: tuple[int, int], kappa: tuple[int, int],
           max_parts: int = 3, depth: int = 2) -> System:
    """Rule i is a random depth-``depth`` expression over every agent and the
    constants, so the dependency graph has cycles.  The generator runs the
    system itself, cell by cell on bit masks, and draws candidates until
    the cell count lies in ``kappa`` and the run closes after a number of
    rounds (transient + period) in ``rounds``.  The facts carry that run's
    transient, period and per-round distances to the closing state."""
    rng = random.Random(f"cyclic:{seed}:{n}:{c}:{rounds}:{kappa}:{max_parts}:{depth}")
    consts = [f"C{j + 1}" for j in range(c)]
    agents = [f"X{i + 1}" for i in range(n)]
    while True:
        sets = _distinct_sets(rng, n + c, max_parts, UNIVERSE_HI)
        k, masks = cell_masks(sets)
        if not kappa[0] <= k <= kappa[1]:
            continue
        trees = [_tree(rng, consts + agents, depth, 0.2) for _ in agents]
        # the simulator's default budget: 2 * (agents + constants) * cells
        transient, period, states = orbit(trees, agents, consts, masks, k, 2 * (n + c) * k)
        if transient is not None and rounds[0] <= transient + period <= rounds[1]:
            break
    final = states[transient]
    facts = {
        "n": n,
        "m": n + c,
        "kappa": k,
        "transient": transient,
        "period": period,
        "distances": [sum(bin(a ^ b).count("1") for a, b in zip(s, final)) for s in states],
        "consensus": period == 1 and len(set(final)) == 1,
    }
    text = _header(UNIVERSE_HI, consts, sets[n:], agents, sets[:n], [_text(t) for t in trees])
    return System(text, facts)


def interval_pair(seed, parts: int) -> tuple[str, str]:
    """Two random ``parts``-interval sets, as text, for the ``&`` kernel."""
    rng = random.Random(f"pair:{seed}:{parts}")
    hi = 10 * parts
    return set_text(random_set(rng, parts, hi)), set_text(random_set(rng, parts, hi))


def _header(hi: int, consts, const_sets, agents, init_sets, rules) -> str:
    lines = [f"universe [0,{hi}]", ""]
    lines += [f"const {name} = {set_text(s)}" for name, s in zip(consts, const_sets)]
    lines += [f"state {name} = {set_text(s)}" for name, s in zip(agents, init_sets)]
    lines.append("")
    lines += [f"rule {name} = {rule}" for name, rule in zip(agents, rules)]
    return "\n".join(lines) + "\n"
