"""Round-based synchronous simulator.

Each state variable is an agent; in every round all agents apply their
update rule to the previous round's values.  Every reachable state is a
union of partition cells, so the run encodes its start once and steps the
translated word map with :func:`~setcons.bindyn.walk`: closure (fixed
point or cycle) is a repeated word tuple, and distances are bit counts.
Each distinct word is decoded once for the report, and one set-level step
confirms the last word step.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bindyn import walk
from .dsl import SystemSpec
from .encoding import encode_system
from .errors import SetconsError
from .intervals import Interval, IntervalSet, Universe


class Trajectory(NamedTuple):
    """One simulation run over the visible agents.

    ``distances[t]`` is the number of encoded bits by which round t differs
    from the closure state; ``distance_lengths[t]`` is the same gap as total
    interval length inside ``window`` (the :func:`sampling_window` of the
    system's sets), for human consumption; a length past the float range
    is ``inf``.  ``closed`` is False when the round budget ran out before a
    repeat was seen (then transient/period are None).
    """

    agents: tuple[str, ...]
    rounds: tuple[tuple[IntervalSet, ...], ...]
    transient: int | None
    period: int | None
    consensus: IntervalSet | None
    distances: tuple[int, ...]
    distance_lengths: tuple[float, ...]
    closed: bool
    window: Interval

    def to_json_dict(self) -> dict:
        return {
            "agents": list(self.agents),
            "rounds": [[str(s) for s in state] for state in self.rounds],
            "transient": self.transient,
            "period": self.period,
            "consensus": str(self.consensus) if self.consensus is not None else None,
            "distances": list(self.distances),
            "distance_lengths": list(self.distance_lengths),
            "closed": self.closed,
        }


def sampling_window(universe: Universe, sets: Iterable[IntervalSet] = ()) -> Interval:
    """A finite window over the interesting part of the universe: the span
    of the finite endpoints of the universe and of ``sets`` (a system's
    initial and constant sets) padded by 10 percent, or else ``[0,100]``."""
    # A set's intervals ascend: its extreme endpoints are in the first and last.
    finite = [
        key[0]
        for s in (universe.carrier, *sets) if s
        for iv in (s.intervals[0], s.intervals[-1])
        for key in (iv.lo_key, iv.hi_key)
        if not isinstance(key[0], float)
    ]
    if not finite:
        return Interval.closed(0, 100)
    lo, hi = min(finite), max(finite)
    if lo == hi:
        hi = lo + 1
    return Interval.closed(lo, hi + Fraction(hi - lo, 10))


def random_interval_set(rng: random.Random, universe: Universe, max_parts: int = 3,
                        window: Interval | None = None) -> IntervalSet:
    """A random union of up to ``max_parts`` rational-endpoint intervals inside
    the universe (possibly empty), drawn across ``window`` or the universe's."""
    window = window or sampling_window(universe)
    lo, hi = window.lo_key[0], window.hi_key[0]
    span = hi - lo
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        a = lo + Fraction(rng.randint(0, 64), 64) * span
        b = lo + Fraction(rng.randint(0, 64), 64) * span
        if a > b:
            a, b = b, a
        if a == b and rng.random() < 0.5:
            parts.append(Interval.singleton(a))
            continue
        if a == b:
            continue
        parts.append(Interval.make(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet.of(*parts) & universe.carrier


def simulate(
    spec: SystemSpec,
    max_rounds: int | None = None,
    seed: int | None = None,
    random_init: bool = False,
) -> Trajectory:
    """Run the system until closure or the round budget is exhausted."""
    f = spec.set_map()
    window = sampling_window(spec.universe, spec.initials + f.frozen_values)
    initials = spec.initials
    if random_init:
        rng = random.Random(seed)
        initials = tuple(random_interval_set(rng, spec.universe, window=window) for _ in spec.variables)
    enc = encode_system(f, initials)
    partition = enc.partition

    if max_rounds is None:
        max_rounds = spec.options_map.get("max_rounds", 2 * f.arity * partition.kappa)
    if max_rounds < 1:
        raise SetconsError("max_rounds must be at least 1")

    n_visible = len(spec.variables)
    start = enc.encode_state(initials + f.frozen_values)
    encoded, transient = walk(enc.map, start, max_rounds)
    closed = transient is not None
    # Both ends of the last step are in the trajectory: decode every
    # distinct word once, and check that step on the sets.
    last, words = (encoded[-1], encoded[transient]) if closed else encoded[-2:]
    sets = {w: partition.decode(w) for w in set().union(*encoded)}
    if f.eval(tuple(sets[w] for w in last)) != tuple(sets[w] for w in words):
        raise SetconsError("the word map and the set map disagree on a step")
    period = len(encoded) - transient if closed else None
    final = encoded[transient] if closed else encoded[-1]
    agreed = period == 1 and len(set(final[:n_visible])) == 1
    # Every state is a union of cells, so an agent's gap to the closure
    # state is the union of the cells where their words differ.
    cell_lengths = [region.measure(window) for region in partition.regions]
    return Trajectory(
        agents=spec.variables,
        rounds=tuple(tuple(sets[w] for w in ws[:n_visible]) for ws in encoded),
        transient=transient,
        period=period,
        consensus=sets[final[0]] if agreed else None,
        distances=tuple(sum((a ^ b).bit_count() for a, b in zip(ws, final)) for ws in encoded),
        distance_lengths=tuple(
            _float(sum(cell_lengths[h] for a, b in zip(ws[:n_visible], final)
                       for h in range(partition.kappa) if ((a ^ b) >> h) & 1))
            for ws in encoded
        ),
        closed=closed,
        window=window,
    )


def _float(length: Fraction) -> float:
    try:
        return float(length)
    except OverflowError:
        return math.inf


def render_timeline(traj: Trajectory, window: Interval, width: int = 48) -> str:
    """ASCII bars marking each agent's set across the window, one block of
    rows per round; deterministic for a given trajectory."""
    lo, hi = window.lo_key[0], window.hi_key[0]
    if isinstance(lo, float) or isinstance(hi, float):
        raise ValueError("the timeline window must be finite")
    span = hi - lo
    lines = [f"window {window}  ({width} bins)"]
    for t, state in enumerate(traj.rounds):
        lines.append(f"round {t}:")
        for name, s in zip(traj.agents, state):
            cells = []
            for k in range(width):
                mid = lo + span * Fraction(2 * k + 1, 2 * width)
                cells.append("#" if s.contains(mid) else ".")
            lines.append(f"  {name:>6} |{''.join(cells)}|")
    return "\n".join(lines)
