"""Slow reference implementations that the library's linear-time paths are
checked against.

Each one is the plain, obviously correct form of a library routine: the
pairwise intersection, the union that sorts the concatenation again, the
subset test through intersection, the partition found by trying all 2**m
signatures, and the simulator's distance lengths measured on the sets
themselves.  They use only each other and the interval constructors, never
the library operations they check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from setcons import Interval, IntervalSet, Universe
from setcons.sim import Trajectory


def _lo_key(iv: Interval):
    return (iv.lo.value, 0 if iv.lo.closed else 1)


def _hi_key(iv: Interval):
    return (iv.hi.value, 0 if iv.hi.closed else -1)


def pairwise_and(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Intersect every interval of ``a`` with every interval of ``b``."""
    raw = []
    for x in a.intervals:
        for y in b.intervals:
            lo = x.lo if _lo_key(x) >= _lo_key(y) else y.lo
            hi = x.hi if _hi_key(x) <= _hi_key(y) else y.hi
            if (lo.value, 0 if lo.closed else 1) <= (hi.value, 0 if hi.closed else -1):
                raw.append(Interval(lo, hi))
    return IntervalSet.from_intervals(raw)


def resorting_or(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Sort and merge the concatenation of both interval tuples."""
    return IntervalSet.from_intervals(a.intervals + b.intervals)


def subset_via_and(a: IntervalSet, b: IntervalSet) -> bool:
    return pairwise_and(a, b) == a


def complement_within(s: IntervalSet, carrier: IntervalSet) -> IntervalSet:
    return pairwise_and(s.complement_line(), carrier)


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


def measure(s: IntervalSet, window: Interval) -> Fraction:
    """Total length of the part of ``s`` inside a finite window."""
    clipped = pairwise_and(s, IntervalSet((window,)))
    return sum((iv.hi.value - iv.lo.value for iv in clipped.intervals), Fraction(0))


def set_level_distance_lengths(traj: Trajectory, window: Interval) -> tuple[float, ...]:
    """Per round, the total window length of every agent's symmetric
    difference with its closure-state set."""
    final = traj.rounds[traj.transient] if traj.closed else traj.rounds[-1]
    lengths = []
    for state in traj.rounds:
        total = Fraction(0)
        for s, t in zip(state, final):
            gap = resorting_or(pairwise_and(s, t.complement_line()),
                               pairwise_and(t, s.complement_line()))
            total += measure(gap, window)
        lengths.append(float(total))
    return tuple(lengths)
