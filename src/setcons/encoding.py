"""Partition of the universe into cells and the bit-word encoding of sets.

The m distinguished generator sets cut the universe into nonempty cells:
at most 2**m of them, and at most 2d+1 when the generators and the universe
have d distinct finite endpoints.  The line is cut at those endpoints and
each generator's intervals are bisected into the pieces, never visiting
2**m signatures.  Every set built from the generators by union,
intersection and complement is an exact union of cells and therefore
round-trips through a kappa-bit word (bit h = overlap with cell h).

An update map, whose named constants are its trailing frozen variables
from the parser on, translates into kappa independent copies of one n-bit
binary map, which is where all convergence questions are decided.
The copies are stepped together as one :class:`~setcons.bindyn.BinaryMap`
of width kappa, built from the map's free programs and the constants'
pinned words: a state is n words of kappa bits, and a bitwise operation
on words is the operation in every cell at once.  Its derivative blocks are
the cells' derivatives.  Every state reachable from the generators is a
union of cells, so the simulator and the global fixed point iterate this
word map and use the set level only to encode their start and decode what
they report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .bindyn import BinaryMap
from .errors import CellEncodingError
from .expr import SetMap
from .intervals import Interval, IntervalSet, Universe, _succ, elementary_pieces

Bits = tuple[int, ...]
Words = tuple[int, ...]


class Partition(NamedTuple):
    """Nonempty cells generated by the distinguished sets.

    Cells are listed with the all-generators-in signature first, then in
    decreasing order of the signature read as a binary number whose most
    significant bit says "inside generator 1".  :func:`build_partition`
    finds them from the elementary pieces between endpoints and never
    visits an empty signature.
    """

    generators: tuple[IntervalSet, ...]
    universe: Universe
    signatures: tuple[Bits, ...]
    regions: tuple[IntervalSet, ...]
    # The elementary pieces inside the universe, ascending, and the cell of each.
    pieces: tuple[Interval, ...]
    piece_cells: tuple[int, ...]

    @property
    def kappa(self) -> int:
        return len(self.regions)

    def cells(self):
        return zip(self.signatures, self.regions)

    def encode(self, s: IntervalSet) -> int:
        """The word whose bit h is 1 iff the set overlaps cell h; the set
        must be an exact union of cells, otherwise the encoding would be
        lossy.

        Each interval of the set meets a run of pieces (:func:`_piece_runs`):
        a cell with a piece met is in the word, and a cell with a piece
        outside the set or cut by it is not wholly covered.
        """
        pieces, cells = self.pieces, self.piece_cells
        word = missing = 0
        i = 0  # the pieces before i are classified
        for span, a, b in _piece_runs(s, pieces):
            for k in range(i, a):
                missing |= 1 << cells[k]
            for k in range(a, b):
                word |= 1 << cells[k]
            if a < b:
                if pieces[a].lo_key < span.lo_key:
                    missing |= 1 << cells[a]
                if pieces[b - 1].hi_key > span.hi_key:
                    missing |= 1 << cells[b - 1]
            i = b
        for k in range(i, len(pieces)):
            missing |= 1 << cells[k]
        straddled = word & missing
        if straddled:
            region = self.regions[(straddled & -straddled).bit_length() - 1]
            raise CellEncodingError(
                f"{s} straddles the cell {region}; it is not in the algebra "
                "generated by the partition's generators"
            )
        if not self.universe.contains_set(s):
            raise CellEncodingError(f"{s} is not a union of partition cells")
        return word

    def decode(self, word: int) -> IntervalSet:
        """The union of the cells whose bits are set, joined in pairs so that
        no union grows one cell at a time."""
        if word < 0 or word >> self.kappa:
            raise ValueError(f"{word} is not a word of {self.kappa} bits")
        parts = [IntervalSet.empty()]
        parts += [region for h, region in enumerate(self.regions) if (word >> h) & 1]
        while len(parts) > 1:
            parts = [a | b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
        return parts[0]

    def to_json_dict(self) -> dict:
        return {
            "cells": [
                {"signature": "".join(str(b) for b in sig), "region": str(region)}
                for sig, region in self.cells()
            ]
        }


def build_partition(generators: Sequence[IntervalSet], universe: Universe) -> Partition:
    """Compute all nonempty signature cells of the generator family.

    The distinct finite endpoints of the generators and the universe cut
    the line into elementary pieces (:func:`~setcons.intervals.elementary_pieces`).
    Each set holds a piece wholly or not at all, so two bisections per
    interval find the run of pieces it covers and one slice assignment
    labels it, and a cell is the union of the universe's pieces that share
    a signature.  With d distinct endpoints that is 2d+1 pieces, at most
    that many cells, and O(r log d) comparisons for a set of r intervals.
    Each run of touching pieces of one cell is one interval of its region,
    built once in one ascending walk; runs of a cell are parted by another
    cell or a hole, so the regions are canonical as they come.
    """
    gens = tuple(generators)
    for g in gens:
        if not universe.contains_set(g):
            raise ValueError(f"generator {g} escapes the universe {universe}")
    m = len(gens)
    pieces = elementary_pieces(gens + (universe.carrier,))
    pieces = tuple(p for p, bit in zip(pieces, _membership(universe.carrier, pieces)) if bit)
    codes = [0] * len(pieces)
    for g in gens:
        codes = [(code << 1) | bit for code, bit in zip(codes, _membership(g, pieces))]
    order = sorted(set(codes), reverse=True)
    cell_of = {code: h for h, code in enumerate(order)}
    piece_cells = tuple(cell_of[code] for code in codes)
    runs: list[list[Interval]] = [[] for _ in order]
    first = 0  # the run in progress is pieces[first:k]
    for k in range(1, len(pieces) + 1):
        if (k < len(pieces) and piece_cells[k] == piece_cells[first]
                and pieces[k].lo_key == _succ(pieces[k - 1].hi_key)):
            continue
        a, b = pieces[first], pieces[k - 1]
        runs[piece_cells[first]].append(a if a is b else Interval(a.lo_key, b.hi_key))
        first = k
    signatures = tuple(tuple((code >> (m - 1 - i)) & 1 for i in range(m)) for code in order)
    regions = tuple(IntervalSet(tuple(r)) for r in runs)
    return Partition(gens, universe, signatures, regions, pieces, piece_cells)


_hi_key = attrgetter("hi_key")
_lo_key = attrgetter("lo_key")


def _piece_runs(s: IntervalSet, pieces: Sequence[Interval]) -> Iterator[tuple[Interval, int, int]]:
    """``(interval, a, b)`` for each interval of ``s``: ``pieces[a:b]``, of the
    ascending ``pieces``, are the ones it meets, found by two bisections."""
    b = 0
    for span in s.intervals:
        a = bisect_left(pieces, span.lo_key, b, key=_hi_key)
        b = bisect_right(pieces, span.hi_key, a, key=_lo_key)
        yield span, a, b


def _membership(s: IntervalSet, pieces: Sequence[Interval]) -> list[int]:
    """1 for every piece inside ``s``, else 0, for ascending pieces that
    each lie wholly inside or outside ``s``."""
    out = [0] * len(pieces)
    for _, a, b in _piece_runs(s, pieces):
        out[a:b] = [1] * (b - a)
    return out


class EncodedSystem(NamedTuple):
    """A map together with its binary translation.

    A state is n words, one per variable, with bit h of a word standing
    for cell h.  :attr:`map` steps every cell at once: each free component
    is the source expression with set operations replaced by bitwise ones
    on kappa-bit words, and each frozen component outputs its pinned word.
    """

    set_map: SetMap
    partition: Partition
    pinned_words: tuple[int, ...]  # per frozen variable, its kappa-bit word

    @property
    def arity(self) -> int:
        return self.set_map.arity

    @property
    def kappa(self) -> int:
        return self.partition.kappa

    @property
    def map(self) -> BinaryMap:
        return BinaryMap(self.set_map.programs[: self.arity - len(self.pinned_words)], self.pinned_words, self.kappa)

    def encode_state(self, state: Sequence[IntervalSet]) -> Words:
        if len(state) != self.arity:
            raise ValueError("state arity mismatch")
        return tuple(self.partition.encode(s) for s in state)

    def decode_state(self, words: Sequence[int]) -> tuple[IntervalSet, ...]:
        if len(words) != self.arity:
            raise ValueError("state arity mismatch")
        return tuple(self.partition.decode(w) for w in words)


def translate_map(f: SetMap, partition: Partition) -> EncodedSystem:
    """Translate a map into its binary cell-wise form; its frozen values
    must be unions of partition cells."""
    pinned = tuple(partition.encode(v) for v in f.frozen_values)
    return EncodedSystem(f, partition, pinned)


def dedup_generators(sets: Sequence[IntervalSet]) -> list[IntervalSet]:
    """The nonempty sets, each once, in order of first appearance."""
    return list(dict.fromkeys(s for s in sets if not s.is_empty()))


def encode_system(f: SetMap, initials: Sequence[IntervalSet]) -> EncodedSystem:
    """A system's map ``f`` started from the free variables' ``initials``,
    translated over the partition that the nonempty initial sets and then
    the frozen values (the constants) generate."""
    partition = build_partition(dedup_generators([*initials, *f.frozen_values]), f.universe)
    return translate_map(f, partition)
