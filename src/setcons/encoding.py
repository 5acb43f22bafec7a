"""Partition of the universe into cells and the bit-vector encoding of sets.

The m distinguished generator sets cut the universe into nonempty cells:
at most 2**m of them, and at most 2d+1 when the generators and the universe
have d distinct finite endpoints.  The cells are found by one sweep over
those endpoints, so building the partition costs time linear in d for each
generator, never 2**m; the ``generators`` cap still counts m.  Every set
built from the generators by union, intersection and complement is an
exact union of cells and therefore round-trips through a kappa-bit vector
(bit h = overlap with cell h).  A constant-free update map translates into
kappa independent copies of one n-bit binary map, which is where all
convergence questions are decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bindyn import BinaryMap, discrete_derivative
from .boolmat import BoolMatrix
from .caps import DEFAULT, Caps
from .errors import CapExceeded, CellEncodingError
from .expr import BITS, SetMap, bind, fold
from .intervals import Interval, IntervalSet, Universe, elementary_pieces

Bits = tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """Nonempty cells generated by the distinguished sets.

    Cells are listed with the all-generators-in signature first, then in
    decreasing order of the signature read as a binary number whose most
    significant bit says "inside generator 1".  :func:`build_partition`
    finds them by an endpoint sweep, in time linear in the number of
    distinct endpoints for each generator, and never visits an empty
    signature.
    """

    generators: tuple[IntervalSet, ...]
    universe: Universe
    signatures: tuple[Bits, ...]
    regions: tuple[IntervalSet, ...]

    @property
    def kappa(self) -> int:
        return len(self.regions)

    def cells(self):
        return zip(self.signatures, self.regions)

    def encode(self, s: IntervalSet) -> Bits:
        """Bit h = 1 iff the set overlaps cell h; the set must be an exact
        union of cells, otherwise the encoding would be lossy."""
        bits = tuple(0 if (s & region).is_empty() else 1 for region in self.regions)
        if self.decode(bits) != s:
            for bit, region in zip(bits, self.regions):
                if bit and not region.is_subset(s):
                    raise CellEncodingError(
                        f"{s} straddles the cell {region}; it is not in the algebra "
                        "generated by the partition's generators"
                    )
            raise CellEncodingError(f"{s} is not a union of partition cells")
        return bits

    def decode(self, bits: Sequence[int]) -> IntervalSet:
        if len(bits) != self.kappa:
            raise ValueError(f"expected {self.kappa} bits, got {len(bits)}")
        out = IntervalSet.empty()
        for bit, region in zip(bits, self.regions):
            if bit:
                out = out | region
        return out

    def to_json_dict(self) -> dict:
        return {
            "cells": [
                {"signature": "".join(str(b) for b in sig), "region": str(region)}
                for sig, region in self.cells()
            ]
        }


def build_partition(
    generators: Sequence[IntervalSet], universe: Universe, caps: Caps = DEFAULT
) -> Partition:
    """Compute all nonempty signature cells of the generator family.

    The distinct finite endpoints of the generators and the universe cut
    the line into elementary pieces (:func:`~setcons.intervals.elementary_pieces`).
    Each set holds a piece wholly or not at all, so one merge walk per set
    labels every piece, and a cell is the union of the universe's pieces
    that share a signature.  With d distinct endpoints that is 2d+1 pieces,
    at most that many cells, and O(m*d) work after sorting the endpoints.
    """
    gens = tuple(generators)
    for g in gens:
        if not universe.contains_set(g):
            raise ValueError(f"generator {g} escapes the universe {universe}")
    m = len(gens)
    if m > caps.generators:
        raise CapExceeded(f"{m} generators would create up to 2**{m} cells (cap {caps.generators})")
    pieces = elementary_pieces(gens + (universe.carrier,))
    codes = [0] * len(pieces)
    for g in gens:
        codes = [(code << 1) | bit for code, bit in zip(codes, _membership(g, pieces))]
    cells: dict[int, list[Interval]] = {}
    for piece, code, inside in zip(pieces, codes, _membership(universe.carrier, pieces)):
        if inside:
            cells.setdefault(code, []).append(piece)
    order = sorted(cells, reverse=True)
    signatures = tuple(tuple((code >> (m - 1 - i)) & 1 for i in range(m)) for code in order)
    regions = tuple(IntervalSet.from_intervals(cells[code]) for code in order)
    return Partition(gens, universe, signatures, regions)


def _membership(s: IntervalSet, pieces: Sequence[Interval]) -> list[int]:
    """1 for every piece inside ``s``, else 0, for ascending pieces that
    each lie wholly inside or outside ``s``: one merge walk."""
    spans = s.intervals
    n = len(spans)
    j = 0
    out = []
    for piece in pieces:
        while j < n and spans[j].hi_key < piece.lo_key:
            j += 1
        out.append(1 if j < n and spans[j].lo_key <= piece.lo_key else 0)
    return out


@dataclass(frozen=True)
class EncodedSystem:
    """A constant-free map together with its binary translation.

    ``cell_map(h)`` is the n-bit map acting inside cell h; frozen components
    output the pinned constant's bit for that cell, every other component is
    the source expression with set operations replaced by bitwise ones.  The
    full map on n*kappa bits (variable-major layout) carries the
    block-structured incidence matrix.
    """

    set_map: SetMap
    partition: Partition
    pinned_bits: tuple[Bits, ...]  # per frozen variable, its kappa-bit encoding

    @property
    def arity(self) -> int:
        return self.set_map.arity

    @property
    def kappa(self) -> int:
        return self.partition.kappa

    def _cell_step(self, h: int):
        k = self.set_map.frozen_count
        programs = self.set_map.programs[: self.arity - k]
        pinned = tuple(self.pinned_bits[j][h] for j in range(k))

        def fn(bits):
            leaf = bind(bits)
            return tuple([fold(program, leaf, BITS) for program in programs]) + pinned

        return fn

    def cell_map(self, h: int) -> BinaryMap:
        return BinaryMap(self.arity, self._cell_step(h))

    @property
    def map(self) -> BinaryMap:
        n, k = self.arity, self.kappa
        cell_steps = [self._cell_step(h) for h in range(k)]

        def fn(bits):
            out = [0] * (n * k)
            for h in range(k):
                cell_in = tuple(bits[i * k + h] for i in range(n))
                cell_out = cell_steps[h](cell_in)
                for i in range(n):
                    out[i * k + h] = cell_out[i]
            return tuple(out)

        return BinaryMap(n * k, fn, incidence=self.set_map.incidence().kron_identity(k))

    def encode_state(self, state: Sequence[IntervalSet]) -> Bits:
        if len(state) != self.arity:
            raise ValueError("state arity mismatch")
        bits: list[int] = []
        for s in state:
            bits.extend(self.partition.encode(s))
        return tuple(bits)

    def decode_state(self, bits: Sequence[int]) -> tuple[IntervalSet, ...]:
        n, k = self.arity, self.kappa
        if len(bits) != n * k:
            raise ValueError("bit vector length mismatch")
        return tuple(self.partition.decode(bits[i * k : (i + 1) * k]) for i in range(n))

    def derivative_at(self, bits: Sequence[int]) -> BoolMatrix:
        """Block-diagonal derivative of the full map: flipping a bit of cell h
        can only move outputs inside cell h."""
        n, k = self.arity, self.kappa
        rows = [0] * (n * k)
        for h in range(k):
            cell_bits = tuple(bits[i * k + h] for i in range(n))
            d = discrete_derivative(self.cell_map(h), cell_bits)
            for i in range(n):
                for j in range(n):
                    if d.entry(i, j):
                        rows[i * k + h] |= 1 << (j * k + h)
        return BoolMatrix(n * k, tuple(rows))


def translate_map(f: SetMap, partition: Partition) -> EncodedSystem:
    """Translate a constant-free map into its binary cell-wise form.

    Named constants must have been folded into frozen variables first; the
    frozen values themselves must be unions of partition cells.
    """
    if f.constants:
        raise ValueError("translate_map needs a constant-free map; augment it first")
    pinned = tuple(partition.encode(v) for v in f.frozen_values)
    return EncodedSystem(f, partition, pinned)
