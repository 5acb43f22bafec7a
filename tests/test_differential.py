"""Differential tests: the linear-time interval algebra with its one-sweep
difference, the set-literal grammar, the bisected piece labels, the
endpoint-sweep partition and its piece-run regions, the cell-sum distance
lengths, the expression fold and the cell-sliced word map with its
analyzers, truth-table equilibria and packed word steps against the
reference versions in ``oracles.py`` and against pointwise membership; and
the int-valued integral endpoints against an order-preserving image with
Fraction values only."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from setcons import analysis as analysis_module
from setcons.analysis import (
    ContractivityVerdict,
    consensus_bounds,
    equilibria_sbm,
    global_fixed_point,
    is_contractive_sbm,
    is_locally_attractive_sbm,
)
from setcons.boolmat import is_nilpotent
from setcons.caps import Caps
from setcons.dsl import parse
from setcons.encoding import Partition, _membership, build_partition, dedup_generators, translate_map
from setcons.errors import CapExceeded, CellEncodingError, SetconsError
from setcons.expr import (
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
    bit_ops,
    fold,
    is_linear,
    postorder,
    set_ops,
)
from setcons.intervals import (
    Interval,
    IntervalSet,
    Universe,
    as_value,
    elementary_pieces,
    parse_interval_set,
)
from setcons.sim import simulate
from setcons.dsl import SystemSpec
from setcons.sim import sampling_window

from helpers import HALF_LINE, assert_canonical_values, assert_same_membership, frozen_map, iv, probe_points
from oracles import (
    FnMap,
    NamedConst,
    as_linear,
    cell_map,
    complement_within,
    compose,
    consensus_region,
    derivative_blocks,
    difference_via_complement,
    discrete_derivative,
    ends,
    expr_to_text,
    full_line,
    intersecting_encode,
    flat_bits,
    flat_local_verdict,
    flat_map,
    kron_identity,
    merge_walk_membership,
    pairwise_and,
    per_cell_equilibria,
    per_pattern_equilibria,
    real_line,
    recursive_augmented_components,
    recursive_bit_evaluate,
    recursive_composed_components,
    recursive_evaluate,
    recursive_expr_to_text,
    regex_parse_interval_set,
    resorting_or,
    set_level_distance_lengths,
    set_level_distances,
    set_level_fixed_point,
    set_level_simulate,
    signature_scan_partition,
    sort_and_join_regions,
    stepwise_derivative_blocks,
    subset_via_and,
    two_run_fixed_point,
    word_scan_equilibria,
    xor_via_complements,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# Fixed example sequences keep the suite deterministic, so no example
# database is kept either.
CHECK = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# Endpoints on a half-unit grid, so that shared endpoints, touching
# intervals and single points come up often.
grid = st.integers(0, 16).map(lambda k: Fraction(k, 2))


@st.composite
def intervals(draw):
    a, b = sorted((draw(grid), draw(grid)))
    if a == b and draw(st.booleans()):
        return Interval.singleton(a)
    lo = float("-inf") if draw(st.integers(0, 7)) == 0 else a
    hi = float("inf") if draw(st.integers(0, 7)) == 0 else b
    if lo == hi:
        return Interval.singleton(a)
    return Interval.make(lo, hi, draw(st.booleans()), draw(st.booleans()))


interval_sets = st.lists(intervals(), max_size=6).map(lambda spans: IntervalSet.of(*spans))

ZERO_EIGHT = Universe.of(Interval.closed(0, 8))
universes = st.sampled_from([
    ZERO_EIGHT,
    Universe.of(Interval.closed_open(0, float("inf"))),
    real_line(),
    Universe(iv("[0,2] | (3,5) | [6,6] | (7,inf)")),
])


def assert_canonical(s: IntervalSet) -> None:
    for a, b in zip(s.intervals, s.intervals[1:]):
        # Disjoint and not touching: a gap between a's end and b's start, or
        # one point left out between two open ends.
        (_, (end, end_closed)), ((start, start_closed), _) = ends(a), ends(b)
        assert end < start or (end == start and not end_closed and not start_closed)


@CHECK
@given(interval_sets, interval_sets)
@example(iv("[0,1]"), iv("[1,2]"))
@example(iv("[0,1)"), iv("(1,2]"))
@example(iv("[0,1) | [2,3]"), iv("[1,2)"))
def test_and_matches_pairwise_oracle(a, b):
    got = a & b
    assert got == pairwise_and(a, b)
    assert_canonical(got)
    assert_same_membership(got, lambda x, y: x and y, a, b)


@CHECK
@given(interval_sets, interval_sets)
@example(iv("[0,1)"), iv("[1,2]"))
@example(iv("[0,1)"), iv("(1,2]"))
@example(iv("[0,1] | [4,5]"), iv("(1,2) | [2,4)"))
def test_or_matches_resorting_oracle(a, b):
    got = a | b
    assert got == resorting_or(a, b)
    assert_canonical(got)
    assert_same_membership(got, lambda x, y: x or y, a, b)


@CHECK
@given(interval_sets, interval_sets)
@example(iv("[1,2]"), iv("[0,1) | (1,3]"))
@example(iv("(1,2)"), iv("[1,2]"))
@example(iv("[1,2]"), iv("(1,2]"))
def test_is_subset_matches_oracle(a, b):
    got = a.is_subset(b)
    assert got == subset_via_and(a, b)
    assert got == all(b.contains(p) for p in probe_points(a, b) if a.contains(p))
    assert (a & b).is_subset(a) and a.is_subset(a | b)


@CHECK
@given(interval_sets, interval_sets)
def test_derived_operations_membership(a, b):
    assert_same_membership(a - b, lambda x, y: x and not y, a, b)
    assert_same_membership(a ^ b, lambda x, y: x != y, a, b)
    assert_same_membership(a.complement_in(full_line()), lambda x: not x, a)


@CHECK
@given(interval_sets, interval_sets, universes)
@example(iv("[0,1]"), iv("[1,2]"), ZERO_EIGHT)  # touching at a shared closed endpoint
@example(iv("[0,1)"), iv("[1,2]"), ZERO_EIGHT)  # adjacent
@example(iv("[0,2]"), iv("(0,1) | (1,2)"), ZERO_EIGHT)  # points left between
@example(iv("[1,1] | [3,3]"), iv("[1,1]"), ZERO_EIGHT)
@example(iv("(-inf,inf)"), iv("(-inf,0] | [3,3] | (5,inf)"), real_line())
@example(iv("empty"), iv("[0,1]"), ZERO_EIGHT)
@example(iv("[0,1]"), iv("empty"), ZERO_EIGHT)
@example(iv("[0,9]"), iv("[1,2]"), ZERO_EIGHT)  # not inside the universe
def test_sweep_kernels_match_complement_oracles(a, b, universe):
    for got, expected in ((a - b, difference_via_complement(a, b)), (a ^ b, xor_via_complements(a, b))):
        assert got == expected
        assert_canonical(got)
    carrier = universe.carrier
    assert outcome(a.complement_in, universe) == outcome(complement_within, a, carrier)
    inside = a & carrier
    got = inside.complement_in(universe)
    assert got == complement_within(inside, carrier) and got == carrier - inside
    assert_canonical(got)


# -- integral keys against an image with Fraction keys only ---------------------
#
# An integral endpoint is an int, in its sort keys as in its value.
# phi(x) = x/3 + 1/7 keeps order and sends every point of the half-unit
# grid (7k + 6 is never a multiple of 42) to a non-integer, so the image of
# a set has Fraction values and keys only: every operation must commute
# with phi.


def phi(x):
    return x if isinstance(x, float) else Fraction(x, 3) + Fraction(1, 7)


def phi_inverse(x):
    return x if isinstance(x, float) else as_value((x - Fraction(1, 7)) * 3)


def mapped(s: IntervalSet, fn) -> IntervalSet:
    return IntervalSet(tuple(
        Interval.make(fn(lo), fn(hi), lo_closed, hi_closed)
        for (lo, lo_closed), (hi, hi_closed) in map(ends, s.intervals)
    ))


@CHECK
@given(universes, interval_sets, interval_sets, st.integers(0, 2**16), st.integers(-1, 16))
@example(Universe.of(Interval.closed(0, 8)), IntervalSet.of(Interval.make(Fraction(4, 2), 3)),
         IntervalSet.of(Interval.closed_open(Fraction(1, 2), 2), Interval.make(3, float("inf"), False, False)), 5, 9)
def test_integral_keys_commute_with_a_fraction_image(universe, a, b, word, point):
    a = a & universe.carrier
    fa, fb, fu = mapped(a, phi), mapped(b, phi), mapped(universe.carrier, phi)
    for x in (fa, fb, fu):
        assert all(type(k[0]) is not int for piece in x.intervals for k in (piece.lo_key, piece.hi_key))
    results = [
        (a & b, fa & fb),
        (a | b, fa | fb),
        (a.complement_in(universe), fa.complement_in(fu)),
    ]
    for got, image in results:
        assert mapped(got, phi) == image
        # The int-valued result is the one computed on Fractions and mapped
        # back, endpoint for endpoint and in print.
        back = mapped(image, phi_inverse)
        assert got == back and str(got) == str(back)
        assert_canonical_values(got, image)
    assert a.is_subset(b) == fa.is_subset(fb)
    assert all(b.contains(p) == fb.contains(phi(p)) for p in probe_points(a, b))
    assert elementary_pieces([fa, fb]) == tuple(
        mapped(IntervalSet((x,)), phi).intervals[0] for x in elementary_pieces([a, b])
    )
    # The partition's words: a union of cells, and a set that straddles one.
    p = build_partition(dedup_generators([a, b & universe.carrier]), universe)
    fp = build_partition(dedup_generators([fa, fb & fu]), Universe(fu))
    assert fp.signatures == p.signatures
    s = p.decode(word % (1 << p.kappa))
    assert fp.encode(mapped(s, phi)) == p.encode(s)
    cut = s ^ (IntervalSet.of(Interval.singleton(Fraction(2 * point + 1, 4))) & universe.carrier)
    want, got = outcome(p.encode, cut), outcome(fp.encode, mapped(cut, phi))
    assert got == want if isinstance(want, int) else got[0] is want[0] is CellEncodingError


# -- the one set-literal grammar against the regex parser it replaced ----------

_number = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(0, 40),
    st.sampled_from(["", ".5", ".25", ".0"]),
    st.sampled_from(["", "", "/2", "/3", "/0"]),
)
_endpoint = st.one_of(_number, st.sampled_from(["inf", "-inf"]))
_interval_tokens = st.tuples(
    st.sampled_from("[("), _endpoint, st.just(","), _endpoint, st.sampled_from("])")
).map(list)
_literal_tokens = st.one_of(
    st.sampled_from([["empty"], ["X"]]),
    st.lists(_interval_tokens, min_size=1, max_size=3).map(
        lambda spans: sum(([*span, "|"] for span in spans), [])[:-1]
    ),
)


@st.composite
def literal_texts(draw):
    """A literal, possibly with one token dropped, repeated or moved, and
    spaces, tabs or line breaks between tokens (none inside a number)."""
    tokens = list(draw(_literal_tokens))
    k = draw(st.integers(0, len(tokens) - 1))
    change = draw(st.sampled_from(["none", "none", "drop", "repeat", "move"]))
    if change == "drop":
        del tokens[k]
    elif change == "repeat":
        tokens.insert(k, tokens[k])
    elif change == "move":
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), tokens.pop(k))
    gaps = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
    return "".join(draw(gaps) + token for token in tokens) + draw(gaps)


def _outcome(parser, text, universe):
    try:
        return parser(text, universe)
    except (ValueError, ZeroDivisionError):  # the regex parser let 1/0 through
        return "rejected"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(literal_texts(), st.sampled_from([None, HALF_LINE]))
@example("(-inf, 3] | [7/2,4)", None)
@example("[1,2]\n|\t[3/0,4]", None)
@example("X", None)
@example(" X ", HALF_LINE)
def test_literal_grammar_matches_regex_parser(text, universe):
    # Only the regex parser took a literal ending in '|'; see below.
    assume(not text.rstrip().endswith("|"))
    assert _outcome(parse_interval_set, text, universe) == _outcome(
        regex_parse_interval_set, text, universe
    )


@CHECK
@given(universes, st.lists(_literal_tokens.map(" ".join), min_size=2, max_size=4), st.integers(0, 2**16))
@example(ZERO_EIGHT, ["[-0,4/2] | (3, 7/2)", "[4.0,6.5) | [7, 14/2]"], 5)
@example(real_line(), ["(-inf, 1.5] | [3/3, 4.0)", "X", "(2/4, inf)"], 2**16)
def test_every_finite_endpoint_is_an_int_exactly_when_integral(universe, texts, word):
    # Parsed literals, every operation on them, and the cells they cut.
    sets = [s for s in (_outcome(parse_interval_set, text, universe) for text in texts) if s != "rejected"]
    assume(len(sets) >= 2)
    a, b = sets[0], sets[1]
    inside = [s & universe.carrier for s in sets]
    p = build_partition(dedup_generators(inside), universe)
    assert_canonical_values(
        *sets, a & b, a | b, a - b, a ^ b, inside[0].complement_in(universe),
        *p.regions, p.decode(word % (1 << p.kappa)),
    )


@pytest.mark.parametrize(
    "text", ["[- 3,4]", "(- inf,0]", "[0,1] # a comment", "[0,1] # a comment\n| [2,3]"]
)
def test_only_the_grammar_takes_spaced_signs_and_comments(text):
    assert _outcome(regex_parse_interval_set, text, None) == "rejected"
    assert isinstance(parse_interval_set(text), IntervalSet)


@pytest.mark.parametrize("text", ["[0,1] |", "[0,1] | [2,3] |"])
def test_only_the_regex_parser_takes_a_trailing_bar_or_other_spacing(text):
    assert isinstance(regex_parse_interval_set(text), IntervalSet)
    assert _outcome(parse_interval_set, text, None) == "rejected"


@pytest.mark.parametrize("text", ["[0,1]\r\n", "[0,1]\f", "[0,1]\v", "\r\n[0,1]\r\n|\f[2,3]\r\n"])
def test_both_parsers_accept_other_blanks(text):
    assert parse_interval_set(text) == regex_parse_interval_set(text)


@CHECK
@given(universes, st.lists(interval_sets, max_size=5))
@example(Universe(iv("[0,8]")), [iv("[0,1)"), iv("[1,2]"), iv("[1,1]")])
@example(Universe(iv("[0,8]")), [iv("[0,1] | [2,2] | (2,3)"), iv("(1,2)"), iv("[3,3] | [4,4]")])
@example(real_line(), [iv("(-inf,0)"), iv("[0,0]"), iv("(0,inf)")])
def test_piece_labels_match_merge_walk(universe, sets):
    # Adjacent, touching and point intervals come up often on the grid; the
    # labels are read on all pieces, and on those inside the universe as
    # build_partition reads them.
    family = sets + [universe.carrier]
    pieces = elementary_pieces(family)
    inside = tuple(x for x, bit in zip(pieces, merge_walk_membership(universe.carrier, pieces)) if bit)
    for s in family:
        for run in (pieces, inside):
            assert _membership(s, run) == merge_walk_membership(s, run)


@CHECK
@given(universes, st.lists(interval_sets, max_size=4))
@example(Universe.of(Interval.closed(0, 8)), [iv("[1,1]"), iv("[1,2]"), iv("[2,2] | (2,3)")])
@example(Universe.of(Interval.closed(0, 8)), [iv("[0,1)"), iv("[1,2]"), iv("(2,8]")])
@example(real_line(), [iv("(-inf,0]"), iv("[0,inf)"), iv("[0,0]")])
def test_partition_matches_signature_scan(universe, sets):
    gens = [s & universe.carrier for s in sets]
    p = build_partition(gens, universe)
    assert (p.signatures, p.regions) == signature_scan_partition(gens, universe)
    # Each generator is exactly the union of the cells inside it.
    for i, g in enumerate(gens):
        assert p.decode(sum(sig[i] << h for h, sig in enumerate(p.signatures))) == g


@CHECK
@given(
    st.one_of(universes, st.sampled_from([Universe(iv("[0,1] | [2,3]")), Universe(iv("[0,1) | (1,2]"))])),
    st.lists(interval_sets, max_size=4),
)
@example(Universe(iv("[0,1] | [2,3]")), [iv("[0,3]"), iv("[1,2]")])  # a hole in the universe
@example(Universe(iv("[0,1) | (1,2]")), [iv("[0,2]"), iv("(0,2)")])  # a point taken out
@example(ZERO_EIGHT, [iv("[1,1] | [3,3]"), iv("[3,3] | [5,6]")])  # single-point cells
@example(real_line(), [iv("(-inf,0]"), iv("[5,inf)"), iv("(-inf,inf)")])  # unbounded ends
def test_piece_run_regions_match_sort_and_join(universe, sets):
    p = build_partition([s & universe.carrier for s in sets], universe)
    assert p.regions == sort_and_join_regions(p)
    for region in p.regions:
        assert_canonical(region)
        assert_canonical_values(region)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SAMPLES.glob("*.sbm"))), st.integers(0, 10_000))
def test_distance_lengths_match_set_level(path, seed):
    spec = parse(path.read_text())
    traj = simulate(spec, seed=seed, random_init=True)
    window = sampling_window(spec.universe, spec.initials + tuple(value for _, value in spec.constants))
    assert traj.distance_lengths == set_level_distance_lengths(traj, window)
    # The run's partition: its initial sets and constants generate the cells.
    gens = dedup_generators(list(traj.rounds[0]) + [value for _, value in spec.constants])
    p = build_partition(gens, spec.universe)
    assert traj.distances == set_level_distances(traj, p.regions)


# -- the expression fold against the recursive walkers ------------------------

ARITY = 3
BOX = Universe.of(Interval.closed(0, 8))



def expressions_over(leaves: Sequence[SetExpr]):
    """Expressions whose leaves are ``leaves`` and the literals."""
    return st.recursive(
        st.one_of(
            *([st.sampled_from(leaves)] if leaves else []),
            st.just(UniverseLit()),
            st.just(EmptyLit()),
        ),
        lambda inner: st.one_of(
            st.builds(Complement, inner),
            *(st.builds(kind, inner, inner) for kind in (Union, Intersect, Difference, SymDiff)),
        ),
        max_leaves=16,
    )


def variables(*indices: int) -> list[Var]:
    return [Var(i) for i in indices]


# Over the ARITY states and two constants, the variables ARITY and ARITY + 1.
expressions = expressions_over(variables(*range(ARITY + 2)))
box_sets = interval_sets.map(lambda s: s & BOX.carrier)


@CHECK
@given(expressions, st.lists(box_sets, min_size=ARITY + 2, max_size=ARITY + 2))
@example(SymDiff(Var(0), Difference(Var(1), ~Var(3))) | UniverseLit() & EmptyLit(), [iv("[1,2]")] * (ARITY + 2))
def test_expression_fold_matches_recursive_walkers(e, sets):
    program = postorder(e)
    assert fold(program, sets, set_ops(BOX)) == recursive_evaluate(e, sets, BOX)
    for mask in range(1 << (ARITY + 2)):
        bits = tuple((mask >> j) & 1 for j in range(ARITY + 2))
        assert fold(program, bits, bit_ops(1)) == recursive_bit_evaluate(e, bits)
    assert expr_to_text(e) == recursive_expr_to_text(e)
    names = ["P", "Q", "R", "A", "B"]
    assert expr_to_text(e, names) == recursive_expr_to_text(e, names)


NAMED = ("A", "B")
named_expressions = expressions_over(variables(*range(ARITY)) + [NamedConst(name) for name in NAMED])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(named_expressions, min_size=ARITY, max_size=ARITY),
    st.lists(expressions, min_size=ARITY, max_size=ARITY),
    st.lists(box_sets, min_size=2, max_size=2),
    st.lists(st.integers(0, ARITY), min_size=2, max_size=2).map(sorted),
)
def test_map_rewrites_match_recursive_walkers(named_rules, g_rules, constants, places):
    # The parser makes constant j the variable ARITY + j, wherever it is
    # declared among the states: the rewrite of named constants into
    # trailing frozen variables.
    states = ("P", "Q", "R")
    declarations = [f"state {name} = empty" for name in states]
    for j in reversed(range(len(NAMED))):
        declarations.insert(places[j], f"const {NAMED[j]} = {constants[j]}")
    rules = [f"rule {name} = {recursive_expr_to_text(rule, states)}" for name, rule in zip(states, named_rules)]
    f = parse("\n".join([f"universe {BOX.carrier}", *declarations, *rules]) + "\n").set_map()
    assert f.components == recursive_augmented_components(named_rules, NAMED)
    assert f.frozen_values == tuple(constants)
    g = frozen_map(g_rules, BOX, *constants)
    assert compose(f, g).components == recursive_composed_components(f, g)


# -- the cell-sliced word map against one n-bit map per cell -----------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(expressions, min_size=ARITY, max_size=ARITY),
    st.lists(box_sets, min_size=ARITY + 2, max_size=ARITY + 2),
)
@example([Var(2), Var(0) & Var(3), Var(4)], [iv("[1,2]")] * (ARITY + 2))
@example([Var(0) | Var(1), ~Var(1), SymDiff(Var(2), Var(3))], [iv("[0,3]"), iv("(2,5)")] * 2 + [BOX.carrier])
def test_word_map_and_analyzers_match_per_cell_maps(rules, sets):
    initials = sets[:ARITY]
    f = frozen_map(rules, BOX, *sets[ARITY:])
    gens = [s for s in dict.fromkeys(sets) if not s.is_empty()]
    p = build_partition(gens, BOX)
    enc = translate_map(f, p)
    k = p.kappa
    # The word map steps every cell as that cell's own n-bit map does.
    words = enc.encode_state(tuple(initials) + f.frozen_values)
    flipped = tuple(w ^ ((1 << k) - 1) for w in words[:ARITY]) + words[ARITY:]
    for state in (words, flipped):
        assert flat_bits(enc.map.step(state), k) == flat_map(enc).step(flat_bits(state, k))
        for h, block in enumerate(derivative_blocks(enc.map, state)):
            assert block == discrete_derivative(cell_map(enc, h), flat_bits(state, k)[h::k])
    # Equilibria: the same fixed points in every cell.
    report = equilibria_sbm(f, p, Caps(listing=16))
    assert report.per_cell == per_cell_equilibria(enc)
    # Local attractiveness: the per-block verdict is the n*kappa verdict on
    # every listed equilibrium, or on two built from the per-cell lists.
    if report.listed is not None:
        chosen = report.listed
    elif report.total:
        choices = (tuple(fps[0] for fps in report.per_cell), tuple(fps[-1] for fps in report.per_cell))
        chosen = [
            tuple(p.decode(sum(fp[i] << h for h, fp in enumerate(choice))) for i in range(f.arity))
            for choice in choices
        ]
    else:
        chosen = ()
    for x_eq in chosen:
        assert is_locally_attractive_sbm(enc, x_eq) == flat_local_verdict(f, x_eq, p)
    # Contractivity: the projection verdict is nilpotency of B kron I.
    assert is_contractive_sbm(f).contractive == is_nilpotent(kron_identity(f.incidence(), k))


# -- equilibria by truth tables against the per-state word scan ---------------


@st.composite
def pinned_systems(draw):
    """A constant-free map with 0-7 free and 0-3 frozen variables (at least
    one variable in all), and the partition cut by the frozen values and up
    to three more sets, so that several cells often share a pinned pattern."""
    n_free = draw(st.integers(0, 7))
    c = draw(st.integers(0 if n_free else 1, 3))
    rules = draw(st.lists(expressions_over(variables(*range(n_free + c))), min_size=n_free, max_size=n_free))
    frozen = draw(st.lists(box_sets, min_size=c, max_size=c))
    others = draw(st.lists(box_sets, max_size=3))
    f = frozen_map(rules, BOX, *frozen)
    return f, build_partition(dedup_generators(frozen + others), BOX)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(pinned_systems(), st.integers(0, 40))
@example(
    (frozen_map((Var(0) | Var(1),), BOX, iv("[2,5]")),
     build_partition([iv("[2,5]"), iv("[1,3] | [6,7]")], BOX)),
    40,
)
@example((frozen_map((), BOX, iv("[1,4]")), build_partition([iv("[1,4]")], BOX)), 4)
def test_truth_table_equilibria_match_word_scan(system, listing):
    f, p = system
    enc = translate_map(f, p)
    n_free = f.arity - f.frozen_count
    report = equilibria_sbm(f, p, Caps(enumeration=n_free, listing=listing))
    expected = word_scan_equilibria(enc)
    assert report.per_cell == expected
    assert report.total == math.prod(len(fps) for fps in expected)
    if 0 < report.total <= listing:
        assert report.listed == tuple(
            enc.decode_state([sum(fp[i] << h for h, fp in enumerate(choice)) for i in range(f.arity)])
            for choice in itertools.product(*expected)
        )
        assert all(f.eval(x) == x for x in report.listed)
    else:
        assert report.listed is None
    if n_free:
        with pytest.raises(CapExceeded, match=f"2\\*\\*{n_free} states"):
            equilibria_sbm(f, p, Caps(enumeration=n_free - 1))


# -- the word dynamics against the set-level dynamics -------------------------


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (SetconsError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(expressions, min_size=ARITY, max_size=ARITY),
    st.lists(box_sets, min_size=ARITY + 2, max_size=ARITY + 2),
    st.one_of(st.none(), st.integers(1, 8)),
    st.one_of(st.none(), st.integers(0, 10_000)),
)
@example([Var(0) | (Var(1) & Var(2)), Var(0) | ~Var(1), ~Var(0) & ~Var(1) & ~Var(2)],
         [iv("[2,5]"), iv("[4,7]"), iv("[6,8]"), iv("empty"), iv("empty")], 1, None)
@example([Var(3), Var(0) & Var(4), Var(1)], [iv("empty")] * 3 + [iv("[1,4]"), BOX.carrier],
         None, None)
def test_word_trajectory_matches_set_level(rules, sets, max_rounds, seed):
    # Runs that close, runs that use up their budget (max_rounds), and runs
    # from random initial sets (a seed).
    constants = (("A", sets[ARITY]), ("B", sets[ARITY + 1]))
    spec = SystemSpec(BOX, constants, ("X", "Y", "Z"), tuple(sets[:ARITY]), tuple(rules))
    args = (spec, max_rounds, seed, seed is not None)
    assert simulate(*args) == set_level_simulate(*args)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*(expressions_over(variables(*range(i), ARITY, ARITY + 1)) for i in range(ARITY))),
    st.lists(box_sets, min_size=ARITY + 2, max_size=ARITY + 2),
)
def test_word_fixed_point_matches_set_level(rules, sets):
    # Rule i reads only states below i and the constants, so the map is contractive.
    f = frozen_map(rules, BOX, *sets[ARITY:])
    start = tuple(sets[:ARITY]) + f.frozen_values
    enc = translate_map(f, build_partition(dedup_generators(sets), BOX))
    verdict = is_contractive_sbm(f)
    assert global_fixed_point(enc, start) == set_level_fixed_point(f, start)
    # Round bounds below q may end the two runs apart: the same error then.
    for q in range(verdict.q):
        forged = ContractivityVerdict(True, verdict.witness, q)
        assert outcome(global_fixed_point, enc, start, forged) == outcome(
            set_level_fixed_point, f, start, forged
        )


# -- packed word steps against the steps they replaced ----------------------------


@st.composite
def contractive_systems(draw):
    """A contractive map with 1-4 free variables, rule i reading only free
    variables below i, and 0-3 constants (frozen once augmented); its start
    state; and the partition of its sets, often a single cell."""
    k = draw(st.integers(0, 3))
    n_free = draw(st.integers(1, 4))
    constants = variables(*range(n_free, n_free + k))
    rules = tuple(draw(expressions_over(variables(*range(i)) + constants)) for i in range(n_free))
    sets = st.sampled_from([iv("empty"), BOX.carrier]) if draw(st.booleans()) else box_sets
    values = draw(st.lists(sets, min_size=n_free + k, max_size=n_free + k))
    f = frozen_map(rules, BOX, *values[n_free:])
    start = tuple(values[:n_free]) + f.frozen_values
    return f, start, build_partition(dedup_generators(values), BOX)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(contractive_systems(), st.integers(0, 2**16), st.integers(1, 5))
@example((frozen_map((Var(1),), BOX, BOX.carrier),
          (iv("empty"), BOX.carrier), build_partition([BOX.carrier], BOX)), 0, 3)
def test_packed_steps_match_separate_steps(system, word, copies):
    f, start, p = system
    enc = translate_map(f, p)
    verdict = is_contractive_sbm(f)
    # The two fixed-point runs side by side, and under every forged round
    # bound below q, which may leave them apart.
    for q in range(verdict.q + 1):
        forged = ContractivityVerdict(True, verdict.witness, q)
        assert outcome(global_fixed_point, enc, start, forged) == outcome(two_run_fixed_point, enc, start, forged)
    # The derivative at the start and at a state drawn from ``word``.
    full = (1 << p.kappa) - 1
    drawn = tuple((word >> (3 * i)) & full for i in range(f.arity - f.frozen_count)) + enc.pinned_words
    for state in (enc.encode_state(start), drawn):
        assert derivative_blocks(enc.map, state) == stepwise_derivative_blocks(enc.map, state)
    # The map tiled ``copies`` times steps as the map given by its own step,
    # tiled by stepping the segments one after another.
    states = [enc.encode_state(start), drawn, tuple(w ^ full for w in drawn)]
    states = [states[c % 3] for c in range(copies)]
    packed = tuple(sum(x[i] << (c * p.kappa) for c, x in enumerate(states)) for i in range(f.arity))
    reference = FnMap(enc.arity, enc.map.step, p.kappa).tile(copies)
    assert enc.map.tile(copies).step(packed) == reference.step(packed)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(contractive_systems())
@example((frozen_map((Var(2) | Var(3), Var(0) & ~Var(4)), BOX, iv("[1,2]"), iv("[3,4]"), iv("[2,3]")),
          (iv("[5,6]"), iv("empty"), iv("[1,2]"), iv("[3,4]"), iv("[2,3]")),
          build_partition([iv("[5,6]"), iv("[1,2]"), iv("[3,4]"), iv("[2,3]")], BOX)))
def test_fixed_point_decodes_only_the_free_words(system):
    # The frozen words encode the map's own frozen values: the fixed point
    # ends in those values, and it equals the decoding of every word.
    f, start, p = system
    enc = translate_map(f, p)
    verdict = is_contractive_sbm(f)
    decoded = []
    decode = Partition.decode
    with mock.patch.object(Partition, "decode", lambda self, w: decoded.append(w) or decode(self, w)):
        fixed = global_fixed_point(enc, start, verdict)
    assert len(decoded) == f.arity - f.frozen_count
    assert fixed == enc.decode_state(enc.map.iterate(enc.encode_state(start), verdict.q))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pinned_systems())
@example((frozen_map((), BOX, iv("[1,4]")), build_partition([iv("[1,4]")], BOX)))
@example((SetMap((Var(0),), BOX), build_partition([], BOX)))
def test_packed_equilibria_match_per_pattern_steps(system):
    f, p = system
    enc = translate_map(f, p)
    expected = per_pattern_equilibria(enc)
    size = 1 << (f.arity - f.frozen_count)
    # All patterns in one word, two to a word, and one per step.
    for bound in (analysis_module.PACKED_BITS, 2 * size, 1):
        with mock.patch.object(analysis_module, "PACKED_BITS", bound):
            assert equilibria_sbm(f, p, Caps(listing=0)).per_cell == expected


# Odd multiples of 1/4: never an endpoint of the half-unit grid.
new_points = st.integers(-1, 16).map(lambda k: Fraction(2 * k + 1, 4))


@CHECK
@given(
    universes,
    st.lists(interval_sets, max_size=4),
    st.integers(0, 2**16),
    st.sampled_from(["cells", "pieces", "cut", "escape"]),
    st.integers(0, 2**32),
    new_points,
    st.one_of(new_points, st.just(float("inf"))),
    interval_sets,
)
@example(BOX, [iv("[0,1] | [7,8]")], 0, "pieces", 0b111, Fraction(1, 4), Fraction(1, 4), iv("empty"))
@example(BOX, [iv("[0,1] | [8,8]")], 0, "pieces", 0b111, Fraction(1, 4), Fraction(1, 4), iv("empty"))
@example(BOX, [iv("[1,3]")], 0b010, "cut", 0, Fraction(9, 4), Fraction(9, 4), iv("empty"))
@example(BOX, [iv("[1,3]")], 0b001, "cut", 0, Fraction(9, 4), float("inf"), iv("empty"))
@example(BOX, [iv("[1,3]")], 0b001, "escape", 0, Fraction(1, 4), Fraction(1, 4), iv("[9,10]"))
@example(BOX, [iv("[1,3]")], 0b101, "escape", 0, Fraction(1, 4), Fraction(1, 4), iv("(-1,0) | (8,9]"))
def test_encode_matches_intersecting_oracle(universe, sets, word, kind, mask, a, b, extra):
    # Unions of cells; sets that split a cell along its own pieces, with no
    # new endpoint; sets cut at one or two new endpoints; sets that escape
    # the universe.
    p = build_partition([s & universe.carrier for s in sets], universe)
    s = p.decode(word % (1 << p.kappa))
    if kind == "pieces":
        s = s ^ IntervalSet.of(*(x for k, x in enumerate(p.pieces) if (mask >> k) & 1))
    elif kind == "cut":
        s = s ^ (IntervalSet.of(Interval.make(min(a, b), max(a, b))) & universe.carrier)
    elif kind == "escape":
        s = s | extra
    assert outcome(p.encode, s) == outcome(intersecting_encode, p, s)


# -- the consensus bounds against every common union of cells ------------------


@st.composite
def consensus_systems(draw):
    """A map with 1-3 free variables and 0-2 constants whose rules are small
    expressions over them or, as often, unions of linear terms, and the
    partition cut by its constants and 3 - k more sets: at most 8 cells."""
    k = draw(st.integers(0, 2))
    n_free = draw(st.integers(1, 3))
    free, constants = variables(*range(n_free)), variables(*range(n_free, n_free + k))
    coeff = st.sampled_from(constants * 2 + [UniverseLit(), EmptyLit()])
    if draw(st.booleans()):
        leaf = st.one_of(st.sampled_from(free), coeff)
        expressions = st.recursive(leaf, lambda inner: st.one_of(
            st.builds(Complement, inner), *(st.builds(kind, inner, inner) for kind in (Union, Intersect, SymDiff))),
            max_leaves=6)
        rules = draw(st.lists(expressions, min_size=n_free, max_size=n_free))
    else:
        var = st.sampled_from(free)
        term = st.one_of(var, st.builds(Intersect, var, coeff), st.builds(Intersect, coeff, var), st.just(EmptyLit()))
        rules = [functools.reduce(Union, draw(st.lists(term, min_size=1, max_size=3))) for _ in range(n_free)]
    sets = st.lists(intervals(), min_size=1, max_size=2).map(lambda spans: IntervalSet.of(*spans) & BOX.carrier)
    values = draw(st.lists(sets, min_size=k, max_size=k))
    others = draw(st.lists(sets, min_size=3 - k, max_size=3 - k))
    return frozen_map(rules, BOX, *values), build_partition(dedup_generators(values + others), BOX)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(consensus_systems())
@example((frozen_map((Var(0) | (Var(1) & Var(2)), Var(0) | ~Var(1), ~Var(0) & ~Var(1) & ~Var(2)), BOX),
          build_partition([iv("[2,5]"), iv("[4,7]"), iv("[6,8]")], BOX)))
@example((frozen_map((Var(1) & Var(2), Var(0) | Var(1) & Var(3)), BOX, iv("[0,5]"), iv("[3,8]")),
          build_partition([iv("[0,5]"), iv("[3,8]"), iv("[1,2]")], BOX)))
def test_consensus_bounds_match_every_common_union_of_cells(system):
    # A common value S of the free agents is fixed exactly when
    # lower <= S <= upper, and a nonempty one exists exactly when ``exists``.
    f, p = system
    assert p.kappa <= 8
    bounds = consensus_bounds(translate_map(f, p))
    n_free = f.arity - f.frozen_count
    nonempty_fixed = False
    for word in range(1 << p.kappa):
        s = p.decode(word)
        state = (s,) * n_free + f.frozen_values
        fixed = f.eval(state) == state
        assert fixed == (bounds.lower.is_subset(s) and s.is_subset(bounds.upper))
        nonempty_fixed |= fixed and word != 0
    assert bounds.exists == nonempty_fixed
    linear = as_linear(f)
    assert is_linear(f) == (linear is not None)
    if linear is not None:
        assert (bounds.upper, bounds.lower) == (consensus_region(linear).region, IntervalSet.empty())
