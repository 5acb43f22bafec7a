import random

import pytest

from setcons.analysis import (
    ContractivityVerdict,
    consensus_region,
    equilibria_sbm,
    global_fixed_point,
    is_contractive_sbm,
    is_locally_attractive_sbm,
)
from setcons.bindyn import is_vnn_attractive
from setcons.encoding import EncodedSystem, build_partition, dedup_generators, translate_map
from setcons.errors import CellEncodingError, SetconsError
from setcons.expr import LinearSetMap, SetMap, Var, augment_constants
from setcons.intervals import Interval, IntervalSet, Universe

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    UNIT,
    cyclic3_map,
    iv,
    pinned6_map,
    random_set,
    random_set_map,
    ref3_binary,
    unit_embedding_of_ref3,
)
from oracles import (
    as_set_map,
    block_incidence_verdict,
    cell_map,
    check_distance_bound,
    conjugate,
    entry,
    find_bound_counterexample,
    from_rows,
    incidence_apply,
    is_locally_attractive_direct,
    is_strictly_lower,
    set_distance,
)


def box24():
    return Universe.of(Interval.closed(0, 24))


def test_set_distance_axioms():
    rng = random.Random(71)
    for _ in range(30):
        x = tuple(random_set(rng) for _ in range(3))
        y = tuple(random_set(rng) for _ in range(3))
        assert set_distance(x, x) == (IntervalSet.empty(),) * 3
        assert set_distance(x, y) == set_distance(y, x)
        assert (set_distance(x, y) == (IntervalSet.empty(),) * 3) == (x == y)


def test_set_distance_reference():
    assert set_distance((iv("[2,5]"),), (iv("[4,7]"),)) == (iv("[2,4) | (5,7]"),)
    with pytest.raises(ValueError):
        set_distance((iv("[1,2]"),), (iv("[1,2]"), iv("[1,2]")))


def test_distance_bound_reference_and_random():
    f = cyclic3_map()
    perturbed = (iv("[2,5]"), iv("[4,9]"), iv("(8,11]"))
    assert check_distance_bound(f, CYCLIC3_START, perturbed)
    rng = random.Random(73)
    u = box24()
    for _ in range(60):
        n = rng.randint(1, 4)
        g = random_set_map(rng, n, 4, u)
        x = tuple(random_set(rng) & u.carrier for _ in range(n))
        y = tuple(random_set(rng) & u.carrier for _ in range(n))
        assert check_distance_bound(g, x, y)
        assert check_distance_bound(g, x, x)


def test_bound_counterexample_search():
    rng = random.Random(75)
    u = box24()
    found = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        f = random_set_map(rng, n, 3, u)
        gens = [random_set(rng) & u.carrier for _ in range(2)]
        p = build_partition(gens, u)
        from oracles import semantic_incidence

        live = semantic_incidence(cell_map(translate_map(f, p), 0))
        entries = [(i, j) for i in range(n) for j in range(n) if entry(live, i, j)]
        if not entries:
            continue
        i, j = entries[rng.randrange(len(entries))]
        weakened = from_rows(
            [
                [0 if (a, b) == (i, j) else entry(live, a, b) for b in range(n)]
                for a in range(n)
            ]
        )
        pair = find_bound_counterexample(f, weakened, p)
        assert pair is not None
        x, y = pair
        lhs = set_distance(f.eval(x), f.eval(y))
        rhs = incidence_apply(weakened, set_distance(x, y))
        assert not all(l.is_subset(r) for l, r in zip(lhs, rhs))
        found += 1
    assert found >= 10
    # A matrix that dominates the incidence never admits a counterexample.
    f = cyclic3_map()
    p = build_partition(list(CYCLIC3_START), HALF_LINE)
    full = from_rows([[1] * 3] * 3)
    assert find_bound_counterexample(f, full, p) is None


def test_contractivity_cyclic3():
    verdict = is_contractive_sbm(cyclic3_map())
    assert not verdict.contractive
    assert verdict.cycle == (0,)
    assert verdict.witness is None


def test_contractivity_pinned6():
    aug = augment_constants(pinned6_map())
    p = build_partition([aug.frozen_values[0]], BOX200)
    verdict = is_contractive_sbm(aug)
    assert block_incidence_verdict(aug, p) is True
    assert verdict.contractive
    assert verdict.q is not None and verdict.q <= aug.arity
    assert is_strictly_lower(conjugate(verdict.witness, aug.incidence()))


def test_contractivity_self_loop():
    f = SetMap((Var(0),), UNIT)
    verdict = is_contractive_sbm(f)
    assert not verdict.contractive and verdict.cycle == (0,)


def test_contractivity_requires_constant_free():
    with pytest.raises(ValueError):
        is_contractive_sbm(pinned6_map())


def test_theorem5_both_directions_random():
    # The projection verdict must agree with nilpotency of the block
    # incidence of the translated map on n*kappa bits.
    rng = random.Random(77)
    u = box24()
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_set_map(rng, n, 4, u)
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(0, 4))]
        p = build_partition(gens, u)
        assert is_contractive_sbm(f).contractive == block_incidence_verdict(f, p)


def encoded(f: SetMap, *states) -> EncodedSystem:
    """``f`` translated over the cells that the sets of ``states`` generate."""
    sets = [s for state in states for s in state]
    return translate_map(f, build_partition(dedup_generators(sets), f.universe))


def test_global_fixed_point_pinned6():
    aug = augment_constants(pinned6_map())
    c = aug.frozen_values[0]
    rng = random.Random(79)
    start = tuple(random_set(rng, 0, 200) & BOX200.carrier for _ in range(6)) + aug.frozen_values
    other = tuple(random_set(rng, 0, 200) & BOX200.carrier for _ in range(6)) + aug.frozen_values
    enc = encoded(aug, start, other)
    fixed = global_fixed_point(enc, start)
    assert fixed == (c,) * 7
    assert global_fixed_point(enc, other) == fixed


def test_global_fixed_point_constant_map():
    from setcons.expr import ConstRef

    f = SetMap(
        (ConstRef("A"), ConstRef("B")),
        BOX200,
        (("A", iv("[1,2]")), ("B", iv("[3,4]"))),
    )
    aug = augment_constants(f)
    start = (iv("[7,9]"), IntervalSet.empty()) + aug.frozen_values
    fixed = global_fixed_point(encoded(aug, start), start)
    assert fixed[:2] == (iv("[1,2]"), iv("[3,4]"))


def test_global_fixed_point_rejects_noncontractive():
    with pytest.raises(ValueError):
        global_fixed_point(encoded(cyclic3_map(), CYCLIC3_START), CYCLIC3_START)


def test_global_fixed_point_start_must_be_a_union_of_cells():
    aug = augment_constants(pinned6_map())
    enc = encoded(aug, aug.frozen_values)
    start = (iv("[1,2]"),) + (IntervalSet.empty(),) * 5 + aug.frozen_values
    with pytest.raises(CellEncodingError, match="straddles"):
        global_fixed_point(enc, start)


def test_global_fixed_point_disagreement_is_an_error():
    # A forged verdict whose round bound is too small: the runs from the
    # start and from its complement end apart, which must raise (also under
    # python -O) rather than return a wrong fixed point.
    aug = augment_constants(pinned6_map())
    start = (IntervalSet.empty(),) * 6 + aug.frozen_values
    enc = encoded(aug, start)
    with pytest.raises(SetconsError, match="different fixed points"):
        global_fixed_point(enc, start, verdict=ContractivityVerdict(True, q=1))
    with pytest.raises(SetconsError, match="round bound"):
        global_fixed_point(enc, start, verdict=ContractivityVerdict(True))


def test_equilibria_cap():
    from setcons.caps import Caps
    from setcons.errors import CapExceeded

    u = box24()
    f = SetMap(tuple(Var(i) for i in range(4)), u)
    p = build_partition([iv("[1,2]")], u)
    with pytest.raises(CapExceeded):
        equilibria_sbm(f, p, Caps(enumeration=3))


def test_equilibria_identity_map():
    u = box24()
    f = SetMap((Var(0), Var(1)), u)
    p = build_partition([iv("[1,2]"), iv("[4,9)")], u)
    report = equilibria_sbm(f, p)
    assert all(len(fps) == 4 for fps in report.per_cell)
    assert report.total == 4**p.kappa


def test_equilibria_pinned6():
    aug = augment_constants(pinned6_map())
    rng = random.Random(81)
    gens = [random_set(rng, 0, 200) & BOX200.carrier for _ in range(3)] + [aug.frozen_values[0]]
    p = build_partition(gens, BOX200)
    report = equilibria_sbm(aug, p)
    assert all(len(fps) == 1 for fps in report.per_cell)
    assert report.total == 1
    assert report.listed is not None
    consensus = report.listed[0]
    assert all(s == aug.frozen_values[0] for s in consensus[:6])


def test_equilibria_unit_embedding():
    f = unit_embedding_of_ref3()
    p = build_partition([], UNIT)
    report = equilibria_sbm(f, p)
    assert report.total == 2
    assert report.per_cell[0] == ((0, 1, 0), (1, 1, 1))
    assert report.listed == (
        (IntervalSet.empty(), UNIT.carrier, IntervalSet.empty()),
        (UNIT.carrier, UNIT.carrier, UNIT.carrier),
    )


def test_local_attractiveness_unit_embedding():
    f = unit_embedding_of_ref3()
    enc = translate_map(f, build_partition([], UNIT))
    low = (IntervalSet.empty(), UNIT.carrier, IntervalSet.empty())
    high = (UNIT.carrier, UNIT.carrier, UNIT.carrier)
    assert is_locally_attractive_sbm(enc, low)
    assert not is_locally_attractive_sbm(enc, high)
    assert is_locally_attractive_direct(f, low)
    assert not is_locally_attractive_direct(f, high)
    with pytest.raises(ValueError):
        is_locally_attractive_sbm(enc, (UNIT.carrier, UNIT.carrier, IntervalSet.empty()))


def test_local_attractiveness_constant_map():
    from setcons.expr import ConstRef

    f = augment_constants(SetMap((ConstRef("A"),), BOX200, (("A", iv("[1,2]")),)))
    enc = translate_map(f, build_partition([iv("[1,2]")], BOX200))
    eq = (iv("[1,2]"), iv("[1,2]"))
    assert is_locally_attractive_sbm(enc, eq)


def test_theorem6_matches_binary_verdicts_at_kappa_one():
    # Single-cell systems are exactly binary maps; the two notions coincide.
    rng = random.Random(83)
    f_bin = ref3_binary()
    enc = translate_map(unit_embedding_of_ref3(), build_partition([], UNIT))
    for eq_bits in ((0, 1, 0), (1, 1, 1)):
        eq_sets = tuple(UNIT.carrier if b else IntervalSet.empty() for b in eq_bits)
        assert is_locally_attractive_sbm(enc, eq_sets) == is_vnn_attractive(f_bin, eq_bits)


def test_consensus_region_all_universe():
    u = box24()
    full = LinearSetMap(((u.carrier, u.carrier), (u.carrier, u.carrier)), u)
    verdict = consensus_region(full)
    assert verdict.exists and verdict.region == u.carrier


def test_consensus_region_reference():
    u = Universe.of(Interval.closed(0, 10))
    linear = LinearSetMap(
        ((iv("[0,5]"), iv("[3,8]")), (iv("[6,9]"), iv("[2,4]"))),
        u,
    )
    verdict = consensus_region(linear)
    assert verdict.exists
    assert verdict.region == iv("[2,4] | [6,8]")
    # Any nonempty subset of the region is a consensus fixed point; subsets
    # escaping it are not.
    f = as_set_map(linear)
    inside = iv("[2,3] | [7,8]")
    assert f.eval((inside, inside)) == (inside, inside)
    outside = iv("[2,3] | (8,9]")
    assert f.eval((outside, outside)) != (outside, outside)


def test_consensus_region_disjoint_rows():
    u = Universe.of(Interval.closed(0, 10))
    linear = LinearSetMap(
        ((iv("[0,1]"), IntervalSet.empty()), (IntervalSet.empty(), iv("[5,6]"))),
        u,
    )
    verdict = consensus_region(linear)
    assert not verdict.exists and verdict.region == IntervalSet.empty()


def test_consensus_region_matches_encoded_oracle():
    from helpers import consensus_oracle

    rng = random.Random(85)
    u = box24()
    for _ in range(30):
        n = rng.randint(1, 3)
        entries = tuple(
            tuple(random_set(rng) & u.carrier if rng.random() < 0.8 else IntervalSet.empty() for _ in range(n))
            for _ in range(n)
        )
        linear = LinearSetMap(entries, u)
        verdict = consensus_region(linear)
        oracle = consensus_oracle(linear)
        assert verdict.region == oracle
        assert verdict.exists == (not oracle.is_empty())
