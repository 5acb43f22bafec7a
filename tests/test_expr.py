import random

import pytest

from setcons import (
    BoolMatrix,
    Interval,
    IntervalSet,
    SetMap,
    Universe,
    as_linear,
    augment_constants,
    compose,
    desugar,
    normal_form,
)
from setcons.caps import Caps
from setcons.errors import CapExceeded
from setcons.expr import (
    Complement,
    ConstRef,
    Difference,
    EmptyLit,
    Intersect,
    LinearSetMap,
    SymDiff,
    Union,
    UniverseLit,
    Var,
    bit_evaluate,
    evaluate,
    expr_to_text,
)

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    UNIT,
    cyclic3_map,
    iv,
    pinned6_map,
    random_expr,
    random_set,
    random_set_map,
    random_word,
)
from oracles import check_composition_bound


def test_eval_reference_step():
    out = cyclic3_map().eval(CYCLIC3_START)
    assert out == (
        iv("[2,5]"),
        iv("[0,5] | (7,inf)"),
        iv("[0,2) | (7,8) | (11,inf)"),
    )


def test_eval_identity_map():
    f = SetMap((Var(0), Var(1)), HALF_LINE)
    state = (iv("[1,2]"), iv("[3,4] | [6,9)"))
    assert f.eval(state) == state


def test_eval_double_complement():
    f = SetMap((~Var(0),), Universe.of(Interval.closed(0, 3)))
    state = (iv("[1,2]"),)
    assert f.eval(f.eval(state)) == state


def test_eval_arity_and_bounds_errors():
    f = cyclic3_map()
    with pytest.raises(ValueError):
        f.eval((iv("[1,2]"),))
    bad = (iv("[-5,-1]"), iv("[4,7]"), iv("[8,11]"))
    with pytest.raises(ValueError):
        f.eval(bad)


def test_unbound_constant_rejected():
    with pytest.raises(ValueError):
        SetMap((ConstRef("missing"),), HALF_LINE)


def test_incidence_references():
    assert cyclic3_map().incidence() == BoolMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 1, 1]])
    assert pinned6_map().incidence() == BoolMatrix.from_rows(
        [
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 0],
            [1, 1, 1, 0, 1, 0],
        ]
    )
    constant_only = SetMap((ConstRef("A"), EmptyLit()), BOX200, (("A", iv("[1,2]")),))
    assert constant_only.incidence() == BoolMatrix.zero(2)


def test_augment_pinned6():
    aug = augment_constants(pinned6_map())
    assert aug.arity == 7
    assert not aug.constants
    assert aug.frozen_values == (iv("[40,60] | [100,120]"),)
    assert aug.components[2] == Var(6)
    assert aug.components[6] == Var(6)
    # Frozen rows are reported as sources: all-zero incidence rows.
    assert aug.incidence().rows[6] == 0
    assert aug.incidence().rows[2] == 1 << 6


def test_augment_constant_free_is_identity():
    f = cyclic3_map()
    assert augment_constants(f) is f


def test_augment_linear_adds_n_squared():
    entries = tuple(tuple(random_set(random.Random(i * 7 + j)) & BOX200.carrier for j in range(2)) for i in range(2))
    linear = LinearSetMap(entries, BOX200)
    aug = augment_constants(linear.as_set_map())
    assert aug.arity == 6
    assert aug.frozen_values == entries[0] + entries[1]


def test_augmented_trajectories_match():
    f = pinned6_map()
    aug = augment_constants(f)
    rng = random.Random(3)
    state = tuple(random_set(rng, 0, 200) & BOX200.carrier for _ in range(6))
    plain = f.eval(state)
    lifted = aug.eval(state + aug.frozen_values)
    assert lifted[:6] == plain
    assert lifted[6:] == aug.frozen_values


def test_desugar():
    assert desugar(Var(0) - Var(1)) == Intersect(Var(0), Complement(Var(1)))
    assert desugar(Var(0) ^ Var(1)) == Union(
        Intersect(Complement(Var(0)), Var(1)), Intersect(Var(0), Complement(Var(1)))
    )
    core = Union(Var(0), Complement(Intersect(Var(1), UniverseLit())))
    assert desugar(core) == core


def test_eval_commutes_with_desugar():
    rng = random.Random(21)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(50):
        n = rng.randint(1, 4)
        e = random_expr(rng, n, 5)
        state = tuple(random_set(rng) & u.carrier for _ in range(n))
        assert evaluate(e, state, {}, u) == evaluate(desugar(e), state, {}, u)


def test_normal_form_single_variable_rows():
    u = UNIT
    rows = [
        (EmptyLit(), (0, 0)),
        (Intersect(Var(0), EmptyLit()), (0, 0)),
        (Intersect(Var(0), Complement(Var(0))), (0, 0)),
        (UniverseLit(), (1, 0)),
        (Union(Var(0), Complement(Var(0))), (1, 0)),
        (Union(Var(0), UniverseLit()), (1, 0)),
        (Var(0), (0, 1)),
        (Union(Var(0), Var(0)), (0, 1)),
        (Intersect(Var(0), UniverseLit()), (0, 1)),
        (Complement(Var(0)), (1, 1)),
    ]
    for e, (a_empty, a_one) in rows:
        nf = normal_form(e, 1)
        assert nf.coefficient(()) == a_empty
        assert nf.coefficient((0,)) == a_one


def test_normal_form_union():
    nf = normal_form(Var(0) | Var(1), 2)
    assert nf.coefficient(()) == 0
    assert nf.coefficient((0,)) == nf.coefficient((1,)) == nf.coefficient((0, 1)) == 1


def test_normal_form_cap():
    # The enumeration cap bounds the 2**n coefficient table.
    with pytest.raises(CapExceeded, match=r"normal form needs 2\*\*21 states \(cap 20\)"):
        normal_form(Var(0), 21)
    with pytest.raises(CapExceeded):
        normal_form(Var(0), 5, caps=Caps(enumeration=4))


def test_normal_form_refuses_variables_outside_its_arity():
    with pytest.raises(ValueError, match="variable index 13 outside arity 12"):
        normal_form(Var(0) ^ (Var(13) & Var(0)), 12)


def test_normal_form_reconstruction():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        e = random_expr(rng, n, 4)
        rebuilt = normal_form(e, n).to_expr()
        for mask in range(1 << n):
            bits = tuple((mask >> j) & 1 for j in range(n))
            assert bit_evaluate(e, bits) == bit_evaluate(rebuilt, bits)


def test_normal_form_reconstruction_on_sets():
    rng = random.Random(33)
    from setcons import build_partition

    u = Universe.of(Interval.closed(0, 24))
    for _ in range(15):
        n = rng.randint(1, 3)
        e = random_expr(rng, n, 4)
        rebuilt = normal_form(e, n).to_expr()
        gens = [random_set(rng) & u.carrier for _ in range(n)]
        p = build_partition(gens, u)
        state = tuple(p.decode(random_word(rng, p.kappa)) for _ in range(n))
        assert evaluate(e, state, {}, u) == evaluate(rebuilt, state, {}, u)


def test_composition_bound_identity():
    ident = SetMap((Var(0), Var(1)), HALF_LINE)
    assert compose(ident, ident).incidence() == ident.incidence() @ ident.incidence()
    assert check_composition_bound(ident, ident)


def test_composition_bound_reference_and_random():
    f = cyclic3_map()
    assert check_composition_bound(f, f)
    rng = random.Random(37)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(50):
        n = rng.randint(1, 5)
        g1 = random_set_map(rng, n, 4, u)
        g2 = random_set_map(rng, n, 4, u)
        assert check_composition_bound(g1, g2)
        composed = compose(g1, g2)
        state = tuple(random_set(rng) & u.carrier for _ in range(n))
        assert composed.eval(state) == g1.eval(g2.eval(state))


def test_expr_to_text_round_trip_precedence():
    e = Union(Intersect(Var(0), Complement(Var(1))), Difference(Var(2), SymDiff(Var(0), Var(1))))
    assert expr_to_text(e) == "X1 & ~X2 | X3 \\ (X1 ^ X2)"
    nested = Union(Var(0), Union(Var(1), Var(2)))
    assert expr_to_text(nested) == "X1 | (X2 | X3)"


def test_as_linear_detection():
    entries = (
        (iv("[0,5]"), iv("[3,8]")),
        (iv("[6,9]"), iv("[2,4]")),
    )
    u = Universe.of(Interval.closed(0, 10))
    linear = LinearSetMap(entries, u)
    back = as_linear(linear.as_set_map())
    assert back is not None and back.entries == entries
    assert as_linear(cyclic3_map()) is None
    bare = SetMap((Var(1), Var(0)), u)
    shaped = as_linear(bare)
    assert shaped is not None
    assert shaped.entries[0][1] == u.carrier and shaped.entries[0][0] == IntervalSet.empty()
