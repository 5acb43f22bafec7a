import random

import pytest

from setcons.expr import (
    Complement,
    ConstRef,
    Difference,
    EmptyLit,
    Intersect,
    LinearSetMap,
    SetMap,
    SymDiff,
    Union,
    Var,
    as_linear,
    augment_constants,
    truth_columns,
)
from setcons.intervals import Interval, IntervalSet, Universe

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    cyclic3_map,
    iv,
    pinned6_map,
    random_set,
    random_set_map,
)
from oracles import (
    as_set_map,
    check_composition_bound,
    compose,
    division_truth_columns,
    expr_to_text,
    from_rows,
    matmul,
    zero_matrix,
)


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
    assert cyclic3_map().incidence() == from_rows([[1, 1, 1], [1, 1, 0], [1, 1, 1]])
    assert pinned6_map().incidence() == from_rows(
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
    assert constant_only.incidence() == zero_matrix(2)


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
    aug = augment_constants(as_set_map(linear))
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


def test_composition_bound_identity():
    ident = SetMap((Var(0), Var(1)), HALF_LINE)
    assert compose(ident, ident).incidence() == matmul(ident.incidence(), ident.incidence())
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
    back = as_linear(as_set_map(linear))
    assert back is not None and back.entries == entries
    assert as_linear(cyclic3_map()) is None
    bare = SetMap((Var(1), Var(0)), u)
    shaped = as_linear(bare)
    assert shaped is not None
    assert shaped.entries[0][1] == u.carrier and shaped.entries[0][0] == IntervalSet.empty()


def test_truth_columns_match_the_division_form():
    # Bit ``mask`` of column j is bit j of ``mask``.
    assert truth_columns(0) == ()
    assert truth_columns(2) == (0b1010, 0b1100)
    for arity in range(21):
        assert truth_columns(arity) == division_truth_columns(arity)
