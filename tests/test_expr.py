import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcons.dsl import parse
from setcons.expr import (
    Complement,
    Difference,
    EmptyLit,
    Intersect,
    SetMap,
    SymDiff,
    Union,
    UniverseLit,
    Var,
    is_linear,
    truth_columns,
)
from setcons.intervals import Interval, IntervalSet, Universe

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    cyclic3_map,
    frozen_map,
    iv,
    pinned6_map,
    random_set,
    random_set_map,
)
from oracles import (
    LinearSetMap,
    NamedConst,
    _rebuild,
    as_linear,
    as_set_map,
    check_composition_bound,
    compose,
    division_truth_columns,
    expr_to_text,
    from_rows,
    matmul,
    named_as_linear,
    recursive_augmented_components,
    recursive_evaluate,
    zero_matrix,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def sample(name: str):
    return parse((SAMPLES / f"{name}.sbm").read_text())


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
    # A constant is a trailing variable: one the map does not hold is an
    # index outside its arity.
    with pytest.raises(ValueError, match="outside arity 1"):
        SetMap((Var(1),), HALF_LINE)


def test_incidence_references():
    assert cyclic3_map().incidence() == from_rows([[1, 1, 1], [1, 1, 0], [1, 1, 1]])
    # The seventh column is the constant C, which only the third agent reads;
    # its own row, a frozen one, is zero.
    assert pinned6_map().incidence() == from_rows(
        [
            [0, 1, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1],
            [1, 1, 1, 0, 1, 1, 0],
            [0, 1, 1, 0, 0, 0, 0],
            [1, 1, 1, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ]
    )
    constant_only = frozen_map((Var(2), EmptyLit()), BOX200, iv("[1,2]"))
    assert constant_only.incidence() == from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert frozen_map((EmptyLit(),), BOX200, iv("[1,2]")).incidence() == zero_matrix(2)


def test_augment_pinned6():
    # The parsed system's map holds the constant C as a seventh, frozen variable.
    f = sample("pinned6").set_map()
    assert f == pinned6_map()
    assert f.arity == 7
    assert f.frozen_values == (iv("[40,60] | [100,120]"),)
    assert f.components[2] == Var(6)
    assert f.components[6] == Var(6)
    # Frozen rows are reported as sources: all-zero incidence rows.
    assert f.incidence().rows[6] == 0
    assert f.incidence().rows[2] == 1 << 6


def test_augment_constant_free_is_identity():
    spec = sample("cyclic3")
    f = spec.set_map()
    assert f.components == spec.rules and f.frozen_values == ()
    assert f == cyclic3_map()


def test_augment_linear_adds_n_squared():
    entries = tuple(tuple(random_set(random.Random(i * 7 + j)) & BOX200.carrier for j in range(2)) for i in range(2))
    linear = LinearSetMap(entries, BOX200)
    f = as_set_map(linear)
    assert f.arity == 6
    assert f.frozen_values == entries[0] + entries[1]


def test_augmented_trajectories_match():
    # Each round of the parsed map is its rules evaluated with the constant
    # C in place of the seventh variable, which stays C.
    f = sample("pinned6").set_map()
    c = iv("[40,60] | [100,120]")
    rng = random.Random(3)
    state = tuple(random_set(rng, 0, 200) & BOX200.carrier for _ in range(6))
    for _ in range(3):
        lifted = f.eval(state + (c,))
        assert lifted[:6] == tuple(recursive_evaluate(rule, state + (c,), BOX200) for rule in f.components[:6])
        assert lifted[6:] == (c,)
        state = lifted[:6]


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


# -- as_linear on the frozen form against the named-constant reading ----------

NAMES = ("A", "B", "C")
LINEAR_BOX = Universe.of(Interval.closed(0, 10))


def named_form(spec) -> tuple:
    """A parsed system's rules with each constant's variable named again."""
    n = len(spec.variables)
    names = [name for name, _ in spec.constants]
    return tuple(
        _rebuild(rule, lambda node: NamedConst(names[node.index - n]) if type(node) is Var and node.index >= n else node)
        for rule in spec.rules
    )


def check_as_linear(rules, values) -> "LinearSetMap | None":
    """``as_linear`` of the frozen form of ``rules`` over the named
    constants A, B, ... bound to ``values``, checked against the reference
    reading of the named rules; returns the linear map."""
    names = NAMES[: len(values)]
    f = SetMap(recursive_augmented_components(rules, names), LINEAR_BOX, tuple(values))
    linear = as_linear(f)
    assert linear == named_as_linear(rules, dict(zip(names, values)), LINEAR_BOX)
    assert is_linear(f) == (linear is not None)
    return linear


def test_as_linear_matches_named_reading_on_linear2():
    spec = sample("linear2")
    linear = as_linear(spec.set_map())
    assert linear is not None
    assert linear == named_as_linear(named_form(spec), dict(spec.constants), spec.universe)
    assert linear.entries == ((iv("[0,5]"), iv("[3,8]")), (iv("[6,9]"), iv("[2,4]")))


def test_as_linear_term_shapes():
    a, b = iv("[1,2]"), iv("[5,7]")
    x1, x2, A, B = Var(0), Var(1), NamedConst("A"), NamedConst("B")
    carrier, empty = LINEAR_BOX.carrier, IntervalSet.empty()
    # A constant on either side of &, and the literals as coefficients.
    assert check_as_linear((x1 & A | B & x2, A & x1 | x2 & B), (a, b)).entries == ((a, b), (a, b))
    assert check_as_linear((UniverseLit() & x2 | x1 & EmptyLit(), x1 | EmptyLit()), ()).entries == (
        (empty, carrier), (carrier, empty))
    # Not linear: a constant with the universe, a bare constant, two
    # variables together, and a bare universe.
    for rules in ((A & UniverseLit(), x2), (A | x1, x2), (x1 & x2, x2), (x1, UniverseLit())):
        assert check_as_linear(rules, (a, b)) is None


@pytest.mark.parametrize(
    "rule, linear",
    [
        ("C", False),
        ("X", False),
        ("A & B", False),
        ("(A | B) & C", False),
        ("A & C & D", False),
        ("C & A", True),
        ("A & empty", True),
        ("empty", True),
        ("A | A", True),
    ],
)
def test_is_linear_edge_shapes(rule, linear):
    # A and B are states, C and D constants.
    spec = parse(
        "universe [0,10]\nconst C = [1,2]\nconst D = [3,4]\n"
        f"state A = [0,1]\nstate B = [2,3]\nrule A = {rule}\nrule B = B\n"
    )
    f = spec.set_map()
    assert is_linear(f) is linear
    assert (as_linear(f) is not None) is linear


@st.composite
def linear_systems(draw):
    """Rules over 1-3 variables and 0-3 named constants that are unions of
    linear terms, with now and then a term that is not one."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    var = st.builds(Var, st.integers(0, n - 1))
    coeff = st.sampled_from([NamedConst(name) for name in NAMES[:k]] + [UniverseLit(), EmptyLit()])
    term = st.one_of(
        var,
        st.builds(Intersect, var, coeff),
        st.builds(Intersect, coeff, var),
        st.just(EmptyLit()),
    )
    odd = st.one_of(coeff, st.builds(Intersect, var, var), st.builds(Intersect, coeff, coeff), st.builds(Complement, var))
    rules = []
    for _ in range(n):
        terms = draw(st.lists(term, min_size=1, max_size=4))
        if draw(st.integers(0, 9)) == 0:
            terms.insert(draw(st.integers(0, len(terms))), draw(odd))
        rule = terms[0]
        for t in terms[1:]:
            rule = Union(rule, t)
        rules.append(rule)
    values = draw(st.lists(st.sampled_from([iv("[0,2]"), iv("(1,4] | [6,8]"), iv("empty"), LINEAR_BOX.carrier]),
                           min_size=k, max_size=k))
    return tuple(rules), tuple(values)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(linear_systems())
@example(((Var(0) & NamedConst("A"),), (iv("[0,2]"),)))
@example(((NamedConst("A") & UniverseLit(),), (iv("[0,2]"),)))
def test_as_linear_matches_named_reading(system):
    check_as_linear(*system)


def test_truth_columns_match_the_division_form():
    # Bit ``mask`` of column j is bit j of ``mask``.
    assert truth_columns(0) == ()
    assert truth_columns(2) == (0b1010, 0b1100)
    for arity in range(21):
        assert truth_columns(arity) == division_truth_columns(arity)
