import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcons.boolmat import BoolMatrix, Permutation, column_at_most_one, dependency_order, is_nilpotent
from setcons.intervals import Interval, IntervalSet, Universe

from helpers import (
    brute_force_triangularizable,
    cyclic3_map,
    random_bool_matrix,
    ref3_binary,
)
from oracles import (
    column_at_most_one_by_entries,
    conjugate,
    discrete_derivative,
    elimination_cycle,
    elimination_order,
    entry,
    from_rows,
    identity_matrix,
    identity_permutation,
    is_strictly_lower,
    matmul,
    matrix_text,
    permutation_matrix,
    power_is_nilpotent,
    power_nilpotency_index,
    to_lists,
    transpose,
    zero_matrix,
)

REF3_B = from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
PINNED6_B = from_rows(
    [
        [0, 1, 1, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 1, 1],
        [0, 1, 1, 0, 0, 0],
        [1, 1, 1, 0, 1, 0],
    ]
)


def test_identity_is_neutral():
    rng = random.Random(2)
    for n in (1, 3, 5):
        a = random_bool_matrix(rng, n)
        assert matmul(identity_matrix(n), a) == a
        assert matmul(a, identity_matrix(n)) == a


def test_zero_annihilates():
    rng = random.Random(4)
    a = random_bool_matrix(rng, 4)
    assert matmul(zero_matrix(4), a) == zero_matrix(4)
    assert matmul(a, zero_matrix(4)) == zero_matrix(4)


def test_square_of_ref3_incidence():
    # Oracle: direct or/and expansion of the product.
    n = REF3_B.n
    expected = from_rows(
        [
            [
                int(any(entry(REF3_B, i, k) and entry(REF3_B, k, j) for k in range(n)))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert matmul(REF3_B, REF3_B) == expected
    assert expected == from_rows([[1, 1, 1]] * 3)


def test_product_associative():
    rng = random.Random(6)
    for _ in range(20):
        a, b, c = (random_bool_matrix(rng, 4) for _ in range(3))
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(identity_matrix(2), identity_matrix(3))


def test_analyzers_need_no_dimension_cap():
    from setcons.analysis import equilibria_sbm, is_contractive_sbm, is_locally_attractive_sbm
    from setcons.encoding import build_partition, translate_map
    from setcons.expr import SetMap
    from setcons.caps import DEFAULT
    from setcons.expr import EmptyLit, UniverseLit

    # Eleven dyadic generators cut [0, 2048) into 2048 unit cells, so three
    # variables translate to 6144 bits.  No analyzer builds a matrix over
    # them: the derivative comes as one 3 x 3 block per cell.
    u = Universe.of(Interval.closed_open(0, 2048))
    gens = [
        IntervalSet.of(*(Interval.closed_open(k, k + (1 << i)) for k in range(1 << i, 2048, 2 << i)))
        for i in range(11)
    ]
    p = build_partition(gens, u)
    f = SetMap((EmptyLit(), UniverseLit(), EmptyLit()), u)
    assert f.arity * p.kappa == 6144
    assert is_contractive_sbm(f).contractive
    x_eq = f.eval((u.carrier,) * 3)
    assert is_locally_attractive_sbm(translate_map(f, p), x_eq)
    report = equilibria_sbm(f, p, DEFAULT)
    assert report.total == 1 and report.listed == (x_eq,)


def test_nilpotency_references():
    assert not is_nilpotent(REF3_B)
    assert not is_nilpotent(identity_matrix(3))
    f = ref3_binary()
    d1 = discrete_derivative(f, (0, 1, 0))
    d2 = discrete_derivative(f, (1, 1, 1))
    assert is_nilpotent(d1)
    assert not is_nilpotent(d2)


def test_triangularization_references():
    perm, _ = dependency_order(PINNED6_B)
    assert perm == elimination_order(PINNED6_B)
    assert is_strictly_lower(conjugate(perm, PINNED6_B))
    assert dependency_order(cyclic3_map().incidence())[0] is None
    assert elimination_order(cyclic3_map().incidence()) is None
    assert dependency_order(zero_matrix(3)) == (identity_permutation(3), 1)
    assert elimination_order(zero_matrix(3)) == identity_permutation(3)


def test_witness_always_strictly_lower():
    rng = random.Random(8)
    for _ in range(200):
        a = random_bool_matrix(rng, rng.randint(1, 6))
        perm, _ = dependency_order(a)
        if perm is not None:
            assert is_strictly_lower(conjugate(perm, a))


def test_nilpotency_equivalence_with_brute_force():
    rng = random.Random(10)
    cases = [random_bool_matrix(rng, rng.randint(1, 5), rng.uniform(0.1, 0.6)) for _ in range(120)]
    cases += [zero_matrix(4), identity_matrix(4), REF3_B, PINNED6_B]
    for a in cases:
        nilpotent = is_nilpotent(a)
        witnessed = dependency_order(a)[0] is not None
        brute = brute_force_triangularizable(a)
        assert nilpotent == witnessed == brute == power_is_nilpotent(a)


def test_nilpotency_index():
    shift = from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert dependency_order(shift)[1] == power_nilpotency_index(shift) == 3
    assert dependency_order(zero_matrix(2))[1] == power_nilpotency_index(zero_matrix(2)) == 1
    assert dependency_order(zero_matrix(0))[1] == power_nilpotency_index(zero_matrix(0)) == 1
    assert dependency_order(identity_matrix(2))[0] is None
    assert power_nilpotency_index(identity_matrix(2)) is None


def test_dependency_cycle():
    assert dependency_order(PINNED6_B)[0] is not None
    assert elimination_cycle(PINNED6_B) is None
    cycle = dependency_order(cyclic3_map().incidence())[1]
    assert cycle == elimination_cycle(cyclic3_map().incidence()) == (0,)
    ring = from_rows([[0, 1], [1, 0]])
    assert sorted(dependency_order(ring)[1]) == sorted(elimination_cycle(ring)) == [0, 1]


def assert_certifies(a: BoolMatrix, order, found):
    """A returned order conjugates ``a`` to strictly lower form; a returned
    cycle is a directed cycle of distinct rows, each reading the next."""
    if order is not None:
        assert is_strictly_lower(conjugate(order, a))
        assert 1 <= found <= max(a.n, 1)
    else:
        assert 1 <= len(found) == len(set(found))
        for k, i in enumerate(found):
            assert entry(a, i, found[(k + 1) % len(found)])


def assert_matches_oracles(a: BoolMatrix):
    order, found = dependency_order(a)
    assert order == elimination_order(a)
    assert (order is not None) == is_nilpotent(a) == power_is_nilpotent(a)
    if order is not None:
        assert found == power_nilpotency_index(a)
    else:
        assert found == elimination_cycle(a)
    assert_certifies(a, order, found)


def test_dependency_order_on_every_matrix_up_to_3x3():
    for n in range(4):
        for rows in itertools.product(range(1 << n), repeat=n):
            a = BoolMatrix(n, rows)
            assert_matches_oracles(a)
            assert (dependency_order(a)[0] is not None) == brute_force_triangularizable(a)


def test_dependency_order_on_every_4x4_matrix():
    for rows in itertools.product(range(16), repeat=4):
        a = BoolMatrix(4, rows)
        order, found = dependency_order(a)
        if order is None:
            assert not power_is_nilpotent(a)
        else:
            assert found == power_nilpotency_index(a)
        assert_certifies(a, order, found)


@st.composite
def bool_matrices(draw):
    n = draw(st.integers(0, 10))
    row = st.integers(0, (1 << n) - 1)
    # ANDing k uniform rows keeps each entry with probability 2**-k, so both
    # nilpotent and cyclic matrices show up.
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        r = (1 << n) - 1
        for _ in range(k):
            r &= draw(row)
        rows.append(r)
    return BoolMatrix(n, tuple(rows))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bool_matrices())
def test_dependency_order_matches_oracles_up_to_10x10(a):
    assert_matches_oracles(a)


def test_column_at_most_one():
    f = ref3_binary()
    assert column_at_most_one(discrete_derivative(f, (0, 1, 0)))
    # The derivative at (1,1,1) has two entries in its first column, on top
    # of the self-loop that already breaks nilpotency.
    assert not column_at_most_one(discrete_derivative(f, (1, 1, 1)))
    assert not column_at_most_one(from_rows([[1, 1], [1, 1]]))
    # The row-mask sweep agrees with counting entries column by column.
    rng = random.Random(99)
    for _ in range(300):
        a = random_bool_matrix(rng, rng.randint(0, 12), rng.choice((0.05, 0.15, 0.35)))
        assert column_at_most_one(a) == column_at_most_one_by_entries(a)


def test_permutation_matrix_conjugation_agrees():
    rng = random.Random(16)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = random_bool_matrix(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        perm = Permutation(tuple(order))
        p = permutation_matrix(perm)
        assert matmul(matmul(transpose(p), a), p) == conjugate(perm, a)


def test_json_export():
    assert to_lists(REF3_B) == [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
    assert matrix_text(identity_matrix(2)) == "1 0\n0 1"
