import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcons import (
    BoolMatrix,
    BoolVector,
    IntervalSet,
    Permutation,
    Universe,
    column_at_most_one,
    dependency_order,
    has_empty_eigenvalue,
    has_universe_eigenvalue,
    is_nilpotent,
    is_strictly_lower,
)
from setcons.intervals import Interval

from helpers import (
    brute_force_triangularizable,
    cyclic3_map,
    iv,
    pinned6_map,
    random_bool_matrix,
    ref3_binary,
)
from setcons.bindyn import discrete_derivative
from oracles import (
    column_at_most_one_by_entries,
    elimination_cycle,
    elimination_order,
    power_is_nilpotent,
    power_nilpotency_index,
)

REF3_B = BoolMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
PINNED6_B = BoolMatrix.from_rows(
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
        assert BoolMatrix.identity(n) @ a == a
        assert a @ BoolMatrix.identity(n) == a


def test_zero_annihilates():
    rng = random.Random(4)
    a = random_bool_matrix(rng, 4)
    assert BoolMatrix.zero(4) @ a == BoolMatrix.zero(4)
    assert a @ BoolMatrix.zero(4) == BoolMatrix.zero(4)


def test_square_of_ref3_incidence():
    # Oracle: direct or/and expansion of the product.
    n = REF3_B.n
    expected = BoolMatrix.from_rows(
        [
            [
                int(any(REF3_B.entry(i, k) and REF3_B.entry(k, j) for k in range(n)))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert REF3_B @ REF3_B == expected
    assert expected == BoolMatrix.from_rows([[1, 1, 1]] * 3)


def test_product_associative():
    rng = random.Random(6)
    for _ in range(20):
        a, b, c = (random_bool_matrix(rng, 4) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        BoolMatrix.identity(2) @ BoolMatrix.identity(3)


def test_analyzers_need_no_dimension_cap():
    from setcons import (
        SetMap,
        build_partition,
        equilibria_sbm,
        is_contractive_sbm,
        is_locally_attractive_sbm,
        translate_map,
    )
    from setcons.caps import DEFAULT
    from setcons.expr import EmptyLit, UniverseLit

    # Eleven dyadic generators cut [0, 2048) into 2048 unit cells, so three
    # variables translate to 6144 bits.  No analyzer builds a matrix over
    # them: the derivative comes as one 3 x 3 block per cell.
    u = Universe.of(Interval.closed_open(0, 2048))
    gens = [
        IntervalSet.from_intervals(
            [Interval.closed_open(k, k + (1 << i)) for k in range(1 << i, 2048, 2 << i)]
        )
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
    assert not is_nilpotent(BoolMatrix.identity(3))
    f = ref3_binary()
    d1 = discrete_derivative(f, (0, 1, 0))
    d2 = discrete_derivative(f, (1, 1, 1))
    assert is_nilpotent(d1)
    assert not is_nilpotent(d2)


def test_triangularization_references():
    perm, _ = dependency_order(PINNED6_B)
    assert perm == elimination_order(PINNED6_B)
    assert is_strictly_lower(perm.conjugate(PINNED6_B))
    assert dependency_order(cyclic3_map().incidence())[0] is None
    assert elimination_order(cyclic3_map().incidence()) is None
    assert dependency_order(BoolMatrix.zero(3)) == (Permutation.identity(3), 1)
    assert elimination_order(BoolMatrix.zero(3)) == Permutation.identity(3)


def test_witness_always_strictly_lower():
    rng = random.Random(8)
    for _ in range(200):
        a = random_bool_matrix(rng, rng.randint(1, 6))
        perm, _ = dependency_order(a)
        if perm is not None:
            assert is_strictly_lower(perm.conjugate(a))


def test_nilpotency_equivalence_with_brute_force():
    rng = random.Random(10)
    cases = [random_bool_matrix(rng, rng.randint(1, 5), rng.uniform(0.1, 0.6)) for _ in range(120)]
    cases += [BoolMatrix.zero(4), BoolMatrix.identity(4), REF3_B, PINNED6_B]
    for a in cases:
        nilpotent = is_nilpotent(a)
        witnessed = dependency_order(a)[0] is not None
        brute = brute_force_triangularizable(a)
        assert nilpotent == witnessed == brute == power_is_nilpotent(a)


def test_nilpotency_index():
    shift = BoolMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert dependency_order(shift)[1] == power_nilpotency_index(shift) == 3
    assert dependency_order(BoolMatrix.zero(2))[1] == power_nilpotency_index(BoolMatrix.zero(2)) == 1
    assert dependency_order(BoolMatrix.zero(0))[1] == power_nilpotency_index(BoolMatrix.zero(0)) == 1
    assert dependency_order(BoolMatrix.identity(2))[0] is None
    assert power_nilpotency_index(BoolMatrix.identity(2)) is None


def test_dependency_cycle():
    assert dependency_order(PINNED6_B)[0] is not None
    assert elimination_cycle(PINNED6_B) is None
    cycle = dependency_order(cyclic3_map().incidence())[1]
    assert cycle == elimination_cycle(cyclic3_map().incidence()) == (0,)
    ring = BoolMatrix.from_rows([[0, 1], [1, 0]])
    assert sorted(dependency_order(ring)[1]) == sorted(elimination_cycle(ring)) == [0, 1]


def assert_certifies(a: BoolMatrix, order, found):
    """A returned order conjugates ``a`` to strictly lower form; a returned
    cycle is a directed cycle of distinct rows, each reading the next."""
    if order is not None:
        assert is_strictly_lower(order.conjugate(a))
        assert 1 <= found <= max(a.n, 1)
    else:
        assert 1 <= len(found) == len(set(found))
        for k, i in enumerate(found):
            assert a.entry(i, found[(k + 1) % len(found)])


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
    assert not column_at_most_one(BoolMatrix.from_rows([[1, 1], [1, 1]]))
    # The row-mask sweep agrees with counting entries column by column.
    rng = random.Random(99)
    for _ in range(300):
        a = random_bool_matrix(rng, rng.randint(0, 12), rng.choice((0.05, 0.15, 0.35)))
        assert column_at_most_one(a) == column_at_most_one_by_entries(a)


def test_empty_eigenvalue():
    line = Universe.real_line()
    a1 = [
        [IntervalSet.empty(), IntervalSet.empty()],
        [iv("(17,28]"), IntervalSet.point(13)],
    ]
    assert has_empty_eigenvalue(a1, line)
    full = [[line.carrier] * 2 for _ in range(2)]
    assert not has_empty_eigenvalue(full, line)
    zero = [[IntervalSet.empty()] * 2 for _ in range(2)]
    assert has_empty_eigenvalue(zero, line)


def test_universe_eigenvalue():
    u = Universe.of(Interval.closed_open(0, float("inf")))
    assert has_universe_eigenvalue(cyclic3_map().incidence_sets(), u)
    lower = [
        [IntervalSet.empty(), IntervalSet.empty()],
        [u.carrier, IntervalSet.empty()],
    ]
    assert not has_universe_eigenvalue(lower, u)
    from setcons.expr import augment_constants

    aug = augment_constants(pinned6_map())
    assert not has_universe_eigenvalue(aug.incidence_sets(), aug.universe)
    with pytest.raises(ValueError):
        has_universe_eigenvalue([[iv("[1,2]")]], u)


def test_eigenvalue_tests_cover_all_binary_matrices():
    # Some scalar always belongs to the spectrum of a {empty, universe} matrix.
    rng = random.Random(12)
    u = Universe.of(Interval.closed(0, 10))
    for _ in range(80):
        n = rng.randint(1, 5)
        entries = [
            [u.carrier if rng.random() < 0.4 else IntervalSet.empty() for _ in range(n)]
            for _ in range(n)
        ]
        assert has_empty_eigenvalue(entries, u) or has_universe_eigenvalue(entries, u)


def test_conjugation_preserves_eigenpairs():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = random_bool_matrix(rng, n, 0.4)
        # Build an eigenpair directly: for eigenvalue 1 take the indicator of
        # the vertices from which an infinite forward walk exists; for 0, an
        # all-zero-column basis vector.
        reach = (1 << n) - 1
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if reach >> i & 1 and a.rows[i] & reach == 0:
                    reach &= ~(1 << i)
                    changed = True
        pairs = []
        if reach:
            pairs.append((1, BoolVector(n, reach)))
        for j in range(n):
            if all(a.entry(i, j) == 0 for i in range(n)):
                pairs.append((0, BoolVector(n, 1 << j)))
                break
        for lam, vec in pairs:
            assert a.apply(vec) == vec.scale(lam)
            order = list(range(n))
            rng.shuffle(order)
            perm = Permutation(tuple(order))
            conj = perm.conjugate(a)
            pv = perm.permute_vector(vec)
            assert conj.apply(pv) == pv.scale(lam)


def test_permutation_matrix_conjugation_agrees():
    rng = random.Random(16)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = random_bool_matrix(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        perm = Permutation(tuple(order))
        p = perm.to_matrix()
        assert p.transpose() @ a @ p == perm.conjugate(a)


def test_json_export():
    assert REF3_B.to_lists() == [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
    assert str(BoolMatrix.identity(2)) == "1 0\n0 1"
