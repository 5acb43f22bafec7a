import random

import pytest

from setcons import (
    BinaryMap,
    BoolMatrix,
    binary_contractivity,
    binary_distance,
    discrete_derivative,
    equilibria,
    is_vnn_attractive,
    orbit,
    semantic_incidence,
)
from setcons.bindyn import (
    all_states,
    dependency_witness,
    derivative_blocks,
    flip,
    format_bits,
    parse_bits,
    walk,
)
from setcons.caps import Caps
from setcons.errors import CapExceeded, OrbitLimitError

from helpers import direct_vnn_verdict, random_binary_map, ref3_binary
from oracles import is_vnn_attractive_direct


def test_orbit_reference_cycle():
    summary = orbit(ref3_binary(), (0, 0, 1))
    assert summary.transient == 0
    assert summary.period == 2
    assert set(summary.cycle) == {(0, 0, 1), (1, 0, 0)}


def test_orbit_from_equilibrium():
    f = ref3_binary()
    for eq in equilibria(f):
        summary = orbit(f, eq)
        assert summary.transient == 0 and summary.period == 1
        assert summary.cycle == (eq,)


def test_orbit_constant_map():
    f = BinaryMap(3, lambda x: (1, 0, 1))
    summary = orbit(f, (0, 0, 0))
    assert summary.transient <= 1 and summary.period == 1


def test_orbit_budget_error():
    f = BinaryMap(2, lambda x: (x[0] ^ x[1], x[0]))
    with pytest.raises(OrbitLimitError):
        orbit(f, (1, 0), max_steps=1)


def test_orbit_json():
    summary = orbit(ref3_binary(), (0, 0, 1))
    assert summary.to_json_dict() == {"transient": 0, "period": 2, "cycle": ["001", "100"]}


def test_walk_returns_distinct_states_and_the_repeat():
    f = ref3_binary()
    assert walk(f, (1, 1, 0), 8) == ([(1, 1, 0), (0, 1, 1), (0, 1, 0)], 2)
    assert walk(f, (1, 1, 0), 2) == ([(1, 1, 0), (0, 1, 1), (0, 1, 0)], None)
    assert walk(f, (0, 0, 1), 8) == ([(0, 0, 1), (1, 0, 0)], 0)
    assert walk(f, (0, 1, 0), 1) == ([(0, 1, 0)], 0)
    assert walk(f, (0, 1, 0), 0) == ([(0, 1, 0)], None)


def _copies(f: BinaryMap, width: int) -> BinaryMap:
    """``width`` copies of a 0/1 map stepped together, copy h in bit h."""

    def fn(words):
        outs = [f.step(tuple((w >> h) & 1 for w in words)) for h in range(width)]
        return tuple(sum(out[i] << h for h, out in enumerate(outs)) for i in range(f.n))

    return BinaryMap(f.n, fn, width)


def _pack(states) -> tuple[int, ...]:
    return tuple(sum(x[i] << h for h, x in enumerate(states)) for i in range(len(states[0])))


def test_word_map_is_copies_of_one_bit_map():
    f = ref3_binary()
    states = [(0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 1)]
    g = _copies(f, len(states))
    words = _pack(states)
    assert g.step(words) == _pack([f.step(x) for x in states])
    # One block per bit position, each that copy's own derivative.
    assert derivative_blocks(g, words) == tuple(discrete_derivative(f, x) for x in states)
    assert derivative_blocks(f, states[0]) == (discrete_derivative(f, states[0]),)
    # Attractive in every position exactly when every copy's equilibrium is.
    eqs = equilibria(f)
    for choice in [(eqs[0],) * 4, (eqs[1],) * 4, (eqs[0], eqs[1], eqs[1], eqs[0])]:
        assert is_vnn_attractive(g, _pack(choice)) == all(is_vnn_attractive(f, x) for x in choice)
    # The orbit of the words closes when the last copy's orbit has.
    summary = orbit(g, words)
    copies = [orbit(f, x) for x in states]
    assert summary.transient == max(c.transient for c in copies)
    assert summary.period == 2 and {c.period for c in copies} == {1, 2}


@pytest.mark.parametrize(
    "scan",
    [
        equilibria,
        semantic_incidence,
        lambda g: dependency_witness(g, 0, 1),
        lambda g: discrete_derivative(g, (0, 0, 0)),
    ],
    ids=["equilibria", "semantic_incidence", "dependency_witness", "discrete_derivative"],
)
def test_bit_scans_refuse_wider_words(scan):
    with pytest.raises(ValueError, match="-bit"):
        scan(_copies(ref3_binary(), 2))


def test_equilibria_reference():
    assert equilibria(ref3_binary()) == [(0, 1, 0), (1, 1, 1)]


def test_equilibria_identity_and_negation():
    ident = BinaryMap(2, lambda x: x)
    assert equilibria(ident) == sorted(all_states(2))
    neg = BinaryMap(1, lambda x: (1 - x[0],))
    assert equilibria(neg) == []


def test_equilibria_cap():
    f = BinaryMap(6, lambda x: x)
    with pytest.raises(CapExceeded):
        equilibria(f, Caps(enumeration=5))


def test_binary_distance():
    assert binary_distance((1, 0, 1), (1, 0, 1)) == (0, 0, 0)
    x = (1, 0, 1, 0)
    for j in range(4):
        d = binary_distance(x, flip(x, j))
        assert d == tuple(1 if k == j else 0 for k in range(4))
    assert binary_distance(x, (0, 0, 0, 0)) == x
    with pytest.raises(ValueError):
        binary_distance((0, 1), (0,))


def test_distance_axioms():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 6)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        z = tuple(rng.randint(0, 1) for _ in range(n))
        assert binary_distance(x, y) == binary_distance(y, x)
        assert (binary_distance(x, y) == (0,) * n) == (x == y)
        via = tuple(a | b for a, b in zip(binary_distance(x, z), binary_distance(z, y)))
        assert all(d <= v for d, v in zip(binary_distance(x, y), via))


def test_discrete_derivative_reference():
    f = ref3_binary()
    assert discrete_derivative(f, (0, 1, 0)) == BoolMatrix.from_rows(
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    )
    assert discrete_derivative(f, (1, 1, 1)) == BoolMatrix.from_rows(
        [[1, 0, 1], [0, 0, 0], [1, 0, 0]]
    )


def test_derivative_of_constant_map():
    f = BinaryMap(3, lambda x: (0, 1, 0))
    for x in all_states(3):
        assert discrete_derivative(f, x) == BoolMatrix.zero(3)


def test_vnn_reference_verdicts():
    f = ref3_binary()
    assert is_vnn_attractive(f, (0, 1, 0))
    assert not is_vnn_attractive(f, (1, 1, 1))
    with pytest.raises(ValueError):
        is_vnn_attractive(f, (0, 0, 0))


def test_vnn_constant_map():
    f = BinaryMap(2, lambda x: (1, 0))
    assert is_vnn_attractive(f, (1, 0))
    assert is_vnn_attractive_direct(f, (1, 0))


def test_vnn_verdict_matches_direct_simulation():
    rng = random.Random(29)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        f = random_binary_map(rng, n)
        for eq in equilibria(f):
            assert is_vnn_attractive(f, eq) == direct_vnn_verdict(f, eq)
            checked += 1
    assert checked > 50


def test_semantic_incidence_reference():
    assert semantic_incidence(ref3_binary()) == BoolMatrix.from_rows(
        [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
    )


def test_semantic_incidence_dead_dependency():
    f = BinaryMap(2, lambda x: (x[0] & (1 - x[0]), x[1]))
    assert semantic_incidence(f) == BoolMatrix.from_rows([[0, 0], [0, 1]])
    ident = BinaryMap(3, lambda x: x)
    assert semantic_incidence(ident) == BoolMatrix.identity(3)


def test_derivative_below_semantic_incidence():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_binary_map(rng, n)
        sem = semantic_incidence(f)
        for _ in range(6):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            assert discrete_derivative(f, x).le(sem)


def test_dependency_witness():
    f = ref3_binary()
    w = dependency_witness(f, 2, 0)
    assert w is not None
    assert f.step(w)[2] != f.step(flip(w, 0))[2]
    assert dependency_witness(f, 2, 1) is None


def test_contractivity_reference_negative():
    assert not binary_contractivity(ref3_binary()).contractive


def test_contractivity_shift_map():
    f = BinaryMap(3, lambda x: (0, x[0], x[1]))
    verdict = binary_contractivity(f)
    assert verdict.contractive and verdict.q == 3
    assert verdict.fixed_point == (0, 0, 0)
    for x in all_states(3):
        assert f.iterate(x, verdict.q) == verdict.fixed_point


def test_contractivity_constant_map():
    f = BinaryMap(2, lambda x: (1, 1))
    verdict = binary_contractivity(f)
    assert verdict.contractive and verdict.q == 1 and verdict.fixed_point == (1, 1)


def test_contraction_inequality():
    # For contractive maps, flipping inputs moves outputs only where the
    # incidence matrix allows.
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 6)
        order = list(range(n))
        rng.shuffle(order)
        incidence = BoolMatrix.from_rows(
            [
                [
                    1 if order.index(j) < order.index(i) and rng.random() < 0.5 else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        f = _map_with_incidence(rng, incidence)
        # Exact dependencies never exceed the declared read set.
        assert semantic_incidence(f).le(incidence)
        verdict = binary_contractivity(f, incidence=incidence)
        assert verdict.contractive
        for _ in range(10):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            y = tuple(rng.randint(0, 1) for _ in range(n))
            lhs = binary_distance(f.step(x), f.step(y))
            rhs_vec = binary_distance(x, y)
            rhs = tuple(
                int(any(incidence.entry(i, j) and rhs_vec[j] for j in range(n)))
                for i in range(n)
            )
            assert all(a <= b for a, b in zip(lhs, rhs))


def _map_with_incidence(rng: random.Random, incidence: BoolMatrix) -> BinaryMap:
    """A random map whose component i reads only the inputs its row allows."""
    n = incidence.n
    components = []
    for i in range(n):
        reads = [j for j in range(n) if incidence.entry(i, j)]
        table = {bits: rng.randint(0, 1) for bits in all_states(len(reads))}

        def comp(x, reads=tuple(reads), table=table):
            return table[tuple(x[j] for j in reads)]

        components.append(comp)
    return BinaryMap.from_components(components)


def test_bit_formatting():
    assert format_bits((0, 1, 0)) == "010"
    assert parse_bits("010") == (0, 1, 0)
    with pytest.raises(ValueError):
        parse_bits("01x")
