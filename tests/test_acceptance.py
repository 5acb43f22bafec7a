"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is exact
(set equality, bit equality); there are no numeric tolerances anywhere.
"""

import random

from setcons.analysis import is_contractive_sbm
from setcons.bindyn import BinaryMap, is_vnn_attractive
from setcons.boolmat import BoolMatrix, dependency_order, is_nilpotent
from setcons.dsl import SystemSpec
from setcons.encoding import build_partition, translate_map
from setcons.expr import Var
from setcons.intervals import Interval, IntervalSet, Universe
from setcons.sim import simulate

from helpers import (
    BOX200,
    CYCLIC3_START,
    HALF_LINE,
    assert_same_membership,
    brute_force_triangularizable,
    consensus_oracle,
    cyclic3_map,
    direct_vnn_verdict,
    iv,
    pinned6_map,
    random_binary_map,
    random_bool_matrix,
    random_set,
    random_set_map,
    random_word,
    ref3_binary,
)
from oracles import (
    LinearSetMap,
    all_states,
    binary_contractivity,
    check_distance_bound,
    compose,
    conjugate,
    consensus_region,
    discrete_derivative,
    entry,
    equilibria,
    from_rows,
    full_line,
    is_strictly_lower,
    map_from_components,
    matmul,
    orbit,
    power_is_nilpotent,
    semantic_incidence,
)


def report(n: int, text: str):
    print(f"PASS  criterion {n}: {text}")


def test_criterion_1_three_bit_reference_map():
    f = ref3_binary()
    assert equilibria(f) == [(0, 1, 0), (1, 1, 1)]
    assert discrete_derivative(f, (0, 1, 0)) == from_rows(
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    )
    assert discrete_derivative(f, (1, 1, 1)) == from_rows(
        [[1, 0, 1], [0, 0, 0], [1, 0, 0]]
    )
    assert is_vnn_attractive(f, (0, 1, 0)) is True
    assert is_vnn_attractive(f, (1, 1, 1)) is False
    summary = orbit(f, (0, 0, 1))
    assert summary.period == 2 and set(summary.cycle) == {(0, 0, 1), (1, 0, 0)}
    assert semantic_incidence(f) == from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 0]])
    assert binary_contractivity(f).contractive is False
    report(1, "three-bit map: equilibria, derivatives, VNN verdicts, 2-cycle, incidence")


def test_criterion_2_three_agent_set_system():
    f = cyclic3_map()
    assert f.incidence() == from_rows([[1, 1, 1], [1, 1, 0], [1, 1, 1]])
    assert is_contractive_sbm(f).contractive is False

    p = build_partition(list(CYCLIC3_START), HALF_LINE)
    assert p.kappa == 5
    assert p.regions == (
        iv("[4,5]"),
        iv("[2,4)"),
        iv("(5,7]"),
        iv("[8,11]"),
        iv("[0,2) | (7,8) | (11,inf)"),
    )
    # Bit h of a word stands for cell h, so cell 0 is the last binary digit.
    assert p.encode(CYCLIC3_START[0]) == 0b00011
    assert p.encode(CYCLIC3_START[1]) == 0b00101
    assert p.encode(CYCLIC3_START[2]) == 0b01000

    expected_step = (
        iv("[2,5]"),
        iv("[0,5] | (7,inf)"),
        iv("[0,2) | (7,8) | (11,inf)"),
    )
    assert f.eval(CYCLIC3_START) == expected_step
    enc = translate_map(f, p)
    round_trip = enc.decode_state(enc.map.step(enc.encode_state(CYCLIC3_START)))
    assert round_trip == expected_step
    report(2, "three-agent system: incidence, partition, encodings, one-step agreement")


def test_criterion_3_six_agent_pinned_consensus():
    # The paper's incidence matrix is the block of the six agents; the
    # constant C is a seventh, frozen variable that only the third agent
    # reads, with a zero row of its own.
    f = pinned6_map()
    paper = from_rows(
        [
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 0],
            [1, 1, 1, 0, 1, 0],
        ]
    )
    assert f.incidence().rows == tuple(row | (1 << 6 if i == 2 else 0) for i, row in enumerate(paper.rows)) + (0,)
    witness, _ = dependency_order(f.incidence())
    assert witness is not None
    assert is_strictly_lower(conjugate(witness, f.incidence()))
    assert is_contractive_sbm(f).contractive is True

    from setcons.sim import random_interval_set

    for seed in range(10):
        rng = random.Random(1000 + seed)
        inits = [random_interval_set(rng, BOX200) for _ in range(6)]
        pinned = inits[2]  # the third agent's rule is pinned to its initial set
        spec = SystemSpec(
            universe=BOX200,
            constants=(("C", pinned),),
            variables=("X1", "X2", "X3", "X4", "X5", "X6"),
            initials=tuple(inits),
            rules=(
                Var(2) | (Var(1) & Var(4)),
                Var(2),
                Var(6),
                Var(0) | (Var(1) & Var(2)) | (Var(4) & Var(5)),
                Var(1) & Var(2),
                (Var(0) & Var(2)) | Var(1) | Var(4),
            ),
        )
        traj = simulate(spec, max_rounds=20)
        assert traj.closed and traj.period == 1
        assert traj.transient <= 6
        final = traj.rounds[traj.transient]
        assert all(s == pinned for s in final)
    report(3, "six-agent system: incidence, witness, contractive, 10 seeded consensus runs")


def test_criterion_4_commuting_diagram():
    rng = random.Random(404)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(100):
        n = rng.randint(1, 4)
        f = random_set_map(rng, n, 5, u)
        gens = [random_set(rng) & u.carrier for _ in range(rng.randint(1, 4))]
        p = build_partition(gens, u)
        enc = translate_map(f, p)
        for _ in range(5):
            state = tuple(p.decode(random_word(rng, p.kappa)) for _ in range(n))
            direct = f.eval(state)
            encoded = enc.decode_state(enc.map.step(enc.encode_state(state)))
            assert encoded == direct
    report(4, "100 random systems x 5 states: encode-step-decode equals direct evaluation")


def test_criterion_5_nilpotency_equivalence():
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_bool_matrix(rng, n, rng.uniform(0.05, 0.6))
        nilpotent = is_nilpotent(a)
        witness, _ = dependency_order(a)
        brute = brute_force_triangularizable(a)
        assert nilpotent == (witness is not None) == brute == power_is_nilpotent(a)
        if witness is not None:
            assert is_strictly_lower(conjugate(witness, a))
    report(5, "200 random matrices: nilpotency = witness search = matrix powers = all-permutations search")


def test_criterion_6_contractive_maps_collapse():
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(2, 8)
        order = list(range(n))
        rng.shuffle(order)
        position = {v: k for k, v in enumerate(order)}
        incidence = from_rows(
            [
                [1 if position[j] < position[i] and rng.random() < 0.5 else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        f = _random_map_with_incidence(rng, incidence)
        verdict = binary_contractivity(f, incidence=incidence)
        assert verdict.contractive and verdict.q is not None and verdict.q <= n
        targets = {f.iterate(x, verdict.q) for x in all_states(n)}
        assert targets == {verdict.fixed_point}
    report(6, "50 random contractive maps: f^q constant, q <= n, one fixed point")


def _random_map_with_incidence(rng: random.Random, incidence: BoolMatrix) -> BinaryMap:
    n = incidence.n
    components = []
    for i in range(n):
        reads = tuple(j for j in range(n) if entry(incidence, i, j))
        table = {bits: rng.randint(0, 1) for bits in all_states(len(reads))}

        def comp(x, reads=reads, table=table):
            return table[tuple(x[j] for j in reads)]

        components.append(comp)
    return map_from_components(components)


def test_criterion_7_vnn_theorem_matches_simulation():
    rng = random.Random(707)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        f = random_binary_map(rng, n)
        for eq in equilibria(f):
            assert is_vnn_attractive(f, eq) == direct_vnn_verdict(f, eq)
            checked += 1
    assert checked >= 100
    report(7, f"theorem verdict = direct simulation on {checked} equilibria of 100 random maps")


def test_criterion_8_distance_and_composition_bounds():
    rng = random.Random(808)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(100):
        n = rng.randint(1, 5)
        f = random_set_map(rng, n, 4, u)
        x = tuple(random_set(rng) & u.carrier for _ in range(n))
        y = tuple(random_set(rng) & u.carrier for _ in range(n))
        assert check_distance_bound(f, x, y)
    for _ in range(50):
        n = rng.randint(1, 5)
        f = random_set_map(rng, n, 4, u)
        g = random_set_map(rng, n, 4, u)
        composed_b = compose(f, g).incidence()
        product_b = matmul(f.incidence(), g.incidence())
        for i in range(n):
            for j in range(n):
                assert entry(composed_b, i, j) <= entry(product_b, i, j)
    report(8, "distance bound on 100 random triples; composition bound on 50 random pairs")


def test_criterion_9_linear_consensus_oracle():
    rng = random.Random(909)
    u = Universe.of(Interval.closed(0, 24))
    for _ in range(50):
        n = rng.randint(1, 3)
        entries = tuple(
            tuple(
                random_set(rng) & u.carrier if rng.random() < 0.8 else IntervalSet.empty()
                for _ in range(n)
            )
            for _ in range(n)
        )
        linear = LinearSetMap(entries, u)
        verdict = consensus_region(linear)
        oracle = consensus_oracle(linear)
        assert verdict.region == oracle
        assert verdict.exists == (not oracle.is_empty())
    report(9, "50 random linear systems: region formula = encoded fixed-point enumeration")


def test_criterion_10_interval_algebra_soundness():
    rng = random.Random(1010)
    probes = 0
    pairs = 0
    while probes < 10_000:
        pairs += 1
        s, t = random_set(rng), random_set(rng)
        probes += assert_same_membership(s | t, lambda a, b: a or b, s, t)
        probes += assert_same_membership(s & t, lambda a, b: a and b, s, t)
        probes += assert_same_membership(s - t, lambda a, b: a and not b, s, t)
        probes += assert_same_membership(s ^ t, lambda a, b: a != b, s, t)
        probes += assert_same_membership(s.complement_in(full_line()), lambda a: not a, s)
    u = Universe.of(Interval.closed(0, 24))
    axioms = 0
    for _ in range(100):
        a = random_set(rng) & u.carrier
        b = random_set(rng) & u.carrier
        c = random_set(rng) & u.carrier
        assert (a | (b | c)) == ((a | b) | c); axioms += 1
        assert (a & (b & c)) == ((a & b) & c); axioms += 1
        assert (a | b) == (b | a); axioms += 1
        assert (a & b) == (b & a); axioms += 1
        assert (a | (a & b)) == a; axioms += 1
        assert (a & (a | b)) == a; axioms += 1
        assert (a | (b & c)) == ((a | b) & (a | c)); axioms += 1
        assert (a & (b | c)) == ((a & b) | (a & c)); axioms += 1
        na = a.complement_in(u)
        assert (a | na) == u.carrier; axioms += 1
        assert (a & na) == IntervalSet.empty(); axioms += 1
    assert axioms == 1000
    report(10, f"{probes} membership probes across 5 ops on {pairs} pairs; 1000 axiom instances")
