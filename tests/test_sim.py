import random
from fractions import Fraction

import pytest

from setcons.bindyn import BinaryMap
from setcons.dsl import parse, to_json
from setcons.encoding import EncodedSystem, dedup_generators
from setcons.errors import SetconsError
from setcons.sim import random_interval_set, render_timeline, sampling_window, simulate
from setcons.intervals import Interval, IntervalSet

from helpers import BOX200, TopologyView, iv
from oracles import ends, real_line
from test_dsl import CYCLIC3_TEXT, PINNED6_TEXT


def test_simulate_pinned6_consensus():
    spec = parse(PINNED6_TEXT)
    traj = simulate(spec, max_rounds=20)
    assert traj.closed and traj.period == 1
    assert traj.transient <= 6
    assert traj.consensus == iv("[40,60] | [100,120]")
    final = traj.rounds[traj.transient]
    assert all(s == traj.consensus for s in final)
    assert traj.distances[traj.transient] == 0


def test_simulate_cyclic3_first_round():
    spec = parse(CYCLIC3_TEXT)
    traj = simulate(spec, max_rounds=40)
    assert traj.rounds[1] == (
        iv("[2,5]"),
        iv("[0,5] | (7,inf)"),
        iv("[0,2) | (7,8) | (11,inf)"),
    )
    # Round invariant: each round is the map applied to the previous one.
    f = spec.set_map()
    for earlier, later in zip(traj.rounds, traj.rounds[1:]):
        assert f.eval(earlier) == later


def test_simulate_constant_system_closes_immediately():
    spec = parse(
        "universe [0,9]\nconst A = [1,2]\nstate X1 = [5,6]\nrule X1 = A\n"
    )
    traj = simulate(spec, max_rounds=10)
    assert traj.closed and traj.transient == 1 and traj.period == 1
    assert traj.consensus == iv("[1,2]")


def test_simulate_contractive_invariants():
    # Closure state identical across random initializations; transient
    # bounded by the augmented arity; distance tail non-increasing.
    spec = parse(PINNED6_TEXT)
    finals = set()
    for seed in (1, 2, 3, 4):
        traj = simulate(spec, max_rounds=30, seed=seed, random_init=True)
        assert traj.closed and traj.period == 1
        assert traj.transient <= 7
        finals.add(traj.rounds[traj.transient])
        for t in range(traj.transient):
            assert traj.distances[t] >= traj.distances[t + 1]
    assert len(finals) == 1


def test_simulate_long_chain_closes_on_its_constant():
    # Xi = X(i-1) & C with a 60-interval C over 70 agents and 71 rounds: the
    # run steps two-bit words and decodes each of the few distinct words once.
    n = 70
    c_text = " | ".join(f"[{10 * i},{10 * i + 5}{')' if i % 2 else ']'}" for i in range(60))
    lines = ["universe [0,600]", f"const C = {c_text}"]
    lines += [f"state X{i} = empty" for i in range(n)]
    lines += ["rule X0 = C"] + [f"rule X{i} = X{i - 1} & C" for i in range(1, n)]
    traj = simulate(parse("\n".join(lines) + "\n"))
    assert traj.closed
    assert (traj.transient, traj.period) == (n, 1)
    assert traj.consensus == iv(c_text)
    assert traj.distances[n] == 0 and traj.distance_lengths[n] == 0.0
    assert traj.distance_lengths[0] == n * 60 * 5


def test_simulate_checks_the_last_word_step_on_sets(monkeypatch):
    # A word map that disagrees with the set map is caught by the one
    # set-level step at the end of the run.
    spec = parse(CYCLIC3_TEXT)
    wrong = property(lambda enc: BinaryMap(enc.arity, lambda words: tuple(0 for _ in words)))
    monkeypatch.setattr(EncodedSystem, "map", wrong)
    with pytest.raises(SetconsError, match="disagree"):
        simulate(spec, max_rounds=5)


def test_simulate_checks_the_closing_word_step_on_sets(monkeypatch):
    # A word map that is right on every step but the closing one, where it
    # jumps from the fixed point back to the start: only a check of the step
    # from the last distinct state to the repeated one catches it.
    spec = parse(PINNED6_TEXT)
    right = EncodedSystem.map.fget

    def wrong(enc):
        g, visited = right(enc), []

        def fn(words):
            visited.append(words)
            out = g.step(words)
            return visited[0] if out == words else out

        return BinaryMap(g.n, fn, g.width)

    monkeypatch.setattr(EncodedSystem, "map", property(wrong))
    with pytest.raises(SetconsError, match="disagree"):
        simulate(spec, max_rounds=40)


def test_simulate_budget_exhaustion_reported():
    spec = parse(CYCLIC3_TEXT)
    traj = simulate(spec, max_rounds=1)
    assert not traj.closed
    assert traj.transient is None and traj.period is None


def test_simulate_deterministic_json():
    spec = parse(PINNED6_TEXT)
    a = to_json(simulate(spec, max_rounds=30, seed=9, random_init=True))
    b = to_json(simulate(spec, max_rounds=30, seed=9, random_init=True))
    assert a == b


def test_random_interval_set_stays_inside():
    rng = random.Random(5)
    for _ in range(40):
        s = random_interval_set(rng, BOX200)
        assert s.is_subset(BOX200.carrier)


def test_dedup_generators():
    a, b = iv("[1,2]"), iv("[3,4]")
    assert dedup_generators([a, b, a, IntervalSet.empty()]) == [a, b]


def test_sampling_window():
    (lo, _), (hi, _) = ends(sampling_window(BOX200))
    assert lo == 0 and hi == 220 and type(hi) is int
    (lo, _), (hi, _) = ends(sampling_window(real_line()))
    assert lo == 0 and hi == 100


def test_sampling_window_spans_the_systems_sets():
    spec = parse(CYCLIC3_TEXT)  # universe [0,inf), sets [2,5], [4,7], [8,11]
    assert sampling_window(spec.universe) == Interval.closed(0, Fraction(11, 10))
    window = sampling_window(spec.universe, spec.initials)
    assert window == Interval.closed(0, Fraction(121, 10))
    # A bounded universe holds every set of its system, so its window stays.
    assert sampling_window(BOX200, [iv("[5,7]"), iv("[190,200]")]) == sampling_window(BOX200)
    sets = [iv("[-4,-3] | [1,2] | (5,6)"), iv("(-inf,-5] | [2,3]"), IntervalSet.empty()]
    assert sampling_window(real_line(), sets) == Interval.closed(-5, Fraction(71, 10))
    # Random initial sets are drawn across the same window.
    drawn = [
        s
        for seed in range(8)
        for s in simulate(spec, max_rounds=1, seed=seed, random_init=True).rounds[0]
        if not s.is_empty()
    ]
    assert all(s.is_subset(IntervalSet.of(window)) for s in drawn)
    assert max(ends(s.intervals[-1])[1][0] for s in drawn) > 6
    # The distance lengths measure the gaps inside that window.
    traj = simulate(spec)
    cells_apart = traj.rounds[0][2] ^ traj.rounds[traj.transient][2]
    assert traj.distance_lengths[0] >= float(cells_apart.measure(window))


def test_render_timeline():
    spec = parse("universe [0,8]\nstate X1 = [0,8]\nstate X2 = empty\nrule X1 = X1\nrule X2 = X2\n")
    traj = simulate(spec, max_rounds=4)
    art = render_timeline(traj, Interval.closed(0, 8), width=8)
    lines = art.splitlines()
    assert lines[1] == "round 0:"
    assert lines[2].endswith("|########|")
    assert lines[3].endswith("|........|")


def test_render_timeline_tracks_changes():
    spec = parse(CYCLIC3_TEXT)
    traj = simulate(spec, max_rounds=3)
    art = render_timeline(traj, Interval.closed(0, 12), width=12)
    rows = [line for line in art.splitlines() if "X2" in line]
    assert rows[0] != rows[1]  # X2 changes between rounds 0 and 1


def test_topology_view():
    spec = parse(CYCLIC3_TEXT)
    view = TopologyView.from_incidence(spec.variables, spec.set_map().incidence())
    assert ("X3", "X2") not in [
        (view.agents[j], view.agents[i]) for j, i in view.edges
    ]
    assert ("X1", "X3") in [(view.agents[j], view.agents[i]) for j, i in view.edges]
    assert len(view.edges) == 8


def test_lengths_past_the_float_range_are_inf():
    big = "9" * 400
    spec = parse(f"universe [0,{big}]\nstate A = [0,{big}]\nstate B = [1,2]\nrule A = B\nrule B = A\n")
    traj = simulate(spec)
    assert traj.period == 2
    assert traj.distance_lengths == (0.0, float("inf"))
    assert "Infinity" in to_json(traj)
