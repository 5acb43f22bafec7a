"""Tests of the benchmark: generator determinism, the facts it derives, and
the metric lists against BENCHMARK.json."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import sbmgen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    make = WORKLOADS[name].make
    first = [make(7, i) for i in range(3)]
    again = [make(7, i) for i in range(3)]
    assert [s.text for s in first] == [s.text for s in again]
    assert [s.facts for s in first] == [s.facts for s in again]
    assert len({s.text for s in first}) == 3
    assert make(8, 0).text != first[0].text


def test_interval_pair_is_deterministic():
    assert sbmgen.interval_pair("1", 50) == sbmgen.interval_pair("1", 50)
    a, b = sbmgen.interval_pair("1", 50)
    assert a.count("|") == b.count("|") == 49


def test_cell_masks_by_hand():
    # [0,10] and (5,20] in [0,1000]: cells [0,5], (5,10], (10,20], (20,1000]
    sets = [(sbmgen.Span(0, 10, True, True),), (sbmgen.Span(5, 20, False, True),)]
    kappa, masks = sbmgen.cell_masks(sets)
    assert kappa == 4
    assert bin(masks[0]).count("1") == 2 and bin(masks[1]).count("1") == 2
    assert bin(masks[0] & masks[1]).count("1") == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_known_answers_hold_for_the_program(name, tmp_path):
    from setcons.cli import main

    workload = WORKLOADS[name]
    system = workload.make(0, 0)
    path = tmp_path / "system.sbm"
    path.write_text(system.text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*workload.command, str(path)]) == 0
    assert workload.check(json.loads(out.getvalue()), system.facts) is None


def test_metric_lists_match_benchmark_json():
    from run import END_TO_END, PER_LAYER, unit_of, tail

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, unit_of(n)) for n in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, unit_of(n)) for n in PER_LAYER]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    # ten operations beyond the tail value
    assert tail([float(i) for i in range(40)]) == (72.5, 29.0)


def test_any_seed_selects_a_committed_pool():
    import run

    assert all(str(seed % run.POOLS) in run.load_digests()[w["name"]]
               for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
               for seed in (0, 57, 99, 100, 12345, 2**31 - 1, -3))
    chain = WORKLOADS["simulate-chain"]
    assert run.generate(chain, 12345 % run.POOLS)[0].text == chain.make(45, 0).text


def test_pool_without_digests_is_refused(monkeypatch):
    import run

    monkeypatch.setattr(run, "load_digests", lambda: {})
    with pytest.raises(run.RunError, match="no digests"):
        run.run(WORKLOADS["simulate-chain"], 12345, 1, False)
