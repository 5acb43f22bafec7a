"""The benchmark's workloads and the known-answer checks of their outputs.

A workload is a pool of generated systems and the CLI operation run on
each.  System ``i`` of seed ``s`` is generated from the key ``"s/i"``, so
the same seed always yields the same files.  The cost factors of a system
(cell count, contraction bound, rounds to closure, interval count) are
pinned to the same values or ranges for every seed, so one seed's figures
stay close to another's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import sbmgen
import spans


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # the generator parameters, for the report
    pool: int  # distinct systems per seed; the closed loop cycles through them
    command: tuple[str, ...]  # CLI subcommand; the file path follows it
    make: Callable[[int, int], sbmgen.System]  # (seed, index in the pool) -> system
    check: Callable[[dict, dict], str | None]  # (stdout JSON, facts) -> problem
    spans: tuple[str, ...]  # spans the traced run must see


def _check_dag(report: dict, facts: dict) -> str | None:
    summary = report["equilibria_summary"]
    expected = {
        "contractive": True,
        "cycle": None,
        "q": facts["q"],
        "witness_order length": facts["variables"],
        "cells": facts["kappa"],
        "per_cell_counts": [1] * facts["kappa"],
        "total": 1,
        "local is reported": True,
    }
    got = {
        "contractive": report["contractive"],
        "cycle": report["cycle"],
        "q": report["q"],
        "witness_order length": len(report["witness_order"] or ()),
        "cells": summary["cells"],
        "per_cell_counts": summary["per_cell_counts"],
        "total": summary["total"],
        "local is reported": report["local"] is not None,
    }
    if report["q"] is None or report["q"] > facts["variables"]:
        return f"q={report['q']} exceeds the variable count {facts['variables']}"
    return _diff(expected, got)


def _check_chain(report: dict, facts: dict) -> str | None:
    n, c = facts["n"], facts["consensus"]
    expected = {
        "closed": True,
        "transient": n,
        "period": 1,
        "consensus": c,
        "rounds": [[c if i < t else "empty" for i in range(n)] for t in range(n + 1)],
        "distances": [n - t for t in range(n + 1)],
        "distance_lengths": [float((n - t) * facts["measure"]) for t in range(n + 1)],
    }
    return _diff(expected, {key: report[key] for key in expected})


def _check_cyclic(report: dict, facts: dict) -> str | None:
    rounds = facts["transient"] + facts["period"]
    expected = {
        "closed": True,
        "transient": facts["transient"],
        "period": facts["period"],
        "rounds": rounds,
        "distances": facts["distances"],
        "consensus": facts["consensus"],
    }
    got = dict(report, rounds=len(report["rounds"]), consensus=report["consensus"] is not None)
    return _diff(expected, {key: got[key] for key in expected})


def _diff(expected: dict, got: dict) -> str | None:
    for key, value in expected.items():
        if got[key] != value:
            return f"{key}: expected {value!r}, got {got[key]!r}"
    return None


DAG = dict(n=6, c=2, kappa=24, q=6)
CHAIN_N = 5
# C's interval count cycles through 16..24 along the pool: the same mix for
# every seed, and a spread of operation costs, so that the median does not
# jump between the machine's fast and slow phases as a set of equal
# operations would
CHAIN_PARTS = range(16, 25)
CYCLIC = dict(n=6, c=2, rounds=(16, 24), kappa=(18, 26), max_parts=2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-dag",
            why="contractive DAG systems over tiny interval sets: the 2^m partition scan and the "
                "per-cell 2^n equilibria scan take about half of each operation, the fixed-point "
                "iteration most of the rest",
            shape=f"n={DAG['n']} agents, c={DAG['c']} constants, m={DAG['n'] + DAG['c']}, "
                  f"kappa={DAG['kappa']}, q={DAG['q']}, 1-3 intervals per set, depth-3 rules",
            pool=32,
            command=("analyze",),
            make=lambda seed, i: sbmgen.dag(f"{seed}/{i}", **DAG),
            check=_check_dag,
            spans=spans.ANALYZE_SPANS,
        ),
        Workload(
            name="simulate-chain",
            why="Xi = X(i-1) & C with a 16-24 interval C: intersections of large sets take over 90% "
                "of the time; m=1, so the partition and equilibria scans are bypassed",
            shape=f"n={CHAIN_N} agents, C with {CHAIN_PARTS[0]}-{CHAIN_PARTS[-1]} intervals, m=1, kappa=2",
            pool=16,
            command=("simulate",),
            make=lambda seed, i: sbmgen.chain(f"{seed}/{i}", CHAIN_N,
                                              CHAIN_PARTS[i % len(CHAIN_PARTS)]),
            check=_check_chain,
            spans=spans.SIMULATE_SPANS,
        ),
        Workload(
            name="simulate-cyclic",
            why="cyclic rules over small sets that close after 16-24 rounds: per-round encode_state "
                "and SetMap.eval take about two thirds of the time, the partition scan a sixth",
            shape=f"n={CYCLIC['n']} agents, c={CYCLIC['c']} constants, m={CYCLIC['n'] + CYCLIC['c']}, "
                  f"kappa {CYCLIC['kappa'][0]}-{CYCLIC['kappa'][1]}, "
                  f"{CYCLIC['rounds'][0]}-{CYCLIC['rounds'][1]} rounds, "
                  f"1-{CYCLIC['max_parts']} intervals per set, depth-2 rules",
            pool=64,
            command=("simulate",),
            make=lambda seed, i: sbmgen.cyclic(f"{seed}/{i}", **CYCLIC),
            check=_check_cyclic,
            spans=spans.SIMULATE_SPANS,
        ),
    )
}
