"""Whole benchmark pools, replayed in-process.

The benchmark checks every operation's stdout against the SHA-256 digests
committed in ``bench/digests.json`` and against its workload's known
answers.  This test runs pools 0-3 of every workload through ``cli.main``
the same way (448 operations), so a change that moves one output byte
fails here, not only in a benchmark run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from setcons import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

POOLS = range(4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_outputs_match_digests_and_known_answers(name, tmp_path):
    workload = WORKLOADS[name]
    committed = json.loads((BENCH / "digests.json").read_text())[name]
    for pool in POOLS:
        digests = committed[str(pool)]
        assert len(digests) == workload.pool
        for i, digest in enumerate(digests):
            system = workload.make(pool, i)
            path = tmp_path / f"{pool}-{i:03d}.sbm"
            path.write_text(system.text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([workload.command[0], str(path), *workload.command[1:]])
            where = f"pool {pool}, system {i}"
            assert code == 0, where
            assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest, where
            assert workload.check(json.loads(out.getvalue()), system.facts) is None, where
