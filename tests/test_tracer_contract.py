"""The benchmark's tracer against the library it wraps.

``bench/spans.py`` rebinds library functions and methods by name and reads
their arguments and results in ``after`` hooks.  A rename or a changed
signature in ``setcons`` would surface only in a traced benchmark run, so
this test installs the tracer on a few systems of each gated workload and
checks that every span the workload must reach fires, that the hooks run
without error, and that the output is still the committed one.
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

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POOL = 0  # a pool whose digests are committed
SYSTEMS = 2  # per workload


@pytest.mark.parametrize("name", ["analyze-dag", "simulate-chain"])
def test_traced_workload_reaches_every_span(name, tmp_path):
    workload = WORKLOADS[name]
    digests = json.loads((BENCH / "digests.json").read_text())[name][str(POOL)]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        for i in range(SYSTEMS):
            system = workload.make(POOL, i)
            path = tmp_path / f"{i:03d}.sbm"
            path.write_text(system.text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tracer.op(cli.main, [workload.command[0], str(path), *workload.command[1:]])
            assert code == 0
            assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digests[i]
            assert workload.check(json.loads(out.getvalue()), system.facts) is None
    finally:
        uninstall()
    calls = tracer.calls()
    assert [span for span in workload.spans if not calls.get(span)] == []
    assert tracer.summary()["ops"] == SYSTEMS
