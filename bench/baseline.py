"""One-shot traced measurement of the large baseline systems.

    python3 bench/baseline.py [--limit 120] [--out bench/baseline.json]

Generates the large systems of the project's baseline table with
``sbmgen`` (seed 0) and runs each case once, traced, in its own process
under a wall-time limit.  A case that hits the limit is stopped (SIGTERM,
then SIGKILL) and recorded as not finished, with the spans it closed
before it stopped.  Writes every case's per-layer metrics and layer shares
as JSON and prints a summary.

Cases:
  * ``analyze``/``simulate`` of a DAG system with 14 agents and
    2 constants (n=16 variables, m=16 generators);
  * ``simulate`` of the 70-agent chain ``Xi = X(i-1) & C`` with a
    60-interval C;
  * ``IntervalSet.__and__`` of two 1000-interval sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

CASES = {
    "analyze-dag-n16-m16": "analyze",
    "simulate-dag-n16-m16": "simulate",
    "simulate-chain-n70-c60": "simulate",
    "and-1000x1000": None,
}


class Stop(BaseException):
    """Raised in the child when the parent asks it to stop."""


def _stop(signum, frame):
    raise Stop


def case_input(case: str) -> str:
    import sbmgen

    if case.endswith("dag-n16-m16"):
        return sbmgen.dag("0", n=14, c=2, max_parts=1, depth=2).text
    if case == "simulate-chain-n70-c60":
        return sbmgen.chain("0", n=70, parts=60).text
    return "\n".join(sbmgen.interval_pair("0", 1000))


def child(case: str, path: str) -> int:
    """Run one case traced and write its summary to ``path``."""
    sys.path.insert(0, str(ROOT / "src"))
    import setcons.cli
    from setcons.intervals import parse_interval_set

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    signal.signal(signal.SIGTERM, _stop)
    text = case_input(case)
    finished = True
    start = time.perf_counter()
    try:
        if CASES[case] is None:
            a, b = (parse_interval_set(line) for line in text.splitlines())
            tracer.op(lambda: a & b)
        else:
            sbm = OUT / f"baseline-{case}.sbm"
            sbm.write_text(text, encoding="utf-8")
            code = tracer.op(setcons.cli.main, [CASES[case], str(sbm), "--format", "json"])
            if code != 0:
                raise SystemExit(f"{case}: exit code {code}")
    except Stop:
        finished = False
    wall = time.perf_counter() - start
    summary = tracer.summary() if any(s[3] == "cli.op" for s in tracer.spans) else None
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"case": case, "finished": finished, "wall_s": wall, "summary": summary}, fh)
    return 0


def run_case(case: str, limit: float) -> dict:
    """Run a case in a child process; stop it at the limit and wait for it."""
    path = OUT / f"baseline-{case}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, "-I", str(Path(__file__).resolve()), "--child", case, str(path)],
                            stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if path.is_file():
        record = json.loads(path.read_text(encoding="utf-8"))
    else:
        record = {"case": case, "finished": False, "wall_s": None, "summary": None}
    record["limit_s"] = limit
    record["exit_code"] = proc.returncode
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=120, help="seconds per case")
    parser.add_argument("--out", type=Path, default=OUT / "baseline.json")
    parser.add_argument("--child", nargs=2, metavar=("CASE", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if not (ROOT / "src" / "setcons" / "__init__.py").is_file():
        print(f"no setcons sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.child:
        return child(*args.child)
    records = []
    for case in CASES:
        record = run_case(case, args.limit)
        records.append(record)
        state = "finished" if record["finished"] else f"NOT FINISHED within {args.limit:.0f} s"
        print(f"{case}: {state}, wall {record['wall_s'] or float('nan'):.3f} s")
        if record["summary"]:
            metrics = record["summary"]["metrics"]
            for name in ("encoding.build_partition_s", "encoding.kappa", "analysis.equilibria_s",
                         "analysis.contractivity_s", "intervals.and_s", "intervals.max_intervals",
                         "sim.rounds", "sim.round_s"):
                print(f"    {name:<28} {metrics[name]:.6f}")
    report = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "limit_s": args.limit,
        "cases": records,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
