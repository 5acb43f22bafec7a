"""Benchmark of the ``setcons`` command line, on seeded synthetic systems.

    python3 bench/run.py --workload analyze-dag --seed 3 --seconds 55 --trace 0

Generates the workload's pool of ``.sbm`` files from the seed, then starts
one fresh worker process that calls ``setcons.cli.main`` on them in a
closed loop (one client, one operation at a time) for the given seconds.
Any integer seed is accepted: it selects pool ``seed mod 100``, one of the
100 pools whose reference digests are committed, so the same seed always
gives the same files and every run's outputs have a reference.  Every
operation's output is checked: exit code 0, stdout equal to the committed
SHA-256 for that pool (``digests.json``; a pool with no digests there is
refused), and the known answers that follow from how the system was
built.  The report goes to stdout; its last line is one JSON object.
``--workload all`` runs the workloads one after another, each with its
report and JSON line.  ``BENCHMARK.json`` lists analyze-dag and
simulate-chain; simulate-cyclic runs on request.

``--trace 0`` reports the end-to-end metrics: op_p50_s (the median of all
operation times), op_tail_s (the eleventh-largest operation time, with its
percentile), setup_s (worker start until ``import setcons`` is done, the
median of 16 starts spread through the run) and peak_rss_mb go into the
JSON line; ops_per_s (operations per second of loop time) and fail_frac
are printed with them.  ``--trace 1`` alternates
untraced blocks with blocks in which every layer is wrapped in spans
(``spans.py``), half the time each; it reports the per-layer metrics, each
layer's share of operation time and the tracing overhead (the difference
in op_p50_s between the two kinds of block), writes the spans to
``.bench_out/``, and fails if a span the workload must reach records no
call.

    python3 bench/run.py --record-digests 0-99 [--workload NAME]

re-records the reference digests for those pools (of every workload, or of
one), after checking the known answers; it is the only way
``digests.json`` changes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
POOLS = 100  # seeds are taken modulo this; digests.json holds pools 0..POOLS-1
SETUP_PROBES = 15  # fresh worker starts timed during the run, besides the worker's own
WORKER_GRACE_S = 90  # beyond the run's seconds, before a stuck worker is killed (a run must end within 180 s)

END_TO_END = ("op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")
# Counts may read 0 on a workload that skips their layer (sim.rounds on
# analyze-dag); times that would read 0 on every run of a listed workload
# (analysis.*_s on simulate-chain, sim.round_s on analyze-dag) are printed
# but left out, as a time that never changes from run to run is refused.
PER_LAYER = (
    "dsl.parse_s", "dsl.expr_nodes",
    "encoding.build_partition_s", "encoding.generators", "encoding.kappa",
    "encoding.signatures_scanned", "encoding.cell_yield",
    "encoding.encode_state_s", "encoding.encode_state_calls",
    "analysis.states_scanned", "analysis.fixed_point_yield",
    "bindyn.step_calls", "boolmat.nilpotent_dim",
    "intervals.and_calls", "intervals.and_s", "intervals.or_calls",
    "intervals.pairs_examined", "intervals.max_intervals",
    "expr.eval_s", "expr.eval_calls",
    "sim.rounds",
    "cli.self_s", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    special = {"ops_per_s": "1/s", "peak_rss_mb": "MB"}
    if name in special:
        return special[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


class RunError(Exception):
    """The run could not produce a result."""


def run_worker(job: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker on ``job``; returns its result and its set-up time."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-I", str(WORKER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:  # timed out, or interrupted: end the worker and wait for it
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {err.strip()}")
    result = json.loads(out)
    return result, result["ready"] - start


def generate(workload, seed: int):
    return [workload.make(seed, i) for i in range(workload.pool)]


def write_pool(systems, workdir: Path) -> list[str]:
    workdir.mkdir(parents=True)
    files = []
    for i, system in enumerate(systems):
        path = workdir / f"{i:03d}.sbm"
        path.write_text(system.text, encoding="utf-8")
        files.append(str(path))
    return files


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def judge(workload, systems, ops, outputs, committed) -> list[str | None]:
    """One verdict per operation: None when it passed, else the reason.
    ``committed`` is None only while digests are being recorded; repeats of
    a file must then agree with its first run."""
    first: dict[int, str] = {}
    problems: dict[str, str | None] = {}
    verdicts = []
    for idx, _, code, digest in ops:
        key = f"{idx}:{digest}"
        if key not in problems:
            problems[key] = known_answer(workload, systems[idx], outputs[key]["stdout"])
        reference = committed[idx] if committed else first.setdefault(idx, digest)
        if code != 0:
            stderr = outputs[key]["stderr"].strip().splitlines()
            verdicts.append(f"exit {code}: {stderr[-1] if stderr else ''}")
        elif digest != reference:
            verdicts.append("stdout differs from the " +
                            ("committed digest" if committed else "first run of the same file"))
        else:
            verdicts.append(problems[key])
    return verdicts


def known_answer(workload, system, stdout: str) -> str | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        return workload.check(report, system.facts)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it, and
    its value: the eleventh-largest time."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return 100.0 * k / len(ordered) if len(ordered) > 10 else 0.0, ordered[k]


def p50(ops) -> float:
    """Median of all operation times."""
    return statistics.median(op[1] for op in ops)


def end_to_end(ops, loop_s: float, setup: list[float], rss_kb: int) -> dict:
    times = [op[1] for op in ops]
    pct, tail_s = tail(times)
    return {
        "op_p50_s": (p50(ops), f"median of all operations, N={len(times)}"),
        "op_tail_s": (tail_s, f"p{pct:.1f}, N={len(times)}"),
        "ops_per_s": (len(times) / loop_s, f"{len(times)} ops in {loop_s:.2f} s of loop time"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} worker starts spread through the run, "
                                              f"fastest {min(setup):.6f} s"),
        "peak_rss_mb": (rss_kb / 1024, "worker ru_maxrss"),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    pool = seed % POOLS
    systems = generate(workload, pool)
    committed = load_digests().get(workload.name, {}).get(str(pool))
    if committed is None:
        raise RunError(f"digests.json holds no digests for {workload.name} pool {pool}; "
                       f"record them with --record-digests {pool} --workload {workload.name}")
    if len(committed) != workload.pool:
        raise RunError(f"digests.json holds {len(committed)} digests for {workload.name} pool {pool}, "
                       f"the pool has {workload.pool} systems; re-record them")
    workdir = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    trace_path = OUT / f"trace-{workload.name}-{seed}.json"
    try:
        files = write_pool(systems, workdir)
        job = {"files": files, "command": list(workload.command), "seconds": seconds,
               "probes": 0 if trace else SETUP_PROBES, "trace_path": str(trace_path) if trace else None}
        result, ready = run_worker(job, seconds + WORKER_GRACE_S)
        setup = [ready, *result.get("probes", ())]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"] + result.get("traced_ops", [])
    verdicts = judge(workload, systems, ops, result["outputs"], committed)
    failed = sum(v is not None for v in verdicts)
    reached = len({op[0] for op in ops})

    print(f"workload {workload.name}  seed {seed} (pool {pool})  {workload.shape}")
    print(f"  why: {workload.why}")
    print(f"  load: one client, closed loop, one fresh worker process; "
          f"{reached} of {workload.pool} generated systems reached")
    figures = end_to_end(result["ops"], result["loop_s"], setup, result["peak_rss_kb"])
    label = "untraced blocks" if trace else "end to end"
    print(f"  {label}:")
    for name, (value, note) in figures.items():
        print(f"    {name:<14} {value:12.6f} {unit_of(name):<5} ({note})")
    print(f"    {'fail_frac':<14} {failed / len(ops):12.6f} {'ratio':<5} ({failed} of {len(ops)} operations)")
    print(f"  checks: exit code, committed stdout digests (pool {pool}), known answers")
    for (idx, *_), verdict in zip(ops, verdicts):
        if verdict is not None:
            print(f"  FAILED system {idx}: {verdict}", file=sys.stderr)
            break

    if not trace:
        metrics = {name: figures[name][0] for name in END_TO_END}
    else:
        summary = result["summary"]
        overhead = p50(result["traced_ops"]) - p50(result["ops"])
        layer = dict(summary["metrics"], **{"trace.overhead_s": overhead})
        print(f"  traced blocks: {summary['ops']} operations, spans written to {trace_path}")
        for name, value in layer.items():
            print(f"    {name:<30} {value:14.6f} {unit_of(name)}")
        print("  share of operation wall time (self time per layer):")
        for name, share in summary["shares"].items():
            print(f"    {name:<10} {100 * share:6.2f} %")
        print("  share of operation wall time per span name (inclusive, spans nest):")
        for name, share in summary["span_shares"].items():
            print(f"    {name:<28} {100 * share:6.2f} %")
        print(f"  tracing overhead: {overhead:+.6f} s on op_p50_s "
              f"({100 * overhead / p50(result['ops']):+.1f} %)")
        missing = [name for name in workload.spans if not summary["calls"].get(name)]
        if missing:
            print(f"expected spans never fired: {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {name: layer[name] for name in PER_LAYER}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


def record_digests(pools: range, names) -> int:
    """Run every system of the named workloads once per pool and store the
    SHA-256 of each stdout, refusing if any known answer fails."""
    if pools.start < 0 or pools.stop > POOLS:
        print(f"pools are numbered 0 to {POOLS - 1}", file=sys.stderr)
        return 2
    digests = load_digests()
    for workload in (WORKLOADS[name] for name in names):
        for seed in pools:
            systems = generate(workload, seed)
            workdir = OUT / f"record-{workload.name}-{seed}-{os.getpid()}"
            try:
                files = write_pool(systems, workdir)
                job = {"files": files, "command": list(workload.command), "seconds": 0,
                       "count": len(files), "trace_path": None}
                result, _ = run_worker(job, 3600)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            verdicts = judge(workload, systems, result["ops"], result["outputs"], None)
            bad = [(op[0], v) for op, v in zip(result["ops"], verdicts) if v is not None]
            if bad:
                print(f"{workload.name} seed {seed}: system {bad[0][0]}: {bad[0][1]}", file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {})[str(seed)] = [op[3] for op in result["ops"]]
            print(f"{workload.name} seed {seed}: {len(systems)} digests", file=sys.stderr)
    for table in digests.values():
        ordered = sorted(table.items(), key=lambda item: int(item[0]))
        table.clear()
        table.update(ordered)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="POOLS", type=seed_range,
                        help="re-record digests.json for a pool range such as 0-99")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "setcons" / "__init__.py").is_file():
        print(f"no setcons sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        names = sorted(WORKLOADS) if args.workload in ("all", None) else [args.workload]
        if args.record_digests is not None:
            return record_digests(args.record_digests, names)
        if args.workload is None:
            parser.error("--workload is required")
        return max(run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
