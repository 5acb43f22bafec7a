"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 bench/steadiness.py --seeds 1-10 [--out FILE] [--against EARLIER]

Runs ``run.py`` once per workload and seed (``run_seconds`` from
``BENCHMARK.json``, no tracing) and reports, per workload and metric, the
median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  With ``--against``, an earlier
output of this script, it also reports by what share each median is worse
than the earlier set's.  Writes every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, seed_range


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", help="comma-separated; default: every workload")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "steadiness.json")
    parser.add_argument("--against", type=Path, help="an earlier output to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["workloads"] if args.against else {}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "seeds": list(args.seeds), "workloads": {}}
    worst = 0.0
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "attempted": result["attempted"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        spreads = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spreads[metric] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            worst = max(worst, (q3 - q1) / median / bound)
            print(f"  {name} {metric}: median {median:.6g}, spread {(q3 - q1) / median:.3f} "
                  f"(bound {bound})", flush=True)
        report["workloads"][name] = {"spreads": spreads, "runs": runs}
        if name in earlier:
            worse = {}
            for metric, bound in bounds.items():
                before = earlier[name]["spreads"][metric]["median"]
                change = (spreads[metric]["median"] - before) / before
                worse[metric] = -change if metric in higher else change
                worst = max(worst, worse[metric] / bound)
                print(f"  {name} {metric}: median worse than the earlier set's by {worse[metric]:+.3f} "
                      f"(bound {bound})", flush=True)
            report["workloads"][name]["worse_than_earlier"] = worse
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"largest spread or worsening as a share of its bound: {worst:.2f}; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
