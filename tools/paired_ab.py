"""Paired A/B timing of two ``setcons`` trees in one process.

    python3 tools/paired_ab.py BASE_TREE CHANGE_TREE --workload analyze-dag --seed 97 --rounds 8

Each tree is a checkout with the package under ``src/setcons``.  Both are
imported side by side under their own package names, and every operation
of the benchmark workload's pool (``bench/workloads.py``, read only) runs
on both, back to back, the side that goes first alternating from one
operation to the next.  The two stdouts, stderrs and exit codes must be
equal.  It prints each side's median operation time and the median and
quartiles of the per-operation ratios change/base, then one JSON line with
the same figures.  ``--workload all`` runs every workload in turn
(analyze-dag, simulate-chain, simulate-cyclic), each with its report and
JSON line, so one command compares every workload a change touches.

``--starts N`` also times N fresh starts of each tree, alternating: each
from launching ``python -I`` until ``import setcons.cli`` returns, as the
benchmark's ``setup_s`` counts it.  The starts are timed once, before the
workloads, and every JSON line adds each side's median start and the
median of the paired ratios change/base.

Every JSON line also carries ``base_src_lines`` and ``change_src_lines``,
the line counts of each tree's ``src/setcons/*.py`` as ``wc -l`` gives
them, so one command gives a change's size and its timing.

Sequential benchmark runs on a shared machine can drift by more than a
change is worth; two operations timed back to back see the same machine,
so their ratio resolves a few percent.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in the trees or in bench/
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402


def load_cli(tree: Path, alias: str):
    """``setcons.cli`` of ``tree``, imported as the package ``alias``."""
    package = tree / "src" / "setcons"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"paired_ab: no setcons package under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def src_lines(tree: Path) -> int:
    """The lines of ``tree``'s ``src/setcons/*.py``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "setcons").glob("*.py"))


def timed(main, argv: list[str]) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


# Run in a fresh ``python -I``, which ignores PYTHONPATH: the tree's
# ``src`` is its argument, and the ready stamp its output.
START = "import sys, time; sys.path.insert(0, sys.argv[1]); import setcons.cli; print(repr(time.monotonic()))"


def start_s(tree: Path, cache: str) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    ``setcons.cli`` from ``tree``; compiled files go to ``cache``."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-I", "-X", f"pycache_prefix={cache}", "-c", START, str(tree / "src")],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"paired_ab: a start of {tree} failed: {proc.stderr.strip()}")
    return float(proc.stdout) - start


def paired_starts(trees: tuple[Path, Path], count: int) -> tuple[list[float], list[float]]:
    """``count`` starts of each tree, the side that goes first alternating,
    after one start each that only fills the bytecode cache."""
    times: tuple[list[float], list[float]] = ([], [])
    with tempfile.TemporaryDirectory() as cache:
        for tree in trees:
            start_s(tree, cache)
        for turn in range(count):
            for side in ((0, 1) if turn % 2 == 0 else (1, 0)):
                times[side].append(start_s(trees[side], cache))
    return times


def paired_operations(sides, workload, seed: int, rounds: int) -> dict | None:
    """Every operation of the workload's pool on both sides, ``rounds``
    times; the figures, or None when the sides disagree on an operation."""
    times: tuple[list[float], list[float]] = ([], [])
    ratios = []
    with tempfile.TemporaryDirectory() as workdir:
        files = []
        for i in range(workload.pool):
            path = Path(workdir) / f"{i:03d}.sbm"
            path.write_text(workload.make(seed, i).text, encoding="utf-8")
            files.append(str(path))
        turn = 0
        for _ in range(rounds):
            for path in files:
                argv_op = [*workload.command[:1], path, *workload.command[1:]]
                order = (0, 1) if turn % 2 == 0 else (1, 0)
                turn += 1
                runs = {side: timed(sides[side], argv_op) for side in order}
                if runs[0][1:] != runs[1][1:]:
                    print(f"paired_ab: the trees disagree on {' '.join(argv_op)}", file=sys.stderr)
                    return None
                times[0].append(runs[0][0])
                times[1].append(runs[1][0])
                ratios.append(runs[1][0] / runs[0][0])

    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "workload": workload.name,
        "seed": seed,
        "operations": len(ratios),
        "base_p50_s": statistics.median(times[0]),
        "change_p50_s": statistics.median(times[1]),
        "ratio_p50": q2,
        "ratio_q1": q1,
        "ratio_q3": q3,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], default="analyze-dag")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=8, help="passes over the pool")
    parser.add_argument("--starts", type=int, default=0, help="fresh starts of each tree to time")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.starts < 0:
        parser.error("--starts must not be negative")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    sides = (load_cli(args.base.resolve(), "setcons_base").main,
             load_cli(args.change.resolve(), "setcons_change").main)
    figures = dict(base_src_lines=src_lines(args.base), change_src_lines=src_lines(args.change))
    print(f"src/setcons: base {figures['base_src_lines']} lines, change {figures['change_src_lines']} lines")
    if args.starts:
        starts = paired_starts((args.base.resolve(), args.change.resolve()), args.starts)
        figures.update(base_setup_s=statistics.median(starts[0]), change_setup_s=statistics.median(starts[1]),
                       setup_ratio_p50=statistics.median(c / b for b, c in zip(*starts)))
        print(f"{args.starts} paired starts: base median {figures['base_setup_s'] * 1e3:.1f} ms, change median "
              f"{figures['change_setup_s'] * 1e3:.1f} ms, change/base median {figures['setup_ratio_p50']:.3f}")
    for name in names:
        result = paired_operations(sides, WORKLOADS[name], args.seed, args.rounds)
        if result is None:
            return 1
        print(f"{name} seed {args.seed}: {result['operations']} paired operations, "
              f"equal stdout, stderr and exit codes")
        print(f"  base   median {result['base_p50_s'] * 1e3:.3f} ms  ({args.base})")
        print(f"  change median {result['change_p50_s'] * 1e3:.3f} ms  ({args.change})")
        print(f"  change/base per operation: median {result['ratio_p50']:.3f}, "
              f"quartiles {result['ratio_q1']:.3f}-{result['ratio_q3']:.3f}")
        print(json.dumps({**result, **figures}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
