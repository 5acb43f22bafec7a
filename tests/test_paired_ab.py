"""Smoke test of ``tools/paired_ab.py``: one round of a workload's pool with
this checkout on both sides."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paired_ab_runs_one_round_on_the_same_tree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT),
         "--workload", "analyze-dag", "--seed", "0", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "equal stdout, stderr and exit codes" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["operations"] == 32
    assert result["ratio_q1"] <= result["ratio_p50"] <= result["ratio_q3"]
    assert result["base_p50_s"] > 0 and result["change_p50_s"] > 0


def test_paired_ab_times_fresh_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT),
         "--workload", "simulate-chain", "--seed", "0", "--rounds", "1", "--starts", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2 paired starts" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["operations"] == 16
    assert 0 < result["base_setup_s"] < 10 and 0 < result["change_setup_s"] < 10
    assert result["setup_ratio_p50"] > 0


def test_paired_ab_runs_every_workload_in_turn():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(ROOT),
         "--workload", "all", "--seed", "0", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == ["analyze-dag", "simulate-chain", "simulate-cyclic"]
    assert [r["operations"] for r in results] == [32, 16, 64]
    assert proc.stdout.count("equal stdout, stderr and exit codes") == 3


def test_paired_ab_counts_each_trees_source_lines(tmp_path):
    # The change side is a copy of the package with one line more.
    shutil.copytree(ROOT / "src" / "setcons", tmp_path / "src" / "setcons",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "setcons" / "errors.py", "a", encoding="utf-8") as file:
        file.write("# one more line\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"), str(ROOT), str(tmp_path),
         "--workload", "simulate-chain", "--seed", "0", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src" / "setcons").glob("*.py"))
    assert (result["base_src_lines"], result["change_src_lines"]) == (lines, lines + 1)
