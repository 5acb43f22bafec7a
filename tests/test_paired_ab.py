"""Smoke test of ``tools/paired_ab.py``: one round of a workload's pool with
this checkout on both sides."""

import json
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
