"""The CLI's stdout, stderr and exit code on every sample, pinned byte for byte.

``golden_cli.json`` holds one recorded run per case: every subcommand in
both formats on each ``samples/*.sbm`` file, and a seeded random-init
simulation.  Re-record it with ``PYTHONPATH=src python tests/test_golden.py``
only when an output is meant to change, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from setcons.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = ("analyze", "simulate", "encode", "consensus", "equilibria")
FORMATS = ("json", "text")


def cases() -> list[list[str]]:
    out = []
    for sample in sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "samples").glob("*.sbm")):
        for fmt in FORMATS:
            out.extend([command, sample, "--format", fmt] for command in COMMANDS)
            out.append(["simulate", sample, "--format", fmt, "--random-init", "--seed", "5"])
    return out


def run(argv: list[str]) -> dict:
    """One CLI run from the repository root, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_file_covers_every_case():
    assert [case["argv"] for case in RECORDED] == cases()


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in cases()], indent=1) + "\n", encoding="utf-8")
