"""The command line on mutated inputs ends in an exit code, never a traceback.

Sample systems and benchmark pool systems are mutated token by token (tokens dropped, repeated or
replaced, deep ``~`` and ``(``, huge rationals, odd blanks) and run through
``cli.main`` in-process, every subcommand under default and low caps.  Only
the outcome is asserted: exit code 0, 1 or 2, no exception, and a bounded
time.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcons import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

SOURCES = [path.read_text() for path in sorted((ROOT / "samples").glob("*.sbm"))]
SOURCES += [WORKLOADS[name].make(0, i).text for name in sorted(WORKLOADS) for i in (0, 1)]

SECONDS = 20  # per case; a case that takes this long is a bug

COMMANDS = [
    ["analyze"], ["analyze", "--format", "text"], ["simulate"], ["simulate", "--format", "text"],
    ["simulate", "--random-init", "--seed", "5"], ["simulate", "--rounds", "3"],
    ["encode"], ["consensus"], ["equilibria"], ["equilibria", "--format", "text"],
]
CAPS = ["", "enumeration=2,listing=3", "enumeration=0", "listing=0"]

TOKEN = re.compile(r"#[^\n]*|\d+(?:\.\d+)?(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|\n|\S")
HUGE = "7" * 400
NUMBERS = [HUGE, f"{HUGE}/{'3' * 399}", f"1/{HUGE}", "0.000000000000000000001", "1/0", "0", "99999"]
FRAGMENTS = [
    "(" * 150, ")" * 150, "~(" * 99, f"[0,{HUGE}]", f"(-inf,{HUGE}]", "[5,5]", "(5,5)", "[3,1]",
    "\r\n", " ", "# c\n", "$", "X", "empty", "inf", "-", "|", "&", "^", "~", "\\", "=", ",",
    "universe", "state", "const", "rule", "option", "max_rounds",
]


@st.composite
def fuzzed_texts(draw):
    """A source system, token by token, with up to three mutations."""
    tokens = TOKEN.findall(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        k = draw(st.integers(0, len(tokens) - 1))
        change = draw(st.sampled_from(["drop", "repeat", "deepen", "number", "insert"]))
        if change == "drop":
            del tokens[k]
        elif change == "repeat":
            tokens.insert(k, tokens[k])
        elif change == "deepen":  # the next identifier under deep ~ or parentheses
            k = next((i for i in range(k, len(tokens)) if tokens[i][0].isalpha()), k)
            depth = draw(st.sampled_from([2, 99, 101, 3000]))
            tokens[k] = draw(st.sampled_from(["~" * depth + tokens[k], "(" * depth + tokens[k] + ")" * depth]))
        elif change == "number":  # the next number made huge, tiny or unreadable
            k = next((i for i in range(k, len(tokens)) if tokens[i][0].isdigit()), k)
            tokens[k] = draw(st.sampled_from(NUMBERS))
        else:
            tokens.insert(k, draw(st.sampled_from(FRAGMENTS)))
    gaps = st.sampled_from([" ", " ", " ", " ", "\t", "  ", "\f", "\v"])
    return "".join(draw(gaps) + token for token in tokens)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "system.sbm"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fuzzed_texts(), st.sampled_from(COMMANDS), st.sampled_from(CAPS))
@example(
    "universe [0,{0}]\nstate A = [0,{0}]\nstate B = [1,2]\nrule A = B\nrule B = A\n".format("9" * 400),
    ["simulate"], "",
)
@example("universe [0,1]\nstate A = [0,1]\nrule A = " + "~" * 5000 + "A\n", ["analyze"], "")
def test_cli_ends_in_an_exit_code(fuzz_file, text, command, caps):
    fuzz_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.dict(os.environ, {"SETCONS_CAPS": caps}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], str(fuzz_file), *command[1:]])
    assert code in (0, 1, 2), err.getvalue()
    assert time.perf_counter() - start < SECONDS
    # Lines and columns count from 1: a diagnostic at 0:0 points nowhere.
    assert not any(line.startswith("0:0") for line in err.getvalue().splitlines())
    assert (out.getvalue() == "") == (code != 0)
