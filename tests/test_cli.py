import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import setcons
from setcons.cli import main

from test_dsl import CYCLIC3_TEXT, PINNED6_TEXT

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

LINEAR2_TEXT = """\
universe [0,10]
const a11 = [0,5]
const a12 = [3,8]
const a21 = [6,9]
const a22 = [2,4]
state X1 = [0,2]
state X2 = [5,7]
rule X1 = (a11 & X1) | (a12 & X2)
rule X2 = (a21 & X1) | (a22 & X2)
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("cyclic3", CYCLIC3_TEXT),
        ("pinned6", PINNED6_TEXT),
        ("linear2", LINEAR2_TEXT),
    ):
        p = tmp_path / f"{name}.sbm"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_pinned6(files, capsys):
    code, out, err = run(capsys, "analyze", files["pinned6"])
    assert code == 0
    report = json.loads(out)
    assert report["contractive"] is True
    assert report["q"] == 7
    assert report["cycle"] is None
    assert report["equilibria_summary"]["total"] == 1
    assert report["local"]["equilibrium"] == ["[40,60] | [100,120]"] * 6
    assert set(report["witness_order"]) == {"X1", "X2", "X3", "X4", "X5", "X6", "C"}


def test_analyze_cyclic3(files, capsys):
    code, out, err = run(capsys, "analyze", files["cyclic3"])
    assert code == 0
    report = json.loads(out)
    assert report["contractive"] is False
    assert report["cycle"] == ["X1"]
    assert report["witness_order"] is None
    assert report["local"] is None


def test_simulate_json_round1(files, capsys):
    code, out, err = run(capsys, "simulate", files["cyclic3"], "--rounds", "10")
    assert code == 0
    report = json.loads(out)
    assert report["rounds"][1] == [
        "[2,5]",
        "[0,5] | (7,inf)",
        "[0,2) | (7,8) | (11,inf)",
    ]


def test_simulate_seeded_runs_identical(files, capsys):
    args = ("simulate", files["pinned6"], "--rounds", "30", "--seed", "11", "--random-init")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_text_format(files, capsys):
    code, out, _ = run(capsys, "simulate", files["pinned6"], "--format", "text")
    assert code == 0
    assert "round 0:" in out
    assert "consensus:" in out


def test_encode_output(files, capsys):
    code, out, _ = run(capsys, "encode", files["cyclic3"])
    assert code == 0
    report = json.loads(out)
    assert report["vars"] == {"X1": "11000", "X2": "10100", "X3": "00010"}
    assert report["cells"][0] == {"signature": "110", "region": "[4,5]"}


def test_consensus_linear(files, capsys):
    code, out, _ = run(capsys, "consensus", files["linear2"])
    assert code == 0
    report = json.loads(out)
    assert report == {"exists": True, "region": "[2,4] | [6,8]"}


def test_consensus_bounds_of_a_nonlinear_system(files, capsys):
    # X3 = ~X1 & ~X2 & ~X3 fixes no common set: at 1 it steps to 0 and at 0
    # to 1 in every cell, so the upper bound is empty and the lower one X.
    code, out, err = run(capsys, "consensus", files["cyclic3"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"exists": False, "region": "empty", "lower": "[0,inf)"}


def test_equilibria_output(files, capsys):
    code, out, _ = run(capsys, "equilibria", files["pinned6"])
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 1
    assert all(c == 1 for c in report["per_cell_counts"])


def test_missing_file_is_diagnostic(files, capsys):
    path = files["pinned6"] + ".nope"
    code, out, err = run(capsys, "analyze", path)
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {path}: No such file or directory\n"
    assert "0:0" not in err


def test_a_file_that_is_not_utf8_is_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin1.sbm"
    path.write_bytes("universe [0,1]\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {path}: not UTF-8 (invalid continuation byte at byte 20)\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sbm"
    bad.write_text("universe [0,1]\nrule X1 = X9\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "error" in err


def test_zero_round_option_is_a_positioned_diagnostic(tmp_path, capsys):
    bad = tmp_path / "zero.sbm"
    bad.write_text("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption max_rounds = 0\n")
    code, out, err = run(capsys, "simulate", str(bad))
    assert (code, out) == (1, "")
    assert err == "4:21: error: option values must be positive integers\n"


def test_a_lone_carriage_return_is_a_blank_in_a_file(tmp_path, capsys):
    # Read as written, a file means what the same text means to dsl.parse.
    path = tmp_path / "cr.sbm"
    path.write_bytes(b"universe [0,1]\rstate A = [0,1]\rrule A = A")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == "1:16: error: unexpected 'state' after statement (one declaration per line)\n"


@pytest.mark.parametrize("command", ["analyze", "simulate", "encode", "consensus", "equilibria"])
def test_crlf_file_prints_what_the_lf_file_prints(tmp_path, capsys, command):
    lf = SAMPLES / "pinned6.sbm"
    crlf = tmp_path / "pinned6.sbm"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert run(capsys, command, str(crlf)) == run(capsys, command, str(lf))


@pytest.mark.parametrize(
    "text",
    [
        "universe [0,1/0]\n",
        f"universe [0,{'7' * 5000}]\n",
        f"universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption max_rounds = {'7' * 5000}\n",
    ],
    ids=["zero-denominator", "long-endpoint", "long-option"],
)
def test_unreadable_numbers_exit_1_without_traceback(tmp_path, capsys, text):
    bad = tmp_path / "number.sbm"
    bad.write_text(text)
    code, out, err = run(capsys, "simulate", str(bad))
    assert (code, out) == (1, "")
    assert "cannot read the number" in err and "Traceback" not in err


def test_endpoints_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # The window's padded end hi*11/10 has 4301 digits, one more than
    # Python's default limit for converting an int to text.
    nines = "9" * 4300
    path = tmp_path / "long.sbm"
    path.write_text(f"universe [0,{nines}]\nstate A = [0,1]\nrule A = A\n")
    code, out, err = run(capsys, "simulate", "--format", "text", str(path))
    assert code == 0 and "Traceback" not in err
    end = Fraction(int(nines) * 11, 10)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{end.numerator}/{end.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert f"[0,{expected}]" in out


def test_closed_stdout_exits_1_without_traceback():
    # The reader of the pipe is gone before the CLI writes a byte.
    src = Path(setcons.__file__).resolve().parents[1]
    sample = Path(__file__).resolve().parents[1] / "samples" / "pinned6.sbm"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "setcons.cli", "simulate", str(sample), "--format", "text"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cap_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    lines = ["universe [0,100]"]
    for i in range(6):
        lines.append(f"state V{i} = [{i * 10},{i * 10 + 5}]")
    for i in range(6):
        lines.append(f"rule V{i} = V{i} \\ V{(i + 1) % 6}")
    path = tmp_path / "wide.sbm"
    path.write_text("\n".join(lines) + "\n")
    # Six free agents need 2**6 states per cell.
    monkeypatch.setenv("SETCONS_CAPS", "enumeration=3")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "cap exceeded" in err


@pytest.mark.parametrize("entry", ["matrix_dim=20", "generators=3", "normal_form=4"])
def test_removed_caps_are_unknown_entries(files, capsys, monkeypatch, entry):
    from setcons.caps import Caps

    assert Caps._fields == ("enumeration", "listing")
    monkeypatch.setenv("SETCONS_CAPS", entry)
    code, out, err = run(capsys, "analyze", files["pinned6"])
    assert code == 1
    assert out == ""
    assert err == f"error: SETCONS_CAPS: unknown entry {entry!r}\n"


@pytest.mark.parametrize(
    "entry, error",
    [
        ("enumeration=-1", "enumeration needs a nonnegative integer, got '-1'"),
        ("listing=-3", "listing needs a nonnegative integer, got '-3'"),
        ("listing=many", "listing needs an integer, got 'many'"),
        # Only ASCII digits, as in a system file: int() would read both.
        ("enumeration=\u0663", "enumeration needs an integer, got '\u0663'"),
        ("listing=1_0", "listing needs an integer, got '1_0'"),
    ],
)
def test_bad_cap_values_exit_1(files, capsys, monkeypatch, entry, error):
    # A negative cap is an input diagnostic, not a cap hit (exit 2).
    monkeypatch.setenv("SETCONS_CAPS", entry)
    code, out, err = run(capsys, "equilibria", files["linear2"])
    assert (code, out) == (1, "")
    assert err == f"error: SETCONS_CAPS: {error}\n"


def test_equilibria_over_a_thousand_cells(tmp_path, capsys):
    # Ten dyadic constants cut [0,1024) into 1024 unit cells.  The rule does
    # not read X1, so every cell has one fixed point and the system one
    # equilibrium.
    lines = ["universe [0,1024)"]
    for i in range(10):
        parts = " | ".join(f"[{k},{k + (1 << i)})" for k in range(1 << i, 1024, 2 << i))
        lines.append(f"const C{i + 1} = {parts}")
    lines += ["state X1 = [0,1)", "rule X1 = C1 & ~C2 | C3"]
    path = tmp_path / "cells.sbm"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "equilibria", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["cells"] == 1024
    assert report["total"] == 1
    assert len(report["equilibria"]) == 1


def one_rule_file(tmp_path, rule: str) -> str:
    path = tmp_path / "deep.sbm"
    path.write_text(f"universe [0,10]\nstate X1 = [1,2]\nrule X1 = {rule}\n")
    return str(path)


def test_deep_parentheses_are_a_diagnostic(tmp_path, capsys):
    path = one_rule_file(tmp_path, "(" * 2000 + "X1" + ")" * 2000)
    code, out, err = run(capsys, "analyze", path)
    assert code == 1
    assert out == ""
    # The 101st parenthesis, after the 10 characters of "rule X1 = ".
    assert err == "3:111: error: parentheses nested deeper than 100 levels\n"


def test_long_complement_run(tmp_path, capsys):
    path = one_rule_file(tmp_path, "~" * 2000 + "X1")
    code, out, err = run(capsys, "analyze", path)
    assert code == 0, err
    # An even number of complements is the identity rule.
    report = json.loads(out)
    assert report["cycle"] == ["X1"]
    assert report["equilibria_summary"]["per_cell_counts"] == [2, 2]


@pytest.mark.parametrize("command", ["analyze", "simulate", "encode"])
def test_long_symmetric_difference_chain(tmp_path, capsys, command):
    # 3000 copies of X1 cancel in pairs, so the rule is the empty set.
    path = one_rule_file(tmp_path, " ^ ".join(["X1"] * 3000))
    code, out, err = run(capsys, command, path)
    assert code == 0, err
    report = json.loads(out)
    if command == "simulate":
        assert report["rounds"] == [["[1,2]"], ["empty"]]
    elif command == "encode":
        assert report["vars"] == {"X1": "10"}
    else:
        assert report["equilibria_summary"]["per_cell_counts"] == [1, 1]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["analyze"], "setcons analyze: error: the following arguments are required: file"),
        (["simulate", "F", "--rounds", "x"], "setcons simulate: error: argument --rounds: invalid int value: 'x'"),
        ([], "setcons: error: the following arguments are required: command"),
    ],
    ids=["missing-file", "bad-rounds", "no-command"],
)
def test_usage_errors_exit_1(capsys, argv, error):
    # Exit code 2 stands for a cap; a usage error is an input diagnostic.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: setcons")
    assert captured.err.endswith(f"\n{error}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: setcons simulate")


def test_one_parser_serves_every_call_like_a_fresh_one():
    # The parser is built once per process: a run with every simulate
    # option, then a usage error, then plain runs must each print and exit
    # as a fresh process does, so no default or namespace value carries
    # over from one call to the next.
    sample = str(Path(__file__).resolve().parents[1] / "samples" / "pinned6.sbm")
    src = str(Path(setcons.__file__).resolve().parents[1])
    calls = [
        ["simulate", sample, "--rounds", "3", "--random-init", "--seed", "5"],
        ["simulate", sample, "--rounds", "x"],
        ["simulate", sample],
        ["analyze", sample],
    ]
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "setcons.cli", *argv], capture_output=True, text=True,
                               timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert (out.getvalue(), code) == (fresh.stdout, fresh.returncode), argv
