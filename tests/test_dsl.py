import pytest

from setcons.dsl import MAX_NESTING, Diagnostic, DslError, parse, to_json
from setcons.expr import ConstRef, Var

from helpers import iv
from oracles import pretty_print, to_lists

CYCLIC3_TEXT = """\
# three agents with a dependency cycle
universe [0,inf)

state X1 = [2,5]
state X2 = [4,7]
state X3 = [8,11]

rule X1 = X1 | (X2 & X3)
rule X2 = X1 | ~X2
rule X3 = ~X1 & ~X2 & ~X3
"""

PINNED6_TEXT = """\
universe [0,200]
const C = [40,60] | [100,120]
state X1 = [0,30]
state X2 = [20,50]
state X3 = [40,60] | [100,120]
state X4 = [80,150]
state X5 = [10,90]
state X6 = [130,180]
rule X1 = X3 | (X2 & X5)
rule X2 = X3
rule X3 = C
rule X4 = X1 | (X2 & X3) | (X5 & X6)
rule X5 = X2 & X3
rule X6 = (X1 & X3) | X2 | X5
option max_rounds = 40
"""


def test_parse_cyclic3():
    spec = parse(CYCLIC3_TEXT)
    assert spec.variables == ("X1", "X2", "X3")
    assert spec.initials == (iv("[2,5]"), iv("[4,7]"), iv("[8,11]"))
    f = spec.set_map()
    assert to_lists(f.incidence()) == [[1, 1, 1], [1, 1, 0], [1, 1, 1]]


def test_parse_minimal():
    spec = parse("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\n")
    assert spec.variables == ("X1",)
    assert spec.rules == (Var(0),)
    assert spec.options == ()


def test_parse_pinned6():
    spec = parse(PINNED6_TEXT)
    assert spec.constants == (("C", iv("[40,60] | [100,120]")),)
    assert spec.rules[2] == ConstRef("C")
    assert spec.options_map == {"max_rounds": 40}


def test_undefined_identifier():
    with pytest.raises(DslError) as err:
        parse("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X2\n")
    diag = err.value.diagnostics[0]
    assert "undefined identifier X2" in diag.message
    assert diag.line == 3 and diag.column == 11


def test_duplicate_rule():
    text = "universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\nrule X1 = ~X1\n"
    with pytest.raises(DslError) as err:
        parse(text)
    assert any("duplicate rule" in d.message for d in err.value.diagnostics)


def test_missing_rule():
    with pytest.raises(DslError) as err:
        parse("universe [0,1]\nstate X1 = [0,1]\nstate X2 = [0,1]\nrule X1 = X1\n")
    assert any("X2 has no rule" in d.message for d in err.value.diagnostics)


def test_reversed_interval():
    with pytest.raises(DslError) as err:
        parse("universe [0,1]\nstate X1 = [5,2]\nrule X1 = X1\n")
    assert any("empty interval" in d.message for d in err.value.diagnostics)


def test_missing_universe():
    with pytest.raises(DslError) as err:
        parse("state X1 = [0,1]\nrule X1 = X1\n")
    assert "universe" in err.value.diagnostics[0].message


def test_initial_escapes_universe():
    with pytest.raises(DslError) as err:
        parse("universe [0,1]\nstate X1 = [0,5]\nrule X1 = X1\n")
    assert any("escapes the universe" in d.message for d in err.value.diagnostics)


def test_duplicate_declaration_and_reserved_names():
    with pytest.raises(DslError):
        parse("universe [0,1]\nstate A = [0,1]\nconst A = [0,1]\nrule A = A\n")
    with pytest.raises(DslError):
        parse("universe [0,1]\nstate X = [0,1]\nrule X = X\n")


def test_unknown_option():
    with pytest.raises(DslError) as err:
        parse("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption nope = 3\n")
    assert "unknown option" in err.value.diagnostics[0].message


def test_cap_keys_are_not_options():
    # Caps come from SETCONS_CAPS only; a file cannot set them.
    for key in ("generators", "enumeration", "listing"):
        with pytest.raises(DslError) as err:
            parse(f"universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption {key} = 3\n")
        diag = err.value.diagnostics[0]
        assert diag.message == f"unknown option {key!r}"
        assert (diag.line, diag.column) == (4, 8)
        assert diag.hint == "known options: max_rounds"


@pytest.mark.parametrize("value", ["0", "00"])
def test_option_value_zero_is_positioned(value):
    with pytest.raises(DslError) as err:
        parse(f"universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption max_rounds = {value}\n")
    diag = err.value.diagnostics[0]
    assert diag.message == "option values must be positive integers"
    assert (diag.line, diag.column) == (4, 21)


BIG = "1" * 5000  # more digits than Python's int conversion takes


@pytest.mark.parametrize(
    "text, where",
    [
        ("universe [0,1/0]\n", (1, 13)),
        ("universe [-1/0,1]\n", (1, 12)),
        (f"universe [0,{BIG}]\n", (1, 13)),
        (f"universe [0,1.{BIG}]\n", (1, 13)),
        ("universe [0,9]\nstate X1 = [0,3.5/2]\n", (2, 15)),
        (f"universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption max_rounds = {BIG}\n", (4, 21)),
    ],
    ids=["zero-denominator", "negative-zero-denominator", "long-endpoint", "long-decimal",
         "decimal-with-denominator", "long-option"],
)
def test_unreadable_numbers_are_positioned(text, where):
    with pytest.raises(DslError) as err:
        parse(text)
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column) == where
    assert diag.message.startswith("cannot read the number ")
    assert len(diag.render()) < 200


@pytest.mark.parametrize("literal", ["]0,1]", "-3,4]", "0,1]", "|[0,1]"])
def test_an_interval_starts_with_a_bracket(literal):
    with pytest.raises(DslError) as err:
        parse(f"universe {literal}\n")
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column) == (1, 10)
    assert diag.message.startswith("expected an interval")


def test_repeated_option_is_positioned():
    text = "universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\noption max_rounds = 5\noption max_rounds = 9\n"
    with pytest.raises(DslError) as err:
        parse(text)
    [diag] = err.value.diagnostics
    assert diag.message == "duplicate option max_rounds"
    assert (diag.line, diag.column) == (5, 8)
    assert parse(text.rsplit("option", 1)[0]).options_map == {"max_rounds": 5}


def test_parenthesis_depth_limit():
    def rule(depth):
        return "universe [0,1]\nstate X1 = [0,1]\nrule X1 = " + "(" * depth + "X1" + ")" * depth + "\n"

    assert parse(rule(MAX_NESTING)).rules == (Var(0),)
    with pytest.raises(DslError) as err:
        parse(rule(MAX_NESTING + 1))
    diag = err.value.diagnostics[0]
    assert (diag.line, diag.column) == (3, 11 + MAX_NESTING)
    assert diag.message == f"parentheses nested deeper than {MAX_NESTING} levels"


@pytest.mark.parametrize(
    "rule",
    [" ^ ".join(["X1"] * 3000), "~" * 2000 + "X1", " | ".join(["~(X1 & ~X1)"] * 500)],
    ids=["xor-chain", "complement-run", "union-chain"],
)
def test_long_rules_print_and_parse_back(rule):
    # Texts are compared, not trees: == on a 3000-deep tree would recurse.
    printed = pretty_print(parse(f"universe [0,1]\nstate X1 = [0,1]\nrule X1 = {rule}\n"))
    assert f"rule X1 = {rule}\n" in printed
    assert pretty_print(parse(printed)) == printed


def test_declaration_after_rules():
    text = "universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\nstate X2 = [0,1]\n"
    with pytest.raises(DslError) as err:
        parse(text)
    assert any("must precede the rules" in d.message for d in err.value.diagnostics)


def test_diagnostics_carry_spans():
    try:
        parse("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1 & Y9\n")
    except DslError as err:
        diag = err.diagnostics[0]
        assert isinstance(diag, Diagnostic)
        assert diag.line == 3
        assert diag.column == 16  # points at Y9
    else:
        pytest.fail("expected a diagnostic")


@pytest.mark.parametrize("text", [CYCLIC3_TEXT, PINNED6_TEXT], ids=["cyclic3", "pinned6"])
def test_crlf_line_ends_read_as_lf(text):
    assert parse(text.replace("\n", "\r\n")) == parse(text)
    assert parse(text.replace(" = ", "\f=\v")) == parse(text)


def test_numbers_take_ascii_digits_only():
    # An Arabic-Indic three is a character, not a digit, of the grammar.
    with pytest.raises(DslError) as err:
        parse("universe [0,\u0663]\nstate A = [0,1]\nrule A = A\n")
    assert [d.render() for d in err.value.diagnostics] == ["1:13: error: unexpected character '\u0663'"]


def test_crlf_line_ends_keep_diagnostic_positions():
    text = "universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1 & Y9\n"
    for variant in (text, text.replace("\n", "\r\n")):
        with pytest.raises(DslError) as err:
            parse(variant)
        diag = err.value.diagnostics[0]
        assert (diag.line, diag.column) == (3, 16)


def test_round_trip_structural_identity():
    for text in (CYCLIC3_TEXT, PINNED6_TEXT):
        spec = parse(text)
        printed = pretty_print(spec)
        assert parse(printed) == spec
        assert pretty_print(parse(printed)) == printed


def test_pretty_print_omits_empty_sections():
    spec = parse("universe [0,1]\nstate X1 = [0,1]\nrule X1 = X1\n")
    printed = pretty_print(spec)
    assert "const" not in printed
    assert "option" not in printed


def test_expression_precedence():
    spec = parse(
        "universe [0,1]\nstate A = [0,1]\nstate B = empty\nstate D = [0,1]\n"
        "rule A = A | B & D\nrule B = ~A ^ B \\ D\nrule D = D\n"
    )
    from setcons.expr import Complement, Difference, Intersect, SymDiff, Union

    assert spec.rules[0] == Union(Var(0), Intersect(Var(1), Var(2)))
    assert spec.rules[1] == Difference(SymDiff(Complement(Var(0)), Var(1)), Var(2))


def test_fraction_and_infinite_endpoints():
    spec = parse("universe (-inf,inf)\nstate X1 = [1/3,3.5)\nrule X1 = X1\n")
    assert spec.initials[0] == iv("[1/3,7/2)")
    printed = pretty_print(spec)
    assert "[1/3,7/2)" in printed
    assert parse(printed) == spec


def test_to_json_stability():
    report = {"contractive": True, "region": iv("[2,4] | [6,8]"), "counts": (1, 2)}
    first = to_json(report)
    second = to_json(report)
    assert first == second
    assert '"region": "[2,4] | [6,8]"' in first
    assert '"counts": [\n    1,\n    2\n  ]' in first


def test_orbit_report_json_period_field():
    from oracles import orbit
    from helpers import ref3_binary

    summary = orbit(ref3_binary(), (0, 0, 1))
    assert '"period": 2' in to_json(summary)
