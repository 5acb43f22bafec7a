"""The surface syntax against its oracles.

The tokenizer and the precedence-climbing expression parser are compared
with the hand-counted tokenizer and the three-level parser they replaced
(``tests/oracles.py``): the same specs, and the same diagnostics with the
same lines, columns, messages and hints.  The printer is checked by a
round trip through the parser on random systems.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcons.dsl import DslError, SystemSpec, _diagnostic, _tokenize, parse, parse_set_literal
from setcons.expr import (
    Complement,
    Difference,
    EmptyLit,
    Intersect,
    SymDiff,
    Union,
    UniverseLit,
    Var,
)

from setcons.intervals import Interval, IntervalSet, Universe

from helpers import HALF_LINE
from oracles import hand_counted_tokenize, pretty_print, real_line, three_level_parse, three_level_parse_set_literal

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SAMPLE_TEXTS = [path.read_text() for path in sorted(SAMPLES.glob("*.sbm"))]

CHECK = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(parse_fn, *args):
    """The parsed value, or every diagnostic as (line, column, message, hint)."""
    try:
        return parse_fn(*args)
    except DslError as err:
        return [(d.severity, d.line, d.column, d.message, d.hint) for d in err.diagnostics]


def positioned_tokens(text: str):
    """The library's tokens with the line and column of their offset."""
    out = []
    for tok in _tokenize(text):
        d = _diagnostic(text, tok.offset, "", None)
        out.append((tok.kind, tok.text, d.line, d.column))
    return out


HEADER = "universe [0,10]\nconst C = [2,3]\nstate A = [0,1]\nstate B = [4,5]\n"

# Bad characters after every kind of blank and after a comment, on the
# first line and on later ones; errors at the end of the input; expression
# errors at every precedence level.
CORPUS = [
    "universe [0,1]  $",
    "universe\t[0,1]\t$",
    "universe [0,1]\r$",
    "universe [0,1]\f$",
    "universe [0,1]\v$",
    "universe [0,1] # a comment\n  $",
    "# first\n# second\n\t \r\f\v@",
    "$universe [0,1]",
    HEADER + "rule A = A &  $ B\n",
    HEADER + "rule A = A\t|\r\fB\nrule B = B # done\n \t$",
    HEADER + "rule A = A\r\nrule B = B\r\n\r\n  \f!",
    HEADER + "rule A = A |",
    HEADER + "rule A = A | B\nrule B = (A ^ B",
    HEADER + "rule A = A |\n",
    HEADER + "rule A = A",
    "universe [0,1]\n   ",
    "universe [0,1]\nstate A = [0,",
    "",
    "\n\n   \t",
    HEADER + "rule A = A ^ ^ B\nrule B = B\n",
    HEADER + "rule A = A \\ & B\nrule B = B\n",
    HEADER + "rule A = ~\nrule B = B\n",
    HEADER + "rule A = A B\nrule B = B\n",
    HEADER + "rule A = (A | B)) \nrule B = B\n",
    HEADER + "rule A = A & Y9\nrule B = B\n",
    HEADER + "rule A = A | B \\ C ^ ~~A & (B | C) & X\nrule B = empty ^ A \\ (B ^ C)\n",
    HEADER + "rule A = " + "(" * 101 + "A" + ")" * 101 + "\nrule B = B\n",
    HEADER + "rule A = " + "A | B \\ C & (" * 101 + "A" + ")" * 101 + "\nrule B = B\n",
    HEADER + "rule A = A\nrule A = B\nrule D = A\n",
    HEADER + "rule A = A\noption max_rounds = 0\noption colour = 3\n",
    *SAMPLE_TEXTS,
]


def short(text: str) -> str:
    return repr(text[-24:])


@pytest.mark.parametrize("text", CORPUS, ids=short)
def test_parse_matches_three_level_parser(text):
    assert outcome(parse, text) == outcome(three_level_parse, text)


@pytest.mark.parametrize("text", CORPUS, ids=short)
def test_token_positions_match_hand_counted_ones(text):
    assert outcome(positioned_tokens, text) == outcome(
        lambda t: [tuple(tok) for tok in hand_counted_tokenize(t)], text
    )


@pytest.mark.parametrize(
    "text",
    [
        "[0,1] |\n [2,3] $",
        "[0,1]\n\t| [2,\n3) x",
        "[0,1]\r\n|\f[2,3]\n\n  [4,5]",
        "\n\n  (0,",
        "[0,1] | # no comment here\n[2,3]",
        "X\n",
        "",
    ],
)
def test_set_literal_diagnostics_match_the_oracle(text):
    for universe in (None, HALF_LINE):
        assert outcome(parse_set_literal, text, universe) == outcome(
            three_level_parse_set_literal, text, universe
        )


# -- mutated systems ------------------------------------------------------------

FRAGMENTS = [
    "A", "B", "C", "X", "empty", "inf", "rule", "state", "const", "option", "max_rounds",
    "[", "]", "(", ")", ",", "=", "|", "&", "^", "~", "\\", "-", "0", "7", "2/3", "1.5",
    " ", "  ", "\t", "\r", "\f", "\v", "\n", "\r\n", "# note\n", "$", "@", "{", ".", "1/0",
]


@st.composite
def mutated_systems(draw):
    """A sample system or a small valid one, with some tokens dropped,
    repeated or replaced and some fragments inserted."""
    base = draw(st.sampled_from([*SAMPLE_TEXTS, HEADER + "rule A = A | B & ~C\nrule B = A \\ B ^ X\n"]))
    pieces = [p for p in base.replace("\n", " \n ").split(" ") if p]
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(pieces) - 1))
        change = draw(st.sampled_from(["drop", "repeat", "replace", "insert"]))
        if change == "drop":
            del pieces[k]
        elif change == "repeat":
            pieces.insert(k, pieces[k])
        else:
            fragment = draw(st.sampled_from(FRAGMENTS))
            if change == "replace":
                pieces[k] = fragment
            else:
                pieces.insert(k, fragment)
    gaps = st.sampled_from(["", " ", " ", "\t", "  "])
    return "".join(draw(gaps) + piece for piece in pieces)


@CHECK
@given(mutated_systems())
@example("universe [0,1]\nstate A = [0,1]\nrule A = A\n  \t  $")
def test_mutated_systems_parse_like_the_oracle(text):
    assert outcome(parse, text) == outcome(three_level_parse, text)
    assert outcome(positioned_tokens, text) == outcome(
        lambda t: [tuple(tok) for tok in hand_counted_tokenize(t)], text
    )


# -- pretty_print -> parse round trip ----------------------------------------------

VARIABLES = ("A", "B", "D")
CONSTANTS = ("C", "K")
UNIVERSES = [
    Universe.of(Interval.closed(0, 8)),
    HALF_LINE,
    real_line(),
    Universe.of(Interval.closed(0, 2), Interval.make(3, 5, False, False), Interval.closed(6, 8)),
]

grid = st.integers(0, 16).map(lambda k: Fraction(k, 2))


@st.composite
def sets_in(draw, universe: Universe):
    spans = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((draw(grid), draw(grid)))
        if a == b:
            spans.append(Interval.singleton(a))
        else:
            spans.append(Interval.make(a, b, draw(st.booleans()), draw(st.booleans())))
    return IntervalSet.of(*spans) & universe.carrier


def expressions(n_vars: int, n_consts: int):
    leaves = [st.builds(Var, st.integers(0, n_vars - 1)), st.just(UniverseLit()), st.just(EmptyLit())]
    if n_consts:  # constant j is the variable n_vars + j
        leaves.append(st.builds(Var, st.integers(n_vars, n_vars + n_consts - 1)))
    binary = [Union, Intersect, Difference, SymDiff]

    def extend(children):
        return st.one_of(
            st.builds(Complement, children),
            st.builds(lambda c: Complement(Complement(c)), children),
            *(st.builds(kind, children, children) for kind in binary),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=12)


@st.composite
def systems(draw):
    universe = draw(st.sampled_from(UNIVERSES))
    n_vars = draw(st.integers(1, len(VARIABLES)))
    n_consts = draw(st.integers(0, len(CONSTANTS)))
    exprs = expressions(n_vars, n_consts)
    return SystemSpec(
        universe=universe,
        constants=tuple((c, draw(sets_in(universe))) for c in CONSTANTS[:n_consts]),
        variables=VARIABLES[:n_vars],
        initials=tuple(draw(sets_in(universe)) for _ in range(n_vars)),
        rules=tuple(draw(exprs) for _ in range(n_vars)),
        options=(("max_rounds", draw(st.integers(1, 99))),) if draw(st.booleans()) else (),
    )


# Right-nested \ and ^, which keep their parentheses.
NESTED = SystemSpec(
    universe=UNIVERSES[0],
    constants=(("C", IntervalSet.of(Interval.closed(1, 2))),),
    variables=("A", "B"),
    initials=(IntervalSet.empty(), UNIVERSES[0].carrier),
    rules=(
        Difference(Var(0), Difference(Var(1), Var(2))),
        SymDiff(Var(1), SymDiff(Complement(Complement(Var(0))), Difference(UniverseLit(), EmptyLit()))),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems())
@example(NESTED)
def test_pretty_print_round_trip(spec):
    printed = pretty_print(spec)
    again = parse(printed)
    assert again == spec
    assert pretty_print(again) == printed


def test_right_nested_operators_keep_their_parentheses():
    assert "rule A = A \\ (B \\ C)\n" in pretty_print(NESTED)
    assert "rule B = B ^ (~~A ^ (X \\ empty))\n" in pretty_print(NESTED)
