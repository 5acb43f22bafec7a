"""Parser for the textual system description format, and the JSON of reports.

A system file declares a universe, optional named constant sets, state
variables with their initial sets, one update rule per variable, and
optional numeric settings::

    # comments run to end of line
    universe [0,200]
    const C = [40,60] | [100,120]
    state X1 = [0,30]
    rule X1 = X1 | (C & X2) \\ ~X2
    option max_rounds = 40

Rule expressions use ``|`` union, ``&`` intersection, ``~`` complement,
``\\`` difference, ``^`` symmetric difference, with ``~`` binding tightest,
then ``&``, then ``\\``/``^``, then ``|``; every binary operator groups to
the left.  The parser reads these from one table,
:data:`~setcons.expr.BINARY_OPS`.  ``X`` denotes the universe and
``empty`` the empty set.  Numbers are decimal rationals written with the
ASCII digits ``0``-``9`` (``7``, ``3.5``, ``1/3``); ``inf``/``-inf`` mark
unbounded endpoints.  ``\\r``, ``\\f`` and ``\\v`` are blanks like
space and tab.  Parentheses nest at most :data:`MAX_NESTING` levels deep;
``~`` may repeat any number of times.
:func:`parse_set_literal` reads one set literal with this same grammar.

The only option is ``max_rounds``, the simulator's round budget: a
positive integer, given at most once (the ``simulate --rounds`` flag
overrides it).  Resource caps are set through the ``SETCONS_CAPS``
environment variable, not in the file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .expr import BINARY_OPS, Complement, ConstRef, EmptyLit, SetExpr, SetMap, UniverseLit, Var
from .intervals import Interval, IntervalSet, Universe, as_value

KEYWORDS = {"universe", "const", "state", "rule", "option", "empty", "X", "inf"}
OPTION_KEYS = {"max_rounds"}
# Parenthesis depth allowed in one rule; the parser descends a few Python
# frames per level, so a fixed bound keeps it far from the recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    line: int      # 1-based
    column: int    # 1-based, points inside the offending token
    message: str
    hint: str | None = None

    def render(self) -> str:
        text = f"{self.line}:{self.column}: {self.severity}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


class DslError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


@dataclass(frozen=True)
class SystemSpec:
    """Parsed system description; structurally comparable."""

    universe: Universe
    constants: tuple[tuple[str, IntervalSet], ...]
    variables: tuple[str, ...]
    initials: tuple[IntervalSet, ...]
    rules: tuple[SetExpr, ...]
    options: tuple[tuple[str, int], ...] = ()

    @property
    def options_map(self) -> dict[str, int]:
        return dict(self.options)

    def set_map(self) -> SetMap:
        return SetMap(self.rules, self.universe, self.constants)


class _Token(NamedTuple):
    kind: str  # IDENT NUMBER PUNCT NEWLINE EOF
    text: str
    offset: int  # of the token's first character in the text


# One match per token.  Blanks and comments before a token are part of its
# match and skipped; ``bad`` is the first character that starts no token.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\f\v]+|#[^\n]*)*"
    r"(?:(?P<NEWLINE>\n)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[\[\]\(\),=|&^~\\\-])"
    r"|(?P<EOF>\Z)"
    r"|(?P<bad>.))"
)


def _diagnostic(text: str, offset: int, message: str, hint: str | None) -> Diagnostic:
    """An error at ``offset``, with its 1-based line and column in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return Diagnostic("error", text.count("\n", 0, line_start) + 1, offset - line_start + 1, message, hint)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise DslError([_diagnostic(text, m.start(kind), f"unexpected character {m[kind]!r}", None)])
        tokens.append(_Token(kind, m[kind], m.start(kind)))
        if kind == "EOF":  # the input may end in blanks: the next match would be another EOF
            break
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current expression
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def diagnostic(self, tok: _Token, message: str, hint: str | None) -> Diagnostic:
        return _diagnostic(self.text, tok.offset, message, hint)

    def fail(self, tok: _Token, message: str, hint: str | None = None):
        raise DslError(self.diagnostics + [self.diagnostic(tok, message, hint)])

    def note(self, tok: _Token, message: str, hint: str | None = None):
        self.diagnostics.append(self.diagnostic(tok, message, hint))

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if not self.at_punct(text):
            self.fail(tok, f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            self.fail(tok, f"unexpected {tok.text!r} after statement", "one declaration per line")

    # -- literal values ------------------------------------------------------

    def read_number(self, tok: _Token, read):
        """``read(tok.text)``, or a diagnostic at the number token when the
        conversion fails."""
        try:
            return read(tok.text)
        except (ValueError, ZeroDivisionError):
            self.fail(tok, f"cannot read the number {tok.text[:20]}",
                      "a zero denominator, a '.' before '/', or too many digits")

    def parse_endpoint_value(self):
        tok = self.peek()
        negative = False
        if self.at_punct("-"):
            self.advance()
            negative = True
            tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            value = self.read_number(tok, as_value)
            return -value if negative else value
        if tok.kind == "IDENT" and tok.text == "inf":
            self.advance()
            return as_value("-inf" if negative else "inf")
        self.fail(tok, f"expected a number or 'inf', found {tok.text!r}")

    def parse_interval(self) -> Interval:
        opener = self.peek()
        if not (self.at_punct("[") or self.at_punct("(")):
            self.fail(opener, "expected an interval" + (f", found {opener.text!r}" if opener.text else ""))
        self.advance()
        lo = self.parse_endpoint_value()
        self.expect_punct(",")
        hi = self.parse_endpoint_value()
        closer = self.peek()
        if not (self.at_punct("]") or self.at_punct(")")):
            self.fail(closer, f"expected ']' or ')', found {closer.text!r}")
        self.advance()
        lo_closed = opener.text == "["
        hi_closed = closer.text == "]"
        if lo_closed and isinstance(lo, float):
            self.fail(opener, "an infinite endpoint cannot be closed", "use '(' before -inf/inf")
        if hi_closed and isinstance(hi, float):
            self.fail(closer, "an infinite endpoint cannot be closed", "use ')' after -inf/inf")
        try:
            return Interval.make(lo, hi, lo_closed, hi_closed)
        except ValueError:
            self.fail(opener, f"empty interval: lower endpoint does not precede upper")

    def parse_interval_set(self, universe: Universe | None) -> IntervalSet:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "empty":
            self.advance()
            return IntervalSet.empty()
        if tok.kind == "IDENT" and tok.text == "X":
            if universe is None:
                self.fail(tok, "the universe literal X cannot be used here")
            self.advance()
            return universe.carrier
        spans = [self.parse_interval()]
        while self.at_punct("|"):
            self.advance()
            spans.append(self.parse_interval())
        return IntervalSet.from_intervals(spans)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, names: dict[str, SetExpr], lowest: int) -> SetExpr:
        """An expression whose binary operators all have precedence
        ``lowest`` or higher, grouped to the left (precedence climbing over
        :data:`~setcons.expr.BINARY_OPS`)."""
        left = self.parse_atom(names)
        while True:
            op = BINARY_OPS.get(self.peek().text)
            if op is None or op[1] < lowest:
                return left
            self.advance()
            left = op[0](left, self.parse_expr(names, op[1] + 1))

    def parse_atom(self, names) -> SetExpr:
        """An identifier or a parenthesised expression, under any number of ``~``."""
        complements = 0
        while self.at_punct("~"):
            self.advance()
            complements += 1
        tok = self.peek()
        if self.at_punct("("):
            if self.depth == MAX_NESTING:
                self.fail(tok, f"parentheses nested deeper than {MAX_NESTING} levels")
            self.advance()
            self.depth += 1
            atom = self.parse_expr(names, 0)
            self.depth -= 1
            self.expect_punct(")")
        elif tok.kind == "IDENT":
            self.advance()
            atom = names.get(tok.text)
            if atom is None:
                self.fail(tok, f"undefined identifier {tok.text}", "declare it with 'state' or 'const'")
        else:
            self.fail(tok, f"expected an expression, found {tok.text!r}" if tok.text else "unexpected end of input")
        for _ in range(complements):
            atom = Complement(atom)
        return atom

    # -- declarations ----------------------------------------------------------

    def parse_system(self) -> SystemSpec:
        self.skip_newlines()
        tok = self.peek()
        if not (tok.kind == "IDENT" and tok.text == "universe"):
            self.fail(tok, "a system must start with a universe declaration", "universe [a,b] | ...")
        self.advance()
        universe_set = self.parse_interval_set(None)
        if universe_set.is_empty():
            self.fail(tok, "the universe must be nonempty")
        universe = Universe(universe_set)
        self.end_statement()

        constants: list[tuple[str, IntervalSet]] = []
        variables: list[str] = []
        initials: list[IntervalSet] = []
        decl_tokens: dict[str, _Token] = {}
        rules: dict[str, SetExpr] = {}
        options: list[tuple[str, int]] = []
        names: dict[str, SetExpr] = {}  # what each identifier in a rule means, set at the first rule

        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "IDENT":
                self.fail(tok, f"expected a declaration keyword, found {tok.text!r}")
            keyword = tok.text
            if keyword in ("const", "state"):
                if names:
                    self.fail(tok, f"'{keyword}' declarations must precede the rules")
                self.advance()
                name_tok = self.peek()
                if name_tok.kind != "IDENT" or name_tok.text in KEYWORDS:
                    self.fail(name_tok, f"expected a fresh identifier, found {name_tok.text!r}")
                if name_tok.text in decl_tokens:
                    self.fail(name_tok, f"duplicate declaration of {name_tok.text}")
                self.advance()
                self.expect_punct("=")
                value = self.parse_interval_set(universe)
                if not universe.contains_set(value):
                    self.note(
                        name_tok,
                        f"the set for {name_tok.text} escapes the universe",
                        f"clip it to {universe}",
                    )
                decl_tokens[name_tok.text] = name_tok
                if keyword == "const":
                    constants.append((name_tok.text, value))
                else:
                    variables.append(name_tok.text)
                    initials.append(value)
                self.end_statement()
            elif keyword == "rule":
                if not names:
                    names = {"X": UniverseLit(), "empty": EmptyLit(), **{c: ConstRef(c) for c, _ in constants}}
                    names.update((v, Var(i)) for i, v in enumerate(variables))
                self.advance()
                name_tok = self.peek()
                if name_tok.kind != "IDENT":
                    self.fail(name_tok, "expected a variable name after 'rule'")
                self.advance()
                self.expect_punct("=")
                expr = self.parse_expr(names, 0)
                if name_tok.text not in variables:
                    self.note(name_tok, f"rule for undeclared variable {name_tok.text}",
                              "declare it with 'state' first")
                elif name_tok.text in rules:
                    self.note(name_tok, f"duplicate rule for {name_tok.text}")
                else:
                    rules[name_tok.text] = expr
                self.end_statement()
            elif keyword == "option":
                self.advance()
                key_tok = self.peek()
                if key_tok.kind != "IDENT" or key_tok.text not in OPTION_KEYS:
                    self.fail(key_tok, f"unknown option {key_tok.text!r}",
                              "known options: " + ", ".join(sorted(OPTION_KEYS)))
                self.advance()
                self.expect_punct("=")
                value_tok = self.advance()
                value = self.read_number(value_tok, int) if value_tok.text.isdigit() else 0
                if value < 1:
                    self.fail(value_tok, "option values must be positive integers")
                if key_tok.text in dict(options):
                    self.note(key_tok, f"duplicate option {key_tok.text}")
                else:
                    options.append((key_tok.text, value))
                self.end_statement()
            elif keyword == "universe":
                self.fail(tok, "duplicate universe declaration")
            else:
                self.fail(tok, f"unknown declaration {keyword!r}",
                          "expected const, state, rule, or option")

        if not variables:
            self.note(self.peek(), "a system needs at least one state variable")
        for v in variables:
            if v not in rules:
                self.note(decl_tokens[v], f"variable {v} has no rule")
        if self.diagnostics:
            raise DslError(self.diagnostics)
        return SystemSpec(
            universe=universe,
            constants=tuple(constants),
            variables=tuple(variables),
            initials=tuple(initials),
            rules=tuple(rules[v] for v in variables),
            options=tuple(options),
        )


def parse(text: str) -> SystemSpec:
    """Parse a system description; raises :class:`DslError` with positioned
    diagnostics on any problem."""
    return _Parser(text).parse_system()


def parse_set_literal(text: str, universe: Universe | None = None) -> IntervalSet:
    """Parse a whole text as one set literal (line breaks count as spaces);
    anything after it is refused with a :class:`DslError`, a ``ValueError``."""
    parser = _Parser(text)
    parser.tokens = [tok for tok in parser.tokens if tok.kind != "NEWLINE"]
    value = parser.parse_interval_set(universe)
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(tok, f"unexpected {tok.text!r} after the set literal")
    return value


def _jsonify(obj):
    if hasattr(obj, "to_json_dict"):
        return _jsonify(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, IntervalSet):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def to_json(report) -> str:
    """Stable JSON rendering for analysis and trajectory reports."""
    return json.dumps(_jsonify(report), indent=2)
