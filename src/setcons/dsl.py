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

A token is its text alone (``"\n"`` a line break, ``""`` the end of the
text), read by one regex pass over the whole text; the parser compares
strings.  Token offsets, and from them lines and columns, are found only
when a diagnostic is raised.

The only option is ``max_rounds``, the simulator's round budget: a
positive integer, given at most once (the ``simulate --rounds`` flag
overrides it).  Resource caps are set through the ``SETCONS_CAPS``
environment variable, not in the file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple

from .expr import BINARY_OPS, Complement, EmptyLit, SetExpr, SetMap, UniverseLit, Var
from .intervals import Interval, IntervalSet, Universe, as_value

KEYWORDS = {"universe", "const", "state", "rule", "option", "empty", "X", "inf"}
OPTION_KEYS = {"max_rounds"}
# Parenthesis depth allowed in one rule; the parser descends a few Python
# frames per level, so a fixed bound keeps it far from the recursion limit.
MAX_NESTING = 100


class Diagnostic(NamedTuple):
    """An error in a system text, rendered ``line:column: error: message``."""

    line: int    # 1-based
    column: int  # 1-based, points inside the offending token
    message: str
    hint: str | None = None

    def render(self) -> str:
        text = f"{self.line}:{self.column}: error: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


class DslError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class SystemSpec(NamedTuple):
    """Parsed system description; structurally comparable.

    In ``rules`` constant j is the variable ``len(variables) + j``: the
    constants follow the states, in declaration order.
    """

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
        """The rules, then an identity rule for each constant, frozen at the
        constant's value."""
        n = len(self.variables)
        identities = tuple(Var(n + j) for j in range(len(self.constants)))
        return SetMap(self.rules + identities, self.universe, tuple(value for _, value in self.constants))


# One match per token, whose one group is the token's text.  Blanks and
# comments before a token are part of its match and skipped.  ``"\n"`` is a
# line break and ``""`` the end of the text; a number starts with a digit, a
# name with a letter or ``_``, and any other one-character token is a mark,
# or a character that starts no token, which ``_tokenize`` refuses.
_TOKEN_RE = re.compile(
    r"[ \t\r\f\v]*(?:#[^\n]*)?"
    r"([\[\]\(\),=|&^~\\\-\n]|[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|\Z|.)"
)
# The one-character tokens of the grammar: a mark, a line break, a digit, a name.
_ONE_CHARACTER_TOKENS = frozenset(
    "[](),=|&^~\\-\n_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _diagnostic(text: str, offset: int, message: str, hint: str | None) -> Diagnostic:
    """An error at ``offset``, with its 1-based line and column in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return Diagnostic(text.count("\n", 0, line_start) + 1, offset - line_start + 1, message, hint)


def _found(tok: str) -> str:
    """The ", found X" end of a diagnostic about token ``tok``; nothing at
    the end of the text."""
    return f", found {tok!r}" if tok else ""


def _offsets(text: str, newlines: bool = True) -> list[int]:
    """The offset of each token of ``_tokenize(text)``, or of each but the
    line breaks; found only for a diagnostic."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text) if newlines or m[1] != "\n"]


def _tokenize(text: str) -> list[str]:
    """The text of every token.  Text that ends in blanks or a comment ends
    in two ``""``; the parser never steps past the first."""
    tokens = _TOKEN_RE.findall(text)
    bad = {tok for tok in set(tokens) if len(tok) == 1} - _ONE_CHARACTER_TOKENS
    if bad:
        first = min(map(tokens.index, bad))
        raise DslError([_diagnostic(text, _offsets(text)[first], f"unexpected character {tokens[first]!r}", None)])
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0  # the index of the next token
        self.depth = 0  # open parentheses around the current expression
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def diagnostic(self, index: int, message: str, hint: str | None) -> Diagnostic:
        """A diagnostic at token ``index``.  Tokens with no line break left
        had them dropped (a set literal's), so their offsets skip them."""
        return _diagnostic(self.text, _offsets(self.text, "\n" in self.tokens)[index], message, hint)

    def fail(self, index: int, message: str, hint: str | None = None):
        raise DslError(self.diagnostics + [self.diagnostic(index, message, hint)])

    def note(self, index: int, message: str, hint: str | None = None):
        self.diagnostics.append(self.diagnostic(index, message, hint))

    def expect(self, text: str):
        tok = self.tokens[self.pos]
        if tok != text:
            self.fail(self.pos, f"expected {text!r}" + _found(tok))
        self.pos += 1

    def end_statement(self):
        tok = self.tokens[self.pos]
        if tok == "\n":
            self.pos += 1
        elif tok:
            self.fail(self.pos, f"unexpected {tok!r} after statement", "one declaration per line")

    # -- literal values ------------------------------------------------------

    def read_number(self, index: int, read):
        """``read`` of the number token at ``index``, or a diagnostic there
        when the conversion fails."""
        try:
            return read(self.tokens[index])
        except (ValueError, ZeroDivisionError):
            self.fail(index, f"cannot read the number {self.tokens[index][:20]}",
                      "a zero denominator, a '.' before '/', or too many digits")

    def parse_endpoint_value(self):
        negative = self.tokens[self.pos] == "-"
        self.pos += negative
        index = self.pos
        tok = self.tokens[index]
        if tok[:1].isdigit():
            self.pos += 1
            value = self.read_number(index, int if tok.isdigit() else as_value)
            return -value if negative else value
        if tok == "inf":
            self.pos += 1
            return as_value("-inf" if negative else "inf")
        self.fail(index, "expected a number or 'inf'" + _found(tok))

    def parse_interval(self) -> Interval:
        start = self.pos
        opener = self.tokens[start]
        if opener != "[" and opener != "(":
            self.fail(start, "expected an interval" + _found(opener))
        self.pos += 1
        lo = self.parse_endpoint_value()
        self.expect(",")
        hi = self.parse_endpoint_value()
        end = self.pos
        closer = self.tokens[end]
        if closer != "]" and closer != ")":
            self.fail(end, "expected ']' or ')'" + _found(closer))
        self.pos += 1
        lo_closed = opener == "["
        hi_closed = closer == "]"
        if lo_closed and isinstance(lo, float):
            self.fail(start, "an infinite endpoint cannot be closed", "use '(' before -inf/inf")
        if hi_closed and isinstance(hi, float):
            self.fail(end, "an infinite endpoint cannot be closed", "use ')' after -inf/inf")
        try:  # the values are canonical already, as Interval.make would make them
            return Interval((lo, 0 if lo_closed else 1), (hi, 0 if hi_closed else -1))
        except ValueError:
            self.fail(start, f"empty interval: lower endpoint does not precede upper")

    def parse_interval_set(self, universe: Universe | None) -> IntervalSet:
        tok = self.tokens[self.pos]
        if tok == "empty":
            self.pos += 1
            return IntervalSet.empty()
        if tok == "X":
            if universe is None:
                self.fail(self.pos, "the universe literal X cannot be used here")
            self.pos += 1
            return universe.carrier
        spans = [self.parse_interval()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            spans.append(self.parse_interval())
        return IntervalSet.of(*spans)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, names: dict[str, SetExpr], lowest: int) -> SetExpr:
        """An expression whose binary operators all have precedence
        ``lowest`` or higher, grouped to the left (precedence climbing over
        :data:`~setcons.expr.BINARY_OPS`)."""
        left = self.parse_atom(names)
        while True:
            op = BINARY_OPS.get(self.tokens[self.pos])
            if op is None or op[1] < lowest:
                return left
            self.pos += 1
            left = op[0](left, self.parse_expr(names, op[1] + 1))

    def parse_atom(self, names) -> SetExpr:
        """An identifier or a parenthesised expression, under any number of ``~``."""
        complements = 0
        while self.tokens[self.pos] == "~":
            self.pos += 1
            complements += 1
        index = self.pos
        tok = self.tokens[index]
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.fail(index, f"parentheses nested deeper than {MAX_NESTING} levels")
            self.pos += 1
            self.depth += 1
            atom = self.parse_expr(names, 0)
            self.depth -= 1
            self.expect(")")
        elif tok in names:
            self.pos += 1
            atom = names[tok]
        elif tok.isidentifier():
            self.fail(index, f"undefined identifier {tok}", "declare it with 'state' or 'const'")
        else:
            self.fail(index, "expected an expression" + _found(tok) if tok else "unexpected end of input")
        for _ in range(complements):
            atom = Complement(atom)
        return atom

    # -- declarations ----------------------------------------------------------

    def parse_system(self) -> SystemSpec:
        tokens = self.tokens
        while tokens[self.pos] == "\n":
            self.pos += 1
        start = self.pos
        if tokens[start] != "universe":
            self.fail(start, "a system must start with a universe declaration", "universe [a,b] | ...")
        self.pos += 1
        universe_set = self.parse_interval_set(None)
        if universe_set.is_empty():
            self.fail(start, "the universe must be nonempty")
        universe = Universe(universe_set)
        self.end_statement()

        constants: list[tuple[str, IntervalSet]] = []
        variables: list[str] = []
        initials: list[IntervalSet] = []
        declared_at: dict[str, int] = {}  # the token index of each declared name
        rules: dict[str, SetExpr] = {}
        options: list[tuple[str, int]] = []
        names: dict[str, SetExpr] = {}  # what each identifier in a rule means, set at the first rule

        while True:
            while tokens[self.pos] == "\n":
                self.pos += 1
            start = self.pos
            keyword = tokens[start]
            if not keyword:
                break
            if not keyword.isidentifier():
                self.fail(start, "expected a declaration keyword" + _found(keyword))
            name_at = start + 1
            name = tokens[name_at]
            if keyword in ("const", "state"):
                if names:
                    self.fail(start, f"'{keyword}' declarations must precede the rules")
                if not name.isidentifier() or name in KEYWORDS:
                    self.fail(name_at, "expected a fresh identifier" + _found(name))
                if name in declared_at:
                    self.fail(name_at, f"duplicate declaration of {name}")
                self.pos += 2
                self.expect("=")
                value = self.parse_interval_set(universe)
                if not universe.contains_set(value):
                    self.note(name_at, f"the set for {name} escapes the universe", f"clip it to {universe}")
                declared_at[name] = name_at
                if keyword == "const":
                    constants.append((name, value))
                else:
                    variables.append(name)
                    initials.append(value)
                self.end_statement()
            elif keyword == "rule":
                if not names:
                    # Each constant is a variable after every state, in declaration order.
                    names = {"X": UniverseLit(), "empty": EmptyLit()}
                    names.update((v, Var(i)) for i, v in enumerate(variables + [c for c, _ in constants]))
                if not name.isidentifier():
                    self.fail(name_at, "expected a variable name after 'rule'")
                self.pos += 2
                self.expect("=")
                expr = self.parse_expr(names, 0)
                if name not in variables:
                    self.note(name_at, f"rule for undeclared variable {name}", "declare it with 'state' first")
                elif name in rules:
                    self.note(name_at, f"duplicate rule for {name}")
                else:
                    rules[name] = expr
                self.end_statement()
            elif keyword == "option":
                if name not in OPTION_KEYS:
                    self.fail(name_at, f"unknown option {name!r}" if name else "expected an option name",
                              "known options: " + ", ".join(sorted(OPTION_KEYS)))
                self.pos += 2
                self.expect("=")
                value_at = self.pos
                value = self.read_number(value_at, int) if tokens[value_at].isdigit() else 0
                if value < 1:
                    self.fail(value_at, "option values must be positive integers")
                self.pos += 1
                if name in dict(options):
                    self.note(name_at, f"duplicate option {name}")
                else:
                    options.append((name, value))
                self.end_statement()
            elif keyword == "universe":
                self.fail(start, "duplicate universe declaration")
            else:
                self.fail(start, f"unknown declaration {keyword!r}", "expected const, state, rule, or option")

        if not variables:
            self.note(self.pos, "a system needs at least one state variable")
        for v in variables:
            if v not in rules:
                self.note(declared_at[v], f"variable {v} has no rule")
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
    parser.tokens = [tok for tok in parser.tokens if tok != "\n"]
    value = parser.parse_interval_set(universe)
    if parser.tokens[parser.pos]:
        parser.fail(parser.pos, f"unexpected {parser.tokens[parser.pos]!r} after the set literal")
    return value


def _jsonify(obj):
    if isinstance(obj, str):  # most leaves: a report prints its sets itself
        return obj
    if hasattr(obj, "to_json_dict"):
        return _jsonify(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (IntervalSet, Fraction)):  # a set is a tuple too, but prints as a set
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def to_json(report) -> str:
    """Stable JSON rendering for analysis and trajectory reports."""
    return json.dumps(_jsonify(report), indent=2)
