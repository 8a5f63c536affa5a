"""Parse human-written polynomial expressions into Polynomial values.

Grammar (whitespace-insensitive; the variable matches case-insensitively
and U+2212 is accepted as a minus sign)::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" factor) | factor)*      # adjacency multiplies
    factor   := "-" factor | power
    power    := atom ("^" exponent)*
    exponent := ["-"] integer                        # negative is rejected
    atom     := integer | variable | "(" expr ")"

Precedence: ^ binds tighter than unary minus, which binds tighter than
*, which binds tighter than binary + and -.  So "-X^2" is -(X^2) and
"-3X" is (-3)*X, and "^" chains fold left: "X^2^3" is X^6.  Parentheses
nest at most MAX_NESTING deep, and integer literals are decimal digits,
at most MAX_DIGITS of them on every Python.

The text is tokenized once, and one walk over the tokens computes the
value as it reads it, with no tree in between.  parse walks twice: first
over cost estimates, checking the whole text, so a syntax error or a cost
past MAX_COST beats any expansion; then over Polynomial values.
"""

from __future__ import annotations

from math import log2

from .polynomial import Polynomial, _power

#: Largest accepted exponent literal, and largest expanded power degree.
MAX_EXPONENT = 10_000

#: Largest accepted estimate of the expansion's products of 30-bit digits (not
#: its sums).  Each took 0.8-1.5 ns on CPython 3.11: (X+1)^1000*(X+2)^1000 at
#: 2.1e9 takes 1.7-3.2 s, and (X^2+1)^5000 at 1.5e11 took 268 s before this bound.
MAX_COST = 4 * 10**9

#: Deepest accepted nesting of parentheses; bounds the parser's recursion.
MAX_NESTING = 100

#: Longest accepted integer literal, in digits: CPython's default int-to-str limit.
MAX_DIGITS = 4300


class ParseError(ValueError):
    """Syntax error carrying a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":  # unicode minus
            ch = "-"
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() accepts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal exceeds the limit of {MAX_DIGITS} digits", i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """One pass over the tokens that computes the value as it reads it.

    A walk takes const(n) for a literal, var for the variable and
    power(value, exponent, position) for "^"; the values' own + - * do the
    rest.  Sums, products, runs of unary minus and "^" chains fold in loops,
    so only parentheses recurse, at most MAX_NESTING deep."""

    def __init__(self, text: str, variable: str):
        self.tokens = _tokenize(text)
        self.variable = variable.lower()

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def walk(self, const, var, power):
        self.const, self.var, self.power_of = const, var, power
        self.pos = 0
        self.nesting = 0
        value = self.expr()
        # expr returns only at ")" or the end: every other token goes on a sum or a term
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("unbalanced parenthesis", at)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in ("+", "-"):
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op == "*":
                self.advance()
            elif not (kind in ("int", "name") or (kind == "op" and op == "(")):
                return value
            # "*", or adjacency: "3X", "(X+1)(X+2)", "2(X-1)"
            value = value * self.factor()

    def factor(self):
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        value = self.power()
        return -value if signs % 2 else value

    def power(self):
        value = self.atom()
        while True:
            kind, op, at = self.peek()
            if kind == "op" and op == "^":
                self.advance()
                value = self.power_of(value, self.exponent(), at)
            else:
                return value

    def exponent(self) -> int:
        negative = self.peek()[:2] == ("op", "-")
        if negative:
            self.advance()
        kind, value, at = self.advance()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", at)
        if negative:
            raise ParseError("negative exponent not allowed", at)
        if value > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds bound {MAX_EXPONENT}", at)
        return value

    def atom(self):
        kind, value, at = self.advance()
        if kind == "int":
            return self.const(value)
        if kind == "name":
            if value.lower() != self.variable:
                raise ParseError(f"unknown identifier {value!r}", at)
            return self.var
        if kind == "op" and value == "(":
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            inner = self.expr()
            self.nesting -= 1
            kind, value, at = self.advance()
            if kind != "op" or value != ")":
                raise ParseError("unbalanced parenthesis", at)
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected token {value!r}", at)


class _Cost:
    """Bounds on a value's degree and on log2 of its absolute coefficient sum, which
    is submultiplicative; products add their products of 30-bit digits to spent."""

    __slots__ = ("degree", "log", "spent")

    def __init__(self, degree: int, log: float, spent: list[float]):
        self.degree, self.log, self.spent = degree, log, spent

    def __add__(self, other: _Cost) -> _Cost:
        a, b = self.log, other.log
        log = a + log2(1 + 2.0 ** (b - a)) if a >= b else b + log2(1 + 2.0 ** (a - b))
        return _Cost(max(self.degree, other.degree), log, self.spent)

    __sub__ = __add__

    def __neg__(self) -> _Cost:
        return self

    def __mul__(self, other: _Cost) -> _Cost:
        self.spent[0] += ((self.degree + 1) * (other.degree + 1)
                          * (self.log // 30 + 1) * (other.log // 30 + 1))
        return _Cost(self.degree + other.degree, self.log + other.log, self.spent)


def _polynomial_power(base: Polynomial, exp: int, at: int) -> Polynomial:
    if not base.is_zero and base.degree * exp > MAX_EXPONENT:
        raise ParseError(f"expanded power degree exceeds bound {MAX_EXPONENT}", at)
    return base ** exp


def _evaluate_at(text: str, x: int) -> int:
    """Evaluate the text at an integer without expanding it (for cross-checks)."""
    return _Parser(text, "X").walk(lambda n: n, x, lambda value, exp, at: value ** exp)


def parse(text: str, variable: str = "X") -> Polynomial:
    """Parse an expression like ``(X^2+3)*(X^2+3*X+9)`` into a Polynomial."""
    parser = _Parser(text, variable)
    # a walk over cost estimates checks the whole text before any power is expanded;
    # past MAX_COST the text is refused, and skipping the powers keeps the walk linear
    spent = [0.0]
    parser.walk(lambda n: _Cost(0, log2(abs(n) or 1), spent), _Cost(1, 0.0, spent),
                lambda value, exp, at: value if spent[0] > MAX_COST
                else _power(value, exp, _Cost(0, 0.0, spent)))
    if spent[0] > MAX_COST:
        raise ParseError(f"estimated expansion cost exceeds bound {MAX_COST}", 0)
    return parser.walk(lambda n: Polynomial((n,)), Polynomial((0, 1)), _polynomial_power)
