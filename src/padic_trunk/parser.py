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
over zeros, which checks the whole text in linear time, so a syntax error
anywhere beats any expansion; then over Polynomial values.
"""

from __future__ import annotations

from .polynomial import Polynomial

#: Largest accepted exponent literal, and largest expanded power degree.
MAX_EXPONENT = 10_000

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
                value = value * self.factor()
            elif kind in ("int", "name") or (kind == "op" and op == "("):
                # implicit multiplication: "3X", "(X+1)(X+2)", "2(X-1)"
                value = value * self.factor()
            else:
                return value

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
        kind, value, at = self.peek()
        negative = False
        if kind == "op" and value == "-":
            negative = True
            self.advance()
            kind, value, at = self.peek()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", at)
        self.advance()
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
    # a walk over zeros checks the whole text before any power is expanded
    parser.walk(lambda n: 0, 0, lambda value, exp, at: 0)
    return parser.walk(lambda n: Polynomial((n,)), Polynomial((0, 1)), _polynomial_power)
