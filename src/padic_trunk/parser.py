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
_parse_residues, for answers modulo m, walks the second time over residue
lists modulo m instead.
"""

from __future__ import annotations

import struct
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


class _Residues:
    """A polynomial modulo m >= 2: its ascending residues in [-(m//2), m - m//2),
    trailing zeros stripped.  A product is one int product of the two lists
    packed one slot per coefficient (Kronecker substitution): each slot takes
    whole bytes, enough for the largest sum of products, and holds its
    coefficient plus half its range, so that signed coefficients pack and
    unpack at C speed."""

    __slots__ = ("cs", "m")

    def __init__(self, cs: list[int], m: int, offset: int = 0):
        """The residues of the c - offset for c in cs."""
        h = m // 2
        shift = h - offset
        cs = [(c + shift) % m - h for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.cs, self.m = cs, m

    def __add__(self, other: _Residues) -> _Residues:
        a, b = self.cs, other.cs
        if len(a) < len(b):
            a, b = b, a
        return _Residues([x + y for x, y in zip(a, b)] + a[len(b):], self.m)

    def __neg__(self) -> _Residues:
        return _Residues([-c for c in self.cs], self.m)

    def __sub__(self, other: _Residues) -> _Residues:
        return self + -other

    def __mul__(self, other: _Residues) -> _Residues:
        a, b = self.cs, other.cs
        if not a or not b:
            return _Residues([], self.m)
        # a slot of the product sums min(len) products: under half its range
        bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                + min(len(a), len(b)).bit_length() + 1)
        width = next((w for w in _FORMATS if 8 * w >= bits), (bits + 7) // 8)
        n = len(a) + len(b) - 1
        product = ((_biased(a, width) - _bias(len(a), width))
                   * (_biased(b, width) - _bias(len(b), width)) + _bias(n, width))
        return _Residues(_slots(product, n, width), self.m, 1 << 8 * width - 1)


#: struct formats of the slot widths, in bytes, that struct packs and unpacks
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _bias(n: int, width: int) -> int:
    """The int with half the range, 2**(8*width - 1), in each of its n slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _biased(cs: list[int], width: int) -> int:
    """The int whose slots of width bytes hold the cs, each plus half the range."""
    half = 1 << 8 * width - 1
    if width in _FORMATS:
        data = struct.pack(f"<{len(cs)}{_FORMATS[width]}", *[c + half for c in cs])
    else:
        data = b"".join([(c + half).to_bytes(width, "little") for c in cs])
    return int.from_bytes(data, "little")


def _slots(x: int, n: int, width: int) -> list[int] | tuple[int, ...]:
    """The n slots of width bytes of x >= 0, lowest first."""
    data = x.to_bytes(n * width, "little")
    if width in _FORMATS:
        return struct.unpack(f"<{n}{_FORMATS[width]}", data)
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width)]


def _polynomial_power(base: Polynomial, exp: int, at: int) -> Polynomial:
    if not base.is_zero and base.degree * exp > MAX_EXPONENT:
        raise ParseError(f"expanded power degree exceeds bound {MAX_EXPONENT}", at)
    return base ** exp


def _evaluate_at(text: str, x: int) -> int:
    """Evaluate the text at an integer without expanding it (for cross-checks)."""
    return _Parser(text, "X").walk(lambda n: n, x, lambda value, exp, at: value ** exp)


def _checked(text: str, variable: str) -> tuple[_Parser, bool]:
    """The parser of text once a walk over cost estimates has checked the whole
    text, so that a syntax error or a cost past MAX_COST beats any expansion;
    and whether some power's degree bound times its exponent passes
    MAX_EXPONENT, the only case where the walk over Polynomial values may
    still refuse the text."""
    parser = _Parser(text, variable)
    spent, wide = [0.0], [False]

    def power(value: _Cost, exp: int, at: int) -> _Cost:
        # past MAX_COST the text is refused, and skipping the powers keeps the walk linear
        if spent[0] > MAX_COST:
            return value
        wide[0] = wide[0] or value.degree * exp > MAX_EXPONENT
        return _power(value, exp, _Cost(0, 0.0, spent))

    parser.walk(lambda n: _Cost(0, log2(abs(n) or 1), spent), _Cost(1, 0.0, spent), power)
    if spent[0] > MAX_COST:
        raise ParseError(f"estimated expansion cost exceeds bound {MAX_COST}", 0)
    return parser, wide[0]


def _exact(parser: _Parser) -> Polynomial:
    return parser.walk(lambda n: Polynomial((n,)), Polynomial((0, 1)), _polynomial_power)


def parse(text: str, variable: str = "X") -> Polynomial:
    """Parse an expression like ``(X^2+3)*(X^2+3*X+9)`` into a Polynomial."""
    return _exact(_checked(text, variable)[0])


def _parse_residues(text: str, m: int) -> Polynomial:
    """A polynomial congruent to parse(text) modulo m >= 2, refused where and
    as parse refuses the text.

    After parse's tokens and cost walk, one walk over _Residues computes P
    mod m, returned as residues of absolute value at most m/2, so a P whose
    coefficients are smaller comes back as it is.  The walk over Polynomial
    values runs instead in two cases: when a power's degree bound times its
    exponent passes MAX_EXPONENT, where parse may refuse the text (it does,
    or returns the exact P); and when P = 0 mod m, to return P = 0 for the
    caller to refuse as before, or else the constant m standing for P.
    """
    parser, wide = _checked(text, "X")
    if not wide:
        one = _Residues([1], m)
        value = parser.walk(lambda n: _Residues([n], m), _Residues([0, 1], m),
                            lambda base, exp, at: _power(base, exp, one))
        if value.cs:
            return Polynomial._of(value.cs)
    exact = _exact(parser)
    return exact if wide or exact.is_zero else Polynomial((m,))
