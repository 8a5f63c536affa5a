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
"-3X" is (-3)*X.  Parentheses nest at most MAX_NESTING deep, and integer
literals have at most MAX_DIGITS digits on every Python.
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


# AST nodes are tagged tuples:
#   ("int", value)  ("var",)  ("neg", a)  ("add", a, b)  ("sub", a, b)
#   ("mul", a, b)   ("pow", a, exponent, position)


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
    def __init__(self, text: str, variable: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variable = variable.lower()
        self.nesting = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        # expr returns only at ")" or the end: every other token goes on a sum or a term
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("unbalanced parenthesis", at)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                rhs = self.term()
                node = ("add" if value == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = ("mul", node, self.factor())
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                # implicit multiplication: "3X", "(X+1)(X+2)", "2(X-1)"
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        node = self.power()
        for _ in range(signs):
            node = ("neg", node)
        return node

    def power(self):
        node = self.atom()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = ("pow", node, self.exponent(), at)
            else:
                return node

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
            return ("int", value)
        if kind == "name":
            if value.lower() != self.variable:
                raise ParseError(f"unknown identifier {value!r}", at)
            return ("var",)
        if kind == "op" and value == "(":
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            node = self.expr()
            self.nesting -= 1
            kind, value, at = self.advance()
            if kind != "op" or value != ")":
                raise ParseError("unbalanced parenthesis", at)
            return node
        raise ParseError(f"unexpected token {value!r}", at)


def parse_ast(text: str, variable: str = "X"):
    """Parse an expression into its AST without expanding it."""
    return _Parser(text, variable).parse()


# Binary and unary nodes keep their left (or only) operand at index 1.  The
# fold walks that spine in a loop, so long chains such as a sum of many
# terms recurse only into right operands, whose depth MAX_NESTING bounds.
_SPINE = ("add", "sub", "mul", "pow", "neg")


def _fold(node, leaf, power):
    """Evaluate an AST: leaf(node) gives the value of an "int" or "var" node,
    power(value, node) applies a "pow" node, and the values' own + - * do
    the rest."""
    spine = []
    while node[0] in _SPINE:
        spine.append(node)
        node = node[1]
    if node[0] not in ("int", "var"):
        raise ValueError(f"unknown AST node {node[0]!r}")
    value = leaf(node)
    for op in reversed(spine):
        tag = op[0]
        if tag == "neg":
            value = -value
        elif tag == "pow":
            value = power(value, op)
        elif tag == "add":
            value = value + _fold(op[2], leaf, power)
        elif tag == "sub":
            value = value - _fold(op[2], leaf, power)
        else:
            value = value * _fold(op[2], leaf, power)
    return value


def _polynomial_power(base: Polynomial, node) -> Polynomial:
    exp = node[2]
    if not base.is_zero and base.degree * exp > MAX_EXPONENT:
        raise ParseError(f"expanded power degree exceeds bound {MAX_EXPONENT}", node[3])
    return base ** exp


def ast_to_polynomial(node) -> Polynomial:
    """Expand an AST into a canonical Polynomial by exact arithmetic."""
    return _fold(node, lambda n: Polynomial((n[1],) if n[0] == "int" else (0, 1)),
                 _polynomial_power)


def ast_evaluate(node, x: int) -> int:
    """Evaluate the unexpanded AST at an integer (for cross-checks)."""
    return _fold(node, lambda n: n[1] if n[0] == "int" else x, lambda v, n: v ** n[2])


def parse(text: str, variable: str = "X") -> Polynomial:
    """Parse an expression like ``(X^2+3)*(X^2+3*X+9)`` into a Polynomial."""
    return ast_to_polynomial(parse_ast(text, variable))
