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

The text is tokenized and compiled once, to a postfix program.  One loop
over the program bounds the expansion's cost and each power's degree, so
a syntax error, a cost past MAX_COST or a degree past MAX_EXPONENT is
refused before any expansion; one more loop, which refuses nothing,
evaluates it over coefficient lists, exactly for parse or as residues
modulo m for _parse_residues.
"""

from __future__ import annotations

from math import log2

from .polynomial import Polynomial, _mul_coeffs, _pow_coeffs, _reduce_coeffs

#: Largest accepted exponent literal, and largest expanded power degree.
MAX_EXPONENT = 10_000

#: Largest accepted estimate of the expansion's products of 30-bit digits (not
#: its sums), calibrated on term-by-term products at 0.8-1.5 ns each on CPython
#: 3.11: (X+1)^1000*(X+2)^1000 at 2.1e9 took 1.7-3.2 s so, and (X^2+1)^5000 at
#: 1.5e11 took 268 s before this bound.  Packed products run below it: the
#: former now parses in 0.5-1.1 s.
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
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
        elif ch.isdecimal():  # exactly the digits int() accepts
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal exceeds the limit of {MAX_DIGITS} digits", i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch.isspace():
            i += 1
        elif ch == "−":  # unicode minus
            tokens.append(("op", "-", i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _compile(text: str, variable: str) -> list[tuple[str, object, int]]:
    """The postfix program of text, or the ParseError of its first syntax error.

    Instructions are (op, arg, position): ("int", n, _) and ("x", None, _)
    push a value; "+", "-" and "*" combine the top two; "neg" negates the
    top; ("^", exponent, position of "^") raises it.  One descent writes
    them: sums, products, runs of unary minus and "^" chains are loops, so
    only parentheses recurse, at most MAX_NESTING deep."""
    tokens = _tokenize(text)
    variable = variable.lower()
    program: list[tuple[str, object, int]] = []
    emit = program.append
    pos = 0

    def expr(nesting: int) -> None:
        nonlocal pos
        term(nesting)
        while True:
            kind, op, at = tokens[pos]
            if kind != "op" or op not in ("+", "-"):
                return
            pos += 1
            term(nesting)
            emit((op, None, at))

    def term(nesting: int) -> None:
        nonlocal pos
        factor(nesting)
        while True:
            kind, op, at = tokens[pos]
            if kind == "op" and op == "*":
                pos += 1
            elif not (kind in ("int", "name") or (kind == "op" and op == "(")):
                return
            # "*", or adjacency: "3X", "(X+1)(X+2)", "2(X-1)"
            factor(nesting)
            emit(("*", None, at))

    def factor(nesting: int) -> None:  # "-"* atom ("^" exponent)*
        nonlocal pos
        signs, sign_at = 0, tokens[pos][2]
        while tokens[pos][:2] == ("op", "-"):
            pos += 1
            signs += 1
        kind, value, at = tokens[pos]
        pos += 1
        if kind == "int":
            emit(("int", value, at))
        elif kind == "name":
            if value.lower() != variable:
                raise ParseError(f"unknown identifier {value!r}", at)
            emit(("x", None, at))
        elif kind == "op" and value == "(":
            if nesting == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            expr(nesting + 1)
            kind, value, at = tokens[pos]
            pos += 1
            if kind != "op" or value != ")":
                raise ParseError("unbalanced parenthesis", at)
        elif kind == "end":
            raise ParseError("unexpected end of input", at)
        else:
            raise ParseError(f"unexpected token {value!r}", at)
        while tokens[pos][:2] == ("op", "^"):
            at = tokens[pos][2]
            negative = tokens[pos + 1][:2] == ("op", "-")
            pos += 2 + negative
            kind, value, where = tokens[pos - 1]
            if kind != "int":
                raise ParseError("exponent must be an integer literal", where)
            if negative:
                raise ParseError("negative exponent not allowed", where)
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds bound {MAX_EXPONENT}", where)
            emit(("^", value, at))
        if signs % 2:
            emit(("neg", None, sign_at))

    expr(0)
    # expr returns only at ")" or the end: every other token goes on a sum or a term
    kind, _, at = tokens[pos]
    if kind != "end":
        raise ParseError("unbalanced parenthesis", at)
    return program


def _check_cost(program: list[tuple[str, object, int]]) -> None:
    """Refuse a program whose expansion is estimated past MAX_COST products of
    30-bit digits, else one with a power whose degree bound times its exponent
    passes MAX_EXPONENT, at the first such "^" (so (X^5001-X^5001+3*X)^2 is
    refused though its terms cancel); _evaluate refuses nothing.  A value is
    bounded by its degree d and log2 l of its absolute coefficient sum, which
    is submultiplicative; a product costs (d1 + 1) * (d2 + 1) * (l1 // 30 + 1)
    * (l2 // 30 + 1), and a power those of square-and-multiply, replayed below
    as a cost model only: refusals stay put, although no code multiplies in
    that order (polynomial._pow_coeffs packs, or squares halves)."""
    stack: list[tuple[int, float]] = []
    spent = 0.0
    past_degree_at = None
    for op, arg, at in program:
        if op == "int":
            stack.append((0, log2(abs(arg) or 1)))
        elif op == "x":
            stack.append((1, 0.0))
        elif op == "*":
            d2, l2 = stack.pop()
            d1, l1 = stack[-1]
            spent += (d1 + 1) * (d2 + 1) * (l1 // 30 + 1) * (l2 // 30 + 1)
            stack[-1] = (d1 + d2, l1 + l2)
            if spent > MAX_COST:
                break
        elif op == "^":
            d, l = stack[-1]
            if past_degree_at is None and d * arg > MAX_EXPONENT:
                past_degree_at = at
            pd, pl = 0, 0.0
            for i in range(arg.bit_length()):
                if i:
                    spent += (d + 1) * (d + 1) * (l // 30 + 1) * (l // 30 + 1)
                    d, l = d + d, l + l
                if arg >> i & 1:
                    spent += (pd + 1) * (d + 1) * (pl // 30 + 1) * (l // 30 + 1)
                    pd, pl = pd + d, pl + l
            stack[-1] = (pd, pl)
            if spent > MAX_COST:
                break
        elif op != "neg":  # + or -: the coefficient sums add
            d2, l2 = stack.pop()
            d1, l1 = stack[-1]
            log = l1 + log2(1 + 2.0 ** (l2 - l1)) if l1 >= l2 else l2 + log2(1 + 2.0 ** (l1 - l2))
            stack[-1] = (max(d1, d2), log)
    if spent > MAX_COST:
        raise ParseError(f"estimated expansion cost exceeds bound {MAX_COST}", 0)
    if past_degree_at is not None:
        raise ParseError(f"expanded power degree exceeds bound {MAX_EXPONENT}", past_degree_at)


def _evaluate(program: list[tuple[str, object, int]], m: int = 0) -> list[int]:
    """The coefficients of the program's value, lowest first with no trailing
    zero: exact, or with m >= 2 its residues in [-(m//2), m - m//2), reduced
    after every step so that packed products stay narrow."""
    stack: list[list[int]] = []
    for op, arg, _ in program:
        if op == "int":
            value = [arg]
        elif op == "x":
            value = [0, 1]
        elif op == "*":
            value = _mul_coeffs(stack.pop(), stack.pop(), m)
        elif op == "^":
            value = _pow_coeffs(stack.pop(), arg, m)
        elif op == "neg":
            value = [-c for c in stack.pop()]
        else:
            b, a = stack.pop(), stack.pop()
            if op == "-":
                b = [-c for c in b]
            if len(a) < len(b):
                a, b = b, a
            value = [x + y for x, y in zip(a, b)] + a[len(b):]
        stack.append(_reduce_coeffs(value, m))
    return stack[0]


def parse(text: str, variable: str = "X") -> Polynomial:
    """Parse an expression like ``(X^2+3)*(X^2+3*X+9)`` into a Polynomial."""
    program = _compile(text, variable)
    _check_cost(program)
    return Polynomial._of(_evaluate(program))


def _parse_residues(text: str, m: int) -> Polynomial:
    """P = parse(text) modulo m >= 2, as residues of absolute value at most
    m/2 (so a P with smaller coefficients comes back as it is), refused where
    and as parse refuses the text.  The program runs exactly only when P = 0
    modulo m and 2**61 - 1: P = 0 returns for the caller to refuse, and any
    other P = 0 mod m as the constant m."""
    program = _compile(text, "X")
    _check_cost(program)
    residues = _evaluate(program, m)
    if not residues and (_evaluate(program, 2**61 - 1) or _evaluate(program)):
        residues = [m]
    return Polynomial._of(residues)
