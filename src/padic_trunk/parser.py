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

The text is tokenized and compiled once, to a postfix program.  The
descent that writes it bounds each value it writes by its degree and the
log2 of its absolute coefficient sum, and charges each product and power
its schoolbook cost in 30-bit digit products, up to MAX_COST and no
further.  So a syntax error, then a cost past MAX_COST, then a power's
degree bound past MAX_EXPONENT is refused before any expansion; then
_evaluate, which refuses nothing, runs the program exactly for parse or
modulo m for _parse_residues: as one int at X = 2**(8 * slot bytes) where
its values pack below PACK_LIMIT bits, else over coefficient lists.
"""

from __future__ import annotations

from itertools import zip_longest
from math import log2

from .polynomial import Polynomial, _mul_coeffs, _pow_coeffs, _reduce_coeffs, _unpack

#: Largest accepted exponent literal, and largest expanded power degree.
MAX_EXPONENT = 10_000

#: Largest accepted estimate of the expansion's products of 30-bit digits (not
#: its sums), calibrated on term-by-term products at 0.8-1.5 ns each on CPython
#: 3.11: (X+1)^1000*(X+2)^1000 at 2.1e9 took 1.7-3.2 s so, and (X^2+1)^5000 at
#: 1.5e11 took 268 s before this bound.  Packed products run below it: the
#: former now parses in 0.5-1.1 s.
MAX_COST = 4 * 10**9

#: Packed bits below which _evaluate runs a program as one int: on CPython 3.11,
#: session's seed-1 texts of degree 50 to 300 parse fastest modulo p^e near it
#: (71 kbit took 1.9 ms packed, 0.23 ms per op), and exactly up to 50 kbit.
PACK_LIMIT = 16_000

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
        if ch in "+-*^()−":
            ch = "-" if ch == "−" else ch  # unicode minus
            tokens.append((ch, ch, i))
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
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Program(list):
    """(op, arg, position) instructions, and bound: the largest (degree,
    log2 of the absolute coefficient sum) bounding any value they write."""


def _compile(text: str, variable: str) -> _Program:
    """The postfix program of text, refused before any expansion.

    Instructions are (op, arg, position): ("int", n, _) and ("x", None, _)
    push a value; "+", "-" and "*" combine the top two; "neg" negates the
    top; ("^", exponent, position of "^") raises it.  One descent writes
    them: sums, products, runs of unary minus and "^" chains are loops, so
    only parentheses recurse, at most MAX_NESTING deep.

    Each step also returns a bound (d, l) of the value it wrote: degree d
    and log2 l of the absolute coefficient sum, which is submultiplicative.
    A product costs (d1 + 1) * (d2 + 1) * (l1 // 30 + 1) * (l2 // 30 + 1),
    and a power those of square-and-multiply, replayed as a cost model only
    (polynomial._pow_coeffs packs, or squares halves).  Each is charged as
    it is written, so in program order, and nothing is once the total
    passes MAX_COST: l may then reach inf, and inf // 30 is nan.  After the
    text, that total is refused at position 0, else the first power whose
    degree bound times its exponent passes MAX_EXPONENT at its "^" (so
    (X^5001-X^5001+3*X)^2 is refused, though its terms cancel).  Only "^0"
    lowers a bound, so the larger of the value's and of any power's base
    is the program's: (10000, 4000) for (X^10000+1)^0*2^4000.
    """
    tokens = _tokenize(text)
    variable = variable.lower()
    program = _Program()
    emit = program.append
    pos = 0
    spent = 0.0
    past_degree_at = None
    base_d, base_l = 0, 0.0

    def expr(nesting: int) -> tuple[int, float]:
        nonlocal pos
        d, l = term(nesting)
        while True:
            op, _, at = tokens[pos]
            if op != "+" and op != "-":
                return d, l
            pos += 1
            d2, l2 = term(nesting)
            emit((op, None, at))
            # the coefficient sums add
            d, l = max(d, d2), max(l, l2) + log2(1 + 2.0 ** -abs(l - l2))

    def term(nesting: int) -> tuple[int, float]:
        nonlocal pos, spent
        d, l = factor(nesting)
        while True:
            kind, _, at = tokens[pos]
            if kind == "*":
                pos += 1
            elif kind != "int" and kind != "name" and kind != "(":
                return d, l
            # "*", or adjacency: "3X", "(X+1)(X+2)", "2(X-1)"
            d2, l2 = factor(nesting)
            emit(("*", None, at))
            if spent <= MAX_COST:
                spent += (d + 1) * (d2 + 1) * (l // 30 + 1) * (l2 // 30 + 1)
            d, l = d + d2, l + l2

    def factor(nesting: int) -> tuple[int, float]:  # "-"* atom ("^" exponent)*
        nonlocal pos, spent, past_degree_at, base_d, base_l
        signs, sign_at = 0, tokens[pos][2]
        while tokens[pos][0] == "-":
            pos += 1
            signs += 1
        kind, value, at = tokens[pos]
        pos += 1
        if kind == "int":
            emit(("int", value, at))
            d, l = 0, log2(value or 1)
        elif kind == "name":
            if value.lower() != variable:
                raise ParseError(f"unknown identifier {value!r}", at)
            emit(("x", None, at))
            d, l = 1, 0.0
        elif kind == "(":
            if nesting == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            d, l = expr(nesting + 1)
            kind, value, at = tokens[pos]
            pos += 1
            if kind != ")":
                raise ParseError("unbalanced parenthesis", at)
        elif kind == "end":
            raise ParseError("unexpected end of input", at)
        else:
            raise ParseError(f"unexpected token {value!r}", at)
        while tokens[pos][0] == "^":
            at = tokens[pos][2]
            negative = tokens[pos + 1][0] == "-"
            pos += 2 + negative
            kind, k, where = tokens[pos - 1]
            if kind != "int":
                raise ParseError("exponent must be an integer literal", where)
            if negative:
                raise ParseError("negative exponent not allowed", where)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds bound {MAX_EXPONENT}", where)
            emit(("^", k, at))
            base_d, base_l = max(base_d, d), max(base_l, l)
            if past_degree_at is None and d * k > MAX_EXPONENT:
                past_degree_at = at
            if spent > MAX_COST:
                d, l = d * k, l * k
                continue
            pd, pl = 0, 0.0
            for i in range(k.bit_length()):
                if i:
                    spent += (d + 1) * (d + 1) * (l // 30 + 1) * (l // 30 + 1)
                    d, l = d + d, l + l
                if k >> i & 1:
                    spent += (pd + 1) * (d + 1) * (pl // 30 + 1) * (l // 30 + 1)
                    pd, pl = pd + d, pl + l
            d, l = pd, pl
        if signs % 2:
            emit(("neg", None, sign_at))
        return d, l

    d, l = expr(0)
    # expr returns only at ")" or the end: every other token goes on a sum or a term
    kind, _, at = tokens[pos]
    if kind != "end":
        raise ParseError("unbalanced parenthesis", at)
    if spent > MAX_COST:
        raise ParseError(f"estimated expansion cost exceeds bound {MAX_COST}", 0)
    if past_degree_at is not None:
        raise ParseError(f"expanded power degree exceeds bound {MAX_EXPONENT}", past_degree_at)
    program.bound = max(base_d, d), max(base_l, l)
    return program


def _evaluate(program: _Program, m: int = 0) -> list[int]:
    """The coefficients of the program's value, lowest first with no trailing
    zero: exact, or with m >= 2 its residues in [-(m//2), m - m//2).  Where
    d + 1 slots of w bytes, the fewest with 8 * w > l + 2 for the bound (d, l),
    take under PACK_LIMIT bits, it runs over ints at X = 2**(8 * w), a ring map
    Z[X] -> Z, and unpacks that int; else over lists reduced at every step."""
    d, l = program.bound
    width = int(l + 2) // 8 + 1
    if (d + 1) * 8 * width < PACK_LIMIT:
        x, ints = 1 << 8 * width, []
        for op, arg, _ in program:
            if op == "int" or op == "x":
                ints.append(arg if op == "int" else x)
            elif op == "^":
                ints[-1] **= arg
            elif op == "neg":
                ints[-1] = -ints[-1]
            else:
                b = ints.pop()
                ints[-1] = ints[-1] * b if op == "*" else ints[-1] + (b if op == "+" else -b)
        return _reduce_coeffs(_unpack(ints[0], d + 1, width), m)
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
            pairs = zip_longest(a, b, fillvalue=0)
            value = [x + y for x, y in pairs] if op == "+" else [x - y for x, y in pairs]
        stack.append(_reduce_coeffs(value, m))
    return stack[0]


def parse(text: str, variable: str = "X") -> Polynomial:
    """Parse an expression like ``(X^2+3)*(X^2+3*X+9)`` into a Polynomial."""
    program = _compile(text, variable)
    return Polynomial._of(_evaluate(program))


def _parse_residues(text: str, m: int) -> Polynomial:
    """P = parse(text) modulo m >= 2, as residues of absolute value at most
    m/2 (so a P with smaller coefficients comes back as it is), refused where
    and as parse refuses the text, from one exact int where it packs (see
    _evaluate).  The program runs exactly only when P = 0 modulo m and
    2**61 - 1: P = 0 returns for the caller to refuse, and any other P = 0
    mod m as the constant m."""
    program = _compile(text, "X")
    residues = _evaluate(program, m)
    if not residues and (_evaluate(program, 2**61 - 1) or _evaluate(program)):
        residues = [m]
    return Polynomial._of(residues)
