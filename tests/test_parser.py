import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_trunk import ParseError, Polynomial, X, parse, poly_to_str
from padic_trunk import parser, polynomial
from padic_trunk.parser import MAX_COST, MAX_DIGITS, _parse_residues


def _evaluate_at(text, x):
    """The value of text at the integer x, running its compiled program over
    ints, so nothing is expanded (for cross-checks)."""
    stack = []
    for op, arg, _ in parser._compile(text, "X"):
        if op == "int":
            stack.append(arg)
        elif op == "x":
            stack.append(x)
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "^":
            stack.append(stack.pop() ** arg)
        else:
            b, a = stack.pop(), stack.pop()
            stack.append(a + b if op == "+" else a - b if op == "-" else a * b)
    return stack.pop()


def test_product_expansion():
    P = parse("(X^2+3)*(X^2+3*X+9)")
    # independent expansion: (X^2+3)(X^2+3X+9) term by term
    assert P == (X**2 + 3) * (X**2 + 3 * X + 9)
    assert P.coeffs == (27, 9, 12, 3, 1)
    assert P.evaluate(1) == (1 + 3) * (1 + 3 + 9) == 52


def test_basic_forms():
    assert parse("X") == Polynomial([0, 1])
    assert parse("(X-1)^2 + 3^5") == Polynomial([244, -2, 1])
    assert parse("0").is_zero
    assert parse("  12  ") == Polynomial([12])


def test_implicit_multiplication():
    assert parse("3X") == 3 * X
    assert parse("(X+1)(X+2)") == (X + 1) * (X + 2)
    assert parse("2(X-1)") == 2 * X - 2
    assert parse("X(X+1)") == X**2 + X
    assert parse("2 X^2") == 2 * X**2


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse("-X^2") == -(X**2)
    assert parse("-3X") == -3 * X
    assert parse("-2^2") == Polynomial([-4])
    assert parse("--X") == X
    assert parse("2-X") == 2 - X
    assert parse("X^2^3") == X**6
    assert parse("1+2*3") == Polynomial([7])


def test_case_and_unicode_minus():
    assert parse("x^2 - 1") == X**2 - 1
    assert parse("(X−1)^2") == (X - 1) ** 2


def test_literals_are_decimal_digits_of_any_script():
    assert parse("٣X") == 3 * X
    assert parse("X+１") == X + 1


def test_custom_variable():
    assert parse("T^2+1", variable="T") == X**2 + 1
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("X+1", variable="T")


@pytest.mark.parametrize("text,fragment", [
    ("X^-1", "negative exponent"),
    ("X^Y", "integer literal"),
    ("(X+1", "unbalanced parenthesis"),
    ("X+1)", "unbalanced parenthesis"),
    ("X+*2", "unexpected token"),
    ("Y+1", "unknown identifier"),
    ("X^20000", "exceeds bound"),
    ("X$", "unexpected character"),
    ("X^²", "unexpected character"),
    ("", "unexpected end of input"),
    ("X+", "unexpected end of input"),
])
def test_errors_carry_positions(text, fragment):
    with pytest.raises(ParseError, match=fragment) as info:
        parse(text)
    assert info.value.position >= 0
    assert "position" in str(info.value)


#: Each refusal's message and position, as the parser gave them before it
#: compiled texts to a program; the residue parse refuses them alike.
PINNED_ERRORS = [
    pytest.param("(" * 101 + "X", "parentheses nested deeper than 100", 100, id="nesting-101"),
    pytest.param("X-" + "1" * 4301, "integer literal exceeds the limit of 4300 digits", 2,
                 id="4301-digit-literal"),
    ("²X", "unexpected character '²'", 0),
    ("X^ 1.5", "unexpected character '.'", 4),
    (")(", "unexpected token ')'", 0),
    ("2X^", "exponent must be an integer literal", 3),
    ("１２Ｘ", "unknown identifier 'Ｘ'", 2),
    ("X^１.５", "unexpected character '.'", 3),
    ("X^２０００１", "exponent exceeds bound 10000", 2),
    ("٣X+Y", "unknown identifier 'Y'", 3),
    ("X^٢٠٠٠١", "exponent exceeds bound 10000", 2),
    ("٣.٥X", "unexpected character '.'", 1),
    ("X^-1", "negative exponent not allowed", 3),
    ("X^10001", "exponent exceeds bound 10000", 2),
    ("", "unexpected end of input", 0),
    ("X+", "unexpected end of input", 2),
    ("(X+1", "unbalanced parenthesis", 4),
    ("X+1)", "unbalanced parenthesis", 3),
    # MAX_COST: a power, a product of powers, a sum of powers, a power of a
    # constant, a chain the estimate leaves at its first link past the bound,
    # a power whose degree bound 5001 is far above its degree 1, and a chain
    # whose coefficient bound, charged on past the bound, would reach inf and
    # make the cost nan
    ("(X+1)^3000", f"estimated expansion cost exceeds bound {MAX_COST}", 0),
    ("(X+1)^2000 * (X+1)^2000", f"estimated expansion cost exceeds bound {MAX_COST}", 0),
    ("(X^2+1)^5000 - (X^9)^9^9", f"estimated expansion cost exceeds bound {MAX_COST}", 0),
    ("2^9999^9999^9999", f"estimated expansion cost exceeds bound {MAX_COST}", 0),
    pytest.param("X" + "^9999" * 5000, f"estimated expansion cost exceeds bound {MAX_COST}", 0,
                 id="power-chain"),
    ("X^3*(X^5001-X^5001+3*X)^5000", f"estimated expansion cost exceeds bound {MAX_COST}", 0),
    pytest.param("2" + "^10000" * 90, f"estimated expansion cost exceeds bound {MAX_COST}", 0,
                 id="power-chain-past-inf"),
    # the expanded power's degree past MAX_EXPONENT, at its "^"
    ("(X^2)^5001", "expanded power degree exceeds bound 10000", 5),
    ("(X^200)^200", "expanded power degree exceeds bound 10000", 7),
    ("(X^5000*X^2)^2", "expanded power degree exceeds bound 10000", 12),
    # the degree bound 10002, though the terms cancel to degree 2
    ("(X^5001-X^5001+3*X)^2", "expanded power degree exceeds bound 10000", 19),
]


@pytest.mark.parametrize("text,message,position", PINNED_ERRORS)
def test_errors_are_pinned(text, message, position):
    for refuse in (parse, lambda text: _parse_residues(text, 9)):
        with pytest.raises(ParseError) as info:
            refuse(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as info:
        parse("X + Y")
    assert info.value.position == 4


def test_power_expansion_guard():
    with pytest.raises(ParseError, match="degree exceeds"):
        parse("(X^200)^200")


def _refuse_evaluation(program, m=0):
    raise AssertionError("the program was evaluated")


def test_whole_text_is_checked_before_any_power_is_expanded(monkeypatch):
    monkeypatch.setattr(parser, "_evaluate", _refuse_evaluation)
    with pytest.raises(ParseError, match="unbalanced parenthesis") as info:
        parse("(X+1)^10000)")
    assert info.value.position == 11


def test_a_power_past_the_degree_bound_is_refused_before_any_expansion(monkeypatch):
    # the powers before it are within the cost bound, and expanding them takes 0.8 s
    monkeypatch.setattr(parser, "_evaluate", _refuse_evaluation)
    text = "(X+1)^1000*(X+2)^1000*(X^2)^5001"
    for refuse in (parse, lambda text: _parse_residues(text, 9)):
        with pytest.raises(ParseError) as info:
            refuse(text)
        assert str(info.value) == "expanded power degree exceeds bound 10000 (at position 27)"


def test_an_expansion_past_the_cost_bound_is_refused_before_it_starts(monkeypatch):
    monkeypatch.setattr(parser, "_evaluate", _refuse_evaluation)
    # every power is within MAX_EXPONENT, yet expanding (X^2+1)^5000 takes minutes;
    # "^" folds left, so each link of a chain multiplies the degree or the bits by 9999
    chains = [base + "^9999" * 5000 for base in ("X", "2", "(X+1)")]
    for text in ["(X^2+1)^5000 - (X^9)^9^9", "(X+1)^3000", "(X+1)^2000 * (X+1)^2000", *chains]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"estimated expansion cost exceeds bound {MAX_COST}"):
            parse(text)
        assert time.perf_counter() - start < 2


@pytest.mark.parametrize("text", [
    "(X+1)^1000*(X+2)^1000",
    "(X+1)^2000",
    "+".join(f"X^{i}" for i in range(1200)),
    # a sum of n terms has coefficients of about log2(n) bits, not n
    "(" + "+".join(f"X^{i}" for i in range(100)) + ")^40",
    "(X-19)^83*(X-30)^83*(X^2+5*X+23)^28*(X^3-7*X^2-13*X-16)^19",
])
def test_expansions_within_the_cost_bound_go_ahead(text, monkeypatch):
    class Expanded(Exception):
        pass

    def expanded(program, m=0):
        raise Expanded
    monkeypatch.setattr(parser, "_evaluate", expanded)
    with pytest.raises(Expanded):
        parse(text)


def test_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 11))]
        P = Polynomial(coeffs)
        assert parse(poly_to_str(P)) == P


def test_ast_evaluation_agreement():
    rng = random.Random(29)
    expressions = [
        "(X^2+3)*(X^2+3*X+9)",
        "-X^3 + 4(X-2)(X+7) - 11",
        "((X-1)^2 + 3^5)(2X - 5)",
        "7 - -X^4",
        "X(X)(X) - 3X^2",
        "(2X+1)^5 - 32X^5",
    ]
    for text in expressions:
        P = parse(text)
        for _ in range(20):
            x = rng.randint(-100, 100)
            assert _evaluate_at(text, x) == P.evaluate(x)


@pytest.mark.parametrize("text,degree", [
    pytest.param("+".join(f"X^{i}" for i in range(1200)), 1199, id="sum"),
    pytest.param("*".join(["X"] * 1200), 1200, id="product"),
    pytest.param("-" * 1200 + "X", 1, id="unary-minus"),
    pytest.param("X" + "^1" * 1200, 1, id="power-chain"),
    pytest.param("(" * 100 + "X+1" + ")" * 100, 1, id="deepest-nesting"),
])
def test_long_chains_parse_without_recursion(text, degree):
    P = parse(text)
    assert P.degree == degree
    assert _evaluate_at(text, 3) == P.evaluate(3)


def test_deep_nesting_is_a_parse_error():
    text = "(" * 300 + "X" + ")" * 300
    with pytest.raises(ParseError, match="nested deeper than 100") as info:
        parse(text)
    assert info.value.position == 100


def test_literals_of_max_digits_parse():
    assert MAX_DIGITS == 4300
    assert parse("X+" + "9" * MAX_DIGITS) == X + (10**MAX_DIGITS - 1)


@pytest.mark.parametrize("lift", [False, True], ids=["limit-as-is", "limit-lifted"])
def test_longer_literals_are_a_parse_error(lift):
    # the parser's own cap, also where the interpreter converts any int
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = get_limit()
    if lift:
        set_limit(0)
    try:
        with pytest.raises(ParseError, match="limit of 4300 digits") as info:
            parse("X - " + "1" * (MAX_DIGITS + 1))
    finally:
        set_limit(old)
    assert info.value.position == 4


# ----------------------------------------------------------------------
# the residue walk that solve --prime/--exp parses with
# ----------------------------------------------------------------------

def _times(*factors):
    """The product of Polynomials, term by term (1 for none)."""
    out = [1]
    for P in factors:
        cs = [0] * (len(out) + len(P.coeffs) - 1) if P else []
        for i, a in enumerate(out):
            for j, b in enumerate(P.coeffs):
                cs[i + j] += a * b
        out = cs
    return Polynomial(out)


@st.composite
def texts(draw, depth=0):
    """A text of the grammar and its value, built apart from the parser and
    from the packed product it shares with Polynomial.__mul__: Polynomial
    sums and _times's term-by-term products.  Literals up to 40 digits,
    content p**j, runs of unary minus, sums, products by "*", by a space or
    by parentheses, nesting and powers; each power's degree stays far below
    MAX_EXPONENT.

    The value is given as the text's top-level terms, whose sum it is: a
    neighbouring "*" or adjacency multiplies only the term at that edge, and
    a space before a part that starts with a minus makes a binary minus."""
    kind = draw(st.integers(0, 5 if depth < 3 else 1))
    if kind == 0:
        n = draw(st.one_of(st.integers(0, 30), st.integers(0, 10**40)))
        text, terms = str(n), [Polynomial([n])]
    elif kind == 1:
        text = draw(st.sampled_from(["X", "x", "−X"]))
        terms = [-X if text == "−X" else X]
    elif kind == 2:
        inner, inner_terms = draw(texts(depth + 1))
        text, terms = "(" + inner + ")", [sum(inner_terms)]
    elif kind == 3:
        inner, inner_terms = draw(texts(depth + 1))
        exponent = draw(st.integers(0, 4))
        text, terms = "(" + inner + ")^" + str(exponent), [_times(*[sum(inner_terms)] * exponent)]
    elif kind == 4:
        (text, terms), *rest = draw(st.lists(texts(depth + 1), min_size=2, max_size=3))
        for part, part_terms in rest:
            sign = draw(st.sampled_from(["+", " - ", "-"]))
            # a binary minus negates the first term of what follows it
            first = part_terms[0] if sign == "+" else -part_terms[0]
            text, terms = text + sign + part, terms + [first] + part_terms[1:]
        text, terms = "(" + text + ")", [sum(terms)]
    else:
        parts = draw(st.lists(texts(depth + 1), min_size=2, max_size=3))
        joint = draw(st.sampled_from(["*", " ", ")("]))
        text = joint.join(part for part, _ in parts)
        terms = parts[0][1]
        for part, part_terms in parts[1:]:
            if joint == ")(":
                terms = [_times(sum(terms), sum(part_terms))]
            elif joint == " " and part[0] in "-−":
                terms = terms + part_terms
            else:
                terms = terms[:-1] + [_times(terms[-1], part_terms[0])] + part_terms[1:]
        if ")(" in text:
            text, terms = "(" + text + ")", [sum(terms)]
    signs = draw(st.integers(0, 2))
    if signs % 2:
        terms = [-terms[0]] + terms[1:]
    return "-" * signs + text, terms


def _residues(P, m):
    """P modulo m as _parse_residues returns it: its residues in
    [-(m//2), m - m//2), except that a P = 0 mod m other than 0 stands as
    the constant m."""
    R = Polynomial([(c + m // 2) % m - m // 2 for c in P.coeffs])
    return Polynomial([m]) if R.is_zero and not P.is_zero else R


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(text=texts(), p=st.sampled_from([2, 3, 5, 13, 101]), e=st.integers(1, 40),
       content=st.integers(0, 3))
def test_residue_parse_is_parse_modulo_m(text, p, e, content):
    text, terms = text
    P = sum(terms)
    if content:
        text, P = f"{p}^{content}*({text})", _times(Polynomial([p**content]), P)
    m = p**e
    assert parse(text) == P
    assert _parse_residues(text, m) == _residues(P, m)


@pytest.mark.parametrize("text", [
    "(X+1)^2000",
    "(X-19)^83*(X-30)^83*(X^2+5*X+23)^28*(X^3-7*X^2-13*X-16)^19",
    "(2*X^3-X+7)^600*(X^2+1)^50 - 3*X^1950",
    "(" + "+".join(f"{i}*X^{i}" for i in range(1, 60)) + ")^30",
    # 15 * c^2 fills all but the sign bit of the slots bounded for it
    *[f"({'+'.join(f'{c}*X^{i}' for i in range(15))})*({'+'.join(f'-{c}*X^{i}' for i in range(15))})"
      for c in (3, 2**30 - 1)],
])
def test_packed_powers_and_products_agree_with_evaluation(text):
    # slots past 8 bytes, and residue powers both by one packed ** and by squaring
    P = parse(text)
    for x in (-3, 2, 10**20 + 1):
        assert P.evaluate(x) == _evaluate_at(text, x)
    for m in (2, 9, 25, 3**8, 2**61, 10**30):
        assert _parse_residues(text, m) == _residues(P, m)


@pytest.mark.parametrize("text, value", [
    ("(2^10000^100+X^5000)*(X+1)", [2**10**6] * 2 + [0] * 4998 + [1, 1]),
    ("(3^10000^10^10*X^2000+1)*(X^2+X+1)", [1] * 3 + [0] * 1997 + [3**10**6] * 3),
    ("(2^10000^100+X^5000)^1", [2**10**6] + [0] * 4999 + [1]),
    # 110 pairs of nonzero terms, past the 64 that always go term by term,
    # and a dense factor whose own slots would not waste much
    ("(2^8000+X+X^2+X^3+X^4+X^5+X^6+X^7+X^8+X^9+X^3000)*(2^8000*(1+X+X^2+X^3+X^4+X^5+X^6+X^7+X^8+X^9))",
     _times(Polynomial([2**8000] + [1] * 9 + [0] * 2990 + [1]), Polynomial([2**8000] * 10)).coeffs),
])
def test_sparse_factors_with_a_wide_coefficient_are_not_packed(text, value, monkeypatch):
    # slots as wide as the widest coefficient across every degree would
    # take 6 MB to over 600 MB here, where the lists take under 1 MB
    packed = polynomial._packed

    def narrow(factors, k, bits):
        assert sum(map(len, factors)) * bits < 2**24
        return packed(factors, k, bits)
    monkeypatch.setattr(polynomial, "_packed", narrow)
    P = Polynomial(value)
    assert parse(text) == P
    for m in (9, 2**61, 10**30):
        assert _parse_residues(text, m) == _residues(P, m)


@pytest.mark.parametrize("text", [
    pytest.param("(X+1", id="syntax"),
    pytest.param("X-" + "1" * (MAX_DIGITS + 1), id="4301-digit-literal"),
    pytest.param("(X^2+1)^5000 - (X^9)^9^9", id="cost"),
    pytest.param("(9*X^2+1)^6000", id="cost-of-a-power-that-vanishes-mod-9"),
    pytest.param("(X^2)^5001", id="power-degree"),
    pytest.param("(3*X^2)^5001", id="power-degree-of-a-power-that-vanishes-mod-9"),
    pytest.param("X^10001", id="exponent"),
])
def test_residue_parse_refuses_what_parse_refuses(text):
    with pytest.raises(ParseError) as exact:
        parse(text)
    with pytest.raises(ParseError) as residues:
        _parse_residues(text, 9)
    assert type(residues.value) is type(exact.value)
    assert str(residues.value) == str(exact.value)


def test_residue_parse_of_a_multiple_of_m_takes_the_exact_walk():
    assert _parse_residues("X-X", 9).is_zero
    assert _parse_residues("9*X^2+9 - 9*(X^2+1)", 9).is_zero
    assert _parse_residues("9*X^2+9", 9) == Polynomial([9])
    # degree bound 10000 within MAX_EXPONENT: 9*X^2 is 0 mod 9 but not 0
    assert _parse_residues("(X^5000-X^5000+3*X)^2", 9) == Polynomial([9])
    # the content 3^(10^6) vanishes mod 9 after a few squarings; its residue
    # mod 2^61 - 1 then tells that P is not 0, so no valuation is taken
    start = time.perf_counter()
    assert _parse_residues("3^10000^10^10*X", 9) == Polynomial([9])
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("text, value, walks", [
    ("3^10000^10^10*X", [9], [9, 2**61 - 1]),
    ("9*X^2+9", [9], [9, 2**61 - 1]),
    ("X^2+1", [1, 0, 1], [9]),
    # 0 modulo 9 and the check prime, so only the exact walk tells 0 from not 0
    ("X-X", [], [9, 2**61 - 1, 0]),
    (f"{9 * (2**61 - 1)}*X^2", [9], [9, 2**61 - 1, 0]),
])
def test_residue_parse_runs_exactly_only_what_vanishes_mod_a_second_prime(
        text, value, walks, monkeypatch):
    moduli = []
    evaluate = parser._evaluate

    def spy(program, m=0):
        moduli.append(m)
        return evaluate(program, m)
    monkeypatch.setattr(parser, "_evaluate", spy)
    assert _parse_residues(text, 9) == Polynomial(value)
    assert moduli == walks
