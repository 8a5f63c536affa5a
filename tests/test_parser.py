import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_trunk import ParseError, Polynomial, X, parse, poly_to_str
from padic_trunk import parser
from padic_trunk.parser import MAX_COST, MAX_DIGITS, _evaluate_at, _parse_residues


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


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as info:
        parse("X + Y")
    assert info.value.position == 4


def test_power_expansion_guard():
    with pytest.raises(ParseError, match="degree exceeds"):
        parse("(X^200)^200")


def test_whole_text_is_checked_before_any_power_is_expanded(monkeypatch):
    def refuse(self, exponent):
        raise AssertionError("a power was expanded")
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    with pytest.raises(ParseError, match="unbalanced parenthesis") as info:
        parse("(X+1)^10000)")
    assert info.value.position == 11


def test_an_expansion_past_the_cost_bound_is_refused_before_it_starts(monkeypatch):
    def refuse(self, exponent):
        raise AssertionError("a power was expanded")
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
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

    def expanded(base, exp, at):
        raise Expanded
    monkeypatch.setattr(parser, "_polynomial_power", expanded)
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

@st.composite
def texts(draw, depth=0):
    """A text of the grammar: literals up to 40 digits, content p**j, runs of
    unary minus, sums, products by "*", by a space or by parentheses,
    nesting and powers; each power's degree stays far below MAX_EXPONENT."""
    kind = draw(st.integers(0, 5 if depth < 3 else 1))
    if kind == 0:
        text = str(draw(st.one_of(st.integers(0, 30), st.integers(0, 10**40))))
    elif kind == 1:
        text = draw(st.sampled_from(["X", "x", "−X"]))
    elif kind == 2:
        text = "(" + draw(texts(depth + 1)) + ")"
    elif kind == 3:
        text = "(" + draw(texts(depth + 1)) + ")^" + str(draw(st.integers(0, 4)))
    elif kind == 4:
        first, *rest = draw(st.lists(texts(depth + 1), min_size=2, max_size=3))
        text = "(" + first + "".join(draw(st.sampled_from(["+", " - ", "-"])) + q for q in rest) + ")"
    else:
        parts = draw(st.lists(texts(depth + 1), min_size=2, max_size=3))
        text = draw(st.sampled_from(["*", " ", ")("])).join(parts)
        text = "(" + text + ")" if ")(" in text else text
    return "-" * draw(st.integers(0, 2)) + text


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(text=texts(), p=st.sampled_from([2, 3, 5, 13, 101]), e=st.integers(1, 40),
       content=st.integers(0, 3))
def test_residue_parse_is_parse_modulo_m(text, p, e, content):
    text = f"{p}^{content}*({text})" if content else text
    m = p**e
    P, R = parse(text), _parse_residues(text, m)
    assert all(c % m == 0 for c in (P - R).coeffs)
    if P.is_zero:
        assert R.is_zero
    elif all(c % m == 0 for c in P.coeffs):
        # P = 0 mod m, and not 0: the constant m stands for it
        assert R == Polynomial([m])
    else:
        assert all(-(m // 2) <= c < m - m // 2 for c in R.coeffs)
        if all(2 * abs(c) < m for c in P.coeffs):
            assert R == P


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
    # degree bound 10002 past MAX_EXPONENT: the exact walk, which accepts it
    assert _parse_residues("(X^5001-X^5001+3*X)^2", 9) == Polynomial([0, 0, 9])
    # the content 3^(10^6) vanishes mod 9 after a few squarings; the exact
    # walk then only tells that P is not 0, so no valuation is taken
    start = time.perf_counter()
    assert _parse_residues("3^10000^10^10*X", 9) == Polynomial([9])
    assert time.perf_counter() - start < 2
