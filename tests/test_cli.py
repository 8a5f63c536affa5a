import argparse
import json
import re
import subprocess
import sys

import pytest

from padic_trunk import build_trunk, parse
from padic_trunk import cli, parser
from padic_trunk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# trunk
# ----------------------------------------------------------------------

def test_trunk_text(capsys):
    code, out, err = run_cli(capsys, "trunk", "--poly", "(X^2+3)*(X^2+3X+9)",
                             "--prime", "3", "--max-level", "5")
    assert code == 0 and err == ""
    assert "(0,1) t=3 s=2 phi=3 expanded" in out
    assert "(3,2) t=1 s=0 phi=4 leaf" in out


def test_trunk_statuses_in_text(capsys):
    _, out, _ = run_cli(capsys, "trunk", "--poly", "X", "--prime", "5",
                        "--max-level", "3")
    assert "(0,1) t=1 s=1 phi=1 hensel-certified" in out
    _, out, _ = run_cli(capsys, "trunk", "--poly", "X^2", "--prime", "3",
                        "--max-level", "4")
    assert out.splitlines()[-1] == "└─ (0,1) t=2 s=2 phi=2 power-certified"


def test_trunk_text_deep_branch(capsys):
    # deeper than the interpreter's recursion limit
    code, out, err = run_cli(capsys, "trunk", "--poly", "(X^2-17)^2*(X-3)", "--prime", "13",
                             "--max-level", "1100")
    assert code == 0 and err == ""
    trunk = build_trunk(parse("(X^2-17)^2*(X-3)"), 13, 1100)
    lines = out.splitlines()
    assert len(lines) == 6 + sum(1 for _ in trunk.iter_nodes())
    assert lines[-1].endswith("phi=2200 undetermined")


def test_trunk_json(capsys):
    code, out, _ = run_cli(capsys, "trunk", "--poly", "X^2", "--prime", "3",
                           "--max-level", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "trunk"
    assert doc["input"]["prime"] == "3"
    payload = doc["payload"]
    assert payload["d_p"] == "2"
    rows = [(n["r"], n["k"], n["t"], n["status"]) for n in payload["nodes"]]
    assert rows == [
        ("0", "0", None, "expanded"),
        ("0", "1", "2", "power-certified"),
    ]
    assert payload["nodes"][1]["hensel_root"] == "0"
    assert all("period" not in n for n in payload["nodes"])


def test_trunk_dot(capsys):
    code, out, _ = run_cli(capsys, "trunk", "--poly", "X^2", "--prime", "3",
                           "--max-level", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph trunk {")
    assert '"n1_0" [label="(0,1) t=2 phi=2 power"' in out
    assert '"n0_0" -> "n1_0"' in out
    assert out.rstrip().endswith("}")


def test_trunk_dot_with_fans(capsys):
    code, out, _ = run_cli(capsys, "trunk", "--poly", "(X^2+3)*(X^2+3X+9)",
                           "--prime", "3", "--max-level", "5",
                           "--format", "dot", "--with-fans", "4")
    assert code == 0
    # level-3 fan vertices hang off the trunk vertex (3,2), deeper ones chain
    assert '"f4_75" [label="75"' in out
    assert '"n2_3" -> "f3_12"' in out
    assert '"f3_3" -> "f4_3"' in out
    # trunk edges are not duplicated as fan edges
    assert out.count('"n1_0" -> "n2_3"') == 1


def test_trunk_dot_fans_draw_the_levels_of_the_content(capsys):
    # 3*X^2 has content exponent t0 = 1 at p = 3: every residue solves it mod 3
    code, out, err = run_cli(capsys, "trunk", "--poly", "3*X^2", "--prime", "3",
                             "--max-level", "3", "--format", "dot", "--with-fans", "3")
    assert code == 0 and err == ""
    vertices = {m[0]: (int(m[1]), int(m[2]), m[3]) for m in re.findall(
        r'^  "([nf](\d+)_(\d+))" \[label="([^"]*)"', out, re.M)}
    for level in (1, 2, 3):
        drawn = {x for lv, x, _ in vertices.values() if lv == level}
        assert drawn == {x for x in range(3**level) if 3 * x * x % 3**level == 0}
    assert {x for lv, x, _ in vertices.values() if lv == 1} == {0, 1, 2}
    fans = {vid: v for vid, v in vertices.items() if vid[0] == "f"}
    assert fans and all(label == str(x) and 3 * x * x % 3**level == 0
                        for level, x, label in fans.values())
    edges = re.findall(r'^  "(\S+)" -> "(\S+)" \[color=gray50\];$', out, re.M)
    assert {child for _, child in edges} == set(fans)
    for parent, child in edges:
        level, x, _ = vertices[child]
        assert vertices[parent][:2] == (level - 1, x % 3**(level - 1))


def test_trunk_dot_fans_stop_at_the_first_level_without_solutions(capsys, monkeypatch):
    levels = []
    enumerate_solutions = cli.enumerate_solutions
    monkeypatch.setattr(cli, "enumerate_solutions",
                        lambda trunk, e: levels.append(e) or enumerate_solutions(trunk, e))
    code, out, _ = run_cli(capsys, "trunk", "--poly", "X^2+1", "--prime", "3",
                           "--max-level", "3", "--format", "dot", "--with-fans", "3")
    assert code == 0 and levels == [1]
    assert "f1_" not in out

def test_trunk_dot_fans_refuse_a_negative_level(capsys):
    code, out, err = run_cli(capsys, "trunk", "--poly", "X^2+1", "--prime", "5",
                             "--max-level", "3", "--format", "dot", "--with-fans", "-1")
    assert code == 1 and out == ""
    assert "--with-fans must be non-negative" in err


def test_byte_identical_structured_output(capsys):
    args = ("solve", "--poly", "X^2+11", "--modulus", "15", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("trunk", "--poly", "X*(X-1)^2+25", "--prime", "5",
            "--max-level", "4", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def test_solve_prime_power(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "(X-1)*(X-2)+5",
                           "--prime", "5", "--exp", "2")
    assert code == 0
    assert "count: 2" in out
    assert "solutions: 6 22" in out


def test_solve_count_only(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "(X^2+3)*(X^2+3X+9)",
                           "--prime", "3", "--exp", "5", "--count-only")
    assert code == 0
    assert "count: 0" in out
    assert "solutions" not in out


def test_solve_balls(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "(X^2+3)*(X^2+3X+9)",
                           "--prime", "3", "--exp", "4", "--balls")
    assert code == 0
    assert "3 mod 3^2  (9 solutions)" in out


def test_solve_modulus(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "X^2+11", "--modulus", "15")
    assert code == 0
    assert "modulus: 15 = 3^1 * 5^1" in out
    assert "solutions: 2 7 8 13" in out


def test_solve_modulus_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "X^2+11",
                           "--modulus", "15", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["count"] == "4"
    assert doc["payload"]["solutions"] == ["2", "7", "8", "13"]
    assert [f["p"] for f in doc["payload"]["factors"]] == ["3", "5"]


def test_solve_exp_zero(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "X^2+1", "--prime", "3",
                           "--exp", "0")
    assert code == 0
    assert "count: 1" in out
    assert "solutions: 0" in out


def test_solve_big_counts_serialize_as_strings(capsys):
    code, out, _ = run_cli(capsys, "solve", "--poly", "X^2", "--prime", "3",
                           "--exp", "40", "--count-only", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == str(3**20)


# ----------------------------------------------------------------------
# classify / poincare
# ----------------------------------------------------------------------

def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly", "(X-1)^2+243",
                           "--prime", "3")
    assert code == 0
    assert "kind: K1" in out
    assert "base stem length: 2" in out
    code, out, _ = run_cli(capsys, "classify", "--poly", "X^2", "--prime", "3")
    assert "base stem length: infinite" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly", "(X-1)*(X-2)+5",
                           "--prime", "5", "--format", "json")
    payload = json.loads(out)["payload"]
    assert payload == {"kind": "K2", "base_length": "0"}


def test_poincare_certified(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--poly", "X", "--prime", "5")
    assert code == 0
    assert "certified: true" in out
    assert "S(u) = (1) / (1 - 1/5*u)" in out
    code, out, _ = run_cli(capsys, "poincare", "--poly", "(X^2+3)*(X^2+3X+9)",
                           "--prime", "3", "--horizon", "6", "--format", "json")
    payload = json.loads(out)["payload"]
    assert payload["certified"] is True
    assert payload["numerator"] == "1 + 1/3*u + 1/3*u^2 + 1/3*u^3 + 1/9*u^4"
    assert payload["denominator"] == "1"
    assert payload["counts"] == ["1", "1", "3", "9", "9", "0", "0"]


def test_poincare_fallback(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--poly", "(X^2-17)^2*(X-3)",
                           "--prime", "13", "--max-level", "2")
    assert code == 0
    assert "certified: false" in out
    assert "partial coefficients" in out


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------

def test_errors_exit_nonzero_without_structured_output(capsys):
    code, out, err = run_cli(capsys, "solve", "--poly", "X^+",
                             "--prime", "3", "--exp", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:")

    code, out, err = run_cli(capsys, "solve", "--poly", "X",
                             "--prime", "4", "--exp", "2")
    assert code == 1 and "not prime" in err

    code, out, err = run_cli(capsys, "solve", "--poly", "X", "--prime", "3")
    assert code == 1 and "provide either" in err

    code, out, err = run_cli(capsys, "solve", "--poly", "X", "--prime", "3",
                             "--exp", "2", "--modulus", "15")
    assert code == 1 and "excludes" in err

    code, out, err = run_cli(capsys, "classify", "--poly", "X^3", "--prime", "5")
    assert code == 1 and "not quadratic" in err


@pytest.mark.parametrize("poly, prime, exp, message", [
    ("X-X", "3", "2", "cannot build a trunk for the zero polynomial"),
    ("9*X^2+9-9*(X^2+1)", "3", "2", "cannot build a trunk for the zero polynomial"),
    ("X^2+1", "0", "2", "0 is not prime"),
    ("X^2+1", "4", "2", "4 is not prime"),
    ("X^2+1", "-3", "2", "-3 is not prime"),
    # psi_12 = 399165290221 * 798330580441 fools the twelve bases 2..37
    ("X^2-1", "318665857834031151167461", "1", "318665857834031151167461 is not prime"),
    ("X^2+1", "3", "-1", "e must be non-negative"),
    ("X-X", "4", "-1", "cannot build a trunk for the zero polynomial"),
    ("(X+1", "0", "2", "unbalanced parenthesis (at position 4)"),
    ("(X^2)^5001", "3", "2", "expanded power degree exceeds bound 10000 (at position 5)"),
    ("(9*X^2+1)^6000", "3", "2", "estimated expansion cost exceeds bound 4000000000 (at position 0)"),
])
def test_solve_modulo_p_to_the_e_refuses_as_the_exact_parse_did(capsys, poly, prime, exp, message):
    # P is parsed modulo p**max(e, 1) for a prime p, and refused in the same
    # order and words: the parse, then build_trunk, then the level
    assert run_cli(capsys, "solve", "--poly", poly, "--prime", prime, "--exp=" + exp) == \
        (1, "", f"error: {message}\n")


@pytest.mark.parametrize("exp, result", [
    ("0", (0, "modulus: 3^0\ncount: 1\nsolutions: 0\n", "")),
    ("-1", (1, "", "error: e must be non-negative\n")),
])
def test_solve_at_e_below_one_parses_modulo_p(capsys, monkeypatch, exp, result):
    # the content 3^(10^6) is never raised exactly: P is 1 mod 3
    moduli = []
    evaluate = parser._evaluate

    def spy(program, m=0):
        moduli.append(m)
        return evaluate(program, m)
    monkeypatch.setattr(parser, "_evaluate", spy)
    assert run_cli(capsys, "solve", "--poly", "3^10000^10^10*X+1", "--prime", "3",
                   "--exp=" + exp) == result
    assert moduli == [3]


@pytest.mark.parametrize("modulus, message", [
    (["--modulus", "1"], "n must be at least 2"),
    (["--prime", "4", "--exp", "2"], "4 is not prime"),
])
def test_solve_with_a_bad_modulus_parses_modulo_2(capsys, monkeypatch, modulus, message):
    # the content 3^(10^6) is never raised exactly: P is X mod 2
    moduli = []
    evaluate = parser._evaluate

    def spy(program, m=0):
        moduli.append(m)
        return evaluate(program, m)
    monkeypatch.setattr(parser, "_evaluate", spy)
    assert run_cli(capsys, "solve", "--poly", "3^10000^10^10*X", *modulus) == \
        (1, "", f"error: {message}\n")
    assert moduli == [2]


#: each subcommand's options: (type, default, required, choices, action class),
#: as the parser declared them one subcommand at a time
OPTIONS = {
    "trunk": {
        ("-h", "--help"): (None, "==SUPPRESS==", False, None, "_HelpAction"),
        ("--poly",): (None, None, True, None, "_StoreAction"),
        ("--prime",): (int, None, True, None, "_StoreAction"),
        ("--max-level",): (int, None, True, None, "_StoreAction"),
        ("--format",): (None, "text", False, ("text", "json", "dot"), "_StoreAction"),
        ("--with-fans",): (int, None, False, None, "_StoreAction"),
    },
    "solve": {
        ("-h", "--help"): (None, "==SUPPRESS==", False, None, "_HelpAction"),
        ("--poly",): (None, None, True, None, "_StoreAction"),
        ("--prime",): (int, None, False, None, "_StoreAction"),
        ("--exp",): (int, None, False, None, "_StoreAction"),
        ("--modulus",): (int, None, False, None, "_StoreAction"),
        ("--count-only",): (None, False, False, None, "_StoreTrueAction"),
        ("--balls",): (None, False, False, None, "_StoreTrueAction"),
        ("--format",): (None, "text", False, ("text", "json"), "_StoreAction"),
    },
    "classify": {
        ("-h", "--help"): (None, "==SUPPRESS==", False, None, "_HelpAction"),
        ("--poly",): (None, None, True, None, "_StoreAction"),
        ("--prime",): (int, None, True, None, "_StoreAction"),
        ("--format",): (None, "text", False, ("text", "json"), "_StoreAction"),
    },
    "poincare": {
        ("-h", "--help"): (None, "==SUPPRESS==", False, None, "_HelpAction"),
        ("--poly",): (None, None, True, None, "_StoreAction"),
        ("--prime",): (int, None, True, None, "_StoreAction"),
        ("--horizon",): (int, None, False, None, "_StoreAction"),
        ("--max-level",): (int, 16, False, None, "_StoreAction"),
        ("--format",): (None, "text", False, ("text", "json"), "_StoreAction"),
    },
}


def test_every_subcommand_keeps_its_options():
    parser = cli.build_arg_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    for name, subparser in sub.choices.items():
        declared = {tuple(a.option_strings): (a.type, a.default, a.required, a.choices,
                                              type(a).__name__)
                    for a in subparser._actions}
        assert declared == OPTIONS[name], name
        assert subparser.get_default("handler") is getattr(cli, "_cmd_" + name)


def test_solve_modulus_hands_the_solver_p_modulo_n(capsys, monkeypatch):
    received = []
    solve = cli.crt_solve
    monkeypatch.setattr(cli, "crt_solve", lambda P, n, **kw: received.append(P) or solve(P, n, **kw))
    code, out, err = run_cli(capsys, "solve", "--poly", "(10^40*X+7^30)^3*(X^2-10^25)",
                             "--modulus", "360", "--count-only")
    assert code == 0 and err == ""
    [P] = received
    exact = parse("(10^40*X+7^30)^3*(X^2-10^25)")
    assert all(abs(c) <= 180 for c in P.coeffs)
    assert all(c % 360 == 0 for c in (exact - P).coeffs)
    assert out == f"modulus: 360 = 2^3 * 3^2 * 5^1\ncount: {solve(exact, 360).count}\n"


def test_usage_errors_from_argparse(capsys):
    code = main(["solve", "--poly", "X", "--prime", "notanumber", "--exp", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_leading_minus_in_poly_answers_in_both_spellings(capsys):
    for tail in (["--prime", "3", "--exp", "2"], ["--modulus", "15", "--format", "json"]):
        spaced = run_cli(capsys, "solve", "--poly", "-X^2+1", *tail)
        assert spaced == run_cli(capsys, "solve", "--poly=-X^2+1", *tail)
        assert spaced[0] == 0 and spaced[2] == ""
    _, out, _ = run_cli(capsys, "solve", "--poly", "-X^2+1", "--prime", "3", "--exp", "2")
    assert out.splitlines()[-1] == "solutions: 1 8"
    # an option after --poly is still an option, not a value
    code, out, err = run_cli(capsys, "solve", "--poly", "--prime", "3", "--exp", "2")
    assert code == 2 and out == "" and "expected one argument" in err


def test_primes_above_a_million_answer(capsys):
    q = 2**61 - 1
    code, out, err = run_cli(capsys, "solve", "--poly", "X^2-1",
                             "--prime", str(q), "--exp", "2")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["count: 2", f"solutions: 1 {q**2 - 1}"]

    code, out, err = run_cli(capsys, "trunk", "--poly", "X^2-1",
                             "--prime", str(q), "--max-level", "2")
    assert code == 0 and err == ""
    assert out.count("hensel-certified") == 2

    code, out, err = run_cli(capsys, "solve", "--poly", "X^2-1",
                             "--modulus", str(6 * q), "--count-only")
    assert code == 0 and err == ""
    assert out.splitlines() == [f"modulus: {6 * q} = 2^1 * 3^1 * {q}^1",
                                "count: 4"]


def test_a_strong_pseudoprime_to_twelve_bases_is_factored_as_a_modulus(capsys):
    # psi_12 passes the bases 2..37; taken for prime, it made CRT fail with
    # "base is not invertible for the given modulus"
    code, out, err = run_cli(capsys, "solve", "--poly", "X^2-1", "--count-only",
                             "--modulus", "318665857834031151167461")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "modulus: 318665857834031151167461 = 399165290221^1 * 798330580441^1", "count: 4"]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "padic_trunk", "solve", "--poly", "X^2+11",
         "--modulus", "15"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "solutions: 2 7 8 13" in result.stdout


def test_a_reader_closing_the_pipe_ends_the_run_without_a_traceback():
    # 3^10 solutions, about 700 kB: more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "padic_trunk", "solve", "--poly", "X^2",
         "--prime", "3", "--exp", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"modulus: 3"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_pipe_closed_mid_listing_exits_1_with_nothing_on_stderr(fmt):
    # 1,614,007 solutions, tens of MB: the reader closes after 100 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "padic_trunk", "solve", "--poly", "X^4*(X-1)^2*(X-2)",
         "--prime", "3", "--exp", "18", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# ----------------------------------------------------------------------
# answers past CPython's int-to-str digit limit
# ----------------------------------------------------------------------

@pytest.fixture
def digit_limit():
    """CPython's default int-to-str digit limit, in force for the test (None before 3.11)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield None
        return
    old = get_limit()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)


def _lifted_int(text):
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return int(text)
    finally:
        set_limit(old)


def test_answers_longer_than_the_digit_limit_print_whole(capsys, digit_limit):
    # the two square roots of 2 modulo 7^6000 have about 5070 digits each
    m = 7**6000
    code, out, err = run_cli(capsys, "solve", "--poly", "X^2-2", "--prime", "7",
                             "--exp", "6000", "--balls")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:3] == ["modulus: 7^6000", "count: 2", "balls:"]
    assert min(len(line.split()[0]) for line in lines[3:]) > 4300
    roots = [_lifted_int(line.split()[0]) for line in lines[3:]]
    assert len(roots) == 2 and all((r * r - 2) % m == 0 for r in roots)

    code, out, err = run_cli(capsys, "solve", "--poly", "X^2-2", "--prime", "7",
                             "--exp", "6000", "--balls", "--format", "json")
    assert code == 0 and err == ""
    balls = json.loads(out)["payload"]["balls"]
    assert sorted(_lifted_int(b["r"]) for b in balls) == sorted(roots)
    # the limit is back in force after rendering
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digit_limit


def test_parsing_keeps_the_digit_limit(capsys, digit_limit):
    # the parser's cap of 4300 digits holds on every Python, limit or not
    code, out, err = run_cli(capsys, "solve", "--poly", "X-" + "1" * 5000,
                             "--prime", "7", "--exp", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "limit" in err and "(at position 2)" in err
