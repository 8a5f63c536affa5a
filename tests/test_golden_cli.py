"""Byte-for-byte golden outputs of the CLI.

Each case runs `padic_trunk.cli.main` in-process and compares its exit
code, stdout and stderr with `golden/cli.json`.  The outputs were
captured before the solver's window pass and the trunk builder were
rewritten, so any change in what the CLI prints shows up here.  The
two cases `poincare-content-cycle-json` and `poincare-open-hensel` were
added before `poincare_series` moved to integer algebra in u/p.  The
listings of 4096, 4097 and 8193 solutions, `solve-modulus-360-json` and
`poincare-certified-json` were recorded while JSON still went through
`json.dumps`; they pin the CLI's own writer at its block edges.  One
more test runs every case again, after a usage error and a dot listing
with fans, through the one parser that `main` keeps per process.  The
three `trunk-*-power` cases were recorded again when a certificate for
powers of a linear polynomial replaced the search for repeated states.
The two `solve-exp-zero-balls` cases were added when e = 0 became an
ordinary level: its one ball is the root's class 0 mod p^0.  The case
`trunk-dot-fans-content` was added when fans started to draw the levels
e <= t0 of a polynomial divisible by p, where every residue solves.
The two `solve-modulus-30375` cases were added before listings were
streamed from CRT classes: their 728 solutions come from four classes
with four different moduli, 45, 1125, 1215 and 30375.  When powers c*S^m
were certified at the simple roots of S, the open cases moved from
`(X^2-17)^2`, now two power-certified vertices, to `(X^2-17)^2*(X-3)`
and were recorded again; the three `*-square` cases pin the new trunk.
Two cases were added before the series became the level counts times
its denominator: `poincare-certified-long-numerator-json`, whose
numerator reaches u^44 past the built depth, and `poincare-open-content`,
an open trunk with content and a Hensel tail.  Seven cases were added
before `solve --prime/--exp` began to parse modulo p^e and to shift only
the Taylor coefficients its levels read: a high-degree product like
session's, `(X^2-17)^2` at 13^400 (its power certificate on residues),
negative coefficients, `9*X^2+9`, which is 0 mod 3^2, and the errors
of `X-X` and of two powers refused by cost and by degree.  Twelve cases
were added before the commands came to build one payload each and render
their text from it, and `--modulus` to parse modulo n: `--balls` with
`--count-only` at 3^7 and at 360, in text and JSON (`*-balls-count-*`);
the text count of `X^3-X` mod 360; `3^10000^10^10*X` mod 18, whose
content is 0 mod 18; `classify` of a double root (K_inf, "infinite") and
of a quadratic without roots (K_0) at 3, in text and JSON; an open
`poincare` whose horizon 50 is clipped to the coefficients available;
and a JSON trunk with content.  Three cases were added before composite
listings came to be built sorted, by rotating and merging CRT classes:
`(X-1)*(X-2)*(X-3)` mod 1616615 = 5*7*11*13*17*19, six primes and 729
solutions, in text and JSON, and `X^3*(X-1)^2` mod 415800 =
2^3*3^3*5^2*7*11, whose 2880 solutions come from four groups of ball
precisions.  Four empty listings of `X^2+1`, mod 3^2 and mod 21, in text
(`solutions: ` with a trailing space) and JSON (`"solutions": []`), were
added before listings came to be formatted through one bytes template.

To record the outputs again after a deliberate output change, run
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from padic_trunk import cli
from padic_trunk.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

STEM = "(X^2+3)*(X^2+3*X+9)"
MIXED = "X^4*(X-1)^3*(X+1)^2"
OPEN = "(X^2-17)^2*(X-3)"
SQUARE = "(X^2-17)^2"
#: as session's high-degree requests: two roots of multiplicity >= e mod 5 and
#: powers of a quadratic and a cubic without roots mod 5
HIGH_DEGREE = "(X+7)^40*(X-4)^40*(X^2+2)^13*(X^3+3*X+3)^9"

COMMANDS = {
    "trunk-text-finite": ["trunk", "--poly", STEM, "--prime", "3", "--max-level", "5"],
    "trunk-json-split": ["trunk", "--poly", "X*(X-1)^2+25", "--prime", "5",
                         "--max-level", "5", "--format", "json"],
    "trunk-dot-fans": ["trunk", "--poly", STEM, "--prime", "3", "--max-level", "5",
                       "--format", "dot", "--with-fans", "4"],
    "trunk-dot-fans-content": ["trunk", "--poly", "3*X^2", "--prime", "3", "--max-level", "3",
                               "--format", "dot", "--with-fans", "3"],
    "trunk-text-power": ["trunk", "--poly", "X^2", "--prime", "3", "--max-level", "6"],
    "trunk-json-power": ["trunk", "--poly", "X^2", "--prime", "3", "--max-level", "6",
                         "--format", "json"],
    "trunk-dot-power": ["trunk", "--poly", "X^2", "--prime", "3", "--max-level", "6",
                        "--format", "dot"],
    "trunk-text-open": ["trunk", "--poly", OPEN, "--prime", "13", "--max-level", "4"],
    "trunk-json-open": ["trunk", "--poly", OPEN, "--prime", "13", "--max-level", "4",
                        "--format", "json"],
    "trunk-text-square": ["trunk", "--poly", SQUARE, "--prime", "13", "--max-level", "4"],
    "trunk-json-square": ["trunk", "--poly", SQUARE, "--prime", "13", "--max-level", "4",
                          "--format", "json"],
    "trunk-text-mixed": ["trunk", "--poly", MIXED, "--prime", "2", "--max-level", "8"],
    "trunk-dot-mixed": ["trunk", "--poly", MIXED, "--prime", "2", "--max-level", "8",
                        "--format", "dot"],
    "solve-list-text": ["solve", "--poly", "X*(X-1)^2+25", "--prime", "5", "--exp", "3"],
    "solve-list-json": ["solve", "--poly", "(X-1)*(X-2)+5", "--prime", "5", "--exp", "4",
                        "--format", "json"],
    "solve-balls-text": ["solve", "--poly", "X^2", "--prime", "3", "--exp", "7", "--balls"],
    "solve-balls-json": ["solve", "--poly", MIXED, "--prime", "2", "--exp", "9",
                         "--balls", "--format", "json"],
    "solve-count-text": ["solve", "--poly", STEM, "--prime", "3", "--exp", "8",
                         "--count-only"],
    "solve-count-json": ["solve", "--poly", "X^2", "--prime", "3", "--exp", "50",
                         "--count-only", "--format", "json"],
    "solve-cycle-tail-balls": ["solve", "--poly", "(4X-1)^2", "--prime", "2",
                               "--exp", "30", "--balls"],
    "solve-cycle-tail-balls-3": ["solve", "--poly", "(4X-1)^2", "--prime", "3",
                                 "--exp", "30", "--balls", "--format", "json"],
    "solve-hensel-tail": ["solve", "--poly", "X*(X-1)^2+25", "--prime", "5",
                          "--exp", "40"],
    "solve-exp-zero": ["solve", "--poly", "X^2+1", "--prime", "3", "--exp", "0"],
    "solve-exp-zero-balls": ["solve", "--poly", "X^2+1", "--prime", "3", "--exp", "0",
                             "--balls"],
    "solve-exp-zero-balls-json": ["solve", "--poly", "X^2+1", "--prime", "3", "--exp", "0",
                                  "--balls", "--format", "json"],
    "solve-modulus-15": ["solve", "--poly", "X^2+11", "--modulus", "15"],
    "solve-modulus-15-balls": ["solve", "--poly", "X^2+11", "--modulus", "15", "--balls"],
    "solve-modulus-360": ["solve", "--poly", "X^2-1", "--modulus", "360"],
    "solve-modulus-360-balls-json": ["solve", "--poly", "X^2-1", "--modulus", "360",
                                     "--balls", "--format", "json"],
    "solve-modulus-360-count-json": ["solve", "--poly", "X^3-X", "--modulus", "360",
                                     "--count-only", "--format", "json"],
    "solve-list-json-4096": ["solve", "--poly", "X^2", "--prime", "2", "--exp", "25",
                             "--format", "json"],
    "solve-list-json-4097": ["solve", "--poly", "X^2*(X-1)", "--prime", "2", "--exp", "25",
                             "--format", "json"],
    "solve-list-text-8193": ["solve", "--poly", "X^2*(X-1)", "--prime", "2", "--exp", "27"],
    "solve-modulus-360-json": ["solve", "--poly", "X^2-1", "--modulus", "360",
                               "--format", "json"],
    "solve-modulus-30375": ["solve", "--poly", "X^3*(X-1)", "--modulus", "30375"],
    "solve-modulus-30375-json": ["solve", "--poly", "X^3*(X-1)", "--modulus", "30375",
                                 "--format", "json"],
    "classify-text": ["classify", "--poly", "X^2+3*X+9", "--prime", "3"],
    "classify-json": ["classify", "--poly", "X^2-17", "--prime", "13", "--format", "json"],
    "poincare-certified": ["poincare", "--poly", "X*(X-1)^2+25", "--prime", "5"],
    "poincare-cycle-json": ["poincare", "--poly", "X^2", "--prime", "3", "--format", "json"],
    "poincare-certified-json": ["poincare", "--poly", "X*(X-1)^2+25", "--prime", "5",
                                "--format", "json"],
    "poincare-truncated": ["poincare", "--poly", OPEN, "--prime", "13", "--max-level", "5"],
    "poincare-square": ["poincare", "--poly", SQUARE, "--prime", "13"],
    "poincare-content": ["poincare", "--poly", "9*(X^2)*(X-1)", "--prime", "3",
                         "--horizon", "12", "--format", "json"],
    "poincare-content-cycle-json": ["poincare", "--poly", "9*X^2", "--prime", "3",
                                    "--format", "json"],
    "poincare-open-hensel": ["poincare", "--poly", "(X^2-17)^2*(X-3)", "--prime", "13",
                             "--max-level", "6", "--horizon", "4"],
    "poincare-certified-long-numerator-json": [
        "poincare", "--poly", "27*(X-1)*(X-1-3^20)", "--prime", "3", "--max-level", "40",
        "--format", "json"],
    "poincare-open-content": ["poincare", "--poly", "169*(X^2-17)^2*(X-3)", "--prime", "13",
                              "--max-level", "4", "--horizon", "5"],
    "solve-high-degree-balls-json": ["solve", "--poly", HIGH_DEGREE, "--prime", "5",
                                     "--exp", "5", "--balls", "--format", "json"],
    "solve-square-deep-balls": ["solve", "--poly", SQUARE, "--prime", "13", "--exp", "400",
                                "--balls"],
    "solve-negative-balls": ["solve", "--poly", "-(X-1)^3*(X+1)^2", "--prime", "2",
                             "--exp", "12", "--balls"],
    "solve-zero-mod-modulus-balls": ["solve", "--poly", "9*X^2+9", "--prime", "3",
                                     "--exp", "2", "--balls"],
    "error-not-prime": ["solve", "--poly", "X^2+1", "--prime", "4", "--exp", "2"],
    "error-zero-polynomial": ["solve", "--poly", "X-X", "--prime", "3", "--exp", "2"],
    "error-power-cost": ["solve", "--poly", "(9*X^2+1)^6000", "--prime", "3", "--exp", "2"],
    "error-power-degree": ["solve", "--poly", "(X^2)^5001", "--prime", "3", "--exp", "2"],
    "error-with-fans": ["trunk", "--poly", "X", "--prime", "3", "--max-level", "2",
                        "--with-fans", "2"],
    "solve-balls-count-text": ["solve", "--poly", "X^2", "--prime", "3", "--exp", "7",
                               "--balls", "--count-only"],
    "solve-balls-count-json": ["solve", "--poly", "X^2", "--prime", "3", "--exp", "7",
                               "--balls", "--count-only", "--format", "json"],
    "solve-modulus-360-count-text": ["solve", "--poly", "X^3-X", "--modulus", "360",
                                     "--count-only"],
    "solve-modulus-360-balls-count-text": ["solve", "--poly", "X^2-1", "--modulus", "360",
                                           "--balls", "--count-only"],
    "solve-modulus-360-balls-count-json": ["solve", "--poly", "X^2-1", "--modulus", "360",
                                           "--balls", "--count-only", "--format", "json"],
    "solve-modulus-large-content": ["solve", "--poly", "3^10000^10^10*X", "--modulus", "18",
                                    "--count-only"],
    "classify-infinite-text": ["classify", "--poly", "2*X^2-4*X+2", "--prime", "3"],
    "classify-infinite-json": ["classify", "--poly", "2*X^2-4*X+2", "--prime", "3",
                               "--format", "json"],
    "classify-k0-text": ["classify", "--poly", "X^2+1", "--prime", "3"],
    "classify-k0-json": ["classify", "--poly", "X^2+1", "--prime", "3", "--format", "json"],
    "poincare-open-horizon-clipped": ["poincare", "--poly", OPEN, "--prime", "13",
                                      "--max-level", "3", "--horizon", "50"],
    "solve-modulus-1616615": ["solve", "--poly", "(X-1)*(X-2)*(X-3)", "--modulus", "1616615"],
    "solve-modulus-1616615-json": ["solve", "--poly", "(X-1)*(X-2)*(X-3)", "--modulus",
                                   "1616615", "--format", "json"],
    "solve-modulus-415800": ["solve", "--poly", "X^3*(X-1)^2", "--modulus", "415800"],
    "trunk-json-content": ["trunk", "--poly", "9*X^2", "--prime", "3", "--max-level", "3",
                           "--format", "json"],
    "solve-empty-text": ["solve", "--poly", "X^2+1", "--prime", "3", "--exp", "2"],
    "solve-empty-json": ["solve", "--poly", "X^2+1", "--prime", "3", "--exp", "2",
                         "--format", "json"],
    "solve-modulus-21-empty": ["solve", "--poly", "X^2+1", "--modulus", "21"],
    "solve-modulus-21-empty-json": ["solve", "--poly", "X^2+1", "--modulus", "21",
                                    "--format", "json"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run(COMMANDS[name]) == expected


USAGE_ERROR = ["solve", "--poly", "X", "--prime", "notanumber", "--exp", "1"]
FANS_2 = ["trunk", "--poly", STEM, "--prime", "3", "--max-level", "5",
          "--format", "dot", "--with-fans", "2"]


def test_one_parser_serves_every_call_in_a_process(monkeypatch):
    # the two extra cases on a parser built for each of them alone
    fresh = {}
    for name, argv in (("usage", USAGE_ERROR), ("fans-2", FANS_2)):
        cli._arg_parser.cache_clear()
        fresh[name] = run(argv)
    assert fresh["usage"]["exit"] == 2 and fresh["usage"]["stdout"] == ""
    assert fresh["usage"]["stderr"].startswith("usage: padic-trunk solve")
    assert fresh["fans-2"]["exit"] == 0 and fresh["fans-2"]["stderr"] == ""

    builds = []
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda: builds.append(1) or build())
    cli._arg_parser.cache_clear()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run(USAGE_ERROR) == fresh["usage"]
    assert run(FANS_2) == fresh["fans-2"]
    for name in sorted(COMMANDS, reverse=True):
        assert run(COMMANDS[name]) == golden[name], name
    assert len(builds) == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: run(argv) for name, argv in COMMANDS.items()},
                                 indent=1, ensure_ascii=False, sort_keys=True) + "\n",
                      encoding="utf-8")
