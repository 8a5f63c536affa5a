"""Command-line interface: trunk, solve, classify, poincare.

Each command computes one payload dict; JSON output writes it, and text
output is rendered from it (the trunk's tree and dot drawing are read off
the trunk).  `solve` parses P modulo its modulus, p**max(e, 1) or n, on
which its answers depend, and a bad modulus modulo 2 before refusing it.
Structured output is deterministic (sorted keys, sorted lists) and
serializes every integer as a decimal string so arbitrary-precision
values survive any JSON consumer.  One writer, `_write`, prints the
bytes of `json.dumps(doc, indent=2, sort_keys=True)` on the document
with its ints as strings.  A listing reaches it, and the text output, as
the solver's stream of sorted blocks of about 4096 ints, each formatted at
once into ASCII bytes by a slice of one template per listing.  Each
command renders its whole output, as a list of parts, before anything is
printed, with CPython's limit on int-to-str digits lifted (the parser caps
each literal at MAX_DIGITS instead); `main` writes the parts one by one,
never joined, and frees each as it goes, a bytes part once decoded, so a
listing peaks at about one copy of the bytes printed.  Diagnostics go to
stderr with a nonzero exit code; no output is emitted on error paths.
`main` may be called repeatedly in one process: the argument parser is
built once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from .analysis import classify_quadratic, poincare_series
from .parser import _parse_residues, parse
from .polynomial import _render_terms, poly_to_str
from .primes import is_prime
from .solver import (
    _listing,
    ball_decomposition,
    count_solutions,
    crt_solve,
    enumerate_solutions,
)
from .trunk import (
    STATUS_HENSEL,
    STATUS_POWER,
    STATUS_UNDETERMINED,
    Trunk,
    TrunkNode,
    build_trunk,
)

SCHEMA_VERSION = "1"


def _int_blocks(blocks: Iterable[list[int]], fmt: bytes, sep: bytes,
                lead: bytes = b"") -> Iterator[bytes]:
    """The ints of blocks by fmt, separated by sep and led by lead, from one bytes template."""
    template, start, unit = b"", len(sep), len(sep) + len(fmt)
    for block in blocks:
        end = unit * len(block)
        if end > len(template):
            template = (sep + fmt) * len(block)
        yield lead + template[start:end] % tuple(block)
        lead, start, block = b"", 0, None  # its ints are freed before the next block is built


def _write(value, indent: str, parts: list[str | bytes]) -> None:
    """Append to parts what json.dumps(value, indent=2, sort_keys=True) would write
    for value with every int (not bool) as its decimal string, and a listing as bytes."""
    if type(value) is int:
        parts.append(f'"{value}"')
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, Iterator):  # a listing: blocks of ints, written as one list
        start, inner = len(parts), (indent + "  ").encode()
        parts.extend(_int_blocks(value, b'"%d"', b",\n" + inner, b"[\n" + inner))
        parts.append("\n" + indent + "]" if len(parts) > start else "[]")
    elif not value or not isinstance(value, (dict, list)):
        parts.append(json.dumps(value))  # null, true, false, {} and []
    elif isinstance(value, dict):
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            parts.append((",\n" if i else "{\n") + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, parts)
        parts.append("\n" + indent + "}")
    else:
        inner = indent + "  "
        for i, item in enumerate(value):
            parts.append((",\n" if i else "[\n") + inner)
            _write(item, inner, parts)
        parts.append("\n" + indent + "]")


def _json(command: str, inputs: dict, payload: dict) -> list[str | bytes]:
    parts: list[str | bytes] = []
    _write({"schema_version": SCHEMA_VERSION, "command": command,
            "input": inputs, "payload": payload}, "", parts)
    return parts


@contextlib.contextmanager
def _all_digits():
    """Lift the int-to-str digit limit of CPython 3.11+ for the block."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _node_json(node: TrunkNode) -> dict:
    entry = {
        "r": node.r,
        "k": node.k,
        "t": node.t,
        "phi": node.phi,
        "s": node.s,
        "status": node.status,
        "successor": poly_to_str(node.successor),
    }
    if node.hensel_root is not None:
        entry["hensel_root"] = node.hensel_root
    return entry


def _trunk_text(payload: dict, trunk: Trunk) -> str:
    lines = [
        f"polynomial: {payload['polynomial']}",
        f"prime: {payload['p']}",
        f"content exponent t0: {payload['t0']}",
        f"reduced degree d_p: {payload['d_p']}",
        f"built depth: {payload['built_depth']}",
        "(0,0)",
    ]

    # an explicit stack of (node, indent, is last child) keeps deep branches
    # clear of the recursion limit; the root (k = 0) is the "(0,0)" line
    stack = [(trunk.root, "", True)]
    while stack:
        node, indent, last = stack.pop()
        if node.k:
            branch = "└─ " if last else "├─ "
            lines.append(f"{indent}{branch}({node.r},{node.k}) t={node.t}"
                         f" s={node.s} phi={node.phi} {node.status}")
            indent += "   " if last else "│  "
        stack.extend((child, indent, i == 0)
                     for i, child in enumerate(reversed(node.children)))
    return "\n".join(lines)


_DOT_TAGS = {STATUS_HENSEL: " hensel", STATUS_POWER: " power", STATUS_UNDETERMINED: " ?"}


def _trunk_dot(trunk: Trunk, fans_to: int | None) -> str:
    """The trunk in firebrick, vertex (r, k) named n{k}_{r}; with fans_to,
    also the solutions of P mod p**e for e = 1..fans_to in gray, each hung
    off its class one level up and named f{e}_{x} unless on the trunk."""
    p = trunk.p
    nodes = list(trunk.iter_nodes())
    lines = [
        "digraph trunk {",
        "  rankdir=BT;",
        "  node [fontsize=10];",
        '  "n0_0" [label="(0,0)", color=firebrick, penwidth=2];',
    ]
    lines += [f'  "n{n.k}_{n.r}" [label="({n.r},{n.k}) t={n.t} phi={n.phi}'
              f'{_DOT_TAGS.get(n.status, "")}", color=firebrick, penwidth=2];' for n in nodes]
    lines += [f'  "n{n.k - 1}_{n.r % p ** (n.k - 1)}" -> "n{n.k}_{n.r}"'
              " [color=firebrick, penwidth=2];" for n in nodes]

    if fans_to is not None:
        on_trunk = {(n.k, n.r) for n in nodes}
        previous: dict[int, str] = {0: "n0_0"}
        for level in range(1, fans_to + 1):
            current: dict[int, str] = {}
            for x in enumerate_solutions(trunk, level):
                if (level, x) in on_trunk:
                    current[x] = f"n{level}_{x}"
                else:
                    current[x] = f"f{level}_{x}"
                    lines.append(f'  "f{level}_{x}" [label="{x}", color=gray50];')
            # the parent of a trunk vertex is on the trunk, and that edge is drawn
            lines += [f'  "{previous[x % p ** (level - 1)]}" -> "{vid}" [color=gray50];'
                      for x, vid in current.items() if (level, x) not in on_trunk]
            previous = current
            if not current:
                break
    lines.append("}")
    return "\n".join(lines)


def _cmd_trunk(args: argparse.Namespace) -> list[str | bytes]:
    if args.with_fans is not None and args.format != "dot":
        raise ValueError("--with-fans requires --format dot")
    if args.with_fans is not None and args.with_fans < 0:
        raise ValueError("--with-fans must be non-negative")
    trunk = build_trunk(parse(args.poly), args.prime, args.max_level)
    if args.format == "dot":
        return [_trunk_dot(trunk, args.with_fans)]
    payload = {
        "polynomial": poly_to_str(trunk.P0),
        "p": trunk.p,
        "t0": trunk.t0,
        "d_p": trunk.d_p,
        "built_depth": trunk.built_depth,
        "tip_count": trunk.d_trunk,
    }
    if args.format == "text":
        return [_trunk_text(payload, trunk)]
    nodes = [trunk.root] + sorted(trunk.iter_nodes(), key=lambda n: (n.k, n.r))
    payload["nodes"] = [_node_json(n) for n in nodes]
    return _json("trunk", {"poly": args.poly, "prime": args.prime,
                           "max_level": args.max_level}, payload)


def _balls(decomposition) -> list[dict]:
    p, e = decomposition.p, decomposition.e
    return [{"r": ball.r, "k": ball.k, "size": p ** (e - ball.k)}
            for ball in decomposition.balls]


def _solve_text(payload: dict, balls: bool) -> list[str | bytes]:
    """The text of a solve payload; with balls, its balls replace the listing."""
    if "n" in payload:
        factors = payload["factors"]
        factored = " * ".join(f"{f['p']}^{f['e']}" for f in factors)
        lines = [f"modulus: {payload['n']} = {factored}"]
        sections = [(f"factor {f['p']}^{f['e']}: count {f['count']}", f) for f in factors]
    else:
        lines = [f"modulus: {payload['p']}^{payload['e']}"]
        sections = [("balls:", payload)]
    lines.append(f"count: {payload['count']}")
    for header, section in sections if balls else []:
        lines.append(header)
        for ball in section["balls"]:
            size = ball["size"]
            noun = "solution" if size == 1 else "solutions"
            lines.append(f"  {ball['r']} mod {section['p']}^{ball['k']}  ({size} {noun})")
    parts = ["\n".join(lines)]
    if "solutions" in payload and not balls:
        parts += ["\nsolutions: ", *_int_blocks(payload["solutions"], b"%d", b" ")]
    return parts


def _cmd_solve(args: argparse.Namespace) -> list[str | bytes]:
    n, p, e = args.modulus, args.prime, args.exp
    if n is not None:
        if p is not None or e is not None:
            raise ValueError("--modulus excludes --prime/--exp")
        m = n
    elif p is None or e is None:
        raise ValueError("provide either --modulus or both --prime and --exp")
    else:
        m = p ** max(e, 1) if is_prime(p) else 0
    # the answer modulo m depends only on P modulo m, and a prime power's
    # levels past phi >= e never reach it; e <= 0 parses modulo p, and a bad
    # modulus or prime (m < 2) modulo 2, which refuses and tells P = 0 alike
    P = _parse_residues(args.poly, max(m, 2))
    if n is not None:
        result = crt_solve(P, n, count_only=True)
        decompositions = [decomposition for _, decomposition in result.factors]
        inputs = {"poly": args.poly, "modulus": n}
        payload: dict = {"n": n, "count": result.count, "factors": [
            {"p": d.p, "e": d.e, "count": d.count, "balls": _balls(d)}
            for d in decompositions]}
        if not args.count_only:
            payload["solutions"] = _listing(decompositions)
    else:
        trunk = build_trunk(P, p, max(e, 1), levels_only=True)
        decomposition = None if args.count_only and not args.balls \
            else ball_decomposition(trunk, e)
        count = count_solutions(trunk, e) if decomposition is None else decomposition.count
        inputs = {"poly": args.poly, "prime": p, "exp": e}
        payload = {"p": p, "e": e, "modulus": p**e, "count": count}
        if args.balls:
            payload["balls"] = _balls(decomposition)
        if not args.count_only and not args.balls:
            payload["solutions"] = _listing([decomposition])
    if args.format == "json":
        return _json("solve", inputs, payload)
    return _solve_text(payload, args.balls)


def _cmd_classify(args: argparse.Namespace) -> list[str | bytes]:
    result = classify_quadratic(parse(args.poly), args.prime)
    base = "infinite" if result.base_length is None else str(result.base_length)
    payload = {"kind": result.kind, "base_length": base}
    if args.format == "json":
        return _json("classify", {"poly": args.poly, "prime": args.prime}, payload)
    return [f"kind: {payload['kind']}\nbase stem length: {payload['base_length']}"]


def _cmd_poincare(args: argparse.Namespace) -> list[str | bytes]:
    trunk = build_trunk(parse(args.poly), args.prime, args.max_level)
    series = poincare_series(trunk)
    if series.certified:
        horizon = max(10, trunk.built_depth) if args.horizon is None else args.horizon
    else:
        available = len(series.numerator) - 1
        horizon = available if args.horizon is None else min(args.horizon, available)
    coeffs = series.expand(horizon)
    payload: dict = {
        "certified": series.certified,
        "horizon": horizon,
        "coefficients": [str(c) for c in coeffs],
        "counts": [str(c * args.prime**e) for e, c in enumerate(coeffs)],
    }
    if series.certified:
        # series in u list their terms in ascending powers
        payload["numerator"] = _render_terms(enumerate(series.numerator), "u")
        payload["denominator"] = _render_terms(enumerate(series.denominator), "u")
        payload["denominator_factors"] = [
            {"a": a, "b": b} for a, b in series.denominator_factors]
    if args.format == "json":
        return _json("poincare", {"poly": args.poly, "prime": args.prime,
                                  "max_level": args.max_level}, payload)
    return ["\n".join([
        f"certified: {'true' if series.certified else 'false'}",
        f"S(u) = ({payload['numerator']}) / ({payload['denominator']})" if series.certified
        else "closed form not certified; partial coefficients only",
        f"coefficients N_e/p^e (e = 0..{horizon}): " + ", ".join(payload["coefficients"]),
        f"counts N_e (e = 0..{horizon}): " + ", ".join(payload["counts"])])]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-trunk",
        description="Solve polynomial congruences modulo prime powers"
                    " through compact trunk representations.")
    sub = parser.add_subparsers(dest="command", required=True)
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--poly", required=True,
                      help="polynomial expression, e.g. \"(X^2+3)*(X^2+3*X+9)\"")

    def command(name, handler, help, formats=("text", "json"), prime_required=True):
        """The subcommand with --poly, --prime, --format and its handler."""
        command_p = sub.add_parser(name, help=help, parents=[poly])
        command_p.add_argument("--prime", required=prime_required, type=int)
        command_p.add_argument("--format", choices=formats, default="text")
        command_p.set_defaults(handler=handler)
        return command_p

    trunk_p = command("trunk", _cmd_trunk, "build and display a trunk",
                      formats=("text", "json", "dot"))
    trunk_p.add_argument("--max-level", required=True, type=int)
    trunk_p.add_argument("--with-fans", type=int, metavar="E", default=None,
                         help="in dot output, also draw the solution tree up to level E")

    solve_p = command("solve", _cmd_solve, "membership, count and enumeration",
                      prime_required=False)
    solve_p.add_argument("--exp", type=int)
    solve_p.add_argument("--modulus", type=int,
                         help="composite modulus (factored and recombined)")
    solve_p.add_argument("--count-only", action="store_true")
    solve_p.add_argument("--balls", action="store_true",
                         help="show the disjoint-ball decomposition instead of the list")

    command("classify", _cmd_classify, "degree-two trunk classification")

    poincare_p = command("poincare", _cmd_poincare, "generating function of the counts")
    poincare_p.add_argument("--horizon", type=int, default=None,
                            help="number of expansion coefficients to report")
    poincare_p.add_argument("--max-level", type=int, default=16)
    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args returns a fresh Namespace."""
    return build_arg_parser()


def _attach_poly(argv: list[str]) -> list[str]:
    """argv with `--poly V` written `--poly=V` when V starts with a single "-",
    which argparse would otherwise read as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--poly" and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = "--poly=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _arg_parser().parse_args(_attach_poly(argv))
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        with _all_digits():
            parts = args.handler(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parts.append("\n")
    parts.reverse()  # never joined: each part is popped, and a bytes part freed once decoded
    while parts:
        sys.stdout.write(parts.pop().decode() if type(parts[-1]) is bytes else parts.pop())
    return 0


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; as the Python docs' note on SIGPIPE says, point
        # it at devnull so that the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
