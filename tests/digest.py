"""One hash of the package's answers and one of its trunks' shape.

A change that claims the same answers prints the same answer hash before
and after it; the structure hash moves only where a change reshapes trunks
on purpose, and its CHANGES.md entry says why.  The inputs extend the
oracle's random_case to where neither brute force nor the oracle reaches:
p up to 2**61 - 1, levels up to 10**4, degree up to 50, 200-bit
coefficients, content up to p**3, pure powers c * S**m and products with
several multiplicities.

Per case the answer record holds, for P and p:
  * the counts N_e at every level e <= LEVELS, from the trunk built to LEVELS;
  * ball decompositions at a few levels, one of them 100 to 10**4, with
    is_solution on each ball's r, a seeded member and the near miss
    r + p**(k-1), and the listing wherever it has at most LISTED members;
  * the Poincare series and its expansion up to LEVELS;
  * classify_quadratic, for a quadratic and an odd p;
  * crt_solve's count and per-factor balls modulo n = p**E * q**f with
    E >= 100 (or q**E when p is too large to factor out quickly) and
    modulo a small n, whose listing is kept when short;
  * the bytes of `solve` at one prime power and at the small n.
The structure record holds t0, d_p and (r, k, t, phi, s, status, tail) of
every vertex of the trunk built to LEVELS.

    PYTHONPATH=src python tests/digest.py --seed 1 --cases 50
    PYTHONPATH=src python tests/digest.py --check tests/golden/digest.json

The second form runs the seed and case count stored in the file and exits
nonzero unless the answer hash is the one stored there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import time

from padic_trunk import (
    Polynomial,
    ball_decomposition,
    build_trunk,
    classify_quadratic,
    count_solutions,
    crt_solve,
    enumerate_solutions,
    is_solution,
    poincare_series,
)
from padic_trunk import cli

from oracle import PRIMES, irreducible_factor, random_case

LARGE_PRIMES = (10007, 65537, 2**31 - 1, 2**61 - 1)
#: primes of the second factor of a CRT modulus
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
#: every count up to this level is recorded, off a trunk built to it
LEVELS = 60
#: a listing is recorded when it has at most this many members
LISTED = 4096
#: bound on e * log2(p) * deg P at the levels past LEVELS
BITS = 200_000
KINDS = ("oracle", "wide coefficients", "high degree", "pure power", "quadratic",
         "multiplicities")


def _coefficient(rng: random.Random) -> int:
    """A nonzero integer of up to 8, 64 or 200 bits, of either sign."""
    return rng.choice([1, -1]) * (rng.getrandbits(rng.choice([3, 8, 64, 200])) + 1)


def _linear_factors(rng: random.Random, p: int, count: int, max_power: int,
                    wide: bool) -> Polynomial:
    """prod (a X - b)**n over count factors, n <= max_power; b often agrees
    with the previous root to a few p-adic digits."""
    P, b = Polynomial([1]), _coefficient(rng)
    for _ in range(count):
        a = _coefficient(rng) if wide and rng.random() < 0.3 else rng.randint(1, 9)
        b = b + p ** rng.randint(1, 4) if rng.random() < 0.4 else _coefficient(rng)
        P = P * Polynomial([-b, abs(a)]) ** rng.randint(1, max_power)
    return P


def random_digest_case(rng: random.Random) -> tuple[Polynomial, int, str]:
    """(P, p, kind): one of KINDS, with content p**t0 for t0 <= 3."""
    kind = rng.choice(KINDS)
    p = rng.choice(PRIMES + LARGE_PRIMES)
    content = rng.choice([1, -1, 2, 3]) * p ** rng.choice([0, 0, 1, 2, 3])
    if kind == "oracle":
        P, p, _ = random_case(rng)
        return P * p ** rng.randint(0, 1), p, kind
    if kind == "wide coefficients":
        P = _linear_factors(rng, p, rng.randint(1, 4), 3, wide=True)
    elif kind == "high degree":
        # distinct roots, a few of them close to another, separate within a few
        # levels: open branches of several multiplicities stay at low degree
        roots = {_coefficient(rng) for _ in range(rng.randint(20, 47))}
        roots |= {r + p ** rng.randint(1, 4) for r in sorted(roots)[:3]}
        P = Polynomial([1])
        for r in sorted(roots):
            P = P * Polynomial([-r, 1])
    elif kind == "pure power":
        if rng.random() < 0.5:
            S = Polynomial([-_coefficient(rng), rng.choice([1, abs(_coefficient(rng))])])
        else:
            # irreducible_factor tries every divisor of its constant, up to p**2
            S = irreducible_factor(rng, min(p, 1009), rng.randint(2, 3))
        P = S ** rng.randint(2, 5)
    elif kind == "quadratic":
        # a (X - r)**2 - p**v u, p odd and a unit: the discriminant 4 a u p**v, or 0
        p = rng.choice((PRIMES + LARGE_PRIMES)[1:])
        a = rng.choice([a for a in range(1, 50) if a % p])
        r, u = _coefficient(rng), _coefficient(rng) if rng.random() < 0.8 else 0
        return a * Polynomial([-r, 1]) ** 2 - p ** rng.randint(0, 9) * u, p, kind
    else:
        b = rng.randint(-p * p, p * p)
        if rng.random() < 0.5:
            P = Polynomial([-rng.randint(2, 300), 0, 1]) ** 2 * Polynomial([-b, 1])
        else:
            P = (Polynomial([-b, 1]) ** 3 * Polynomial([-b - 1, 1]) ** 3
                 * Polynomial([-b + 1, 1]) ** 2)
        p = rng.choice(PRIMES[:5])
    return content * P, p, kind


def _deep(rng: random.Random, levels: list[int], p: int, degree: int) -> int:
    """One of levels, at least its first: a lift to p**e costs about e * log2(p)
    bits times the degree per root, kept within BITS."""
    return rng.choice([e for e in levels if e * p.bit_length() * degree <= BITS] or levels[:1])


def _balls(decomposition) -> tuple:
    return decomposition.count, tuple((ball.r, ball.k) for ball in decomposition.balls)


def _crt(P: Polynomial, n: int, listing: bool) -> tuple:
    result = crt_solve(P, n, count_only=not listing)
    return (n, result.count, result.solutions,
            tuple((pp.p, pp.e) + _balls(d) for pp, d in result.factors))


def _solve(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["solve", *argv])
    return f"{code}\n{out.getvalue()}"


def answer_records(P: Polynomial, p: int, rng: random.Random, trunk) -> list:
    """The answers for (P, p), as plain tuples; trunk is built to LEVELS."""
    records: list = [("case", P.coeffs, p)]
    records.append(("counts", tuple(count_solutions(trunk, e) for e in range(LEVELS + 1))))

    deep = _deep(rng, [100, 1000, 10**4] if trunk.fully_resolved else [100, 150, 200],
                 p, P.degree)
    deep_trunk = trunk if trunk.fully_resolved else build_trunk(P, p, deep)
    for e, source in [(1, trunk), (2, trunk), (3, trunk), (10, trunk), (LEVELS, trunk),
                      (deep, deep_trunk)]:
        decomposition = ball_decomposition(source, e)
        records.append(("balls", e, _balls(decomposition)))
        members = []
        for ball in decomposition.balls:
            pk = p**ball.k
            members += [ball.r, ball.r + rng.randrange(p ** (e - ball.k)) * pk]
            if ball.k:
                members.append((ball.r + pk // p) % p**e)
        records.append(("is_solution", e, tuple(is_solution(source, x, e) for x in members)))
        if decomposition.count <= LISTED:
            records.append(("listing", e, tuple(enumerate_solutions(source, e))))

    series = poincare_series(trunk)
    records.append(("series", series.certified, series.numerator, series.denominator,
                    series.denominator_factors, tuple(series.expand(LEVELS))))
    if P.degree == 2 and p != 2:
        try:
            kind = classify_quadratic(P, p)
            records.append(("classify", kind.kind, kind.base_length))
        except ValueError as exc:
            records.append(("classify", type(exc).__name__))

    small = [q for q in SMALL_PRIMES if q != p]
    base = p if p < 10**5 else rng.choice(small)
    q = rng.choice([s for s in small if s != base])
    deep_n = base ** _deep(rng, [100, 150, 400], base, P.degree) * q ** rng.randint(1, 3)
    small_n = base ** rng.randint(1, 3) * q
    small_count = crt_solve(P, small_n, count_only=True).count
    records.append(("crt", _crt(P, deep_n, listing=False)))
    records.append(("crt", _crt(P, small_n, listing=small_count <= LISTED)))

    text = str(P)
    listing = [] if small_count <= LISTED else ["--count-only"]
    records.append(("solve", _solve("--poly", text, "--modulus", str(small_n),
                                    "--format", "json", *listing)))
    e = rng.choice([0, 1, 2, 5, 12])
    records.append(("solve", _solve("--poly", text, "--prime", str(p), "--exp", str(e),
                                    "--balls", "--format", "json")))
    return records


def structure_records(trunk) -> list:
    """t0, d_p and every vertex's (r, k, t, phi, s, status, tail)."""
    return [("trunk", trunk.t0, trunk.d_p)] + [
        (node.r, node.k, node.t, node.phi, node.s, node.status,
         None if node.tail is None else node.tail.coeffs)
        for node in trunk.iter_nodes()]


def digest(seed: int, cases: int) -> tuple[str, str, dict[str, int]]:
    """(answer hash, structure hash, cases per kind) of a seeded run."""
    rng = random.Random(seed)
    answers, structure = hashlib.sha256(), hashlib.sha256()
    kinds = dict.fromkeys(KINDS, 0)
    with cli._all_digits():
        for _ in range(cases):
            P, p, kind = random_digest_case(rng)
            kinds[kind] += 1
            trunk = build_trunk(P, p, LEVELS)
            for record in answer_records(P, p, rng, trunk):
                answers.update(repr(record).encode() + b"\n")
            for record in structure_records(trunk):
                structure.update(repr(record).encode() + b"\n")
    return answers.hexdigest(), structure.hexdigest(), kinds


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Print a hash of the answers and one of the trunks on seeded inputs.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=50)
    parser.add_argument("--check", metavar="GOLDEN",
                        help="run the seed and cases of this JSON file and compare its answer hash")
    args = parser.parse_args(argv)
    golden = None
    if args.check:
        with open(args.check) as fh:
            golden = json.load(fh)
        args.seed, args.cases = golden["seed"], golden["cases"]
    start = time.perf_counter()
    answers, structure, kinds = digest(args.seed, args.cases)
    spread = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
    print(f"seed {args.seed}, {args.cases} cases ({spread}), in"
          f" {time.perf_counter() - start:.1f} s\nanswers   {answers}\nstructure {structure}")
    if golden is not None and answers != golden["answers"]:
        raise SystemExit(f"answer hash {answers} differs from {golden['answers']} in {args.check}")


if __name__ == "__main__":
    main()
