"""Answer checks, run outside the timed region of every request.

Ground truth comes from the request's own factored polynomial
(``Poly.eval_mod``), never from the package's parser or arithmetic:

* modulo a prime p, the number of solutions must equal the degree of
  gcd(P, X^p - X) over F_p, an exact count that costs far less than
  the request's own scan of [0, p);
* modulo another m that is small (m <= 10**6 and m * (deg + 1) <= 2 * 10**6
  Horner steps), the solution set must equal ``brute_force``;
* a composite modulus n is checked factor by factor as above, and its
  count must be the product of the factor counts (the Chinese remainder
  theorem); a listing of at most LISTING_FULL_CHECK solutions is checked
  in full, so with an exact count it is exactly the solution set;
* otherwise every ball representative, a seeded member of each ball and
  a seeded sample of listed solutions must satisfy P(x) = 0 (mod m), and
  seeded non-members, most of them one digit away from a ball, must not;
* a count must equal the sum of its ball sizes, and balls must be
  pairwise disjoint.

Where a request returns only a count or a listing, the balls it is
checked against come from ``ball_decomposition`` on the request's own
trunk and are checked in turn as above.
"""

from __future__ import annotations

import bisect
import json
import random
import re
from fractions import Fraction

from execute import Answer
from workloads import Poly, Request, is_probable_prime

BRUTE_MAX_MODULUS = 10**6
BRUTE_MAX_STEPS = 2 * 10**6
#: A series is checked against brute force at every level up to this
#: many Horner steps, and by balls at two deeper levels.
SERIES_BRUTE_MAX_STEPS = 10**5
SAMPLE = 24
#: Listings up to this long have every element checked.
LISTING_FULL_CHECK = 4096


class Mismatch(AssertionError):
    """A request's answer is wrong; the run aborts with this message."""


def _fail(req: Request, message: str) -> None:
    raise Mismatch(f"wrong answer for {' '.join(req.argv) or req.kind}"
                   f" poly={req.text!r} p={req.p} e={req.e} n={req.n}: {message}")


def _brute(pt, poly: Poly, m: int, max_steps: int = BRUTE_MAX_STEPS) -> list[int] | None:
    if m > BRUTE_MAX_MODULUS or m * (poly.degree + 1) > max_steps:
        return None
    return pt.brute_force(pt.Polynomial(poly.expanded()), m, budget=m)


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over F_p, f monic; ascending coefficients, trailing zeros stripped."""
    a = a[:]
    d = len(f) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d + 1):
                a[i - d + j] -= c * f[j]
    a = [c % p for c in a[:d]]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_mod(out, f, p)


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def prime_root_count(poly: Poly, p: int) -> int:
    """How many x in [0, p) have P(x) = 0 mod p, for p prime.

    The distinct roots of f = P mod p in F_p are the roots of
    gcd(f, X^p - X), so their number is that gcd's degree.
    """
    f = [c % p for c in poly.expanded()]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return p
    if len(f) == 1:
        return 0
    f = _monic(f, p)
    power, base, k = [1], [0, 1], p  # X^p mod f, by squaring
    while k:
        if k & 1:
            power = _poly_mulmod(power, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        k >>= 1
    g = power + [0] * max(0, 2 - len(power))
    g[1] -= 1  # X^p - X mod f
    a, b = f, _poly_mod(g, f, p)
    while b:
        a, b = b, _poly_mod(a, _monic(b, p), p)
    return len(a) - 1


def _content_valuation(poly: Poly, p: int) -> int:
    coeffs = [c for c in poly.expanded() if c]
    v = 0
    while all(c % p**(v + 1) == 0 for c in coeffs):
        v += 1
    return v


# ----------------------------------------------------------------------
# solution sets
# ----------------------------------------------------------------------

def check_balls(pt, req: Request, poly: Poly, p: int, e: int, balls: list[tuple[int, int]],
                count: int, rng: random.Random, max_steps: int = BRUTE_MAX_STEPS) -> None:
    """balls (r, k) must be exactly the solutions of P mod p**e, count their size."""
    pe = p**e
    if count != sum(p ** (e - k) for _, k in balls):
        _fail(req, f"count {count} is not the sum of the ball sizes mod {p}^{e}")
    for r, k in balls:
        if not (0 <= k <= e and 0 <= r < p**k):
            _fail(req, f"ball ({r}, {k}) is out of range mod {p}^{e}")
    ordered = sorted(balls, key=lambda b: b[1])
    for i, (r, k) in enumerate(ordered):
        pk = p**k
        for r2, _ in ordered[i + 1:]:
            if r2 % pk == r:
                _fail(req, f"balls ({r}, {k}) and ({r2}, ...) overlap")

    def member(x: int) -> bool:
        return any(x % p**k == r for r, k in balls)

    for r, k in balls:
        x = r + rng.randrange(p ** (e - k)) * p**k
        for y in (r, x):
            if not poly.is_root(y, pe):
                _fail(req, f"{y} lies in ball ({r}, {k}) but is no solution mod {p}^{e}")
        if k >= 1:
            y = r + rng.randrange(1, p) * p ** (k - 1)
            if not member(y) and poly.is_root(y, pe):
                _fail(req, f"{y} solves mod {p}^{e} but lies in no ball")
    for _ in range(SAMPLE):
        y = rng.randrange(pe)
        if not member(y) and poly.is_root(y, pe):
            _fail(req, f"{y} solves mod {p}^{e} but lies in no ball")
    if e == 1:
        # the balls are disjoint and their representatives solve, so with the
        # right count they are exactly the solutions
        roots = prime_root_count(poly, p)
        if roots != count:
            _fail(req, f"{count} solutions mod {p}, but gcd(P, X^p - X) has degree {roots}")
        return
    truth = _brute(pt, poly, pe, max_steps)
    if truth is not None:
        if len(truth) != count or not all(member(x) for x in truth):
            _fail(req, f"balls disagree with brute force mod {p}^{e}:"
                       f" {count} vs {len(truth)} solutions")


def check_listing(pt, req: Request, poly: Poly, m: int, listing: list[int],
                  count: int, rng: random.Random, balls=None, p: int = 0) -> None:
    """listing must be the sorted solutions mod m, count of them."""
    if len(listing) != count:
        _fail(req, f"{len(listing)} solutions listed, count says {count}")
    if any(b <= a for a, b in zip(listing, listing[1:])) or (listing and not 0 <= listing[0] <= listing[-1] < m):
        _fail(req, "listing is not strictly increasing inside [0, m)")
    complete = len(listing) <= LISTING_FULL_CHECK
    for x in listing if complete else rng.sample(listing, SAMPLE):
        if not poly.is_root(x, m):
            _fail(req, f"listed {x} is no solution mod {m}")
    for x in rng.sample(listing, min(SAMPLE, len(listing))):
        if balls is not None and not any(x % p**k == r for r, k in balls):
            _fail(req, f"listed {x} lies in no ball")
        y = (x + 1) % m
        i = bisect.bisect_left(listing, y)
        if (i == len(listing) or listing[i] != y) and poly.is_root(y, m):
            _fail(req, f"{y} solves mod {m} but is not listed")
    truth = None if complete else _brute(pt, poly, m)
    if truth is not None and truth != listing:
        _fail(req, f"listing disagrees with brute force mod {m}")


def _check_factored(pt, req: Request, poly: Poly, n: int, count: int, factors,
                    listing: list[int] | None, rng: random.Random) -> None:
    """Composite n: factors [(p, e, count, balls)] and the recombined answer."""
    product = 1
    for p, e, c, balls in factors:
        if not is_probable_prime(p):
            _fail(req, f"factor {p} is not prime")
        product *= p**e
        check_balls(pt, req, poly, p, e, balls, c, rng)
    if product != n or len({f[0] for f in factors}) != len(factors):
        _fail(req, f"factors do not multiply to {n}")
    expected = 1
    for f in factors:
        expected *= f[2]
    if count != expected:
        _fail(req, f"count {count} is not the product of the factor counts {expected}")
    if listing is not None:
        check_listing(pt, req, poly, n, listing, count, rng)


# ----------------------------------------------------------------------
# library answers
# ----------------------------------------------------------------------

def _balls_of(decomposition) -> list[tuple[int, int]]:
    return [(b.r, b.k) for b in decomposition.balls]


def check(pt, req: Request, answer: Answer, rng: random.Random) -> None:
    """Raise Mismatch unless answer is right for req."""
    if req.argv:
        _check_cli(pt, req, answer.value, rng)
        return
    poly, p, e = req.poly, req.p, req.e
    if req.kind == "crt":
        v = answer.value
        factors = [(pp.p, pp.e, s.count, _balls_of(s)) for pp, s in v.factors]
        if v.n != req.n:
            _fail(req, f"answer is for n = {v.n}")
        _check_factored(pt, req, poly, req.n, v.count, factors, v.solutions, rng)
        return
    if req.kind == "member":
        if answer.value != poly.is_root(req.x, p**e):
            _fail(req, f"is_solution({req.x}) returned {answer.value}")
        return
    if req.kind == "balls":
        decomposition = answer.value
        if decomposition.count != answer.count:
            _fail(req, f"count_solutions {answer.count} != ball count {decomposition.count}")
    else:
        decomposition = pt.ball_decomposition(answer.trunk, e)
    balls = _balls_of(decomposition)
    count = answer.count if answer.count is not None else decomposition.count
    check_balls(pt, req, poly, p, e, balls, count, rng)
    if req.kind == "list":
        check_listing(pt, req, poly, p**e, answer.value, count, rng, balls, p)


# ----------------------------------------------------------------------
# CLI output
# ----------------------------------------------------------------------

_TEXT_NODE = re.compile(r"\((\d+),(\d+)\) t=(\d+) s=\d+ phi=(\d+) (\S+)")
_DOT_NODE = re.compile(r'label="\((\d+),(\d+)\) t=(\d+) phi=(\d+)( \S+)?"')


def _check_trunk_nodes(req: Request, poly: Poly, p: int, t0: int,
                       nodes: list[tuple[int, int, int, int]], rng: random.Random) -> None:
    """Each vertex (r, k, t, phi): P vanishes mod p^(phi+t0) on r + p^k Z_p."""
    if not nodes:
        _fail(req, "no trunk vertices")
    phis = {(r, k): phi for r, k, _, phi in nodes}
    for r, k, t, phi in nodes:
        if not (k >= 1 and 0 <= r < p**k and t >= 1):
            _fail(req, f"vertex ({r},{k}) t={t} is malformed")
        parent_phi = 0 if k == 1 else phis.get((r % p ** (k - 1), k - 1))
        if parent_phi is None or phi != parent_phi + t:
            _fail(req, f"vertex ({r},{k}) has no parent or a wrong phi={phi}")
        m = p ** (phi + t0)
        for x in (r, r + rng.randrange(p**8) * p**k):
            if not poly.is_root(x, m):
                _fail(req, f"P({x}) is nonzero mod {p}^{phi + t0} at vertex ({r},{k})")


def _check_trunk(pt, req: Request, out: str, rng: random.Random) -> None:
    fmt = req.argv[req.argv.index("--format") + 1]
    poly, p = req.poly, req.p
    t0 = _content_valuation(poly, p)
    if fmt == "json":
        payload = json.loads(out)["payload"]
        if int(payload["p"]) != p or int(payload["t0"]) != t0:
            _fail(req, "wrong p or t0 in the trunk document")
        records = payload["nodes"][1:]
        nodes = [(int(n["r"]), int(n["k"]), int(n["t"]), int(n["phi"])) for n in records]
        tips = sum(1 for n in records if n["status"] != "expanded")
        if int(payload["tip_count"]) != tips:
            _fail(req, f"tip_count {payload['tip_count']} but {tips} tips listed")
    elif fmt == "text":
        header = dict(line.split(": ", 1) for line in out.splitlines()[:5])
        if int(header["prime"]) != p or int(header["content exponent t0"]) != t0:
            _fail(req, "wrong p or t0 in the trunk text")
        nodes = [tuple(map(int, m.groups()[:4])) for m in _TEXT_NODE.finditer(out)]
    else:
        nodes = [tuple(map(int, m.groups()[:4])) for m in _DOT_NODE.finditer(out)]
        if out.count(" -> ") != len(nodes):
            _fail(req, "dot edges do not match the vertices")
    _check_trunk_nodes(req, poly, p, t0, nodes, rng)


def _library_balls(pt, req: Request, p: int, levels: list[int], max_level: int) -> list[list[tuple[int, int]]]:
    """Balls at each level from one trunk built by the package."""
    trunk = pt.build_trunk(pt.parse(req.text), p, max_level)
    return [_balls_of(pt.ball_decomposition(trunk, e)) for e in levels]


def _check_solve(pt, req: Request, out: str, rng: random.Random) -> None:
    payload = json.loads(out)["payload"]
    poly = req.poly
    count = int(payload["count"])
    listing = None if "solutions" not in payload else [int(x) for x in payload["solutions"]]
    if req.n:
        factors = [(int(f["p"]), int(f["e"]), int(f["count"]),
                    [(int(b["r"]), int(b["k"])) for b in f["balls"]]) for f in payload["factors"]]
        _check_factored(pt, req, poly, req.n, count, factors, listing, rng)
        return
    p, e = req.p, req.e
    if "balls" in payload:
        balls = [(int(b["r"]), int(b["k"])) for b in payload["balls"]]
        for b, (r, k) in zip(payload["balls"], balls):
            if int(b["size"]) != p ** (e - k):
                _fail(req, f"ball ({r}, {k}) has the wrong size")
    else:
        (balls,) = _library_balls(pt, req, p, [e], e)
    check_balls(pt, req, poly, p, e, balls, count, rng)
    if listing is not None:
        check_listing(pt, req, poly, p**e, listing, count, rng, balls, p)


def _check_poincare(pt, req: Request, out: str, rng: random.Random) -> None:
    payload = json.loads(out)["payload"]
    p, poly = req.p, req.poly
    counts = [int(c) for c in payload["counts"]]
    coeffs = [Fraction(c) for c in payload["coefficients"]]
    horizon = int(payload["horizon"])
    if len(counts) != horizon + 1 or counts[0] != 1:
        _fail(req, "series has the wrong length or N_0 != 1")
    for e, (n_e, c) in enumerate(zip(counts, coeffs)):
        if c * p**e != n_e:
            _fail(req, f"coefficient {e} is not N_e / p^e")
    max_level = int(req.argv[req.argv.index("--max-level") + 1]) if "--max-level" in req.argv else 16
    deep = []
    for e in range(1, horizon + 1):
        truth = _brute(pt, poly, p**e, SERIES_BRUTE_MAX_STEPS)
        if truth is None:
            deep.append(e)
        elif len(truth) != counts[e]:
            _fail(req, f"N_{e} = {counts[e]} but brute force finds {len(truth)}")
    levels = rng.sample(deep, min(2, len(deep)))
    if levels:
        max_level = max(max_level, max(levels) - _content_valuation(poly, p), 1)
        for e, balls in zip(levels, _library_balls(pt, req, p, levels, max_level)):
            check_balls(pt, req, poly, p, e, balls, counts[e], rng, SERIES_BRUTE_MAX_STEPS)


def _classify(a: int, b: int, c: int, p: int) -> tuple[str, str]:
    """The discriminant rule for a*X^2 + b*X + c at odd p, restated as the oracle."""
    disc = b * b - 4 * a * c
    if disc == 0:
        return "Kinf", "infinite"
    v = 0
    while disc % p ** (v + 1) == 0:
        v += 1
    if v % 2:
        return "K1", str(v // 2)
    unit = disc // p**v % p
    return ("K2" if pow(unit, (p - 1) // 2, p) == 1 else "K0"), str(v // 2)


def _check_cli(pt, req: Request, out: str, rng: random.Random) -> None:
    if req.kind == "cli.trunk":
        _check_trunk(pt, req, out, rng)
    elif req.kind == "cli.solve":
        _check_solve(pt, req, out, rng)
    elif req.kind == "cli.poincare":
        _check_poincare(pt, req, out, rng)
    elif req.kind == "cli.classify":
        payload = json.loads(out)["payload"]
        c, b, a = req.poly.factors[0][0]
        if (payload["kind"], payload["base_length"]) != _classify(a, b, c, req.p):
            _fail(req, f"classified as {payload['kind']} {payload['base_length']}")
    else:
        raise ValueError(f"unknown request kind {req.kind!r}")
