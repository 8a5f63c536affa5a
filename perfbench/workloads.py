"""Seeded request lists for the three benchmark workloads.

Every request starts from the text a user would type.  Next to the text,
each request carries its polynomial in an independent factored form
(``Poly``) that the checks evaluate without the package's parser or
polynomial arithmetic.

Requests come in fixed blocks: slot j of every block always has the same
kind, family and prime.  The size parameters that drive cost (depth,
prime size, degree, listing size) follow a fixed golden-ratio sequence
per slot, so any prefix of blocks covers each range evenly; the seed
draws the instances (constants, roots, coefficients, cofactors) within
that schedule.  Every seed then sees nearly the same cost mix, which
keeps run-to-run spread small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field

GOLDEN = (math.sqrt(5) - 1) / 2

#: Over-cap primes lie in (10**6, 2**60]; the seed commit refuses p > 10**6.
OVER_CAP_LO = 10**6

WORKLOADS = ("deep", "wide", "session")


# ----------------------------------------------------------------------
# independent polynomial representation
# ----------------------------------------------------------------------

def _render(coeffs: tuple[int, ...]) -> str:
    """Descending-degree text of an ascending coefficient tuple."""
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            power = "X" if i == 1 else f"X^{i}"
            term = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts) or "0"


def horner(coeffs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


@dataclass(frozen=True)
class Poly:
    """const * prod(f_i ** m_i) with each f_i an ascending coefficient tuple."""

    const: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def degree(self) -> int:
        return sum((len(f) - 1) * m for f, m in self.factors)

    def text(self) -> str:
        if self.const == 1 and len(self.factors) == 1 and self.factors[0][1] == 1:
            return _render(self.factors[0][0])
        parts = [] if self.const == 1 else [str(self.const)]
        for f, m in self.factors:
            body = "X" if f == (0, 1) else f"({_render(f)})"
            parts.append(body if m == 1 else f"{body}^{m}")
        return "*".join(parts) or "1"

    def eval_mod(self, x: int, m: int) -> int:
        acc = self.const % m
        for f, mult in self.factors:
            acc = acc * pow(horner(f, x, m), mult, m) % m
        return acc

    def is_root(self, x: int, m: int) -> bool:
        return self.eval_mod(x, m) == 0

    def expanded(self) -> list[int]:
        """Ascending coefficients of the product, by plain convolution."""
        out = [self.const]
        for f, mult in self.factors:
            for _ in range(mult):
                nxt = [0] * (len(out) + len(f) - 1)
                for i, a in enumerate(out):
                    for j, b in enumerate(f):
                        nxt[i + j] += a * b
                out = nxt
        return out


def _linear(root: int) -> tuple[int, int]:
    return (-root, 1)


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ----------------------------------------------------------------------
# number theory for input generation (independent of the package)
# ----------------------------------------------------------------------

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def _is_qr(a: int, p: int) -> bool:
    """a is a nonzero square mod p (p = 2: a = 1 mod 8, a square in Z_2)."""
    if p == 2:
        return a % 8 == 1
    return a % p != 0 and pow(a, (p - 1) // 2, p) == 1


def _is_square(a: int) -> bool:
    return a >= 0 and math.isqrt(a) ** 2 == a


def _irrational_square_class(rng: random.Random, p: int) -> int:
    """a with sqrt(a) in Z_p but not in Q, so (X^2 - a)^m never splits."""
    while True:
        a = rng.randint(2, 300) * rng.choice((1, -1))
        if not _is_square(a) and _is_qr(a, p):
            return a


def _off_roots(rng: random.Random, a: int, p: int) -> int:
    """b with b^2 != a mod p, so X - b never merges with the roots of X^2 - a."""
    while True:
        b = rng.randint(-40, 40)
        if (b * b - a) % p:
            return b


def _rootless(rng: random.Random, p: int, degree: int) -> tuple[int, ...]:
    """A monic polynomial of the given degree with no roots mod p."""
    while True:
        c = tuple(rng.randint(-30, 30) for _ in range(degree)) + (1,)
        if all(horner(c, x, p) for x in range(p)):
            return c




# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    kind selects the public call sequence (see execute.execute);
    cli requests carry their argv and leave the numeric fields as the
    checks need them.
    """

    kind: str
    poly: Poly
    text: str
    p: int = 0
    e: int = 0
    n: int = 0
    x: int = 0
    count_only: bool = False
    over_cap: bool = False
    argv: tuple[str, ...] = field(default=())

    def as_json(self) -> dict:
        d = asdict(self)
        d["poly"] = {"const": str(self.poly.const),
                     "factors": [[[str(c) for c in f], m] for f, m in self.poly.factors]}
        for key in ("p", "n", "x"):
            d[key] = str(d[key])
        return d


def _quantile(slot: int, block: int) -> float:
    """Size schedule: slot j of block b gets frac(j * (sqrt 2 - 1) + b * GOLDEN)."""
    return (slot * (math.sqrt(2) - 1) + block * GOLDEN) % 1.0


def _log_uniform(lo: float, hi: float, q: float) -> float:
    return lo * (hi / lo) ** q


def _span(lo: int, hi: int, q: float) -> int:
    return lo + int((hi - lo) * q)


# -- deep ---------------------------------------------------------------

# Repeated-root slots: (family, p, lowest e, highest e).  Build cost grows
# faster than e^2 and with the degree, so the higher-degree families get the
# shallower ranges and no single family dominates a block.
DEEP_REPEATED = (
    ("double_irrational", 13, 150, 400),
    ("double_irrational_linear", 7, 120, 300),
    ("double_rational_pair", 5, 150, 400),
    ("three_roots_mod2", 2, 100, 200),
    ("triple_irrational", 5, 100, 250),
    ("pure_power", 3, 100, 400),
)
DEEP_SIMPLE_PRIMES = (2, 3, 5, 7, 13)
DEEP_SIMPLE_QUERIES = ("balls", "member", "list", "count")
DEEP_SIMPLE_E = (500, 1500)


def _deep_repeated(rng: random.Random, family: str, p: int) -> Poly:
    if family == "double_irrational":
        a = _irrational_square_class(rng, p)
        return Poly(1, (((-a, 0, 1), 2),))
    if family == "double_irrational_linear":
        a = _irrational_square_class(rng, p)
        return Poly(1, (((-a, 0, 1), 2), (_linear(_off_roots(rng, a, p)), 1)))
    if family == "double_rational_pair":
        b = rng.randint(-40, 40)
        c = b + rng.randint(1, p - 1) + p * rng.randint(-5, 5)
        return Poly(1, ((_linear(b), 2), (_linear(c), 2)))
    if family == "three_roots_mod2":
        b = rng.randint(2, 40) * rng.choice((1, -1))
        return Poly(1, ((_linear(b), 3), (_linear(b + 1), 3), (_linear(b - 1), 2)))
    if family == "triple_irrational":
        a = _irrational_square_class(rng, p)
        return Poly(1, (((-a, 0, 1), 3),))
    if family == "pure_power":
        const = rng.choice((1, p, p * p, rng.randint(2, 9)))
        return Poly(const, ((_linear(rng.randint(-40, 40)), rng.randint(2, 4)),))
    raise ValueError(family)


def _simple_root_poly(rng: random.Random, p: int, degree: int) -> tuple[Poly, int]:
    """(X - r1) * Q * pad with only simple roots mod p; returns (P, r1).

    Q = prod(X - r_i) + p*c has simple roots mod p away from r1, so its
    p-adic roots are in general irrational; pad has no roots mod p.
    """
    r1 = rng.randint(-40, 40)
    others = [r for r in range(p) if r != r1 % p]
    rng.shuffle(others)
    k = min(len(others), max(1, degree - 3), 3)
    q: tuple[int, ...] = (1,)
    for r in others[:k]:
        q = _mul(q, _linear(r + p * rng.randint(-3, 3)))
    q = (q[0] + p * rng.choice((1, -1, 2, -2)),) + q[1:]
    factors = [(_linear(r1), 1), (q, 1)]
    if 1 + k + 2 <= max(degree, 3):
        factors.append((_rootless(rng, p, 2), 1))
    return Poly(1, tuple(factors)), r1


def _deep(rng: random.Random, count: int) -> list[Request]:
    out: list[Request] = []
    block = 0
    while len(out) < count:
        for slot, (family, p, lo, hi) in enumerate(DEEP_REPEATED):
            poly = _deep_repeated(rng, family, p)
            e = int(round(_log_uniform(lo, hi, _quantile(slot, block))))
            out.append(Request("balls", poly, poly.text(), p=p, e=e))
        for j in range(2):
            slot = len(DEEP_REPEATED) + j
            p = DEEP_SIMPLE_PRIMES[(2 * block + j) % len(DEEP_SIMPLE_PRIMES)]
            query = DEEP_SIMPLE_QUERIES[(2 * block + j) % len(DEEP_SIMPLE_QUERIES)]
            e = int(round(_log_uniform(*DEEP_SIMPLE_E, _quantile(slot, block))))
            poly, r1 = _simple_root_poly(rng, p, 2 + (block + 2 * j) % 5)
            x = 0
            if query == "member":
                # alternately an exact root and one that fails only at digit e-1
                x = r1 if block % 2 == 0 else r1 + rng.randint(1, p - 1) * p ** (e - 1)
                x %= p**e
            out.append(Request(query, poly, poly.text(), p=p, e=e, x=x))
        block += 1
    return out[:count]


# -- wide ---------------------------------------------------------------

WIDE_P = (10**3, 2 * 10**5)
WIDE_SLOTS = 20  # slot 19 is the over-cap request: a share of exactly 1/20
WIDE_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _wide_poly(rng: random.Random, degree: int) -> Poly:
    coeffs = [rng.randint(-99, 99) for _ in range(degree)] + [rng.choice((1, -1)) * rng.randint(1, 99)]
    if not any(coeffs[:-1]):
        coeffs[0] = 1
    return Poly(1, ((tuple(coeffs), 1),))


def _small_cofactor(rng: random.Random) -> int:
    s = 1
    for q in rng.sample(WIDE_SMALL_PRIMES, rng.randint(1, 3)):
        s *= q ** rng.randint(1, 3)
    return s


def _over_cap_prime(rng: random.Random, q: float) -> int:
    bits = 21 + int(40 * q)
    return next_prime(max(OVER_CAP_LO + 1, rng.getrandbits(bits) | (1 << (bits - 1))))


def _wide(rng: random.Random, count: int) -> list[Request]:
    out: list[Request] = []
    block = 0
    while len(out) < count:
        for slot in range(WIDE_SLOTS):
            poly = _wide_poly(rng, 2 + slot % 5)
            if slot == WIDE_SLOTS - 1:
                q = _over_cap_prime(rng, _quantile(slot, block))
                if block % 2 == 0:
                    out.append(Request("count", poly, poly.text(), p=q, e=rng.randint(1, 2),
                                       over_cap=True))
                else:
                    out.append(Request("crt", poly, poly.text(), n=q * _small_cofactor(rng),
                                       count_only=True, over_cap=True))
                continue
            p = next_prime(int(_log_uniform(*WIDE_P, _quantile(slot, block))))
            kind = ("count", "balls", "crt")[slot % 3]
            if kind == "crt":
                n = p * _small_cofactor(rng)
                out.append(Request("crt", poly, poly.text(), n=n, count_only=(slot // 3) % 2 == 0))
            else:
                out.append(Request(kind, poly, poly.text(), p=p, e=1 + (slot // 3) % 3))
        block += 1
    return out[:count]


# -- session ------------------------------------------------------------

SESSION_PATTERN = (
    "solve_high_degree", "trunk_json", "solve_listing", "solve_modulus",
    "poincare_certified", "classify", "solve_high_degree", "trunk_text",
    "poincare_open", "solve_modulus", "trunk_dot", "classify",
)
SESSION_DEGREE = (50, 300)
SESSION_TRUNK_DEPTH = (100, 300)
SESSION_LISTING = (10**4, 10**6)
#: Shares of the total degree for (X - r1), (X - r2), a quadratic and a
#: cubic without roots mod p.  Only r1 and r2 are roots mod p, so the trunk
#: shape, and with it the cost, depends on the degree and not on the draw.
_HIGH_DEGREE_SHARES = (0.3, 0.3, 0.2, 0.2)
#: CRT listings: n is a product of k of these primes, P has three roots
#: that stay distinct mod each, so there are exactly 3^k solutions.
_MODULUS_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _cli(rng, kind: str, q: float, block: int) -> Request:
    if kind == "solve_high_degree":
        # a product of powers of total degree ~D, built shallow: deeper
        # levels at high degree cost O(D^2) per vertex in shift_scale
        target = _log_uniform(*SESSION_DEGREE, q)
        p = (2, 3, 5)[block % 3]
        r1 = rng.randint(-20, 20)
        r2 = r1 + rng.randint(1, p - 1) + p * rng.randint(-3, 3)
        bases = (_linear(r1), _linear(r2), _rootless(rng, p, 2), _rootless(rng, p, 3))
        poly = Poly(1, tuple((b, max(1, round(target * share / (len(b) - 1))))
                             for b, share in zip(bases, _HIGH_DEGREE_SHARES)))
        e = max(2, min(8, round(8 * (50 / poly.degree) ** 1.3)))
        argv = ("solve", "--poly", poly.text(), "--prime", str(p), "--exp", str(e), "--balls", "--format", "json")
        return Request("cli.solve", poly, poly.text(), p=p, e=e, argv=argv)
    if kind.startswith("trunk_"):
        p = (3, 5, 7, 13)[block % 4]
        a = _irrational_square_class(rng, p)
        poly = Poly(1, (((-a, 0, 1), 2),))
        depth = int(round(_log_uniform(*SESSION_TRUNK_DEPTH, q)))
        fmt = kind.split("_")[1]
        argv = ("trunk", "--poly", poly.text(), "--prime", str(p), "--max-level", str(depth), "--format", fmt)
        return Request("cli.trunk", poly, poly.text(), p=p, e=depth, argv=argv)
    if kind == "solve_listing":
        target = _log_uniform(*SESSION_LISTING, q)
        p, e, mults = min(_LISTING_SHAPES, key=lambda s: (abs(math.log(s[3] / target)), rng.random()))[:3]
        poly = Poly(1, tuple((_linear(r), m) for r, m in zip((0, 1, 2), mults)))
        argv = ("solve", "--poly", poly.text(), "--prime", str(p), "--exp", str(e), "--format", "json")
        return Request("cli.solve", poly, poly.text(), p=p, e=e, argv=argv)
    if kind == "solve_modulus":
        primes = rng.sample(_MODULUS_PRIMES, 5 + block % 4)
        n = 1
        for q_ in primes:
            n *= q_ ** rng.choice((1, 1, 2))
        while True:
            roots = rng.sample(range(-40, 41), 3)
            if all(math.gcd(a - b, n) == 1 for a in roots for b in roots if a != b):
                break
        poly = Poly(1, tuple((_linear(r), 1) for r in roots))
        argv = ("solve", "--poly", poly.text(), "--modulus", str(n), "--format", "json")
        return Request("cli.solve", poly, poly.text(), n=n, argv=argv)
    if kind == "poincare_certified":
        p = (3, 5, 7)[block % 3]
        if block % 2 == 0:
            poly, _ = _simple_root_poly(rng, p, rng.randint(3, 5))
        else:
            poly = Poly(rng.choice((1, p)), ((_linear(rng.randint(-20, 20)), rng.randint(2, 4)),))
        argv = ("poincare", "--poly", poly.text(), "--prime", str(p), "--format", "json")
        return Request("cli.poincare", poly, poly.text(), p=p, e=16, argv=argv)
    if kind == "poincare_open":
        p = (3, 5, 7)[block % 3]
        a = _irrational_square_class(rng, p)
        poly = Poly(1, (((-a, 0, 1), 2), (_linear(_off_roots(rng, a, p)), 1)))
        level = _span(20, 60, q)
        argv = ("poincare", "--poly", poly.text(), "--prime", str(p), "--max-level", str(level),
                "--format", "json")
        return Request("cli.poincare", poly, poly.text(), p=p, e=level, argv=argv)
    if kind == "classify":
        p = (3, 5, 7, 11, 13)[block % 5]
        a = rng.choice([x for x in range(1, 30) if x % p])
        if block % 4 == 0:
            r = rng.randint(-20, 20)
            coeffs = (a * r * r, -2 * a * r, a)  # discriminant 0: the infinite stem
        else:
            coeffs = (rng.randint(-200, 200), rng.randint(-50, 50), a)
        poly = Poly(1, ((coeffs, 1),))
        argv = ("classify", "--poly", poly.text(), "--prime", str(p), "--format", "json")
        return Request("cli.classify", poly, poly.text(), p=p, argv=argv)
    raise ValueError(kind)


def _listing_shapes() -> list[tuple[int, int, tuple[int, int, int], int]]:
    """(p, e, multiplicities, count) for X^a (X-1)^b (X-2)^c with counts in range.

    Near each root r of multiplicity m, x solves mod p^e exactly when
    x = r mod p^ceil(e/m); the roots stay apart mod every p >= 3.
    """
    shapes = []
    for p in (3, 5, 7):
        for e in range(6, 31):
            for mults in ((2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1), (4, 3, 2), (5, 2, 1), (6, 3, 1)):
                count = sum(p ** (e - -(-e // m)) for m in mults)
                if SESSION_LISTING[0] // 2 <= count <= SESSION_LISTING[1]:
                    shapes.append((p, e, mults, count))
    return shapes


_LISTING_SHAPES = _listing_shapes()


def _session(rng: random.Random, count: int) -> list[Request]:
    out: list[Request] = []
    block = 0
    while len(out) < count:
        for slot, kind in enumerate(SESSION_PATTERN):
            out.append(_cli(rng, kind, _quantile(slot, block), block))
        block += 1
    return out[:count]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

#: Requests per second of request time at the seed commit on the baseline
#: machine (2-vCPU Xeon VM, CPython 3.11), and the block size of each list.
#: A run's list holds whole blocks, about as many requests as the seed
#: commit completes in --seconds: fixed for a seed and --seconds, so the
#: requests attempted and failed repeat exactly from run to run.
SEED_RATE = {"deep": 11, "wide": 38, "session": 26}
BLOCK = {"deep": len(DEEP_REPEATED) + 2, "wide": WIDE_SLOTS, "session": len(SESSION_PATTERN)}

_GENERATORS = {"deep": _deep, "wide": _wide, "session": _session}


def list_length(workload: str, seconds: float) -> int:
    block = BLOCK[workload]
    return block * max(1, round(SEED_RATE[workload] * seconds / block))


def generate(workload: str, seed: int, count: int) -> list[Request]:
    """The first count requests of a workload; the same seed gives the same list."""
    rng = random.Random(f"padic-trunk-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, count)


def request_hash(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update(json.dumps(req.as_json(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
