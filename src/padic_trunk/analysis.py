"""Generating functions and the degree-two trunk classification.

The counts N_e assemble into the series S(u) = sum N_e * (u/p)**e with
N_0 = 1.  When every trunk branch is finished or certified infinite, the
series is an exact rational function: each vertex contributes a finite
block for its level window, and each certified infinite branch adds a
geometric tail whose denominator factor is (1 - u**t / p) for its
constant continuation thickness t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Polynomial, val_p
from .primes import is_prime
from .trunk import (
    CERTIFIED,
    STATUS_CYCLE,
    STATUS_HENSEL,
    STATUS_LEAF,
    STATUS_UNDETERMINED,
    Trunk,
)

K0 = "K0"
K1 = "K1"
K2 = "K2"
KINF = "Kinf"


# ----------------------------------------------------------------------
# small helpers for polynomials in u with exact rational coefficients
# ----------------------------------------------------------------------

def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _trim(out)


def _div_exact(num: list[Fraction], f: list[Fraction]) -> list[Fraction] | None:
    """Quotient num / f when the division is exact, else None."""
    if not num:
        return []
    if len(num) < len(f):
        return None
    rem = list(num)
    quot = [Fraction(0)] * (len(num) - len(f) + 1)
    lead = f[-1]
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(f) - 1] / lead
        quot[i] = c
        if c:
            for j, fc in enumerate(f):
                rem[i + j] -= c * fc
    if any(rem):
        return None
    return _trim(quot)


def _series_quotient(num: tuple[Fraction, ...], den: tuple[Fraction, ...],
                     horizon: int) -> list[Fraction]:
    # den[0] is 1 by construction
    coeffs: list[Fraction] = []
    for i in range(horizon + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * coeffs[i - j]
        coeffs.append(acc / den[0])
    return coeffs


def _factor_poly(key: tuple[int, int], p: int) -> list[Fraction]:
    # the denominator factor 1 - u**a / p**b
    a, b = key
    return [Fraction(1)] + [Fraction(0)] * (a - 1) + [Fraction(-1, p**b)]


@dataclass(frozen=True)
class RationalSeries:
    """S(u) as numerator/denominator with exact rational coefficients.

    certified means the source trunk had no undetermined branch, so the
    closed form is exact; otherwise only `truncation` holds meaningful
    data (the partial coefficients N_e / p**e) and numerator/denominator
    merely encode that truncated polynomial.
    """

    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]
    certified: bool
    truncation: tuple[Fraction, ...] | None = None
    #: (a, b) pairs for the surviving denominator factors 1 - u**a / p**b
    denominator_factors: tuple[tuple[int, int], ...] = ()

    def expand(self, horizon: int) -> list[Fraction]:
        """Series coefficients for u**0 .. u**horizon; entry e is N_e / p**e."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not self.certified:
            if self.truncation is None or horizon >= len(self.truncation):
                raise ValueError(
                    "series is only known up to its truncation;"
                    " rebuild the trunk deeper for more coefficients")
            return list(self.truncation[:horizon + 1])
        return _series_quotient(self.numerator, self.denominator, horizon)


def poincare_series(trunk: Trunk) -> RationalSeries:
    """Exact closed form of S(u) when the trunk is fully resolved.

    With undetermined branches the result falls back to a truncated
    coefficient list (never an error); the truncation horizon is the
    built depth, which every open branch is guaranteed to cover.
    """
    p, t0 = trunk.p, trunk.t0
    if not trunk.fully_resolved:
        # counts[e] = N_(t0+e) / p**t0 for e up to the built depth, from one
        # pass adding each vertex's window and certified tail (see solver)
        depth = trunk.built_depth
        counts = [1] + [0] * depth
        for node in trunk.iter_nodes():
            k, t, phi = node.k, node.t, node.phi
            for e in range(phi - t + 1, min(phi, depth) + 1):
                counts[e] += p ** (e - k)
            if node.status in CERTIFIED:
                for e in range(phi + 1, depth + 1):
                    counts[e] += p ** (e - k + (phi - e) // t)
        coeffs = (Fraction(1),) * t0 + tuple(
            Fraction(n, p**e) for e, n in enumerate(counts))
        return RationalSeries(numerator=coeffs, denominator=(Fraction(1),),
                              certified=False, truncation=coeffs)

    terms: list[tuple[list[Fraction], tuple[int, int] | None]] = [([Fraction(1)], None)]
    for node in trunk.iter_nodes():
        k, t, phi = node.k, node.t, node.phi
        # window block: p**(e-k) solutions at each level phi-t < e <= phi
        block = [Fraction(0)] * (phi - t + 1) + [Fraction(1, p**k)] * t
        terms.append((block, None))
        if node.status in CERTIFIED:
            # geometric tail: one vertex per level beyond, thickness t each,
            # summing to u**(phi+1) (1 + ... + u**(t-1)) / p**(k+1) / (1 - u**t/p)
            tail = [Fraction(0)] * (phi + 1) + [Fraction(1, p**(k + 1))] * t
            terms.append((tail, (t, 1)))

    keys = sorted({key for _, key in terms if key is not None})
    factor_polys = {key: _factor_poly(key, p) for key in keys}
    numerator: list[Fraction] = []
    for block, key in terms:
        for other in keys:
            if other != key:
                block = _mul(block, factor_polys[other])
        numerator = _add(numerator, block)

    remaining = list(keys)
    cancelled = True
    while cancelled:
        cancelled = False
        for key in list(remaining):
            quotient = _div_exact(numerator, factor_polys[key])
            if quotient is not None:
                numerator = quotient
                remaining.remove(key)
                cancelled = True
    denominator = [Fraction(1)]
    for key in remaining:
        denominator = _mul(denominator, factor_polys[key])

    if t0:
        # p**t0 * P0 solves every level e < t0 outright:
        # S(u) = 1 + u + ... + u**(t0-1) + u**t0 * S0(u)
        head = [Fraction(1)] * t0
        numerator = _add(_mul(head, denominator),
                         [Fraction(0)] * t0 + numerator)

    return RationalSeries(numerator=tuple(numerator),
                          denominator=tuple(denominator),
                          certified=True,
                          denominator_factors=tuple(remaining))


# ----------------------------------------------------------------------
# degree-two classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticClass:
    """Trunk shape of a quadratic over an odd prime.

    base_length is the number of thickness-2 stem vertices above the
    root; None marks the infinite stem of kind Kinf.
    """

    kind: str
    base_length: int | None


def classify_quadratic(P: Polynomial, p: int) -> QuadraticClass:
    """Classify the trunk shape of a quadratic from its discriminant.

    With D = b*b - 4*a*c and v its valuation at p:  D = 0 gives the
    infinite stem Kinf; odd v gives K1 (one thickness-1 dead end); even
    v gives K2 or K0 according to whether the unit part D / p**v is a
    quadratic residue modulo p.  The stem length is v // 2 throughout.
    """
    if P.is_zero or P.degree != 2:
        raise ValueError("not quadratic")
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    a = P.coefficient(2)
    b = P.coefficient(1)
    c = P.coefficient(0)
    if a % p == 0:
        raise ValueError("p divides leading coefficient")
    disc = b * b - 4 * a * c
    if disc == 0:
        return QuadraticClass(KINF, None)
    v = val_p(disc, p)
    stem = v // 2
    if v % 2 == 1:
        return QuadraticClass(K1, stem)
    unit = (disc // p**v) % p
    if pow(unit, (p - 1) // 2, p) == 1:
        return QuadraticClass(K2, stem)
    return QuadraticClass(K0, stem)


def quadratic_class_from_trunk(trunk: Trunk) -> QuadraticClass:
    """Read the classification off a built trunk, shape by shape.

    Independent of the discriminant formula; used to cross-check it.
    The trunk must be deep enough that the finite shapes are resolved
    (base length + 2 levels suffice), otherwise a still-open stem is
    reported as Kinf.
    """
    node = trunk.root
    stem = 0
    while True:
        if node.status in (STATUS_CYCLE, STATUS_UNDETERMINED):
            return QuadraticClass(KINF, None)
        if node.status == STATUS_LEAF:
            return QuadraticClass(K0, stem)
        kids = node.children
        if len(kids) == 1 and kids[0].t == 2:
            stem += 1
            node = kids[0]
            continue
        if len(kids) == 1 and kids[0].t == 1 and kids[0].status == STATUS_LEAF:
            return QuadraticClass(K1, stem)
        if len(kids) == 2 and all(k.t == 1 and k.status == STATUS_HENSEL for k in kids):
            return QuadraticClass(K2, stem)
        raise ValueError("unexpected trunk shape for a quadratic")
