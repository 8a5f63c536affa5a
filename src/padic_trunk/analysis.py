"""Generating functions and the degree-two trunk classification.

The counts N_e assemble into S(u) = sum N_e * (u/p)**e.  Every x solves
P mod p**e for e <= t0, so S(u) = 1 + u + ... + u**(t0-1) + u**t0 * S0(u),
S0 the series of P0 = P / p**t0; in w = u/p the coefficients of S0 are
the integers N0_e, so it is built with integer polynomial algebra.  Each
certified infinite branch of constant continuation thickness t repeats
its counts over 1 - p**(t-1) * w**t, which is (1 - u**t / p).  When every
trunk branch is finished or certified infinite, S0 times the product D of
these factors over the distinct thicknesses is a polynomial (the rational
form of Denef, Invent. Math. 77, 1984): the counts times D, cut at its
degree.  That fraction is exact and already in lowest terms.  An open
trunk gives the counts up to its built depth only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .polynomial import Polynomial
from .primes import _strip, is_prime
from .solver import _level_counts
from .trunk import CERTIFIED, Trunk

K0 = "K0"
K1 = "K1"
K2 = "K2"
KINF = "Kinf"


def _series_quotient(num, den, horizon: int) -> list:
    """Power-series coefficients 0..horizon of num / den, for den[0] == 1.

    There is no division, so int inputs give ints and Fractions give
    Fractions.
    """
    coeffs = []
    for i in range(horizon + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * coeffs[i - j]
        coeffs.append(acc)
    return coeffs


def _to_u(coeffs, p: int) -> tuple[Fraction, ...]:
    # the coefficient of w**e is the coefficient of u**e times p**e
    return tuple(Fraction(c, p**e) for e, c in enumerate(coeffs))


@dataclass(frozen=True)
class RationalSeries:
    """S(u) as numerator/denominator with exact rational coefficients.

    certified means the source trunk had no undetermined branch, so the
    closed form is exact; otherwise the numerator is the list of known
    coefficients N_e / p**e and the denominator is 1.
    """

    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]
    certified: bool
    #: (t, 1) for the factor 1 - u**t / p of each distinct certified-tail
    #: thickness t; the denominator is their product, in lowest terms
    denominator_factors: tuple[tuple[int, int], ...] = ()

    def expand(self, horizon: int) -> list[Fraction]:
        """Series coefficients for u**0 .. u**horizon; entry e is N_e / p**e."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not self.certified and horizon >= len(self.numerator):
            raise ValueError("series is only known up to its truncation;"
                             " rebuild the trunk deeper for more coefficients")
        return [Fraction(c) for c in
                _series_quotient(self.numerator, self.denominator, horizon)]


def poincare_series(trunk: Trunk) -> RationalSeries:
    """S(u) = N / D for P = p**t0 * P0, N = (1 + ... + u**(t0-1)) * D + u**t0 * N0.

    Past the deepest vertex level max phi, every count of P0 comes from
    certified tails.  Each period of a tail of thickness t is the one
    before times p**(t-1) * w**t, so multiplying by that tail's factor
    1 - p**(t-1) * w**t cancels all but its first period.  Hence S0 * D,
    for D the product of the factors of the distinct thicknesses, is a
    polynomial N0 of degree at most max phi + deg D, read off the counts
    up to that level.  An open trunk has D = 1 and N0 its counts up to the
    built depth (never an error), which every open branch covers.
    """
    p, t0, certified = trunk.p, trunk.t0, trunk.fully_resolved
    nodes = list(trunk.iter_nodes())
    thicknesses = sorted({node.t for node in nodes if certified and node.status in CERTIFIED})
    denominator = Polynomial([1])
    for t in thicknesses:
        denominator = denominator * Polynomial([1] + [0] * (t - 1) + [-p ** (t - 1)])
    last = (max((node.phi for node in nodes), default=0) + denominator.degree if certified
            else trunk.built_depth)
    # S0 * D agrees with the counts times D up to w**last and has no term past it
    n0 = (Polynomial(_level_counts(trunk, last)) * denominator).coeffs[:last + 1]
    D, N0 = _to_u(denominator.coeffs, p), _to_u(n0, p)
    # (1 + ... + u**(t0-1)) * D is the prefix sums of (1 - u**t0) * D: those of D, constant
    # past deg D, up to u**(t0-1), then less those of D; u**t0 * N0 adds on from u**t0
    prefix = list(accumulate(D))
    prefix += prefix[-1:] * t0
    high = [a - b for a, b in zip(prefix[t0:], prefix)]
    high = [a + b for a, b in zip(high, N0)] + high[len(N0):] + list(N0[len(high):])
    numerator = prefix[:t0] + high
    while not numerator[-1]:
        numerator.pop()
    # No factor divides the numerator, so the fraction is reduced:
    #  * the tails of thickness t sum to a first period over factor_t, whose
    #    coefficients are positive at every level past their phi, so it is
    #    not a polynomial and factor_t does not divide that period;
    #  * p - u**t is Eisenstein at p, so the factors are irreducible and
    #    pairwise coprime, and factor_t divides every other term of N0;
    #  * a factor dividing the numerator would divide u**t0 * N0, but every
    #    factor is 1 at u = 0, so coprime to u**t0, and so it would divide N0.
    return RationalSeries(numerator=tuple(numerator), denominator=D, certified=certified,
                          denominator_factors=tuple((t, 1) for t in thicknesses))


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
    unit, v = _strip(disc, p)
    stem = v // 2
    if v % 2 == 1:
        return QuadraticClass(K1, stem)
    if pow(unit, (p - 1) // 2, p) == 1:
        return QuadraticClass(K2, stem)
    return QuadraticClass(K0, stem)
