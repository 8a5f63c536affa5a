"""Generating functions and the degree-two trunk classification.

The counts N_e assemble into the series S(u) = sum N_e * (u/p)**e with
N_0 = 1.  In the variable w = u/p every coefficient is the integer N_e,
so the series is built with integer polynomial algebra in w.  Each
certified infinite branch of constant continuation thickness t repeats
its counts over 1 - p**(t-1) * w**t, which is (1 - u**t / p).  When every
trunk branch is finished or certified infinite, S times the product D of
these factors over the distinct thicknesses is a polynomial (the rational
form of Denef, Invent. Math. 77, 1984): the counts times D, cut at its
degree.  That fraction is S(u) exactly and already in lowest terms.  An
open trunk gives the counts up to its built depth only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """S(u) as the trunk's level counts times its denominator, in w = u/p.

    Past the deepest vertex level t0 + max phi, every count comes from
    certified tails.  Each period of a tail of thickness t is the one
    before times p**(t-1) * w**t, so multiplying by that tail's factor
    1 - p**(t-1) * w**t cancels all but its first period.  Hence S * D,
    for D the product of the factors of the distinct thicknesses, is a
    polynomial of degree at most t0 + max phi + deg D, read off the counts
    up to that level.

    When the trunk has undetermined branches the result is its counts up
    to the built depth (never an error), which every open branch covers.
    """
    p = trunk.p
    if not trunk.fully_resolved:
        counts = _level_counts(trunk, trunk.t0 + trunk.built_depth)
        return RationalSeries(numerator=_to_u(counts, p), denominator=(Fraction(1),),
                              certified=False)
    # No factor divides the numerator, so the fraction is reduced:
    #  * the tails of thickness t sum to a first period over factor_t, whose
    #    coefficients are positive at every level past their phi, so it is
    #    not a polynomial and factor_t does not divide that period;
    #  * p - u**t is Eisenstein at p, so the factors are irreducible and
    #    pairwise coprime, and factor_t divides every other term of S * D;
    #  * w**t0, the shift of P0's levels to P's, is coprime to every factor.
    nodes = list(trunk.iter_nodes())
    thicknesses = sorted({node.t for node in nodes if node.status in CERTIFIED})
    denominator = Polynomial([1])
    for t in thicknesses:
        denominator = denominator * Polynomial([1] + [0] * (t - 1) + [-p ** (t - 1)])
    last = trunk.t0 + max((node.phi for node in nodes), default=0) + denominator.degree
    # S * D agrees with the counts times D up to w**last and has no term past it
    numerator = Polynomial((Polynomial(_level_counts(trunk, last)) * denominator).coeffs[:last + 1])
    return RationalSeries(numerator=_to_u(numerator.coeffs, p),
                          denominator=_to_u(denominator.coeffs, p),
                          certified=True,
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
