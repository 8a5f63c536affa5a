"""Generating functions and the degree-two trunk classification.

The counts N_e assemble into S(u) = sum N_e * (u/p)**e.  Every x solves
P mod p**e for e <= t0, so S(u) = 1 + u + ... + u**(t0-1) + u**t0 * S0(u),
S0 the series of P0 = P / p**t0; in w = u/p the coefficients of S0 are
the integers N0_e, so it is built and expanded in integers, and Fractions
in u are formed only at the API edge.  Each certified infinite branch of
constant continuation thickness t repeats its counts over
1 - p**(t-1) * w**t, which is (1 - u**t / p).  When every trunk branch is
finished or certified infinite, S0 times the product D of these factors
over the distinct thicknesses is a polynomial (the rational form of Denef,
Invent. Math. 77, 1984): the counts times D, cut at its degree.  That
fraction is exact and already in lowest terms.  An open trunk gives the
counts up to its built depth only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .polynomial import Polynomial, _mul_coeffs
from .primes import _strip, is_prime
from .solver import _level_counts
from .trunk import CERTIFIED, STATUS_UNDETERMINED, Trunk

K0 = "K0"
K1 = "K1"
K2 = "K2"
KINF = "Kinf"


@dataclass(frozen=True)
class RationalSeries:
    """S(u) = 1 + u + ... + u**(t0-1) + u**t0 * N0(w) / D(w), w = u/p.

    N0 and D are integer coefficients of w**e, each with constant term 1 and
    no trailing zero, so counts() are ints; numerator, denominator and
    expand() give the exact coefficients in u.  certified means the source
    trunk had no undetermined branch, so the closed form is exact; otherwise
    D = 1 and N0 lists P0's known counts.
    """

    p: int
    t0: int
    w_numerator: tuple[int, ...]
    w_denominator: tuple[int, ...]
    certified: bool
    #: (t, 1) for the factor 1 - u**t / p of each distinct certified-tail
    #: thickness t; the denominator is their product, in lowest terms
    denominator_factors: tuple[tuple[int, int], ...] = ()

    def _in_u(self, coeffs) -> list[Fraction]:
        """c / p**e for the coefficient c of each w**e: the one conversion to u."""
        fractions, scale = [], 1
        for c in coeffs:
            fractions.append(Fraction(c, scale))
            scale *= self.p
        return fractions

    @property
    def denominator(self) -> tuple[Fraction, ...]:
        return tuple(self._in_u(self.w_denominator))

    @property
    def numerator(self) -> tuple[Fraction, ...]:
        """(1 + ... + u**(t0-1)) * D + u**t0 * N0 in u: the prefix sums of
        (1 - u**t0) * D, those of D up to u**(t0-1) and then less them, plus
        u**t0 * N0; past deg D the prefix sums of D are constant."""
        t0, D, N0 = self.t0, self.denominator, self._in_u(self.w_numerator)
        prefix = list(accumulate(D))
        prefix += prefix[-1:] * t0
        high = [a - b for a, b in zip(prefix[t0:], prefix)]
        high = [a + b for a, b in zip(high, N0)] + high[len(N0):] + N0[len(high):]
        numerator = prefix[:t0] + high
        while not numerator[-1]:
            numerator.pop()
        return tuple(numerator)

    def _counts0(self, horizon: int) -> list[int]:
        """P0's counts at levels 0 .. horizon - t0: the power series N0 / D, by its recurrence."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not self.certified and horizon >= self.t0 + len(self.w_numerator):
            raise ValueError("series is only known up to its truncation;"
                             " rebuild the trunk deeper for more coefficients")
        num, den, coeffs = self.w_numerator, self.w_denominator, []
        for i in range(horizon - self.t0 + 1):
            acc = num[i] if i < len(num) else 0
            for j in range(1, min(i, len(den) - 1) + 1):
                acc -= den[j] * coeffs[i - j]
            coeffs.append(acc)
        return coeffs

    def counts(self, horizon: int) -> list[int]:
        """The counts N_0 .. N_horizon: p**e up to t0, then p**t0 times P0's at e - t0."""
        counts0, p, t0 = self._counts0(horizon), self.p, self.t0
        content = p**t0 if counts0 else 1  # formed once, and only when a count needs it
        return [p**e for e in range(min(t0, horizon + 1))] + [content * n for n in counts0]

    def expand(self, horizon: int) -> list[Fraction]:
        """Series coefficients for u**0 .. u**horizon; entry e is N_e / p**e."""
        counts0 = self._counts0(horizon)
        return [Fraction(1)] * min(self.t0, horizon + 1) + self._in_u(counts0)


def poincare_series(trunk: Trunk) -> RationalSeries:
    """S0 = N0 / D in w for P = p**t0 * P0, with the content as a shift in u.

    Past the deepest vertex level max phi, every count of P0 comes from
    certified tails.  Each period of a tail of thickness t is the one
    before times p**(t-1) * w**t, so multiplying by that tail's factor
    1 - p**(t-1) * w**t cancels all but its first period.  Hence S0 * D,
    for D the product of the factors of the distinct thicknesses, is a
    polynomial N0 of degree at most max phi + deg D, read off the counts
    up to that level.  An open trunk has D = 1 and N0 its counts up to the
    built depth (never an error), which every open branch covers.

    No factor divides the numerator in u, so the fraction is reduced:
     * the tails of thickness t sum to a first period over factor_t, whose
       coefficients are positive at every level past their phi, so it is
       not a polynomial and factor_t does not divide that period;
     * p - u**t is Eisenstein at p, so the factors are irreducible and
       pairwise coprime, and factor_t divides every other term of N0;
     * a factor dividing the numerator would divide u**t0 * N0, but every
       factor is 1 at u = 0, so coprime to u**t0, and so it would divide N0.
    """
    p, nodes = trunk.p, list(trunk.iter_nodes())
    certified = all(node.status != STATUS_UNDETERMINED for node in nodes)
    thicknesses = sorted({node.t for node in nodes if certified and node.status in CERTIFIED})
    denominator = [1]
    for t in thicknesses:
        denominator = _mul_coeffs(denominator, [1] + [0] * (t - 1) + [-p ** (t - 1)])
    last = (max((node.phi for node in nodes), default=0) + len(denominator) - 1 if certified
            else trunk.built_depth)
    # S0 * D agrees with the counts times D up to w**last and has no term past it
    n0 = Polynomial._of(_mul_coeffs(_level_counts(trunk, last), denominator)[:last + 1])
    return RationalSeries(p, trunk.t0, n0.coeffs, tuple(denominator), certified,
                          tuple((t, 1) for t in thicknesses))


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
