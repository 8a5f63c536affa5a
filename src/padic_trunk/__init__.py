"""Integer solutions of polynomial congruences modulo prime powers.

The pipeline: parse or build an exact integer polynomial, construct its
trunk for a prime p (a compact tree of residue classes with thicknesses
that determines every solution set mod p**e), then answer membership,
counting and enumeration questions, recombine composite moduli by the
Chinese remainder theorem, classify quadratics, and produce the rational
generating function of the solution counts.
"""

from .analysis import (
    QuadraticClass,
    RationalSeries,
    classify_quadratic,
    poincare_series,
)
from .parser import ParseError, parse
from .polynomial import Polynomial, X, poly_to_str, val_p
from .primes import FactorizationError, PrimePower, factorize, is_prime
from .solver import (
    CrtSolution,
    EnumerationBudgetError,
    InsufficientDepthError,
    SolutionBall,
    SolutionSet,
    ball_decomposition,
    brute_force,
    count_solutions,
    crt_solve,
    enumerate_solutions,
    is_solution,
)
from .trunk import (
    NotSimpleRootError,
    Trunk,
    TrunkNode,
    build_trunk,
    hensel_lift,
    residual_degree,
    thickness,
)

__version__ = "0.1.0"

__all__ = [
    "CrtSolution",
    "EnumerationBudgetError",
    "FactorizationError",
    "InsufficientDepthError",
    "NotSimpleRootError",
    "ParseError",
    "Polynomial",
    "PrimePower",
    "QuadraticClass",
    "RationalSeries",
    "SolutionBall",
    "SolutionSet",
    "Trunk",
    "TrunkNode",
    "X",
    "ball_decomposition",
    "brute_force",
    "build_trunk",
    "classify_quadratic",
    "count_solutions",
    "crt_solve",
    "enumerate_solutions",
    "factorize",
    "hensel_lift",
    "is_prime",
    "is_solution",
    "parse",
    "poincare_series",
    "poly_to_str",
    "residual_degree",
    "thickness",
    "val_p",
]
