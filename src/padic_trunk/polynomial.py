"""Exact arithmetic on univariate polynomials over the integers.

Coefficients are arbitrary-precision ints stored in ascending degree
order with trailing zeros stripped; the zero polynomial is the empty
tuple and has no degree.  Successor polynomials in deep trunks grow
like p**((d-t)*k), so nothing here assumes bounded-width arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable


def val_p(x: int, p: int) -> int | float:
    """p-adic valuation of x: the largest i such that p**i divides x.

    Returns math.inf for x = 0, since every power of p divides zero.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class Polynomial:
    """Immutable integer polynomial; coeffs[i] is the coefficient of X**i.

    Invariant: the last stored coefficient is nonzero (canonical form).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("integer coefficients required")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return self.coeffs == q.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return poly_to_str(self)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        q = _coerce(other)
        if q is None:
            return NotImplemented
        n = max(len(self.coeffs), len(q.coeffs))
        return Polynomial(self.coefficient(i) + q.coefficient(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = _coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = _coerce(other)
        if q is None:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(q.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # ------------------------------------------------------------------
    # congruence-specific operations
    # ------------------------------------------------------------------

    def evaluate(self, x: int, m: int | None = None) -> int:
        """Horner evaluation of P(x), reduced into [0, m) when m is given."""
        if m is not None:
            if m < 1:
                raise ValueError("modulus must be positive")
            acc = 0
            for c in reversed(self.coeffs):
                acc = (acc * x + c) % m
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_scale(self, r: int, p: int) -> "Polynomial":
        """The substituted polynomial P(r + p*X), computed exactly.

        Horner-style composition, never forming binomials or factorials.
        The scale may be any positive integer (callers also pass p**k).
        """
        if self.is_zero:
            raise ValueError("shift_scale requires a nonzero polynomial")
        if p < 1:
            raise ValueError("scale must be positive")
        res: list[int] = []
        for c in reversed(self.coeffs):
            nxt = [0] * (len(res) + 1)
            for i, a in enumerate(res):
                nxt[i] += a * r
                nxt[i + 1] += a * p
            nxt[0] += c
            res = nxt
        return Polynomial(res)

    def p_content(self, p: int) -> tuple[int, "Polynomial"]:
        """Split off the highest power of p dividing every coefficient.

        Returns (t, Q) with P == p**t * Q exactly and p not dividing Q.
        t is val_p of the gcd, so a thickness split (t <= deg P) costs at
        most deg P + 1 divisions by p.
        """
        if p < 2:
            raise ValueError("p must be at least 2")
        if self.is_zero:
            raise ValueError("zero polynomial has infinite content")
        t = val_p(math.gcd(*self.coeffs), p)
        if t == 0:
            return 0, self
        q = p ** t
        return t, Polynomial(c // q for c in self.coeffs)

    def reduce_mod(self, p: int) -> "Polynomial":
        """Coefficient-wise reduction into [0, p), in canonical form."""
        if p < 2:
            raise ValueError("p must be at least 2")
        return Polynomial(c % p for c in self.coeffs)


def _coerce(value: object) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Polynomial((value,))
    return None


#: The monomial X, convenient for building polynomials in code.
X = Polynomial((0, 1))


def poly_to_str(P: Polynomial, variable: str = "X") -> str:
    """Canonical descending-degree rendering, e.g. ``X^2 - 2*X + 244``.

    Inverse of the expression parser: parsing the output reproduces P.
    """
    if P.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(P.degree, -1, -1):
        c = P.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            power = variable if i == 1 else f"{variable}^{i}"
            term = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
