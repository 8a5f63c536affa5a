"""Exact arithmetic on univariate polynomials over the integers.

Coefficients are arbitrary-precision ints stored in ascending degree
order with trailing zeros stripped; the zero polynomial is the empty
tuple and has no degree.  Successor polynomials in deep trunks grow
like p**((d-t)*k), so nothing here assumes bounded-width arithmetic.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from itertools import zip_longest
from typing import Iterable

from .primes import _strip


def val_p(x: int, p: int) -> int | float:
    """p-adic valuation of x: the largest i such that p**i divides x.

    Returns math.inf for x = 0, since every power of p divides zero.
    O(log v) divisions for v = val_p(x): primes._strip, as in factorize.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    return math.inf if x == 0 else _strip(x, p)[1]


def _taylor_shift(coeffs: tuple[int, ...], r: int, below: int | None = None) -> list[int]:
    """The coefficients of P(r + X) from P's, by repeated synthetic division
    (no binomials or factorials); shift_scale and trunk.thickness share it.
    Pass i fixes the coefficient of X**i, so with below only the first below
    passes run, in O(deg(P) * below) steps, and only those coefficients return."""
    a, n = list(coeffs), len(coeffs)
    passes = n - 1 if below is None else min(below, n - 1)
    for i in range(passes if r else 0):
        for j in range(n - 2, i - 1, -1):
            a[j] += r * a[j + 1]
    return a if below is None else a[:below]


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

    @classmethod
    def _of(cls, cs: list[int]) -> "Polynomial":
        """Unchecked constructor for ints computed here; strips trailing zeros of cs."""
        while cs and cs[-1] == 0:
            cs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(cs)
        return poly

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
        if not self.coeffs or not q.coeffs:
            return q if self.is_zero else self
        pairs = zip_longest(self.coeffs, q.coeffs, fillvalue=0)
        return Polynomial._of([a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-c for c in self.coeffs])

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
        return Polynomial._of(_mul_coeffs(self.coeffs, q.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Polynomial._of(_pow_coeffs(self.coeffs, n))

    def derivative(self) -> "Polynomial":
        return Polynomial._of([i * c for i, c in enumerate(self.coeffs) if i > 0])

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

        _taylor_shift by r, then coefficient i times p**i.
        The scale may be any positive integer (callers also pass p**k).
        """
        if self.is_zero:
            raise ValueError("shift_scale requires a nonzero polynomial")
        if p < 1:
            raise ValueError("scale must be positive")
        a = _taylor_shift(self.coeffs, r)
        scale = 1
        for j in range(1, len(a)):
            scale *= p
            a[j] *= scale
        return Polynomial._of(a)

    def p_content(self, p: int) -> tuple[int, "Polynomial"]:
        """Split off the highest power of p dividing every coefficient.

        Returns (t, Q) with P == p**t * Q exactly and p not dividing Q.
        t is val_p of the gcd.
        """
        if p < 2:
            raise ValueError("p must be at least 2")
        if self.is_zero:
            raise ValueError("zero polynomial has infinite content")
        t = val_p(math.gcd(*self.coeffs), p)
        if t == 0:
            return 0, self
        q = p ** t
        return t, Polynomial._of([c // q for c in self.coeffs])

    def reduce_mod(self, p: int) -> "Polynomial":
        """Coefficient-wise reduction into [0, p), in canonical form."""
        if p < 2:
            raise ValueError("p must be at least 2")
        return Polynomial._of([c % p for c in self.coeffs])


#: Primes below this find roots by a scan of every residue (reduced_roots).
#: On a memo miss, for degrees 3 to 8, it costs what the gcd path does near
#: p = 150, and at p = 251 53-115 us against 35-79 us; a quadratic costs
#: 2 us in closed form at any p, as much as its scan at p = 13 and a
#: twentieth of it at p = 251.  A memo hit costs 0.24 us (CPython 3.11).
ROOT_SCAN_LIMIT = 256
SCAN_MEMO_DEGREE, SCAN_MEMO_SIZE = 8, 2048


def roots_mod_p(Q: Polynomial, p: int) -> list[int]:
    """The sorted roots in [0, p) of Q modulo the prime p; Q mod p needs degree >= 1."""
    red = Q.reduce_mod(p)
    if red.is_zero or red.degree < 1:
        raise ValueError("roots_mod_p requires degree at least 1 modulo p")
    return list(reduced_roots(red, p))


def reduced_roots(red: Polynomial, p: int) -> tuple[int, ...] | list[int]:
    """roots_mod_p for red already reduced mod p, of degree at least 1.

    Below ROOT_SCAN_LIMIT every residue is tried, and the roots of a red of
    degree <= SCAN_MEMO_DEGREE are a tuple kept in a least recently used memo
    of SCAN_MEMO_SIZE entries.  Its ints are below 256, which CPython shares,
    so full it holds about 0.5 MB: 250 bytes per degree-8 entry with 8 roots
    on CPython 3.11.  Otherwise the roots are those of g = gcd(f, X**p - X),
    f the monic red, with X**p mod f found by repeated squaring, g split by
    equal-degree factorisation (Cantor-Zassenhaus): about deg(red)**2 * log p
    operations mod p, the splitting deterministic per input.  A quadratic f,
    g or piece of g is solved in closed form from its discriminant.
    """
    if p >= ROOT_SCAN_LIMIT:
        return _roots_by_gcd(red, p)
    return (_scan if red.degree <= SCAN_MEMO_DEGREE else _scan.__wrapped__)(red.coeffs, p)


@functools.lru_cache(maxsize=SCAN_MEMO_SIZE)
def _scan(cs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The x in [0, p) with sum(cs[i] * x**i) = 0 mod p, by Horner's rule."""
    top, roots = cs[::-1], []
    for x in range(p):
        acc = 0
        for c in top:
            acc = (acc * x + c) % p
        if not acc:
            roots.append(x)
    return tuple(roots)


# Polynomials over F_p below are ascending coefficient lists in [0, p)
# without trailing zeros; divisors are monic.

def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divmod_p(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic f over F_p."""
    d = len(f) - 1
    a = list(a)
    quotient = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            quotient[i - d] = c
            for j in range(d):
                a[i - d + j] -= c * f[j]
    rem = [c % p for c in a[:d]]
    while rem and rem[-1] == 0:
        rem.pop()
    return quotient, rem


def _powmod_p(base: list[int], n: int, f: list[int], p: int) -> list[int]:
    """base**n mod f over F_p, for deg base < deg f = d, squaring from the top bit.

    Residues mod f are packed into ints, coefficient i in bits
    [w*i, w*(i+1)), so one int product multiplies two of them (Kronecker
    substitution); w leaves room for 2*d products of residues mod p.  The
    product's slots at X**d and up are folded back with X**(d+j) mod f.
    """
    d = len(f) - 1
    w = 2 * p.bit_length() + (2 * d).bit_length()
    mask = (1 << w) - 1
    low = (1 << w * d) - 1

    def pack(cs: list[int]) -> int:
        packed = 0
        for c in reversed(cs):
            packed = packed << w | c
        return packed

    xd = [-c % p for c in f[:d]]  # X**d mod f
    r, folds = xd, []
    for _ in range(d - 1):
        folds.append(pack(r))
        r = [(a + r[-1] * b) % p for a, b in zip([0] + r[:-1], xd)]

    def mulmod(a: int, b: int) -> int:
        prod = a * b
        acc, top = prod & low, prod >> w * d
        for fold in folds:
            acc += (top & mask) % p * fold
            top >>= w
        out = 0
        for i in range(d - 1, -1, -1):
            out = out << w | (acc >> w * i & mask) % p
        return out

    x, result = pack(base), 1
    for bit in bin(n)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, x)
    out = [result >> w * i & mask for i in range(d)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; a must be nonzero."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_p(a, b, p)[1]
    return _monic(a, p)


def _minus_one_at(a: list[int], i: int, p: int) -> list[int]:
    # a - X**i over F_p
    a = a + [0] * (i + 1 - len(a))
    a[i] = (a[i] - 1) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _roots_by_gcd(red: Polynomial, p: int) -> list[int]:
    """roots_mod_p without the scan, for red reduced mod p of degree >= 1."""
    f = _monic(list(red.coeffs), p)
    if len(f) <= 3:
        return _small_roots(f, p)
    # the distinct roots of f are those of g = gcd(f, X**p - X)
    g = _gcd_p(f, _minus_one_at(_powmod_p([0, 1], p, f, p), 1, p), p)
    if len(g) <= 3:
        return _small_roots(g, p)
    # g is a product of distinct linear factors; split it along the
    # quadratic character of x + a, a drawn from a PRNG seeded by the input,
    # down to pieces of degree <= 2
    rng = random.Random(f"{p}:{f}")
    roots: list[int] = []
    stack = [g]
    while stack:
        g = stack.pop()
        if len(g) <= 3:
            roots += _small_roots(g, p)
            continue
        while True:
            w = _powmod_p([rng.randrange(p), 1], (p - 1) // 2, g, p)
            h = _gcd_p(g, _minus_one_at(w, 0, p), p)
            if 1 < len(h) < len(g):
                stack.append(h)
                stack.append(_divmod_p(g, h, p)[0])
                break
    return sorted(roots)


def _small_roots(f: list[int], p: int) -> list[int]:
    """The sorted distinct roots over F_p of the monic f of degree <= 2: a
    quadratic X**2 + b*X + c from its discriminant, by Euler's criterion and
    a square root, with the two residues tried at p = 2."""
    if len(f) < 3:
        return [-f[0] % p] if len(f) == 2 else []
    c, b = f[0], f[1]
    if p == 2:
        return [x for x in (0, 1) if (x * (x + b) + c) % 2 == 0]
    disc, half = (b * b - 4 * c) % p, (p + 1) // 2
    if not disc:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod_p(disc, p)
    return sorted(((-b - s) * half % p, (-b + s) * half % p))


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p:
    a**((p+1)/4) when p = 3 mod 4, else Tonelli-Shanks with the least
    non-square z, for p - 1 = q * 2**s with q odd."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = _strip(p - 1, 2)
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # invariant: r**2 = a * t, and t has order dividing 2**(s-1), c order 2**s
    while t != 1:
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# Coefficient lists below are ascending without trailing zeros: exact, or
# with m >= 2 residues in [-(m//2), m - m//2), whose products _reduce_coeffs
# brings back into that range.

def _reduce_coeffs(cs: list[int], m: int) -> list[int]:
    """cs with trailing zeros stripped, reduced to residues mod m if m."""
    if m:
        h = m // 2
        cs = [(c + h) % m - h for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _mul_coeffs(a, b, m: int = 0) -> list[int]:
    """The product of two coefficient lists, exactly or of residues mod m.

    A constant or monomial factor scales and shifts the other.  Up to 64
    pairs of nonzero terms multiply term by term, skipping zeros, and so do
    factors that one packed int would hold in over four times their own
    bits plus a word per coefficient: slots as wide as the widest product
    waste most of such an int where a few wide coefficients stand among
    narrow ones or zeros.  The rest go through one packed int product
    (_packed).  Residues are at most m/2, which bounds the slots without a
    scan where they fit a word."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    for s, t, nonzero in ((a, b, nonzero_a), (b, a, nonzero_b)):
        if nonzero == 1:  # s = c * X^k
            c = s[-1]
            return [0] * (len(s) - 1) + (list(t) if c == 1 else [c * y for y in t])
    if nonzero_a * nonzero_b > 64:
        bits = 2 * (m // 2).bit_length() + len(a).bit_length()
        if m and bits <= 63:
            return _packed([a, b], 1, bits)
        widths = [list(map(int.bit_length, cs)) for cs in (a, b)]
        bits = max(widths[0]) + max(widths[1]) + len(a).bit_length()
        if all(_fits(w, bits) for w in widths):
            return _packed([a, b], 1, bits)
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _fits(widths: list[int], bits: int | float) -> bool:
    """Whether coefficients of these bit lengths, packed in slots of bits,
    make an int within four times their own bits plus a word per coefficient."""
    return len(widths) * bits <= 4 * sum(widths) + 256 * len(widths)


def _pow_coeffs(a, k: int, m: int = 0) -> list[int]:
    """a**k, exactly or modulo m.  A monomial raises its coefficient; else one
    int ** raises the packed a, in slots wide enough for the exact power,
    unless they are too wide: exactly, where a fails _fits in them; modulo m,
    past both a machine word and a product of residues.  Then a**(k//2) is
    found so and reduced, and squared through _mul_coeffs."""
    if k < 2 or not a:
        return list(a) if k else [1]
    if len(a) - a.count(0) == 1:
        return [0] * ((len(a) - 1) * k) + [pow(a[-1], k, m) if m else a[-1] ** k]
    n = (len(a) - 1) * k + 1
    total = sum(map(abs, filter(None, a)))  # a zero would copy a wide sum
    bits = k * math.log2(total)
    if m:
        wide = bits > max(63, 2 * m.bit_length() + n.bit_length())
    else:
        wide = not _fits(list(map(int.bit_length, a)), bits)
    if wide:
        half = _reduce_coeffs(_pow_coeffs(a, k // 2, m), m)
        out = _mul_coeffs(half, half, m)
        return _mul_coeffs(_reduce_coeffs(out, m), a, m) if k & 1 else out
    return _packed([a], k, (total ** k).bit_length())


#: struct formats of the signed slots, by width in bytes, that struct packs
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _packed(factors: list, k: int, bits: int) -> list[int]:
    """The product of the factors, to the power k, as one int product and
    power of them packed one coefficient per slot of whole bytes (Kronecker
    substitution); every coefficient, the result's too, is below 2**bits in
    absolute value.  A slot holds c in two's complement, and flipping its
    top bit makes it c plus half the range, so the packed int is that less
    the bias, half the range in every slot."""
    width = next((w for w in _FORMATS if 8 * w > bits), bits // 8 + 1)
    fmt = _FORMATS.get(width)
    x, n = 1, 1
    for cs in factors:
        if fmt:
            data = struct.pack(f"<{len(cs)}{fmt}", *cs)
        else:
            data = b"".join([c.to_bytes(width, "little", signed=True) for c in cs])
        bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(cs), "little")
        x *= (int.from_bytes(data, "little") ^ bias) - bias
        n += (len(cs) - 1) * k
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    data = ((x ** k + bias) ^ bias).to_bytes(n * width, "little")
    if fmt:
        return list(struct.unpack(f"<{n}{fmt}", data))
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, n * width, width)]


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
    return _render_terms(reversed(list(enumerate(P.coeffs))), variable)


def _render_terms(terms: Iterable[tuple[int, object]], variable: str) -> str:
    """Render (power, coefficient) pairs in display order; "0" when all vanish.

    Coefficients may be ints or Fractions; a unit magnitude is left off.
    """
    parts: list[str] = []
    for i, c in terms:
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
    return " ".join(parts) or "0"
