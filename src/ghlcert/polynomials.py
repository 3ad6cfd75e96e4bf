"""Exact-integer construction of polynomials whose coefficients carry
arithmetic-progression tail products.

A parameter tuple fixes the rational shift q = u + alpha/d and a degree n.
Together with seed coefficients a_0..a_n it determines the integer polynomial
whose x^j coefficient is

    a_j * prod(alpha + (u+i)*d  for i in j+1..n)

so every coefficient is an exact integer and its prime factorization is
visible from the factors.  The power substitution x -> x^delta spreads
coefficients to indices delta*j without mixing them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class InvalidParameters(ValueError):
    """A parameter tuple or seed violates a structural invariant."""


class GhlParams(namedtuple("GhlParams", "d u alpha n delta")):
    """Shift and degree data: q = u + alpha/d in lowest terms, degree n,
    and the substitution exponent delta (1 for the plain polynomial, d for
    the polynomial evaluated at x^d).  Build copies by calling GhlParams:
    namedtuple's _make and _replace skip the checks in __new__."""

    __slots__ = ()

    def __new__(cls, d: int, u: int, alpha: int, n: int, delta: int = 1):
        if d < 2:
            raise InvalidParameters(f"d must be at least 2, got {d}")
        if not 1 <= alpha < d:
            raise InvalidParameters(
                f"alpha must satisfy 1 <= alpha < d, got alpha={alpha}, d={d}")
        if math.gcd(alpha, d) != 1:
            raise InvalidParameters(
                f"alpha={alpha} and d={d} must be coprime")
        if delta not in (1, d):
            raise InvalidParameters(
                f"delta must be 1 or d={d}, got {delta}")
        if n < 1:
            raise InvalidParameters(f"n must be positive, got {n}")
        return super().__new__(cls, d, u, alpha, n, delta)

    @classmethod
    def from_q(cls, q, n: int, delta: int = 1) -> "GhlParams":
        """Build parameters from the shift q itself, e.g. from_q(Fraction(-2, 3), 5)."""
        q = Fraction(q)
        u = math.floor(q)
        frac = q - u
        return cls(d=frac.denominator, u=u, alpha=frac.numerator, n=n, delta=delta)

    @property
    def q(self) -> Fraction:
        return self.u + Fraction(self.alpha, self.d)

    def term(self, i: int) -> int:
        """The linear factor alpha + (u+i)*d attached to index i."""
        return self.alpha + (self.u + i) * self.d

    @property
    def top_term(self) -> int:
        return self.term(self.n)


def _seed_kind(values: tuple[int, ...]) -> str:
    """"ones" or "laguerre" when the values are those of
    SeedCoefficients.ones(n) or .laguerre(n), else "custom": a_0 = 1 and
    a_{j+1} (j+1) = -a_j (n-j) fix the binomial seed up to a_{n//2}, and
    its symmetry C(n, j) = C(n, n-j) fixes the rest."""
    n = len(values) - 1
    if values.count(1) == n + 1:
        return "ones"
    half, sign = n // 2, (-1) ** n
    if values[0] == 1 and all(
            values[j + 1] * (j + 1) == -values[j] * (n - j)
            for j in range(half)) and all(
            values[j] == sign * values[n - j] for j in range(half + 1, n + 1)):
        return "laguerre"
    return "custom"


class SeedCoefficients(namedtuple("SeedCoefficients", "values kind")):
    """Integer seed a_0..a_n (values), both endpoints nonzero, and its kind:
    "ones", "laguerre" or "custom".  The named constructors state their
    kind; a seed built from values alone gets the kind its values have
    (_seed_kind), once, so no seed carries a kind its values do not have."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]):
        return cls._build(values, None)

    @classmethod
    def _build(cls, values: tuple[int, ...], kind: str | None):
        if len(values) < 2:
            raise InvalidParameters("seed needs at least two coefficients")
        if values[0] == 0 or values[-1] == 0:
            raise InvalidParameters("seed endpoints a_0 and a_n must be nonzero")
        return super().__new__(cls, values, kind or _seed_kind(values))

    @classmethod
    def ones(cls, n: int) -> "SeedCoefficients":
        return cls._build((1,) * (n + 1), "ones")

    @classmethod
    def laguerre(cls, n: int) -> "SeedCoefficients":
        """(-1)^j * C(n, j) for j = 0..n, by the exact recurrence
        C(n, j+1) = C(n, j) * (n-j) // (j+1)."""
        values = []
        c = 1
        for j in range(n + 1):
            values.append(-c if j % 2 else c)
            c = c * (n - j) // (j + 1)
        return cls._build(tuple(values), "laguerre")

    @classmethod
    def of_kind(cls, n: int, kind: str) -> "SeedCoefficients":
        """The named seed of degree n: "ones" or "laguerre"."""
        if kind not in ("ones", "laguerre"):
            raise InvalidParameters(f"unknown seed kind {kind!r}")
        return getattr(cls, kind)(n)


class IntegerPolynomial(namedtuple("IntegerPolynomial", "coeffs")):
    """Dense integer polynomial, lowest power first, trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, coeffs):
        trimmed = tuple(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        if trimmed == (0,) or not trimmed:
            raise InvalidParameters("the zero polynomial is not allowed")
        return super().__new__(cls, trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j <= self.degree else 0


def build_ghl(params: GhlParams, seed: SeedCoefficients) -> IntegerPolynomial:
    """Assemble the seeded polynomial; coefficient j is a_j times the product
    of the linear factors with index above j."""
    values = seed.values
    if len(values) != params.n + 1:
        raise InvalidParameters(
            f"seed length {len(values)} does not match degree n={params.n}")
    coeffs = [0] * (params.n + 1)
    suffix = 1
    for j in range(params.n, -1, -1):
        coeffs[j] = values[j] * suffix
        if j > 0:
            suffix *= params.term(j)
    return IntegerPolynomial(tuple(coeffs))


def substitute_power(poly: IntegerPolynomial, delta: int) -> IntegerPolynomial:
    """Replace x by x^delta: coefficient j moves to index delta*j."""
    if delta < 1:
        raise InvalidParameters(f"delta must be positive, got {delta}")
    if delta == 1:
        return poly
    out = [0] * (poly.degree * delta + 1)
    for j, c in enumerate(poly.coeffs):
        out[delta * j] = c
    return IntegerPolynomial(tuple(out))


def build_substituted(params: GhlParams, seed: SeedCoefficients) -> IntegerPolynomial:
    """The seeded polynomial evaluated at x^delta (delta taken from params)."""
    return substitute_power(build_ghl(params, seed), params.delta)


def hermite_polynomial(m: int) -> IntegerPolynomial:
    """Physicists' Hermite polynomial H_m as an exact integer polynomial.

    Built through the d=2 construction: H_{2N}(x) is a scaled degree-N
    polynomial with shift q = -1/2 evaluated at 2x^2, and H_{2N+1}(x) picks
    up one factor of x with shift q = +1/2.
    """
    if m < 1:
        raise InvalidParameters(f"m must be positive, got {m}")
    half = m // 2
    odd = m % 2
    sign = -1 if half % 2 else 1
    if half == 0:
        return IntegerPolynomial((0, 2))  # H_1 = 2x
    params = GhlParams(d=2, u=-1 + odd, alpha=1, n=half)
    core = build_ghl(params, SeedCoefficients.laguerre(half))
    out = [0] * (m + 1)
    for j in range(half + 1):
        out[2 * j + odd] = sign * (1 << (half + j + odd)) * core.coefficient(j)
    return IntegerPolynomial(tuple(out))


def read_coefficients(path) -> IntegerPolynomial:
    """Read a polynomial file: one integer per line, lowest power first,
    '#' starts a comment, blank lines ignored."""
    coeffs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coeffs.append(int(line))
            except ValueError:
                shown = repr(line[:40]) + ("..." if len(line) > 40 else "")
                raise InvalidParameters(
                    f"{path}:{lineno}: not an integer coefficient: {shown}")
    if not coeffs:
        raise InvalidParameters(f"{path}: no coefficients found")
    return IntegerPolynomial(tuple(coeffs))


def write_coefficients(path, poly: IntegerPolynomial, header: str | None = None) -> None:
    """Write the polynomial file format read by read_coefficients."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for c in poly.coeffs:
            fh.write(f"{c}\n")
