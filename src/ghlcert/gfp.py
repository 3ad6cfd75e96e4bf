"""Polynomial arithmetic over GF(p) and distinct-degree factorisation.

Polynomials are numpy int64 arrays of residues in [0, p), lowest power
first, with trailing zeros trimmed; the zero polynomial is the empty array.
Products stay exact in int64 while p * p * (degree + 1) < 2**63, which
``reduce_mod`` checks on the way in.

The distinct-degree factorisation is the first step of Cantor-Zassenhaus
(Math. Comp. 36, 1981): for a monic squarefree f, gcd(f, x^(p^i) - x)
collects the irreducible factors whose degree divides i.  Only the number
of factors of each degree is needed by the degree-set criterion, so the
equal-degree splitting step is left out.
"""

from __future__ import annotations

import numpy as np


def _trim(a: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(a)
    return a[:nonzero[-1] + 1] if nonzero.size else a[:0]


def reduce_mod(coeffs, p: int) -> np.ndarray:
    """Integer coefficients of any size (lowest first) reduced modulo p."""
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if p * p * (len(coeffs) + 1) >= 2 ** 63:
        raise ValueError(
            f"p={p} with {len(coeffs)} coefficients overflows int64 products")
    return _trim(np.array([int(c) % p for c in coeffs], dtype=np.int64))


def degree(a: np.ndarray) -> int:
    """Degree of a trimmed residue array; -1 for the zero polynomial."""
    return len(a) - 1


def monic(a: np.ndarray, p: int) -> np.ndarray:
    return a * pow(int(a[-1]), -1, p) % p


def poly_divmod(a: np.ndarray, b: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of a by the nonzero b."""
    db = degree(b)
    if degree(a) < db:
        return a[:0], a
    rem = a.copy()
    quo = np.zeros(len(a) - db, dtype=np.int64)
    inv = pow(int(b[-1]), -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] * inv % p
        if c:
            quo[i - db] = c
            rem[i - db:i + 1] = (rem[i - db:i + 1] - c * b) % p
    return _trim(quo), _trim(rem[:db])


def gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic greatest common divisor (the zero polynomial for gcd(0, 0))."""
    while len(b):
        a, b = b, poly_divmod(a, b, p)[1]
    return monic(a, p) if len(a) else a


def _derivative(a: np.ndarray, p: int) -> np.ndarray:
    return _trim(a[1:] * np.arange(1, len(a), dtype=np.int64) % p)


def is_squarefree(a: np.ndarray, p: int) -> bool:
    """True when gcd(a, a') is a unit; a p-th power has a' = 0 and fails."""
    return degree(gcd(a, _derivative(a, p), p)) == 0


class _ResidueRing:
    """GF(p)[x] / (f) for a monic f of degree m >= 2.  Residues are
    length-m arrays; a product is reduced in one matrix step against the
    table of x^m, ..., x^(2m-2) modulo f."""

    def __init__(self, f: np.ndarray, p: int):
        m = degree(f)
        self.p, self.m = p, m
        table = np.zeros((m - 1, m), dtype=np.int64)
        row = -f[:m] % p                      # x^m mod f
        for k in range(m - 1):
            table[k] = row
            row = (np.concatenate(([0], row[:-1])) + row[-1] * table[0]) % p
        self.table = table

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = np.convolve(a, b) % self.p
        return (c[:self.m] + c[self.m:] @ self.table) % self.p

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        out = np.zeros(self.m, dtype=np.int64)
        out[0] = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out


def distinct_degree_factors(f: np.ndarray,
                            p: int) -> list[tuple[int, np.ndarray]]:
    """Pairs (i, g_i) for a monic squarefree f of degree >= 1, where g_i is
    the product of the monic irreducible factors of f of degree i; only
    degrees with g_i != 1 appear, in increasing order."""
    if degree(f) < 1 or f[-1] != 1:
        raise ValueError("distinct-degree factorisation needs a monic "
                         "polynomial of degree >= 1")
    if degree(f) == 1:
        return [(1, f)]
    ring = _ResidueRing(f, p)
    x = np.zeros(ring.m, dtype=np.int64)
    x[1] = 1
    out = []
    g, h, i = f, x, 0
    while degree(g) >= 2 * (i + 1):
        i += 1
        h = ring.pow(h, p)                    # x^(p^i) mod f
        common = gcd(g, _trim((h - x) % p), p)
        if degree(common) > 0:
            out.append((i, common))
            g = poly_divmod(g, common, p)[0]
    if degree(g) > 0:
        out.append((degree(g), g))
    return out


def factor_degree_counts(f: np.ndarray, p: int) -> dict[int, int]:
    """Number of irreducible factors of each degree of a squarefree f whose
    leading coefficient is a unit mod p."""
    return {i: degree(g) // i
            for i, g in distinct_degree_factors(monic(f, p), p)}

