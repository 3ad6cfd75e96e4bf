"""Exact p-adic valuations and the pure-Python integer arithmetic under them.

Provides the valuation nu(p, r) with nu(p, 0) = INFINITY (math.inf),
primality and factorisation of single integers, base-p digit sums, the
digit-sum form of the factorial valuation, and valuations of the factored
coefficient products of the generalized polynomials.  Valuations of huge
coefficients are always computed from the factored form (sums over the small
linear factors), never by dividing the assembled big integer.  The linear
factors' arithmetic belongs to their family (d, u, alpha), not to one
degree n, so it sits in a per-family TermTable that every n shares; it
finds each term's primes above d by striking residue classes, without
factorising a term.
"""

from __future__ import annotations

import functools
import itertools
import math

from .polynomials import GhlParams, IntegerPolynomial, SeedCoefficients


# nu(p, 0): absorbing under addition and above every integer
INFINITY = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to all 13 bases above (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, which is deterministic below
    PRIMALITY_LIMIT = psi_13; ValueError for m >= PRIMALITY_LIMIT, since
    psi_13 itself passes every base.  (The 12 bases 2..37 alone accept the
    composite psi_12 = 318,665,857,834,031,151,167,461.)"""
    if m < 2:
        return False
    if m >= PRIMALITY_LIMIT:
        raise ValueError(
            f"cannot decide whether {m} is prime: at or above {PRIMALITY_LIMIT}")
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def nu(p: int, r: int):
    """p-adic valuation of r; INFINITY iff r = 0."""
    _require_prime(p)
    return _nu(p, r)


def _nu(p: int, r: int):
    """nu without the primality check, for callers that checked p once.
    Halves the valuation at each level, nu_p(r) = 2 nu_{p^2}(r) + 0 or 1,
    so a big r costs O(log nu) divisions, not nu of them."""
    if r == 0:
        return INFINITY
    if r % p:
        return 0  # almost every call of the certify path ends here
    w = _nu(p * p, r)
    return 2 * w + (r // (p * p) ** w % p == 0)


# factorize trial-divides by the primes below this bound; a cofactor with
# no smaller prime factor is tested with is_prime and split by rho
TRIAL_DIVISION_BOUND = 1000


def factorize(m: int) -> dict:
    """Prime factorization of |m| >= 1: trial division up to
    TRIAL_DIVISION_BOUND, then is_prime and Pollard-Brent rho on the
    cofactor and on each part rho splits off.  ValueError (from is_prime)
    when a part left to test is at or above PRIMALITY_LIMIT, which needs
    |m| at or above it."""
    if m == 0:
        raise ValueError("0 has no prime factorization")
    m = abs(m)
    out: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m and f < TRIAL_DIVISION_BOUND:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    rest = [m] if m > 1 else []
    while rest:
        m = rest.pop()
        if f * f > m or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _rho_divisor(m)
            rest += (g, m // g)
    return out


def _rho_divisor(m: int) -> int:
    """A divisor 1 < g < m of the composite m: Brent's cycle search over
    x -> x^2 + c mod m, the differences multiplied into batches of 128 per
    gcd, for c = 1, 2, ... in turn."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:  # the batch met every factor at once: redo it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


def prime_factors(m: int) -> list[int]:
    """Sorted distinct prime divisors of |m|; empty for m = +-1."""
    return sorted(factorize(m))


def digit_sum(p: int, m: int) -> int:
    """Sum of the base-p digits of m >= 0."""
    _require_prime(p)
    if m < 0:
        raise ValueError(f"digit_sum needs m >= 0, got {m}")
    total = 0
    while m:
        total += m % p
        m //= p
    return total


def ord_factorial(p: int, m: int) -> int:
    """Valuation of m! via the digit-sum identity (m - s_p(m)) / (p - 1)."""
    _require_prime(p)
    if m < 0:
        raise ValueError(f"ord_factorial needs m >= 0, got {m}")
    return (m - digit_sum(p, m)) // (p - 1)


def _primes_up_to(n: int) -> list[int]:
    """The primes up to n, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"  # n >= 1
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), flags))


class TermTable:
    """The linear factors term(i) = alpha + (u+i)*d, i >= 1, of one family
    (d, u, alpha), whose arithmetic every degree n of the family shares:
    the primes above d that divide each term, and per prime p the prefix
    sums S_p[i] = nu_p(term(1)) + ... + nu_p(term(i)), S_p[0] = 0.  Both
    grow on demand: the primes by doubling, the sums to the largest n
    asked for.  A term is never 0 (d does not divide alpha) but is
    negative for u <= -2.  No term is factorised: the prefix sums take
    nu_p of each term directly, for any d and u the polygon command
    accepts."""

    def __init__(self, d: int, u: int, alpha: int):
        self._family = GhlParams(d=d, u=u, alpha=alpha, n=1)
        self._large: list[tuple] = [()]
        self._sums: dict[int, list[int]] = {}

    def large_primes(self, n: int) -> list[tuple]:
        """Entry i, for 1 <= i <= n, is the sorted tuple of the primes
        above d that divide term(i); entry 0 is empty.  Needs u in {-1, 0}.
        Shared by every caller: read only.

        No term is factorised.  Up to the table's length N, every prime
        q <= N that does not divide d is struck out of the terms it
        divides, the indices i = -alpha/d - u mod q.  term(i) < (i+1)d, so
        a prime p > d dividing it leaves term(i)/p <= i: the cofactor c
        left is a prime when c < (N+1)^2 or is_prime(c), and otherwise has
        no prime factor above d.  N grows by doubling, but past n only up
        to the last term below PRIMALITY_LIMIT."""
        large, (d, u, alpha) = self._large, self._family[:3]
        lo = len(large) - 1
        if n <= lo:
            return large
        if u not in (-1, 0):
            raise ValueError(f"large_primes needs u in {{-1, 0}}, got {u}")
        hi = max(n, min(2 * lo, (PRIMALITY_LIMIT - 1 - alpha) // d - u))
        term = self._family.term
        rest = list(range(term(lo + 1), term(hi) + 1, d))
        found: list[tuple] = [()] * len(rest)
        for q in _primes_up_to(hi):
            if d % q == 0:
                continue
            for j in range((-alpha * pow(d, -1, q) - u - lo - 1) % q,
                           len(rest), q):
                c = rest[j] // q
                while c % q == 0:
                    c //= q
                rest[j] = c
                if q > d:
                    found[j] += (q,)
        for j, c in enumerate(rest):
            if c > d and (c <= hi * (hi + 2) or is_prime(c)):
                found[j] += (c,)
        large += found
        return large

    def valuation_sums(self, p: int, n: int) -> list[int]:
        """S_p[0..n], for a prime p the caller has checked.  Shared by every
        caller: read only."""
        sums = self._sums.setdefault(p, [0])
        acc, term = sums[-1], self._family.term
        for i in range(len(sums), n + 1):
            acc += _nu(p, term(i))
            sums.append(acc)
        return sums


# The process keeps the tables of this many families, the most recently
# used: the paper's shifts q in {+-1/3, +-2/3, +-1/4, +-3/4} are eight.
# Through the CLI, cli.MAX_DEGREE caps each table at 25,000 terms.
TERM_TABLES = 8


@functools.lru_cache(maxsize=TERM_TABLES)
def term_table(d: int, u: int, alpha: int) -> TermTable:
    """The process's TermTable of the family (d, u, alpha)."""
    return TermTable(d, u, alpha)


# F_p[i] = nu_p(i!) per prime p, grown to the largest n asked for; a prime
# above n divides no C(n, j), so it gets no table
_FACTORIAL_VALUATIONS: dict[int, list[int]] = {}


def coefficient_valuations(p: int, params: GhlParams, seed: SeedCoefficients) -> list:
    """Ordinates of the Newton-polygon point set of the seeded polynomial
    after the x -> x^delta substitution, indexed from the leading side:
    entry x is the valuation of the coefficient of x^(delta*n - x).

    Computed factored: the coefficient at seed index j is
    seed[j] * prod(term(i) for i in j+1..n), so its valuation is the seed
    valuation plus S_p[n] - S_p[j], read from the family's TermTable.  The
    seed valuation is 0 for a ones seed, and for a laguerre seed
    nu_p(C(n, j)) = F_p[n] - F_p[j] - F_p[n-j] (Legendre), with F_p[i] =
    nu_p(i!) from a per-prime prefix table, or 0 when p > n; only a custom
    seed's values are divided.  Entries at indices that are not multiples
    of delta are INFINITY (zero coefficients).
    """
    values = seed.values
    if len(values) != params.n + 1:
        raise ValueError(
            f"seed length {len(values)} does not match degree n={params.n}")
    _require_prime(p)
    n, delta = params.n, params.delta
    sums = term_table(params.d, params.u, params.alpha).valuation_sums(p, n)
    top = sums[n]
    ordinates = [INFINITY] * (delta * n + 1)
    if seed.kind == "custom":
        ordinates[::delta] = [top - s if v % p else _nu(p, v) + (top - s)
                              for v, s in zip(values[::-1], sums[n::-1])]
    elif seed.kind == "ones" or p > n:
        ordinates[::delta] = [top - s for s in sums[n::-1]]
    else:
        f = _FACTORIAL_VALUATIONS.setdefault(p, [0])
        for i in range(len(f), n + 1):
            f.append(f[-1] + _nu(p, i))
        top += f[n]
        ordinates[::delta] = [top - a - b - s for a, b, s
                              in zip(f[n::-1], f, sums[n::-1])]
    return ordinates


def ordinates_from_polynomial(p: int, poly: IntegerPolynomial) -> list:
    """Newton-polygon ordinates of an explicit polynomial: entry x is the
    valuation of the coefficient of x^(m - x)."""
    m = poly.degree
    return [nu(p, poly.coefficient(m - x)) for x in range(m + 1)]
