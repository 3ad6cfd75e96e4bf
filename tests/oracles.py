"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (direct
counting, textbook recurrences, numeric root clustering) so that a bug in
the package cannot hide inside the checks.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp


def legendre_direct(p: int, m: int) -> int:
    """Count multiples of p, p**2, ... up to m, one power at a time."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two coefficient lists (lowest degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divmod_exact(num: list[int], den: list[int]):
    """Divide integer polynomials over Q; return (quotient, remainder)
    as Fraction lists, lowest degree first."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    rem = list(num)
    while len(rem) >= len(den) and any(rem):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quo[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def hermite_recurrence(m: int) -> list[int]:
    """Physicists' Hermite polynomial via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    if m == 0:
        return [1]
    prev, cur = [1], [0, 2]
    for k in range(1, m):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return cur


def rational_roots(coeffs: list[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial, by trial over
    divisors of the constant and leading coefficients."""
    lo = 0
    while coeffs[lo] == 0:
        lo += 1
    roots = [Fraction(0)] if lo else []
    body = coeffs[lo:]

    def divisors(v):
        v = abs(v)
        out = set()
        for i in range(1, int(math.isqrt(v)) + 1):
            if v % i == 0:
                out.add(i)
                out.add(v // i)
        return out

    for p in divisors(body[0]):
        for q in divisors(body[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in reversed(body):
                    val = val * cand + c
                if val == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _subset_factor(coeffs: list[int], k: int, dps: int):
    """Try to assemble a degree-k integer factor from a k-subset of the
    numeric roots.  Returns the factor's coefficient list or None, plus a
    flag marking near-miss ambiguity (suggesting a precision retry)."""
    lead = abs(coeffs[-1])
    scales = sorted(e for e in range(1, lead + 1) if lead % e == 0)
    with mp.workdps(dps):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)],
                             maxsteps=200, extraprec=dps * 4)
        ambiguous = False
        for combo in itertools.combinations(range(len(roots)), k):
            prod = [mp.mpc(1)]
            for idx in combo:
                prod = [mp.mpc(0)] + prod
                for i in range(len(prod) - 1):
                    prod[i] -= roots[idx] * prod[i + 1]
            if any(abs(mp.im(c)) > mp.mpf(10) ** (-dps // 2) for c in prod):
                continue
            reals = [mp.re(c) for c in prod]
            for scale in scales:
                cand = []
                ok = True
                for r in reals:
                    v = scale * r
                    near = mp.nint(v)
                    err = abs(v - near)
                    if err > mp.mpf("1e-12"):
                        if err < mp.mpf("1e-6"):
                            ambiguous = True
                        ok = False
                        break
                    cand.append(int(near))
                if not ok:
                    continue
                quo, rem = poly_divmod_exact(coeffs, cand)
                if rem:
                    continue
                if all(f.denominator == 1 for f in quo):
                    return cand, ambiguous
        return None, ambiguous


def factor_of_degree(coeffs: list[int], k: int):
    """Integer factor of exact degree k (lowest first) or None.

    Roots are clustered numerically, then every candidate is confirmed by
    exact division, so a returned factor is always genuine."""
    if not 1 <= k < len(coeffs) - 1:
        return None
    for dps in (60, 150):
        found, ambiguous = _subset_factor(coeffs, k, dps)
        if found is not None:
            return found
        if not ambiguous:
            return None
    return None


def irreducible_over_z(coeffs: list[int]) -> bool:
    """Exhaustive factor search for modest degrees (meant for deg <= 12)."""
    deg = len(coeffs) - 1
    if deg <= 1:
        return True
    for k in range(1, deg // 2 + 1):
        if factor_of_degree(coeffs, k) is not None:
            return False
    return True


def distinct_prime_factors(m: int) -> set[int]:
    """Prime divisors of |m| by plain trial division."""
    m = abs(m)
    out = set()
    f = 2
    while f * f <= m:
        while m % f == 0:
            out.add(f)
            m //= f
        f += 1
    if m > 1:
        out.add(m)
    return out


def witness_primes_per_k(params, seed) -> list:
    """Witness primes for k = 1..n//2, each searched afresh: the largest
    prime dividing one of the k highest linear factors, dividing none of
    the k lowest ones nor the seed endpoints, with p > d and
    p >= min(2k, d(d-1)); None where no prime qualifies."""
    n, d = params.n, params.d
    endpoints = seed[0] * seed[n]
    factors = {i: distinct_prime_factors(params.term(i))
               for i in range(1, n + 1)}
    out = []
    for k in range(1, n // 2 + 1):
        candidates = set()
        for i in range(n - k + 1, n + 1):
            candidates |= factors[i]
        best = None
        for p in sorted(candidates, reverse=True):
            if p <= d or p < min(2 * k, d * (d - 1)):
                continue
            if any(params.term(j) % p == 0 for j in range(1, k + 1)):
                continue
            if endpoints % p == 0:
                continue
            best = p
            break
        out.append(best)
    return out


def three_adic_check_loop(params, s_limit: int = 10000) -> bool:
    """The d=4 3-adic family inequality checked step by step: the 3-adic
    content of the bottom 3+3s linear factors is below 3(s+1) for s < 4,
    and (l0+4s)^2 < 27^(s+1) for s = 4..s_limit, with l0 = 3 for
    (u, alpha) = (-1, 1) and l0 = 5 for (0, 3)."""
    l0 = {(-1, 1): 3, (0, 3): 5}[(params.u, params.alpha)]
    for s in range(4):
        content = sum(p_exponent(3, params.term(i))
                      for i in range(1, 3 + 3 * s + 1))
        if not content < 3 * (s + 1):
            return False
    pow27 = 27 ** 5
    for s in range(4, s_limit + 1):
        if not (l0 + 4 * s) ** 2 < pow27:
            return False
        pow27 *= 27
    return True


def p_exponent(p: int, m: int) -> int:
    """Exponent of p in m != 0, by repeated division."""
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def ap_prime_gap_pairs(modulus: int, residues, limit: int) -> list:
    """Every pair (p, q) of consecutive primes of one residue class with
    p <= limit, walking each class upward and testing every member by
    trial division."""
    def prime(m):
        return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))

    pairs = []
    for l in residues:
        members = itertools.count(l, modulus)
        p = next(m for m in members if prime(m))
        while p <= limit:
            q = next(m for m in members if prime(m))
            pairs.append((p, q))
            p = q
    return pairs


def progression_prime_set(k: int) -> set[int]:
    """Primes dividing (alpha+3)(alpha+6)...(alpha+3k), with alpha = 1 for
    even k and alpha = 2 for odd k, each term factorised by trial
    division."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    alpha = 1 if k % 2 == 0 else 2
    out: set[int] = set()
    for i in range(1, k + 1):
        out |= distinct_prime_factors(alpha + 3 * i)
    return out


def progression_prime_set_sizes(k_hi: int) -> dict:
    """k -> (direct size, closed-form size) for k = 2..k_hi.  The direct
    size is that of progression_prime_set(k); the closed form
    pi(3k+alpha) + pi((3k+alpha)//2) - 1 counts, one by one, the primes
    congruent to alpha mod 3 among the trial-division primes."""
    primes = [m for m in range(2, 3 * k_hi + 3)
              if distinct_prime_factors(m) == {m}]
    out = {}
    for k in range(2, k_hi + 1):
        alpha = 1 if k % 2 == 0 else 2
        top = 3 * k + alpha
        cls = [p for p in primes if p % 3 == alpha]
        closed = (sum(1 for p in cls if p <= top)
                  + sum(1 for p in cls if p <= top // 2) - 1)
        out[k] = (len(progression_prime_set(k)), closed)
    return out
