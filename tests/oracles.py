"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (direct
counting, textbook recurrences, numeric root clustering) so that a bug in
the package cannot hide inside the checks.  The paper's closed forms for
the 2-adic breaks live here too, and, at the end, the few helpers that
call the package: test conveniences and reference views that no command
needs, among them certificate_dict, the layout that the certificate
writer's text is tested against.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import mpmath as mp

from ghlcert.certify import CertificationInternalError, full_certify
from ghlcert.polynomials import GhlParams, SeedCoefficients


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


def gpf(m: int) -> int:
    """Greatest prime factor of m != 0 by trial division; P(+-1) = 1 by
    convention."""
    if m == 0:
        raise ValueError("P(0) is undefined")
    return max(distinct_prime_factors(m), default=1)


def mask_of(degrees) -> int:
    """The bitmask of a collection of non-negative degrees: bit K is set
    when K is among them, built one degree at a time."""
    mask = 0
    for k in degrees:
        mask |= 1 << k
    return mask


class SetLedger:
    """The degree ledger's claim rule over Python sets: a claim adds the
    mirror total - K of each degree K, keeps what is still open in
    [1, total-1], and records it as (method, sorted degrees, prime,
    evidence), or returns None when nothing is left."""

    def __init__(self, total: int):
        self.total = total
        self.remaining = set(range(1, total))
        self.records = []

    def claim(self, method, degrees, prime, evidence):
        effective = set(degrees)
        effective |= {self.total - K for K in effective}
        effective &= self.remaining
        if not effective:
            return None
        self.remaining -= effective
        rec = (method, tuple(sorted(effective)), prime, evidence)
        self.records.append(rec)
        return rec


def subset_sums_per_copy(parts) -> set:
    """Sums of the sub-multisets of the sizes given as (size, count) pairs,
    as a set of reachable sums grown by one copy of a size at a time."""
    sums = {0}
    for size, count in parts:
        for _ in range(count):
            sums |= {s + size for s in sums}
    return sums


def witness_primes_per_k(params, seed) -> list:
    """Witness primes for k = 1..n//2, each searched afresh: the largest
    prime dividing one of the k highest linear factors, dividing none of
    the k lowest ones nor the seed endpoints, with p > d and
    p >= min(2k, d(d-1)); None where no prime qualifies."""
    n, d = params.n, params.d
    endpoints = seed.values[0] * seed.values[n]
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


def eratosthenes(limit: int):
    """Every prime up to limit, ascending, as an int64 numpy array, from a
    whole-range sieve of Eratosthenes."""
    import numpy as np

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def ap_prime_gaps_from_prime_list(primes, modulus: int, residues,
                                  gap_bound: int) -> tuple[int, list]:
    """(largest gap, sorted pairs (p, q) with q - p > gap_bound) over the
    consecutive primes p, q of each residue class with p in ``primes`` (the
    primes up to some limit, ascending, as an int64 numpy array).  Each
    class is compressed out of primes % modulus, and the successor of its
    last prime is found by stepping through the class with sympy's
    isprime."""
    import numpy as np
    from sympy import isprime

    classes = primes % modulus
    max_gap, pairs = 0, []
    for l in residues:
        sel = primes[classes == l]
        if not sel.size:
            continue
        gaps = np.diff(sel)
        max_gap = max(max_gap, int(gaps.max(initial=0)))
        pairs += [(int(sel[j]), int(sel[j + 1]))
                  for j in np.flatnonzero(gaps > gap_bound).tolist()]
        p = int(sel[-1])
        q = p + modulus
        while not isprime(q):
            q += modulus
        max_gap = max(max_gap, q - p)
        if q - p > gap_bound:
            pairs.append((p, q))
    return max_gap, sorted(pairs)


def evaluate(coeffs, x: int) -> int:
    """The polynomial with these coefficients (lowest first) at x, as the
    defining sum."""
    return sum(c * x ** j for j, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# The paper's 2-adic breaks: d = 3, top linear factor 2^a
# ---------------------------------------------------------------------------

class BreakSequence(namedtuple("BreakSequence", "eta s a u n breaks")):
    """Predicted vertex abscissas (in unsubstituted units), the tuple
    breaks, of the 2-adic polygon when the top linear factor is 2^a."""

    __slots__ = ()


def expected_breaks(params) -> BreakSequence:
    """The break sequence of an instance with d = 3 whose top linear factor
    is a power of two 2^a >= 2, with eta = [alpha != 1] and
    s = (a - eta) / 2; s may be 0, which leaves only the breaks (0, n)."""
    a = p_exponent(2, params.top_term)
    eta = 0 if params.alpha == 1 else 1
    # 2^a = alpha + 3(u+n) forces a = eta (mod 2), so s is integral
    if (a - eta) % 2 != 0:
        raise ValueError(f"parity mismatch: a={a}, eta={eta}")
    s = (a - eta) // 2
    n_formula = -params.u + (1 << eta) * (4 ** s - 1) // 3
    if n_formula != params.n:
        raise ValueError(
            f"break closed form gives n={n_formula}, instance has n={params.n}")
    breaks = [0]
    acc = 0
    for i in range(1, s):
        acc += 4 ** (s - i)
        breaks.append((1 << eta) * acc)
    breaks.append(params.n)
    return BreakSequence(eta=eta, s=s, a=a, u=params.u, n=params.n,
                         breaks=tuple(breaks))


def verify_break_valuations(bs: BreakSequence) -> bool:
    """Closed forms for nu_2((n_i - 1)!) at every predicted break against a
    direct Legendre count."""
    for i, ni in enumerate(bs.breaks[1:], 1):
        if i < bs.s:
            expected = ni - bs.a + i
        else:
            # nu_2((n-1)!) = n-1-s_2(n-1), and the binary digit sum of n-1
            # is s-1 when (u, eta) = (0, 0) and s otherwise; the uniform
            # closed form n - s + u + 1 - 2^eta therefore needs a unit
            # correction in the (u, eta) = (-1, 1) case.
            expected = bs.n - bs.s + bs.u + 1 - (1 << bs.eta)
            if (bs.u, bs.eta) == (-1, 1):
                expected += 1
        if legendre_direct(2, ni - 1) != expected:
            return False
    return True


def accepted_vertex_patterns(bs: BreakSequence, delta: int) -> set:
    """The vertex abscissas the 2-adic polygon of G(x^delta) may have: every
    predicted break, only the two ends, or, for (u, alpha) = (-1, 1) with
    s >= 2, every break but the next-to-last, which is not extremal there."""
    full = tuple(delta * b for b in bs.breaks)
    accepted = {full, (0, delta * bs.n)}
    if (bs.u, bs.eta) == (-1, 0) and bs.s >= 2:
        accepted.add(full[:-2] + full[-1:])
    return accepted


# ---------------------------------------------------------------------------
# Helpers that call the package: conveniences and reference views
# ---------------------------------------------------------------------------

def certify_instance(d: int, u: int, alpha: int, n: int, delta: int,
                     seed_kind: str = "laguerre", **kwargs):
    """full_certify of the instance with the named seed of degree n."""
    params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
    return full_certify(params, SeedCoefficients.of_kind(n, seed_kind),
                        **kwargs)


def verify_certificate(cert) -> bool:
    """Partition invariant: every degree in [1, total-1] appears in exactly
    one record's degree set or in the residual."""
    degrees = sorted(itertools.chain(
        cert.residual, *(rec.degrees for rec in cert.records)))
    return degrees == list(range(1, cert.total_degree))


def sieve_report_dict(report) -> dict:
    """A sieve report as JSON-ready data, a (p, q) pair as a list: what
    SieveReport.json_chunks writes, as json.dumps(..., sort_keys=True,
    indent=2) would."""
    return {
        "query": report.query,
        "params": report.params,
        "exceptions": [list(e) if isinstance(e, tuple) else e
                       for e in report.exceptions],
        "extremal": report.extremal,
    }


def _runs(degrees) -> list:
    """Maximal runs of consecutive integers in a sorted sequence, as
    [lo, hi] lists."""
    out = []
    for k in degrees:
        if out and k == out[-1][1] + 1:
            out[-1][1] = k
        else:
            out.append([k, k])
    return out


def certificate_dict(cert) -> dict:
    """A certificate as JSON-ready data, one record entry per run of
    consecutive degrees, entries in order of their low end: the layout
    that Certificate.json_pieces writes, built as data.  For each k with
    a prime p, the witness stage's record takes the window [lo, hi] =
    [delta*k-delta+1, delta*k] and its mirror as one degree set and gives
    an entry per run of it, with prime p and evidence {"k": k, "window":
    [lo, hi]}; the stage claims first, on a fresh ledger, so the runs must
    cover exactly len(rec.degrees) degrees, or CertificationInternalError
    is raised.  Any other record's entries share its evidence dict, so
    treat the result as read-only."""
    params = cert.params
    m, delta = params.delta * params.n, params.delta
    entries = []
    for rec in cert.records:
        if rec.method.value != "WITNESS_PRIME":
            entries.extend({"k_range": k_range, "method": rec.method.value,
                            "prime": rec.prime, "evidence": rec.evidence}
                           for k_range in _runs(rec.degrees))
            continue
        covered = 0
        for k, p in enumerate(rec.evidence["primes"], 1):
            if p is None:
                continue
            lo, hi = delta * k - delta + 1, delta * k
            runs = _runs(sorted({*range(lo, hi + 1),
                                 *range(m - hi, m - lo + 1)}))
            covered += sum(b - a + 1 for a, b in runs)
            entries.extend({"k_range": run, "method": rec.method.value,
                            "prime": p, "evidence": {"k": k,
                                                     "window": [lo, hi]}}
                           for run in runs)
        if covered != len(rec.degrees):
            raise CertificationInternalError(
                f"witness windows miss the record's {len(rec.degrees)} "
                "degrees")
    # the ledger keeps record degree sets disjoint, and distinct k have
    # disjoint windows and mirrors, so no two runs share a low end
    entries.sort(key=lambda e: e["k_range"][0])
    return {
        "schema_version": 1,
        "params": {"d": params.d, "u": params.u, "alpha": params.alpha,
                   "n": params.n, "delta": delta, "q": str(params.q),
                   "total_degree": m},
        "seed": {"kind": cert.seed.kind, "values": list(cert.seed.values)},
        "records": entries,
        "residual": list(cert.residual),
        "verdict": cert.verdict.value,
        "notes": list(cert.notes),
    }
