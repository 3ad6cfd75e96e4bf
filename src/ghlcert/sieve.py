"""Exact range-verification engine for prime-factor statements.

Backs every bulk query with one boolean prime sieve per query, or with a
segmented smoothness sieve, which divides the primes up to the bound out of
one fixed-size block at a time and so needs memory for one block only.  It
answers greatest-prime-factor questions over arithmetic progressions,
smooth-pair enumerations, prime gaps in residue classes (sieved to the
limit, with each class's successor above it found by a primality test), and
the closed-form bound evaluations, all in exact integer arithmetic (floats
only at the final root/log step where a real number is the answer).  The
smallest-prime-factor table and the full greatest-prime-factor array are
the reference the tests check the smoothness sieve against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .valuation import is_prime, ord_factorial, prime_factors

DEFAULT_SEGMENT = 1 << 20
# prime_flags refuses a longer sieve; ap-gaps at this limit peaks at about
# 710 MiB of RSS.
MAX_SIEVE_LIMIT = 5 * 10 ** 8


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array of length limit+1; entry m is True iff m is prime."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit {limit:,} is above the cap {MAX_SIEVE_LIMIT:,}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def primes_up_to(limit: int) -> np.ndarray:
    return np.flatnonzero(prime_flags(limit)).astype(np.int64)


def prime_count(x) -> int:
    """Number of primes <= x."""
    x = math.floor(x)
    if x < 2:
        return 0
    return int(prime_flags(x).sum())


class SpfTable:
    """Smallest-prime-factor table over [0, limit]."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit
        dtype = np.int32 if limit < 2 ** 31 else np.int64
        spf = np.zeros(limit + 1, dtype=dtype)
        for p in primes_up_to(math.isqrt(limit)).tolist():
            view = spf[p * p::p]
            view[view == 0] = p
        rest = np.flatnonzero(spf == 0)
        spf[rest] = rest  # untouched entries are primes (or 0, 1)
        self.spf = spf


_shared_spf: SpfTable | None = None


def shared_table(limit: int) -> SpfTable:
    """Process-wide smallest-prime-factor table, grown on demand."""
    global _shared_spf
    if _shared_spf is None or _shared_spf.limit < limit:
        _shared_spf = SpfTable(limit)
    return _shared_spf


def gpf_array(limit: int) -> np.ndarray:
    """Greatest prime factor of every m in [0, limit]; entries 0, 1 map to
    0, 1.  Peels smallest factors off the whole range at once."""
    table = shared_table(limit)
    spf = table.spf[:limit + 1]
    cur = np.arange(limit + 1, dtype=spf.dtype)
    out = np.ones(limit + 1, dtype=spf.dtype)
    out[0] = 0
    idx = np.flatnonzero(cur > 1)
    while idx.size:
        s = spf[cur[idx]]
        out[idx] = np.maximum(out[idx], s)
        cur[idx] //= s
        idx = idx[cur[idx] > 1]
    return out


@dataclass(frozen=True)
class RangeFilter:
    """Predicate selecting which n a range verification applies to."""

    min_exclusive: int = 0
    odd_only: bool = False
    not_divisible_by: int | None = None

    def mask(self, values: np.ndarray) -> np.ndarray:
        keep = values > self.min_exclusive
        if self.odd_only:
            keep &= values % 2 == 1
        if self.not_divisible_by:
            keep &= values % self.not_divisible_by != 0
        return keep

    def describe(self) -> str:
        parts = [f"n>{self.min_exclusive}"]
        if self.odd_only:
            parts.append("odd")
        if self.not_divisible_by:
            parts.append(f"{self.not_divisible_by} does not divide n")
        return ", ".join(parts)


@dataclass
class SieveReport:
    """Outcome of one range verification."""

    query: str
    params: dict
    exceptions: list
    extremal: object = None
    elapsed_ms: float = field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "query": self.query,
            "params": self.params,
            "exceptions": [list(e) if isinstance(e, tuple) else e
                           for e in self.exceptions],
            "extremal": self.extremal,
        }


def _now_ms() -> float:
    import time
    return time.monotonic() * 1000.0


def _smooth_mask(lo: int, hi: int, bound: int, primes) -> np.ndarray:
    """Whether P(m) <= bound, for every m in [lo, hi); m = 0 reads as
    smooth.  ``primes`` are the primes <= bound, ascending, up to at least
    isqrt(hi-1).

    Divides every prime p <= min(bound, isqrt(hi-1)) out of each m with
    its full multiplicity.  If bound < isqrt(hi-1), the cofactor is 1 or
    has only prime factors above bound; otherwise it is 1 or a single prime
    above isqrt(hi-1).  Either way P(m) <= bound exactly when the cofactor
    is <= bound."""
    cur = np.arange(lo, hi, dtype=np.int64)
    top = hi - 1
    root = math.isqrt(top)
    for p in primes:
        if p > root:
            break
        pe = p
        while pe <= top:
            cur[(-lo) % pe::pe] //= p
            pe *= p
    return cur <= bound


def _smooth_sweep(limit: int, halo: int, bound: int, select, jobs: int = 1) -> list:
    """Walks n in [0, limit] in blocks of DEFAULT_SEGMENT and concatenates
    ``select(lo, size, window)`` in block order, where the block holds n in
    [lo, lo + size) and window(s)[j] says whether P(lo + s + j) <= bound,
    for 0 <= s <= halo and j < size.  A halo up to the block size is sieved
    with the block as one mask; a longer one, window by window, so memory
    is O(DEFAULT_SEGMENT) per worker whatever the halo."""
    primes = [int(p) for p in
              primes_up_to(max(0, min(bound, math.isqrt(limit + halo))))]

    def block(lo):
        size = min(DEFAULT_SEGMENT, limit + 1 - lo)
        if halo <= DEFAULT_SEGMENT:
            mask = _smooth_mask(lo, lo + size + halo, bound, primes)
            return select(lo, size, lambda s: mask[s:s + size])
        return select(lo, size, lambda s: _smooth_mask(
            lo + s, lo + s + size, bound, primes))

    starts = range(0, limit + 1, DEFAULT_SEGMENT)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(block, starts))
    else:
        parts = [block(lo) for lo in starts]
    return [item for part in parts for item in part]


def verify_gpf_bound(d: int, k: int, bound: int, n_limit: int,
                     flt: RangeFilter = RangeFilter(), jobs: int = 1) -> SieveReport:
    """All filtered n <= n_limit with P(n (n+d) ... (n+d(k-1))) <= bound."""
    for name, value in (("d", d), ("k", k), ("limit", n_limit)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    t0 = _now_ms()

    def select(lo, size, window):
        ok = window(0).copy()
        for i in range(1, k):
            ok &= window(i * d)
        values = lo + np.flatnonzero(ok)
        return values[flt.mask(values) & (values >= 1)].tolist()

    exceptions = _smooth_sweep(n_limit, d * (k - 1), bound, select, jobs)
    return SieveReport(
        query="gpf-ap-bound",
        params={"d": d, "k": k, "bound": bound, "n_limit": n_limit,
                "filter": flt.describe()},
        exceptions=exceptions,
        extremal=max(exceptions, default=None),
        elapsed_ms=_now_ms() - t0,
    )


def exact_p5_pairs(limit: int) -> list[tuple[int, int]]:
    """Pairs (i, X) with 1 <= i <= 7, X > 80, 3 not dividing X, X(X+3i)
    even, and greatest prime factor of X(X+3i) exactly 5: both factors
    5-smooth and 5 dividing one of them."""
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    def select(lo, size, window):
        j = np.flatnonzero(window(0))
        x = lo + j
        base = (x > 80) & (x % 3 != 0)
        out = []
        for i in range(1, 8):
            y = x + 3 * i
            keep = base & window(3 * i)[j]
            keep &= (x % 5 == 0) | (y % 5 == 0)
            keep &= (x % 2 == 0) | (y % 2 == 0)
            out.extend((i, v) for v in x[keep].tolist())
        return out

    return sorted(_smooth_sweep(limit, 21, 5, select))


def ap_prime_gaps(modulus: int, residues, limit: int,
                  gap_bound: int) -> SieveReport:
    """Consecutive primes within each residue class; reports the largest
    gap and every consecutive pair (p, q) with p <= limit and q - p >
    gap_bound.  Sieves to the limit once; the successor of each class's
    last prime up to the limit lies above it and is found by stepping
    through the class with a primality test (Dirichlet: it exists)."""
    t0 = _now_ms()
    residues = tuple(residues)
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
    for l in residues:
        if not 0 <= l < modulus:
            raise ValueError(
                f"residue {l} outside 0..{modulus - 1} for modulus {modulus}")
        if math.gcd(l, modulus) != 1:
            raise ValueError(f"residue {l} not coprime to modulus {modulus}")
    primes = np.flatnonzero(prime_flags(limit))
    exceptions = []
    max_gap = 0
    for l in residues:
        sel = primes[primes % modulus == l]
        if not sel.size:
            continue  # no prime up to the limit in this class
        succ = int(sel[-1]) + modulus
        while not is_prime(succ):
            succ += modulus
        sel = np.append(sel, succ)
        gaps = np.diff(sel)
        max_gap = max(max_gap, int(gaps.max()))
        for j in np.flatnonzero(gaps > gap_bound):
            exceptions.append((int(sel[j]), int(sel[j + 1])))
    exceptions.sort()
    return SieveReport(
        query="ap-prime-gaps",
        params={"modulus": modulus, "residues": list(residues),
                "limit": limit, "gap_bound": gap_bound},
        exceptions=exceptions,
        extremal=max_gap,
        elapsed_ms=_now_ms() - t0,
    )


def residue_prime_count(x, modulus: int, l: int) -> int:
    """Number of primes <= x congruent to l modulo modulus."""
    xf = math.floor(x)
    if xf < 2:
        return 0
    primes = np.flatnonzero(prime_flags(xf))
    return int((primes % modulus == l).sum())


def progression_prime_set(k: int) -> set[int]:
    """Primes dividing (alpha+3)(alpha+6)...(alpha+3k), with alpha = 1 for
    even k and alpha = 2 for odd k."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    alpha = 1 if k % 2 == 0 else 2
    out: set[int] = set()
    for i in range(1, k + 1):
        out.update(prime_factors(alpha + 3 * i))
    return out


def progression_prime_set_size_printed(k: int) -> int:
    """The closed-form count claimed for the progression prime set, using
    counts of primes in residue classes mod 3."""
    if k % 2 == 0:
        return (residue_prime_count(3 * k + 1, 3, 1)
                + residue_prime_count((3 * k + 1) / 2, 3, 1) - 1)
    return (residue_prime_count(3 * k + 2, 3, 2)
            + residue_prime_count((3 * k + 2) / 2, 3, 2) - 1)


def progression_prime_set_mismatches(k_lo: int, k_hi: int) -> list[tuple[int, int, int]]:
    """(k, direct size, closed-form size) wherever the two disagree."""
    out = []
    for k in range(k_lo, k_hi + 1):
        direct = len(progression_prime_set(k))
        printed = progression_prime_set_size_printed(k)
        if direct != printed:
            out.append((k, direct, printed))
    return out


def smoothness_bound_exact(k: int, l: int, printed_inner_pi: bool = False) -> tuple[int, int]:
    """Exact integer core (N, T) of the smooth-range bound N**(1/T):
    N = (k-1)! times a correction p**L0(p) for each of the first l primes,
    T = k + 1 - pi(4k+3).

    L0(2) = -ord_2((k-1)!).  For odd p, with h the largest exponent such
    that floor((k-1)/p**h) still exceeds T, L0(p) = min(0, h*T - sum of
    floor((k-1)/p**u) for u = 1..h).  The inner T in that product is
    pi(4k+3)-based by default; printed_inner_pi switches it to the
    pi(4k)-based variant.
    """
    T = k + 1 - prime_count(4 * k + 3)
    if T <= 0:
        raise ValueError(f"exponent k+1-pi(4k+3) = {T} must be positive")
    inner = (k + 1 - prime_count(4 * k)) if printed_inner_pi else T
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    # the l-th prime is below l (ln l + ln ln l) for l >= 6 (Rosser)
    top = 11 if l < 6 else int(l * (math.log(l) + math.log(math.log(l))))
    fac = math.factorial(k - 1)
    denom = 1
    for p in primes_up_to(top)[:l]:
        p = int(p)
        if p == 2:
            denom <<= ord_factorial(2, k - 1)
            continue
        if k - 1 <= T:
            continue  # no exponent h satisfies floor((k-1)/p^h) > T
        h = 0
        while (k - 1) // p ** (h + 1) > T:
            h += 1
        x = h * inner - sum((k - 1) // p ** u for u in range(1, h + 1))
        if x < 0:
            denom *= p ** (-x)
    n_exact, rem = divmod(fac, denom)
    if rem:
        raise AssertionError("correction exponents exceeded factorial content")
    return n_exact, T


def smoothness_bound(k: int, l: int, printed_inner_pi: bool = False) -> float:
    """Real value of the smooth-range bound N**(1/T)."""
    n_exact, T = smoothness_bound_exact(k, l, printed_inner_pi)
    return math.exp(math.log(n_exact) / T) if n_exact > 1 else float(n_exact)
