"""Exact range-verification engine for prime-factor statements: greatest
prime factors over arithmetic progressions, smooth pairs, prime gaps in
residue classes, and closed-form counts and bounds, all in exact integer
arithmetic (floats only at a final root or log).

Every prime query reads one segmented, odd-only prime sieve, odd_blocks,
one block of DEFAULT_SEGMENT odd numbers at a time.  A bound P(m) <= B
reads a list of the B-smooth numbers when few can exist up to the range's
top (_smooth_numbers), else a segmented smoothness sieve whose blocks run
on one thread per usable CPU (_smooth_sweep).  Either way memory is
O(DEFAULT_SEGMENT) per thread, plus O(sqrt(limit)) base primes.  The
smallest-prime-factor table and the full greatest-prime-factor array are
the reference the tests check both sources against.
"""

from __future__ import annotations

import math
import os
import time
from collections import namedtuple

import numpy as np

from .jsontext import encode
# unused here, but the layer trace (perfbench) times sieve.prime_factors
from .valuation import is_prime, ord_factorial, prime_factors  # noqa: F401

DEFAULT_SEGMENT = 1 << 20
# odd_blocks and prime_flags refuse a longer sieve.  odd_blocks needs
# O(DEFAULT_SEGMENT + sqrt(limit)) memory at any limit, so this caps time:
# ap-gaps at this limit takes 1.5-2.3 s on a 2-vCPU host, at ~33 MiB of RSS.
MAX_SIEVE_LIMIT = 5 * 10 ** 8
# caps on smoothness --k ((k-1)! has 2.5M digits at the cap) and on
# gpf-bound --k (one sieved window per term); at each cap the slowest query
# measured takes 1-3 s on a 2-vCPU host (README, size caps)
MAX_SMOOTHNESS_K = 500_000
MAX_GPF_TERMS = 10_000
# cap on the length of an rset-mismatch k range, whose rows are all held in
# memory (nearly every k mismatches): 2:500001 takes about 1.3 s and 270 MiB
MAX_RSET_RANGE = 500_000
# cap on the pairs ap-gaps reports, all held in memory and written out
MAX_GAP_EXCEPTIONS = 1_000_000


def _check_sieve_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit {limit:,} is above the cap {MAX_SIEVE_LIMIT:,}")


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array of length limit+1; entry m is True iff m is prime."""
    _check_sieve_limit(limit)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def odd_blocks(limit: int):
    """The odd numbers up to limit, sieved one block of DEFAULT_SEGMENT at
    a time: pairs (lo, flags), flags[i] saying whether lo + 2i is prime.
    flags is one buffer, refilled for the next block.

    Each odd base prime p <= isqrt(limit), taken from prime_flags, crosses
    off every p-th entry (odd multiples of p are 2p apart) from its first
    odd multiple at or above both p*p and the block's bottom.  Memory is
    O(DEFAULT_SEGMENT + isqrt(limit)); a limit above MAX_SIEVE_LIMIT is
    refused before anything is sieved.  DEFAULT_SEGMENT is read once per
    call."""
    _check_sieve_limit(limit)
    segment = DEFAULT_SEGMENT
    base = np.flatnonzero(prime_flags(math.isqrt(limit)))[1:]
    odd_count = (limit + 1) // 2       # the odd numbers 1, 3, ..., <= limit
    # one flag buffer for all blocks: fresh block-sized arrays left the
    # allocator's heap larger
    buffer = np.empty(min(segment, odd_count), dtype=bool)
    for first in range(0, odd_count, segment):
        size = min(segment, odd_count - first)
        lo = 2 * first + 1
        ps = base[:np.searchsorted(base, math.isqrt(lo + 2 * (size - 1)),
                                   "right")]
        start = np.maximum(ps * ps, (lo + ps - 1) // ps * ps)
        start += ps * (start % 2 == 0)   # an even multiple: the next is odd
        flags = buffer[:size]
        flags.fill(True)
        flags[0] = lo > 1              # 1 is not prime
        for p, i in zip(ps.tolist(), ((start - lo) // 2).tolist()):
            flags[i::p] = False
        yield lo, flags


def prime_blocks(limit: int):
    """The primes up to limit, ascending, as int64 arrays: [2] (when limit
    >= 2), then the odd primes of each block of odd_blocks(limit) (an
    array may be empty)."""
    for lo, flags in odd_blocks(limit):
        if lo == 1 and limit >= 2:
            yield np.array([2], dtype=np.int64)
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += lo
        yield primes


def primes_up_to(limit: int) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=np.int64), *prime_blocks(limit)])


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


class RangeFilter(namedtuple("RangeFilter",
                             "min_exclusive odd_only not_divisible_by",
                             defaults=(0, False, None))):
    """Predicate selecting which n a range verification applies to."""

    __slots__ = ()

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


class SieveReport(namedtuple("SieveReport",
                             "query params exceptions extremal elapsed_ms")):
    """Outcome of one range verification."""

    __slots__ = ()

    def json_chunks(self, size: int):
        """Yield json.dumps of {"exceptions", "extremal", "params",
        "query"} (a (p, q) pair as a list), sort_keys=True, indent=2, in
        pieces of size exceptions (ints or (p, q) pairs, one %-template
        each), so that ap-gaps' million pairs never exist as one text."""
        ex = self.exceptions
        row = ("\n    [\n      %d,\n      %d\n    ]" if ex
               and type(ex[0]) is tuple else "\n    %d")
        head = '{\n  "exceptions": ['
        for lo in range(0, len(ex), size):
            yield head + ",".join(map(row.__mod__, ex[lo:lo + size]))
            head = ","
        yield ("\n  " if ex else head) + "]," + encode({
            "extremal": self.extremal, "params": self.params,
            "query": self.query}, "\n")[1:]


def _usable_cpus() -> int:
    """The CPUs this process may run on (taskset -c 0 leaves one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _smooth_mask(lo: int, hi: int, bound: int, primes) -> np.ndarray:
    """Whether P(m) <= bound, for every m in [lo, hi); m = 0 reads as
    smooth.  ``primes`` are the primes <= bound, ascending, in a numpy
    array, up to at least isqrt(hi-1).

    Divides every prime p <= min(bound, isqrt(hi-1)) out of each m with
    its full multiplicity.  If bound < isqrt(hi-1), the cofactor is 1 or
    has only prime factors above bound; otherwise it is 1 or a single prime
    above isqrt(hi-1).  Either way P(m) <= bound exactly when the cofactor
    is <= bound."""
    cur = np.arange(lo, hi, dtype=np.int64)
    top, span = hi - 1, hi - lo
    primes = primes[:np.searchsorted(primes, math.isqrt(top), "right")]
    split = int(np.searchsorted(primes, span, "right"))
    for p in primes[:split].tolist():
        pe = p
        while pe <= top:
            cur[(-lo) % pe::pe] //= p
            pe *= p
    # a prime above the span divides at most one m of the window: divide
    # those hits out together, one power of p per round.  (m = 0 would never
    # stop, but it is in the window only when lo = 0, and then every prime
    # <= isqrt(hi-1) is below the span hi.)
    big = primes[split:]
    at = (-lo) % big
    hit = at < span
    big, at = big[hit], at[hit]
    while big.size:
        np.floor_divide.at(cur, at, big)
        still = cur[at] % big == 0
        big, at = big[still], at[still]
    return cur <= bound


def _smooth_numbers(bound: int, top: int) -> np.ndarray | None:
    """Every m in [1, top] with P(m) <= bound, ascending as int64, or None
    when there may be more than DEFAULT_SEGMENT of them.

    The gate multiplies 1 + floor(log_p top) over the primes p <= min(bound,
    top), upward, and gives up once the product passes DEFAULT_SEGMENT: it
    counts exponent vectors, so it bounds the number of such m.  Each
    factor is at least 2, so at most log2(DEFAULT_SEGMENT) + 1 primes are
    tried whatever the bound.  Below the gate the numbers are listed by
    multiplying in one prime at a time, only entries <= top // p, so no
    product passes top (or int64)."""
    primes, count = [], 1
    for p in range(2, min(bound, top) + 1):
        if not is_prime(p):
            continue
        e, pe = 0, p
        while pe <= top:
            e, pe = e + 1, pe * p
        count *= 1 + e
        if count > DEFAULT_SEGMENT:
            return None
        primes.append(p)
    smooth = np.ones(1 if bound >= 1 else 0, dtype=np.int64)
    for p in primes:
        parts, cur = [smooth], smooth
        while (cur := cur[cur <= top // p] * p).size:
            parts.append(cur)
        smooth = np.concatenate(parts)
    return np.sort(smooth)


def _smooth_sweep(limit: int, halo: int, bound: int, select) -> list:
    """Feeds ``select(xs, smooth_at)`` the n in [0, limit] with P(n) <=
    bound and returns what it returns, concatenated: xs is an ascending
    int64 array of such n, and smooth_at(s, x), for 0 <= s <= halo and x
    drawn from xs, says whether P(x + s) <= bound for each x.  n = 0 may
    or may not be among them.

    When _smooth_numbers lists the smooth m up to limit + halo, select runs
    once on that list and looks the shifted terms up in it.  Otherwise the
    range is sieved in blocks of DEFAULT_SEGMENT, and select runs once per
    block, on min(blocks, usable CPUs) threads, so it must be thread-safe.
    A halo up to the block size is sieved with the block as one mask; a
    longer one, window by window, so memory is O(DEFAULT_SEGMENT) per
    thread whatever the halo.  A thread sieves about 10^8 a second on a
    2-vCPU host, so a limit above MAX_SIEVE_LIMIT is refused before any
    block is sieved; the listing has no such cap, since its cost follows
    the count of smooth numbers, not the limit."""
    smooth = _smooth_numbers(bound, limit + halo)
    if smooth is not None:
        def listed(s, x):
            y = x + s
            return np.searchsorted(smooth, y, "right") > np.searchsorted(smooth, y)
        return select(smooth[:np.searchsorted(smooth, limit, "right")],
                      listed)
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"limit {limit:,} is above the cap {MAX_SIEVE_LIMIT:,} of the "
            f"segmented sieve: the {bound}-smooth numbers up to it may be "
            f"too many to list")

    primes = primes_up_to(max(0, min(bound, math.isqrt(limit + halo))))

    def block(lo):
        size = min(DEFAULT_SEGMENT, limit + 1 - lo)
        if halo <= DEFAULT_SEGMENT:
            mask = _smooth_mask(lo, lo + size + halo, bound, primes)
            xs = lo + np.flatnonzero(mask[:size])
            return select(xs, lambda s, x: mask[x - lo + s])
        xs = lo + np.flatnonzero(_smooth_mask(lo, lo + size, bound, primes))
        return select(xs, lambda s, x: _smooth_mask(
            lo + s, lo + s + size, bound, primes)[x - lo])

    starts = range(0, limit + 1, DEFAULT_SEGMENT)
    threads = min(len(starts), _usable_cpus())
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [x for part in pool.map(block, starts) for x in part]
    return [x for lo in starts for x in block(lo)]


def verify_gpf_bound(d: int, k: int, bound: int, n_limit: int,
                     flt: RangeFilter = RangeFilter()) -> SieveReport:
    """All filtered n <= n_limit with P(n (n+d) ... (n+d(k-1))) <= bound."""
    for name, value in (("d", d), ("k", k), ("limit", n_limit)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if k > MAX_GPF_TERMS:
        raise ValueError(f"k {k:,} is above the cap {MAX_GPF_TERMS:,}")
    top = n_limit + d * (k - 1)
    if top >= 1 << 63:
        raise ValueError(f"limit + d*(k-1) = {top:,} does not fit int64")
    t0 = time.monotonic()

    def select(xs, smooth_at):
        for i in range(1, k):
            xs = xs[smooth_at(i * d, xs)]
        return xs[flt.mask(xs) & (xs >= 1)].tolist()

    exceptions = _smooth_sweep(n_limit, d * (k - 1), bound, select)
    return SieveReport(
        query="gpf-ap-bound",
        params={"d": d, "k": k, "bound": bound, "n_limit": n_limit,
                "filter": flt.describe()},
        exceptions=exceptions,
        extremal=max(exceptions, default=None),
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
    )


def exact_p5_pairs(limit: int) -> list[tuple[int, int]]:
    """Pairs (i, X) with 1 <= i <= 7, X > 80, 3 not dividing X, X(X+3i)
    even, and greatest prime factor of X(X+3i) exactly 5: both factors
    5-smooth and 5 dividing one of them."""
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")

    def select(xs, smooth_at):
        x = xs[(xs > 80) & (xs % 3 != 0)]
        out = []
        for i in range(1, 8):
            y = x + 3 * i
            keep = smooth_at(3 * i, x)
            keep &= (x % 5 == 0) | (y % 5 == 0)
            keep &= (x % 2 == 0) | (y % 2 == 0)
            out.extend((i, v) for v in x[keep].tolist())
        return out

    return sorted(_smooth_sweep(limit, 21, 5, select))


def ap_prime_gaps(modulus: int, residues, limit: int,
                  gap_bound: int) -> SieveReport:
    """Consecutive primes within each residue class; reports the largest
    gap and every consecutive pair (p, q) with p <= limit and q - p >
    gap_bound.  The odd members of a class are every step-th entry of a
    block of odd_blocks(limit) (step = modulus, halved when even), so each
    class is a strided view of the flags; its last prime (at first 2, if
    the class has it) is carried from one block to the next.  The
    successor of each class's last prime up to the limit lies above it
    and is found by stepping through the class with a primality test
    (Dirichlet: it exists).  A repeated residue, a modulus past int64 or a
    negative gap bound is refused, and more than MAX_GAP_EXCEPTIONS pairs
    over the bound stop the query."""
    t0 = time.monotonic()
    residues = tuple(residues)
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
    if modulus >= 1 << 63:
        raise ValueError(f"modulus {modulus:,} does not fit int64")
    if gap_bound < 0:
        raise ValueError(f"gap bound must be nonnegative, got {gap_bound}")
    last = {}                          # each class's last prime so far
    for l in residues:
        if not 0 <= l < modulus:
            raise ValueError(
                f"residue {l} outside 0..{modulus - 1} for modulus {modulus}")
        if math.gcd(l, modulus) != 1:
            raise ValueError(f"residue {l} not coprime to modulus {modulus}")
        if l in last:
            raise ValueError(f"residue {l} given more than once")
        last[l] = None
    if limit >= 2 and 2 % modulus in last:
        last[2 % modulus] = 2
    step = modulus // 2 if modulus % 2 == 0 else modulus
    stride = 2 * step                  # between odd members of a class
    exceptions = []
    max_gap = 0
    for lo, flags in odd_blocks(limit):
        for l in residues:
            # entry i0, the class's first: 2*i0 = l - lo (mod modulus)
            t = (l - lo) % modulus
            i0 = (t + modulus * (t & 1)) // 2
            hits = np.flatnonzero(flags[i0::step])
            if not hits.size:
                continue
            at = lo + 2 * i0           # hit j stands for at + stride*j
            p = at + stride * int(hits[0])
            if last[l] is not None:
                max_gap = max(max_gap, p - last[l])
                if p - last[l] > gap_bound:
                    exceptions.append((last[l], p))
            if hits.size > 1:          # so step is below the block length
                gaps = np.diff(hits)
                max_gap = max(max_gap, stride * int(gaps.max()))
                j = np.flatnonzero(gaps > gap_bound // stride)
                _check_gap_exceptions(len(exceptions) + j.size, gap_bound)
                exceptions += zip((at + stride * hits[j]).tolist(),
                                  (at + stride * hits[j + 1]).tolist())
            last[l] = at + stride * int(hits[-1])
    for p in last.values():
        if p is None:
            continue  # no prime up to the limit in this class
        succ = p + modulus
        while not is_prime(succ):
            succ += modulus
        max_gap = max(max_gap, succ - p)
        if succ - p > gap_bound:
            exceptions.append((p, succ))
    _check_gap_exceptions(len(exceptions), gap_bound)
    exceptions.sort()
    return SieveReport(
        query="ap-prime-gaps",
        params={"modulus": modulus, "residues": list(residues),
                "limit": limit, "gap_bound": gap_bound},
        exceptions=exceptions,
        extremal=max_gap,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
    )


def _check_gap_exceptions(count: int, gap_bound: int) -> None:
    if count > MAX_GAP_EXCEPTIONS:
        raise ValueError(
            f"more than {MAX_GAP_EXCEPTIONS:,} pairs exceed the gap bound "
            f"{gap_bound:,} (the cap on reported pairs); ask for a larger "
            f"--gap-bound")


def progression_prime_set_mismatches(k_lo: int, k_hi: int) -> list[tuple[int, int, int]]:
    """(k, direct size, closed-form size) for each k in [k_lo, k_hi] where
    the two disagree.  With alpha = 1 for even k and 2 for odd k, the
    direct size counts the primes dividing (alpha+3)(alpha+6)...(alpha+3k),
    the closed form is pi(3k+alpha) + pi((3k+alpha)//2) - 1 over primes
    congruent to alpha mod 3.  The primes up to 3*k_hi + 2, from
    prime_blocks, give both: 3 divides no term, and a prime p != 3 divides
    one exactly when the least i >= 1 with alpha + 3i = 0 mod p, i0(p), is
    at most k, so each size is a binary search (among the sorted i0, or the
    primes of the class).
    A range longer than MAX_RSET_RANGE is refused before the sieve."""
    if k_lo < 2:
        raise ValueError(f"k must be at least 2, got {k_lo}")
    _check_sieve_limit(3 * k_hi + 2)  # reported first when both caps fail
    if k_hi - k_lo + 1 > MAX_RSET_RANGE:
        raise ValueError(f"k range of {k_hi - k_lo + 1:,} values is above "
                         f"the cap {MAX_RSET_RANGE:,}")
    # int32 holds 2p + 1 for every p up to MAX_SIEVE_LIMIT
    primes = np.concatenate([block[block != 3].astype(np.int32)
                             for block in prime_blocks(3 * k_hi + 2)])
    # at most four arrays as long as primes: primes, its two classes mod 3,
    # inv3 and one i0 buffer.  3 * inv3 = p*(3 - p%3) + 1, which is 2p + 1
    # or p + 1, so inv3 is the inverse of 3 mod p; it is built in place in
    # the p % 3 that gave the classes
    inv3 = primes % 3
    classes = {alpha: primes[inv3 == alpha] for alpha in (1, 2)}
    np.subtract(3, inv3, out=inv3)
    inv3 *= primes
    inv3 += 1
    inv3 //= 3
    first = np.empty_like(primes)
    # int32 ks: an int64 key would make searchsorted copy first as int64
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int32)
    out = []
    for alpha in (1, 2):
        k = ks[ks % 2 == alpha - 1]
        np.multiply(inv3, alpha, out=first)
        first %= primes
        np.subtract(primes, first, out=first)    # i0(p), in 1..p
        first.sort()
        cls, top = classes[alpha], 3 * k + alpha
        direct = np.searchsorted(first, k, "right")
        printed = (np.searchsorted(cls, top, "right")
                   + np.searchsorted(cls, top // 2, "right") - 1)
        bad = direct != printed
        out += zip(*(a[bad].tolist() for a in (k, direct, printed)))
    return sorted(out)


def smoothness_bound_exact(k: int, l: int, printed_inner_pi: bool = False) -> tuple[int, int]:
    """Exact integer core (N, T) of the smooth-range bound N**(1/T):
    N = (k-1)! times a correction p**L0(p) for each of the first l primes,
    T = k + 1 - pi(4k+3).

    L0(2) = -ord_2((k-1)!).  For odd p, with h the largest exponent such
    that floor((k-1)/p**h) still exceeds T, L0(p) = min(0, h*T - sum of
    floor((k-1)/p**u) for u = 1..h).  The inner T in that product is
    pi(4k+3)-based by default; printed_inner_pi switches it to the
    pi(4k)-based variant.

    The primes up to 4k+3 give pi(4k+3), pi(4k) and the first l primes
    below k.  k above MAX_SMOOTHNESS_K is refused.
    """
    if k > MAX_SMOOTHNESS_K:
        raise ValueError(f"k {k:,} is above the cap {MAX_SMOOTHNESS_K:,}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    primes = primes_up_to(max(0, 4 * k + 3))
    T = k + 1 - primes.size
    if T <= 0:
        raise ValueError(f"exponent k+1-pi(4k+3) = {T} must be positive")
    inner = (k + 1 - int(np.searchsorted(primes, 4 * k, "right"))
             if printed_inner_pi else T)
    denom = 1
    # the first l primes but 2 (T > 0 puts k above 2); a prime >= k does
    # not divide (k-1)! and changes nothing, so 4k + 3 is sieve enough
    for p in primes[:np.searchsorted(primes, k)][1:l].tolist():
        h = 0
        while (k - 1) // p ** (h + 1) > T:
            h += 1
        x = h * inner - sum((k - 1) // p ** u for u in range(1, h + 1))
        if x < 0:
            denom *= p ** (-x)
    odd_part = math.factorial(k - 1) >> ord_factorial(2, k - 1)
    n_exact, rem = divmod(odd_part, denom)
    if rem:
        raise AssertionError("correction exponents exceeded factorial content")
    return n_exact, T


def smoothness_root(n_exact: int, T: int) -> float:
    """N**(1/T) as a float, for the exact core (N, T)."""
    return math.exp(math.log(n_exact) / T) if n_exact > 1 else float(n_exact)
