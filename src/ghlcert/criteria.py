"""Degree-exclusion criteria and the bookkeeping that assembles them.

A factor-degree exclusion for the substituted polynomial comes from one of:

* a witness prime dividing the top coefficient block but none of the low
  ones (excludes a window of degrees outright),
* a two-sided Newton-function margin at some prime,
* a flat-tail slope window at some prime,
* the admissible-degree complement of a Newton polygon (subset sums of
  lattice segments),
* the degree set of a squarefree reduction modulo a prime (subset sums of
  the degrees in its distinct-degree factorisation; Musser's test), or
* one of the special handlers in the certify module.

The margin and window stages are not pipeline stages: a degree they
exclude at p is no subset sum of the lattice-segment widths of the seeded
polygon at p (Dumas), so the admissible-degree stage at the same p has
already excluded it.  They stay as the reference for that lemma's test.

Every exclusion of degree K is also an exclusion of degree (total - K):
the statements all rule out one side of a two-way split f = g1 * g2 where
neither part is required to be irreducible.  The ledger below adds the
mirror of every claimed degree and trims each claim to the still-open
degrees, so that record degree sets stay disjoint.  Every degree set the
stages handle is an int bitmask: bit K is set when degree K is in it.
"""

from __future__ import annotations

import enum
import heapq
from collections import namedtuple

from .newton import (NewtonPolygon, admissible_degrees, degrees_of,
                     polygon_from_params, subset_sums, viable_margin,
                     widest_window)
from .polynomials import GhlParams, IntegerPolynomial, SeedCoefficients
from .valuation import is_prime, prime_factors, term_table


class Method(str, enum.Enum):
    WITNESS_PRIME = "WITNESS_PRIME"
    NEWTON_MARGIN = "NEWTON_MARGIN"
    SLOPE_WINDOW = "SLOPE_WINDOW"
    DELTA_DIVISIBILITY = "DELTA_DIVISIBILITY"
    SPECIAL_2ADIC = "SPECIAL_2ADIC"
    SPECIAL_3ADIC = "SPECIAL_3ADIC"
    LAGUERRE_NP = "LAGUERRE_NP"
    DEGREE_SET = "DEGREE_SET"


class ExclusionRecord(namedtuple("ExclusionRecord",
                                  "method degrees prime evidence")):
    """One certified exclusion: these factor degrees (a sorted tuple) are
    impossible, by this method at this prime; evidence is what the method
    read there.  The one WITNESS_PRIME record of the witness stage has
    prime None and evidence {"delta": delta, "primes": [...]}, the prime
    of each k = 1..n//2 (None at a gap)."""

    __slots__ = ()


class DegreeLedger:
    """Tracks the still-open degrees in [1, total-1] as the bitmask remaining
    and trims incoming claims so that recorded degree sets stay disjoint."""

    def __init__(self, total: int):
        self.total = total
        self.remaining = (1 << total) - 2
        self.records: list[ExclusionRecord] = []

    def claim(self, method: Method, degrees: int, prime: int | None,
              evidence: dict) -> ExclusionRecord | None:
        """Exclude the bitmask's degrees and their mirrors total - K as far
        as still open (a K outside [1, total-1] never is); the record of
        that, or None.  Reversing the low total+1 bits gives the mirrors."""
        degrees &= (1 << self.total) - 2
        mirrors = int(bin(degrees)[:1:-1], 2) << (
            self.total + 1 - degrees.bit_length())
        effective = (degrees | mirrors) & self.remaining
        if not effective:
            return None
        self.remaining ^= effective
        rec = ExclusionRecord(method, degrees_of(effective), prime,
                              evidence)
        self.records.append(rec)
        return rec


def witness_primes(params: GhlParams, seed: SeedCoefficients):
    """Yield (k, p) for k = 1..n//2, where p is the largest prime dividing
    the product of the k highest linear factors while dividing neither the
    k lowest ones, nor the seed endpoints, with p > d and
    p >= min(2k, d(d-1)); p is None when no prime qualifies.  Such a prime
    rules out a degree-k factor of the unsubstituted polynomial, and so the
    degrees of k's window [delta*k-delta+1, delta*k] after the substitution.

    One incremental scan: every condition is monotone in k (the top block
    only gains primes, the low block only gains primes, the threshold only
    rises, the endpoints are fixed), so a prime that fails once fails for
    every larger k.  The candidates sit in a max-heap; a failing top is
    popped for good and never pushed again.  Since the threshold is
    always above d, only primes above d matter: they come from the
    family's TermTable.large_primes, built once per process, whatever n."""
    if params.u not in (-1, 0):
        raise ValueError(f"witness search needs u in {{-1, 0}}, got {params.u}")
    n, d = params.n, params.d
    endpoints = seed.values[0] * seed.values[n]
    heap: list[int] = []          # negated primes of the top block
    seen: set[int] = set()
    low: set[int] = set()
    large = term_table(d, params.u, params.alpha).large_primes(n)
    for k in range(1, n // 2 + 1):
        for p in large[n - k + 1]:
            if p not in seen:
                seen.add(p)
                heapq.heappush(heap, -p)
        low.update(large[k])
        threshold = max(d + 1, min(2 * k, d * (d - 1)))
        while heap:
            p = -heap[0]
            if p >= threshold and p not in low and endpoints % p != 0:
                break
            heapq.heappop(heap)
        yield k, (-heap[0] if heap else None)


def find_exclusion_prime(params: GhlParams, k: int, seed: SeedCoefficients):
    """Largest prime p dividing the product of the k highest linear factors
    while dividing neither the k lowest ones, nor the seed endpoints, with
    p > d and p >= min(2k, d(d-1)); None when no prime qualifies.  The
    answer is read from witness_primes, run up to k."""
    if not 1 <= k <= params.n / 2:
        raise ValueError(f"k={k} outside 1..n/2 for n={params.n}")
    for j, p in witness_primes(params, seed):
        if j == k:
            return p


SMALL_PRIME_LIMIT = 50
_SMALL_PRIMES = tuple(p for p in range(SMALL_PRIME_LIMIT + 1) if is_prime(p))


def candidate_primes(params: GhlParams) -> list[int]:
    """Primes worth building polygons at: the primes up to
    SMALL_PRIME_LIMIT plus every divisor of the top linear factor and of n.
    The top term is factorised in full, once per call: its prime factors
    at or below d also give polygons, which matter for d > 50."""
    out = set(_SMALL_PRIMES)
    out.update(prime_factors(params.top_term))
    out.update(prime_factors(params.n))
    return sorted(out)


class PolygonCache:
    """What the stages of one certification run share: the instance, its
    candidate primes, and the polygons of the substituted polynomial per
    prime for the seed and the all-ones carrier, each built at most once,
    on demand, and by the stages not at all at a flat prime (see flat)."""

    def __init__(self, params: GhlParams, seed: SeedCoefficients):
        self.params = params
        self.seed = seed
        self.primes = candidate_primes(params)
        self.ones = SeedCoefficients.ones(params.n)
        self._table = term_table(params.d, params.u, params.alpha)
        self._cache: dict[tuple[int, str], NewtonPolygon] = {}
        self._admissible: dict[tuple[int, str], int] = {}

    def seed_coprime(self, p: int) -> bool:
        """Margin/window conclusions carry from the ones carrier to the
        seeded polynomial only when p divides neither seed endpoint."""
        return (self.seed.values[0] * self.seed.values[self.params.n]) % p != 0

    def flat(self, p: int) -> bool:
        """p divides neither the leading nor the constant coefficient
        (S_p[n] == 0 and seed_coprime(p), read in O(1)), so either carrier's
        polygon is one slope-0 edge: every degree admissible, no margin or
        window."""
        n = self.params.n
        return self.seed_coprime(p) and not self._table.valuation_sums(p, n)[n]

    def polygon(self, p: int, carrier: str) -> NewtonPolygon:
        key = (p, carrier)
        if key not in self._cache:
            seed = self.seed if carrier == "self" else self.ones
            self._cache[key] = polygon_from_params(p, self.params, seed)
        return self._cache[key]

    def carriers(self, p: int):
        """Yield (carrier, polygon) at p for the seeded polynomial and then
        the ones carrier, lazily: none at a flat prime, the ones carrier only
        when seed_coprime(p), and only polygons with leading ordinate 0,
        which every margin and window reading needs."""
        for carrier in () if self.flat(p) else ("self", "ones"):
            if carrier == "ones" and not self.seed_coprime(p):
                continue
            poly = self.polygon(p, carrier)
            if poly.ordinates[0] == 0:
                yield carrier, poly

    def admissible(self, p: int, carrier: str) -> int:
        """admissible_degrees of the carrier's polygon at p, a bitmask."""
        key = (p, carrier)
        if key not in self._admissible:
            self._admissible[key] = admissible_degrees(
                self.polygon(p, carrier))
        return self._admissible[key]


# Every stage below, and every special handler of the certify module, is
# stage(cache, ledger): it reads the instance, its primes and its polygons
# from the run's cache, claims degree bitmasks into the ledger, and returns
# None or a note.

def witness_stage(cache: PolygonCache, ledger: DegreeLedger) -> None:
    """Witness-prime exclusions for k = 1..n//2 as one claim, the bitmask
    of the windows [delta*k-delta+1, delta*k] of the k with a prime, with
    evidence {"delta": delta, "primes": primes}, where primes[k-1] is the
    prime of k from one pass of witness_primes (None at a gap).  The
    windows tile 1..delta*(n//2) in k order, so the mask is one
    int(bits, 2) of delta-wide blocks, k = 1 last, shifted past degree 0."""
    delta = cache.params.delta
    primes = [p for _, p in witness_primes(cache.params, cache.seed)]
    block = ("0" * delta, "1" * delta)
    windows = int("0" + "".join([block[p is not None]
                                 for p in reversed(primes)]), 2) << 1
    ledger.claim(Method.WITNESS_PRIME, windows, None,
                 {"delta": delta, "primes": primes})


def delta_stage(cache: PolygonCache, ledger: DegreeLedger) -> None:
    """Admissible-degree complements of the seeded polynomial's polygons.
    Sound for the instance itself at any prime: a factor degree must be a
    subset sum of lattice-segment widths, so a flat prime excludes nothing."""
    for p in cache.primes:
        if not ledger.remaining:
            return
        if cache.flat(p):
            continue
        excluded = ledger.remaining & ~cache.admissible(p, "self")
        if excluded:
            poly = cache.polygon(p, "self")
            ledger.claim(
                Method.DELTA_DIVISIBILITY, excluded, p,
                {"prime": p, "vertices": list(poly.vertex_xs()),
                 "segment_widths": sorted(
                     {e.segment_width for e in poly.edges})})


def window_stage(cache: PolygonCache, ledger: DegreeLedger) -> None:
    """Flat-tail slope windows: if p divides every coefficient below the
    top block and the rightmost slope is below 1/k, degrees [l+1, k] are
    impossible.  Covered by delta_stage, so the pipeline does not run it."""
    m = ledger.total
    for p in cache.primes:
        if not ledger.remaining:
            return
        for carrier, poly in cache.carriers(p):
            if poly.ordinates[m] == 0:
                continue  # p must divide the constant term
            l_min = max((x for x in range(1, m) if poly.ordinates[x] == 0),
                        default=0)
            k_max = widest_window(poly, l_min)
            if k_max is None or k_max <= l_min:
                continue
            ledger.claim(
                Method.SLOPE_WINDOW, (2 << k_max) - (2 << l_min), p,
                {"prime": p, "carrier": carrier, "l": l_min, "k": k_max,
                 "max_slope": str(poly.max_slope)})


def margin_stage(cache: PolygonCache, ledger: DegreeLedger) -> None:
    """Per-degree two-sided margins.  For each still-open degree K (taken
    on the small side of the mirror symmetry), search the prime list and
    both carriers for an integer r with g(K) > r and g(m) - g(m-K) < r+1.
    Covered by delta_stage, so the pipeline does not run it."""
    m = ledger.total
    for K in degrees_of(ledger.remaining):
        if not (ledger.remaining >> K) & 1:
            continue
        kk = min(K, m - K)
        for p, carrier, r in ((p, carrier, viable_margin(poly, kk))
                              for p in cache.primes
                              for carrier, poly in cache.carriers(p)):
            if r is not None:
                ledger.claim(Method.NEWTON_MARGIN, 1 << kk, p,
                             {"prime": p, "carrier": carrier, "r": r,
                              "degree": kk})
                break


def degree_set_stage(poly: IntegerPolynomial, ledger: DegreeLedger,
                     primes) -> None:
    """Musser's degree-set test.  At a prime p that does not divide the
    leading coefficient and with poly mod p squarefree, a factor of degree K
    over Z reduces to a product of distinct irreducible factors mod p, so K
    is a subset sum of the degrees in the distinct-degree factorisation of
    poly mod p.  Open degrees that are no such sum are excluded; the record
    keeps the number of factors of each degree at that prime."""
    from . import gfp  # numpy, loaded only when this opt-in stage runs
    for p in primes:
        if not ledger.remaining:
            return
        if poly.leading % p == 0:
            continue
        f = gfp.reduce_mod(poly.coeffs, p)
        if not gfp.is_squarefree(f, p):
            continue
        counts = gfp.factor_degree_counts(f, p)
        ledger.claim(
            Method.DEGREE_SET, ledger.remaining & ~subset_sums(counts.items()),
            p, {"prime": p, "factor_degrees": {
                str(i): c for i, c in sorted(counts.items())}})
