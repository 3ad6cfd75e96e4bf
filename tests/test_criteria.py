import itertools
import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ghlcert.criteria import (
    DegreeLedger,
    Method,
    PolygonCache,
    candidate_primes,
    degree_set_stage,
    delta_stage,
    find_exclusion_prime,
    margin_stage,
    window_stage,
    witness_primes,
)
from ghlcert.newton import degrees_of
from ghlcert.polynomials import (GhlParams, IntegerPolynomial,
                                 SeedCoefficients)

from oracles import SetLedger, mask_of, poly_mul, witness_primes_per_k


def test_find_exclusion_prime_known_values():
    params = GhlParams(d=4, u=0, alpha=3, n=10)
    assert find_exclusion_prime(params, 2, SeedCoefficients.laguerre(10)) == 43
    params = GhlParams(d=3, u=-1, alpha=2, n=43)
    assert find_exclusion_prime(params, 2, SeedCoefficients.laguerre(43)) is None
    assert find_exclusion_prime(params, 3, SeedCoefficients.laguerre(43)) == 61


def test_find_exclusion_prime_largest_qualifying():
    # top-2 product 39 * 43 = 3 * 13 * 43; both 13 and 43 qualify, the
    # largest one wins
    params = GhlParams(d=4, u=0, alpha=3, n=10)
    assert find_exclusion_prime(params, 2, SeedCoefficients.ones(10)) == 43


def test_find_exclusion_prime_respects_seed_endpoints():
    # a seed whose constant kills 43 drops the search to the next candidate
    params = GhlParams(d=4, u=0, alpha=3, n=10)
    seed = SeedCoefficients((43,) + (1,) * 10)
    assert find_exclusion_prime(params, 2, seed) == 13


def test_find_exclusion_prime_rejects_bad_inputs():
    params = GhlParams(d=4, u=0, alpha=3, n=10)
    with pytest.raises(ValueError):
        find_exclusion_prime(GhlParams(d=4, u=1, alpha=3, n=10), 2,
                             SeedCoefficients.laguerre(10))
    with pytest.raises(ValueError):
        find_exclusion_prime(params, 0, SeedCoefficients.laguerre(10))
    with pytest.raises(ValueError):
        find_exclusion_prime(params, 6, SeedCoefficients.laguerre(10))   # k > n/2


def _scan_cases():
    """Fixed-seed grid for the scan/oracle comparison: every (d, alpha)
    with d = 2..7, both u, n = 1..60 plus two random n up to 400, delta 1
    or d at random, and ones, binomial and random seeds whose endpoints
    carry 2, 3, 5 or 7."""
    rng = random.Random(0x3C4A)
    for d in range(2, 8):
        for alpha in (a for a in range(1, d) if math.gcd(a, d) == 1):
            for u in (-1, 0):
                ns = list(range(1, 61)) + rng.sample(range(61, 401), 2)
                for n in ns:
                    delta = rng.choice((1, d))
                    params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
                    ends = [rng.choice((1, -1)) * rng.choice((2, 3, 5, 7, 6, 35))
                            for _ in range(2)]
                    middle = tuple(rng.randint(-9, 9) for _ in range(n - 1))
                    yield params, SeedCoefficients.ones(n)
                    yield params, SeedCoefficients.laguerre(n)
                    yield params, SeedCoefficients((ends[0],) + middle
                                                   + (ends[1],))


def test_witness_scan_matches_per_k_oracle():
    count = 0
    for params, seed in _scan_cases():
        scan = list(witness_primes(params, seed))
        assert [k for k, _ in scan] == list(range(1, params.n // 2 + 1))
        assert [p for _, p in scan] == witness_primes_per_k(params, seed), \
            (params, seed.values)
        count += 1
    assert count > 6000


def test_find_exclusion_prime_reads_the_scan():
    params = GhlParams(d=3, u=-1, alpha=2, n=43)
    seed = SeedCoefficients.laguerre(43)
    assert [find_exclusion_prime(params, k, seed) for k in range(1, 22)] == \
        [p for _, p in witness_primes(params, seed)]


def _lemma_cases():
    """Fixed-seed sample for the lattice lemma: 60 random (d, u, alpha, n,
    delta) with d = 2..7 and n <= 12, each with the ones, binomial and a
    custom seed whose interior has zeros and whose endpoints carry 2, 3,
    5 or 7."""
    rng = random.Random(0x1E44A)
    for _ in range(60):
        d = rng.randint(2, 7)
        alpha = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        n = rng.randint(1, 12)
        params = GhlParams(d=d, u=rng.choice((-1, 0)), alpha=alpha, n=n,
                           delta=rng.choice((1, d)))
        ends = [rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 9, 12, 35))
                for _ in range(2)]
        middle = tuple(rng.choice((0, 0, 1, -1, rng.randint(-30, 30)))
                       for _ in range(n - 1))
        yield params, SeedCoefficients.ones(n)
        yield params, SeedCoefficients.laguerre(n)
        yield params, SeedCoefficients((ends[0],) + middle + (ends[1],))


def test_window_and_margin_readings_are_lattice_inadmissible():
    # a factor degree is a subset sum of the lattice-segment widths of the
    # seeded polygon (Dumas), and every window or margin the two stages
    # read at p, on either carrier, excludes only degrees that are no such
    # sum; so after delta_stage, which excludes all of those, neither
    # stage claims anything, and the pipeline does not run them
    claimed = 0
    for params, seed in _lemma_cases():
        cache = PolygonCache(params, seed)
        primes = cache.primes
        for p in (p for p in primes if not cache.flat(p)):
            admissible = cache.admissible(p, "self")
            cache.primes = [p]          # one prime per fresh ledger
            for stage in (window_stage, margin_stage):
                ledger = DegreeLedger(params.delta * params.n)
                stage(cache, ledger)
                for rec in ledger.records:
                    assert rec.prime == p
                    assert not admissible & mask_of(rec.degrees), \
                        (params, seed.values, rec)
                    claimed += len(rec.degrees)
        cache.primes = primes
        ledger = DegreeLedger(params.delta * params.n)
        delta_stage(cache, ledger)
        left = ledger.remaining
        window_stage(cache, ledger)
        margin_stage(cache, ledger)
        assert ledger.remaining == left, (params, seed.values)
    assert claimed > 10000              # the stages are not vacuous here


def test_lift_to_delta_d_keeps_every_admissible_degree():
    # an edge (w, h) of G's polygon at p is the edge (d*w, h) of
    # G(x^d)'s, and gcd(w, h) divides gcd(d*w, h), so d times a degree
    # admissible for G is admissible for G(x^d): a degree d*k the lift
    # excludes, k is excluded at delta = 1 already, at the same prime
    polygons = 0
    for d in (3, 4):
        for alpha in (a for a in range(1, d) if math.gcd(a, d) == 1):
            for u, n in itertools.product((-1, 0), range(1, 61)):
                for seed in (SeedCoefficients.ones(n),
                             SeedCoefficients.laguerre(n)):
                    base = PolygonCache(
                        GhlParams(d=d, u=u, alpha=alpha, n=n), seed)
                    lift = PolygonCache(
                        GhlParams(d=d, u=u, alpha=alpha, n=n, delta=d), seed)
                    for p in (p for p in base.primes if not base.flat(p)):
                        admissible = lift.admissible(p, "self")
                        for k in degrees_of(base.admissible(p, "self")):
                            assert (admissible >> d * k) & 1, (
                                d, u, alpha, n, seed.kind, p, k)
                        polygons += 1
    assert polygons == 11402


def test_candidate_primes():
    params = GhlParams(d=3, u=-1, alpha=2, n=43)
    cands = set(candidate_primes(params))
    assert {2, 3, 5, 47} <= cands                 # everything up to 50
    assert 43 in cands                             # divides n
    big = GhlParams(d=4, u=0, alpha=3, n=10)      # top term 43 > 50
    assert 43 in candidate_primes(big)


def test_degree_ledger_claims_and_mirrors():
    ledger = DegreeLedger(10)
    assert degrees_of(ledger.remaining) == tuple(range(1, 10))
    rec = ledger.claim(Method.NEWTON_MARGIN, mask_of([2]), 3, {"degree": 2})
    assert rec is not None and set(rec.degrees) == {2, 8}
    left = degrees_of(ledger.remaining)
    assert 2 not in left and 8 not in left
    # a second claim on the same degrees is a no-op
    assert ledger.claim(Method.NEWTON_MARGIN, mask_of([2]), 3,
                        {"degree": 2}) is None


def _ledger_cases():
    """A total in 1..400 and a claim sequence for it: lists that may be
    empty, repeat a degree, or hold 0 or degrees at and above total, and
    whole runs lo..hi-1 like the windows the stages claim."""
    def claims(total):
        degree = st.integers(0, 2 * total + 1)
        return st.lists(st.one_of(
            st.lists(degree, max_size=12),
            st.builds(lambda a, b: list(range(min(a, b), max(a, b))),
                      degree, degree)), max_size=10)
    return st.integers(1, 400).flatmap(
        lambda total: st.tuples(st.just(total), claims(total)))


@seed(29)
@settings(max_examples=300, deadline=None, database=None)
@given(_ledger_cases())
def test_degree_ledger_matches_the_set_oracle(case):
    # the bitmask ledger against the set-based SetLedger, claim by claim:
    # a wrong mirror (bit K to total - K) or range mask shows here
    total, claims = case
    ledger, oracle = DegreeLedger(total), SetLedger(total)
    for i, degrees in enumerate(claims):
        rec = ledger.claim(Method.DEGREE_SET, mask_of(degrees), i, {"i": i})
        want = oracle.claim(Method.DEGREE_SET, degrees, i, {"i": i})
        assert (rec is None) == (want is None), (total, degrees)
        assert rec is None or tuple(rec) == want, (total, degrees)
        assert degrees_of(ledger.remaining) == tuple(sorted(oracle.remaining))
    assert [tuple(rec) for rec in ledger.records] == oracle.records


def test_degree_ledger_records_partition():
    ledger = DegreeLedger(12)
    ledger.claim(Method.NEWTON_MARGIN, mask_of([1, 2, 3]), 3, {"degree": 1})
    ledger.claim(Method.SLOPE_WINDOW, mask_of(range(1, 6)), 5, {"k": 5})
    seen = []
    for rec in ledger.records:
        seen.extend(rec.degrees)
    assert len(seen) == len(set(seen))   # pairwise disjoint by construction


def test_polygon_cache_consistency():
    params = GhlParams(d=3, u=-1, alpha=2, n=43, delta=3)
    cache = PolygonCache(params, SeedCoefficients.laguerre(43))
    assert cache.polygon(2, "ones") is cache.polygon(2, "ones")
    assert cache.polygon(2, "ones").vertex_xs() == (0, 96, 120, 129)
    assert cache.seed_coprime(2) and cache.seed_coprime(43)
    blocked = PolygonCache(GhlParams(d=3, u=-1, alpha=2, n=4),
                           SeedCoefficients((43, 1, 1, 1, 1)))
    assert not blocked.seed_coprime(43)
    adm = cache.admissible(2, "self")
    assert isinstance(adm, int) and 0 in degrees_of(adm)


def test_degree_set_stage_never_excludes_a_real_factor_degree():
    # random products A*B, as in AC-10: whatever the stage claims, deg A
    # and deg B (and so their mirrors) must stay open
    rng = random.Random(20250816)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    excluded = 0
    for _ in range(200):
        da, db = rng.randint(1, 7), rng.randint(1, 7)
        a = [rng.randint(-30, 30) for _ in range(da)] + [
            rng.choice([-1, 1]) * rng.randint(1, 30)]
        b = [rng.randint(-30, 30) for _ in range(db)] + [
            rng.choice([-1, 1]) * rng.randint(1, 30)]
        prod = IntegerPolynomial(tuple(poly_mul(a, b)))
        ledger = DegreeLedger(prod.degree)
        degree_set_stage(prod, ledger, primes)
        assert {da, db} <= set(degrees_of(ledger.remaining)), \
            (a, b, ledger.records)
        for rec in ledger.records:
            assert rec.method == Method.DEGREE_SET
            assert prod.leading % rec.evidence["prime"] != 0
            excluded += len(rec.degrees)
    assert excluded > 0          # the stage is not vacuous on this sample


def test_degree_set_stage_closes_an_irreducible_sextic():
    # x^6 - 8x^3 + 4 (q = -2/3, n = 2) is irreducible mod 5
    ledger = DegreeLedger(6)
    degree_set_stage(IntegerPolynomial((4, 0, 0, -8, 0, 0, 1)), ledger,
                     [2, 3, 5, 7])
    assert degrees_of(ledger.remaining) == ()
    [rec] = ledger.records
    assert rec.evidence == {"prime": 5, "factor_degrees": {"6": 1}}
    assert rec.degrees == (1, 2, 3, 4, 5)
