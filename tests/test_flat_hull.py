"""PolygonCache.flat is an O(1) stand-in for building a polygon that cannot
exclude anything: where it holds, the built polygon of either carrier is one
slope-0 edge, every degree is admissible, no margin is viable and no window
opens, and certificates read the same with the test switched off."""

import math

from ghlcert.certify import full_certify
from ghlcert.criteria import PolygonCache
from ghlcert.newton import (admissible_degrees, degrees_of,
                            polygon_from_params, viable_margin,
                            widest_window)
from ghlcert.polynomials import GhlParams, SeedCoefficients

W1_FAMILIES = [(3, -1, 1), (3, -1, 2), (3, 0, 1), (3, 0, 2),
               (4, -1, 1), (4, -1, 3), (4, 0, 1), (4, 0, 3)]


def _custom_seed(rng, n, endpoints):
    """A seed whose interior has zeros (about one entry in three)."""
    inner = [rng.choice([0, 0, 1, -1, 2, 3, -4, 5, 6, 7, 9])
             for _ in range(n - 1)]
    return SeedCoefficients((rng.choice(endpoints), *inner,
                             rng.choice(endpoints)))


def _cases(rng):
    """(params, seed) over the W1 families for n <= 60 with the binomial
    seed, d = 5..8 with random shifts, and seeds with zero interior entries;
    delta both 1 and d throughout."""
    for d, u, alpha in W1_FAMILIES:
        for n in range(2, 61):
            for delta in (1, d):
                yield (GhlParams(d, u, alpha, n, delta),
                       SeedCoefficients.laguerre(n))
    for d in range(5, 9):
        for _ in range(12):
            alpha = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
            n = rng.randint(2, 40)
            params = GhlParams(d, rng.choice([-1, 0]), alpha, n,
                               rng.choice([1, d]))
            yield params, rng.choice([SeedCoefficients.laguerre(n),
                                      SeedCoefficients.ones(n)])
            yield params, _custom_seed(rng, n, [1, -1, 7, 10, 11, -15])
    for d, u, alpha in W1_FAMILIES:
        for _ in range(8):
            n = rng.randint(2, 40)
            yield (GhlParams(d, u, alpha, n, rng.choice([1, d])),
                   _custom_seed(rng, n, [1, -1, 3, -3, 9]))


def test_flat_primes_build_flat_polygons(rng):
    # memo: viable_margin and admissible_degrees read only the hull, which
    # is asserted to be (0, 0)-(m, 0) before either is consulted
    checked_m = set()
    flat_seen = 0
    for params, seed in _cases(rng):
        cache = PolygonCache(params, seed)
        m = params.delta * params.n
        for p in cache.primes:
            if not cache.flat(p):
                continue
            for carrier_seed in (seed, cache.ones):
                poly = polygon_from_params(p, params, carrier_seed)
                flat_seen += 1
                assert poly.vertices == ((0, 0), (m, 0)), (params, seed, p)
                assert len(poly.edges) == 1 and poly.min_slope == 0
                l_min = max((x for x in range(1, m) if poly.ordinates[x] == 0),
                            default=0)
                assert widest_window(poly, 0) is None
                assert widest_window(poly, l_min) is None
                if m in checked_m:
                    continue
                checked_m.add(m)
                assert degrees_of(admissible_degrees(poly)) == tuple(
                    range(m + 1))
                assert all(viable_margin(poly, k) is None
                           for k in range(1, m + 1))
    assert flat_seen > 1000


def test_certificates_match_with_flat_skip_off(rng, monkeypatch):
    cases = list(_cases(rng))

    def texts():
        return ["".join(full_certify(params, seed).json_pieces())
                for params, seed in cases]
    with_skip = texts()
    monkeypatch.setattr(PolygonCache, "flat", lambda self, p: False)
    for (params, seed), a, b in zip(cases, with_skip, texts()):
        assert a == b, (params, seed)


def test_flat_matches_coefficient_divisibility(rng):
    # the O(1) reading agrees with p dividing neither the leading nor the
    # constant coefficient of the seeded polynomial, read off its ordinates
    for params, seed in _cases(rng):
        cache = PolygonCache(params, seed)
        for p in cache.primes:
            ordinates = polygon_from_params(p, params, seed).ordinates
            assert cache.flat(p) == (ordinates[0] == ordinates[-1] == 0), \
                (params, seed, p)
