import itertools
import math
from fractions import Fraction

import pytest

from ghlcert.newton import (
    PreconditionError,
    admissible_degrees,
    build_polygon,
    degrees_of,
    newton_function,
    polygon_from_ordinates,
    polygon_from_params,
    polygon_svg,
    polygon_tsv,
    subset_sums,
    viable_margin,
    widest_window,
    window_holds,
)
from ghlcert.polynomials import (
    GhlParams,
    IntegerPolynomial,
    SeedCoefficients,
    build_substituted,
)
from ghlcert.valuation import INFINITY, nu

from oracles import mask_of, poly_mul, subset_sums_per_copy


def carrier_polygon(p, d, u, alpha, n, delta):
    params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
    return polygon_from_params(p, params, SeedCoefficients.ones(n))


def test_hull_of_perfect_square():
    # (x+2)^2 = x^2 + 4x + 4 at p=2: a single edge of slope 1 whose
    # lattice points give unit segments, so degree 1 stays admissible.
    poly = IntegerPolynomial(tuple(reversed((1, 4, 4))))
    polygon = build_polygon(poly, 2)
    assert polygon.vertices == ((0, 0), (2, 2))
    edge = polygon.edges[0]
    assert (edge.width, edge.height, edge.lattice_length, edge.segment_width) == (2, 2, 2, 1)
    assert degrees_of(admissible_degrees(polygon)) == (0, 1, 2)


def test_collinear_points_are_merged():
    polygon = polygon_from_ordinates(2, [0, 1, 2])
    assert polygon.vertices == ((0, 0), (2, 2))
    assert polygon.edges[0].slope == 1


def test_infinite_ordinates_skipped():
    g = IntegerPolynomial((4, 0, 0, -8, 0, 0, 1))   # x^6 - 8x^3 + 4
    polygon = build_polygon(g, 2)
    assert polygon.vertices == ((0, 0), (6, 2))
    assert polygon.min_slope == polygon.max_slope == Fraction(1, 3)
    assert polygon.ordinates[3] == 3
    assert polygon.ordinates[1] == INFINITY


def test_endpoint_preconditions():
    with pytest.raises(PreconditionError):
        polygon_from_ordinates(2, [INFINITY, 0, 1])
    with pytest.raises(PreconditionError):
        polygon_from_ordinates(2, [0, 1, INFINITY])
    with pytest.raises(PreconditionError):
        polygon_from_ordinates(2, [0])


def test_known_carrier_polygon():
    polygon = carrier_polygon(2, 3, -1, 2, 43, 3)
    assert polygon.vertices == ((0, 0), (96, 33), (120, 42), (129, 46))
    assert polygon.min_slope == Fraction(11, 32)
    assert polygon.max_slope == Fraction(4, 9)
    assert polygon.vertex_xs() == (0, 96, 120, 129)
    flat = carrier_polygon(2, 3, -1, 2, 43, 1)
    assert flat.vertices == ((0, 0), (32, 33), (40, 42), (43, 46))


def test_newton_function_values():
    polygon = carrier_polygon(2, 3, -1, 2, 43, 3)
    assert newton_function(polygon, 0) == 0
    assert newton_function(polygon, 6) == Fraction(33, 16)
    assert newton_function(polygon, 64) == 22
    assert newton_function(polygon, 96) == 33
    assert newton_function(polygon, 129) == 46
    with pytest.raises(ValueError):
        newton_function(polygon, 130)


def test_admissible_degrees_multi_edge():
    polygon = carrier_polygon(2, 3, -1, 2, 43, 3)
    widths = [(e.lattice_length, e.segment_width) for e in polygon.edges]
    assert widths == [(3, 32), (3, 8), (1, 9)]
    adm = set(degrees_of(admissible_degrees(polygon)))
    assert len(adm) == 32
    assert 0 in adm and 129 in adm
    assert 8 in adm and 9 in adm and 17 in adm
    assert 1 not in adm and 3 not in adm


def test_degrees_of_lists_the_set_bits(rng):
    # runs of set bits at either end, single bits, and the empty mask
    masks = [0, 1, 2, 3, (1 << 70) - 2, 1 << 200, (1 << 9) | (1 << 300)]
    masks += [rng.getrandbits(rng.randint(1, 400)) for _ in range(200)]
    for mask in masks:
        assert degrees_of(mask) == tuple(
            k for k in range(mask.bit_length()) if mask >> k & 1), mask


def _all_subset_sums(sizes):
    return {sum(chosen) for r in range(len(sizes) + 1)
            for chosen in itertools.combinations(sizes, r)}


def test_subset_sums_match_sub_multiset_enumeration(rng):
    # (size, count) pairs, a size may repeat across pairs and a count may
    # be 0; the brute force lists the multiset and sums every sub-multiset
    for _ in range(300):
        parts = [(rng.randint(1, 12), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 5))]
        sizes = [size for size, count in parts for _ in range(count)]
        assert subset_sums(iter(parts)) == mask_of(_all_subset_sums(sizes)), \
            parts


def test_subset_sums_large_counts_match_per_copy_loop(rng):
    # counts on both sides of powers of two, where the chunks of 1, 2, 4,
    # ... copies end in a remainder, and mixed multisets up to 400 copies
    for count in (0, 1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 255, 256, 400):
        for size in (1, 3):
            assert subset_sums([(size, count)]) == mask_of(
                subset_sums_per_copy([(size, count)])), (size, count)
    for _ in range(40):
        parts = [(rng.randint(1, 6), rng.choice([rng.randint(0, 400),
                                                  rng.randint(0, 9)]))
                 for _ in range(rng.randint(1, 3))]
        assert subset_sums(iter(parts)) == mask_of(
            subset_sums_per_copy(parts)), parts


def _lattice_segment_widths(polygon):
    """Gaps between consecutive lattice points on each hull edge, found by
    testing every abscissa of the edge for an integer height."""
    widths = []
    for (x0, y0), (x1, y1) in zip(polygon.vertices, polygon.vertices[1:]):
        xs = [x for x in range(x0, x1 + 1)
              if (x - x0) * (y1 - y0) % (x1 - x0) == 0]
        widths += [b - a for a, b in zip(xs, xs[1:])]
    return widths


def test_admissible_degrees_match_brute_force_subset_sums(rng):
    for _ in range(300):
        m = rng.randint(1, 12)
        ordinates = [rng.choice([0, 0, 1, 2, 3, 5, 8, 13])
                     for _ in range(m + 1)]
        for x in range(1, m):
            if rng.random() < 0.2:
                ordinates[x] = INFINITY
        polygon = polygon_from_ordinates(2, ordinates)
        widths = _lattice_segment_widths(polygon)
        assert sum(widths) == m
        assert admissible_degrees(polygon) == mask_of(
            _all_subset_sums(widths)), ordinates


def test_margins_on_carrier():
    polygon = carrier_polygon(2, 3, -1, 2, 43, 3)
    assert viable_margin(polygon, 6) == 2
    assert viable_margin(polygon, 64) is None   # margin gap closes
    assert viable_margin(polygon, 65) is None   # m < 2k


def test_margin_exclusion_preconditions():
    # the margin read off the assembled polynomial is the one the carrier
    # polygon from parameters gives; there is no margin for k = 0 or for
    # m < 2k, and doubling the polynomial puts p in the leading
    # coefficient, which every margin stage skips
    g = build_substituted(GhlParams(d=3, u=-1, alpha=2, n=43, delta=3),
                          SeedCoefficients.ones(43))
    polygon = build_polygon(g, 2)
    assert polygon == carrier_polygon(2, 3, -1, 2, 43, 3)
    assert viable_margin(polygon, 6) == 2
    assert viable_margin(polygon, 0) is None
    assert viable_margin(polygon, 70) is None
    doubled = IntegerPolynomial(tuple(2 * c for c in g.coeffs))
    assert build_polygon(doubled, 2).ordinates[0] != 0


def test_slope_window():
    params = GhlParams(d=4, u=-1, alpha=1, n=3, delta=4)
    poly = build_substituted(params, SeedCoefficients.ones(3))
    polygon = build_polygon(poly, 3)
    assert polygon.vertices == ((0, 0), (12, 2))
    assert window_holds(polygon, 0, 4)
    assert not window_holds(polygon, 0, 6)      # slope 1/6 is not < 1/6
    assert widest_window(polygon, 0) == 5
    assert widest_window(polygon, 5) is None    # needs k > l


def test_widest_window_small_example():
    g = IntegerPolynomial((4, 0, 0, -8, 0, 0, 1))
    polygon = build_polygon(g, 2)
    assert widest_window(polygon, 0) == 2
    assert widest_window(polygon, 2) is None


def test_admissible_contains_true_factor_degrees(rng):
    # every genuine factorization must appear among the admissible degrees
    for _ in range(50):
        da = rng.randint(1, 3)
        db = rng.randint(1, 3)
        a = [rng.randint(-20, 20) for _ in range(da)] + [rng.randint(1, 20)]
        b = [rng.randint(-20, 20) for _ in range(db)] + [rng.randint(1, 20)]
        prod = poly_mul(a, b)
        p = rng.choice([2, 3, 5, 7])
        if prod[0] == 0 or prod[0] % p == 0 or prod[-1] % p == 0:
            continue
        polygon = build_polygon(IntegerPolynomial(tuple(prod)), p)
        adm = degrees_of(admissible_degrees(polygon))
        assert da in adm and db in adm


def test_zero_seed_entries_give_the_assembled_polygon():
    # a zero seed entry's ordinate is INFINITY plus a finite tail valuation,
    # which the hull filter must drop like the gaps of the substitution
    seed = SeedCoefficients((6, 0, 5, 0, 0, 12, 0, -9))
    for delta in (1, 3):
        params = GhlParams(d=3, u=-1, alpha=2, n=7, delta=delta)
        poly = build_substituted(params, seed)
        for p in (2, 3, 5, 7):
            from_params = polygon_from_params(p, params, seed)
            assembled = build_polygon(poly, p)
            assert from_params.ordinates[delta * 6] == INFINITY
            assert from_params.ordinates == assembled.ordinates, (delta, p)
            assert from_params.vertices == assembled.vertices, (delta, p)
            # and it is the lower hull of the finite points alone
            assert all(y < INFINITY for _, y in from_params.vertices)
            assert all(newton_function(from_params, x) <= y
                       for x, y in enumerate(from_params.ordinates))


def test_polygon_from_params_puts_every_vertex_at_a_multiple_of_delta(rng):
    # the own-prime handler reads the vertices x // d at delta == d unchecked:
    # the hull is taken over the points at multiples of delta alone, even
    # with zero entries in a custom seed
    for _ in range(300):
        d = rng.randint(2, 7)
        alpha = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        n = rng.randint(1, 40)
        params = GhlParams(d=d, u=rng.choice([-1, 0]), alpha=alpha, n=n,
                           delta=d)
        seed = rng.choice([
            SeedCoefficients.ones(n), SeedCoefficients.laguerre(n),
            SeedCoefficients((rng.choice([-1, 1]) * rng.randint(1, 12),
                              *(rng.randint(-12, 12) for _ in range(n - 1)),
                              rng.randint(1, 12)))])
        for p in (2, 3, 5, 7, 11, 13):
            xs = polygon_from_params(p, params, seed).vertex_xs()
            assert all(x % d == 0 for x in xs), (params, seed, p, xs)


def test_renderings():
    polygon = carrier_polygon(2, 3, -1, 2, 43, 3)
    tsv = polygon_tsv(polygon)
    lines = tsv.strip().splitlines()
    assert lines[0] == "x\ty\tis_vertex"
    assert len(lines) == 131
    assert any("\tinf\t" in line for line in lines)
    svg = polygon_svg(polygon)
    assert "<svg" in svg
    assert svg.count('fill="crimson"') == 4     # one marker per vertex
