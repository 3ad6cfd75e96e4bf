import pytest

from ghlcert.gfp import (degree, distinct_degree_factors, factor_degree_counts,
                         gcd, is_squarefree, monic, poly_divmod, reduce_mod)
from ghlcert.newton import degrees_of, subset_sums

from oracles import poly_mul


def _random_poly(rng, deg, p):
    coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return reduce_mod(coeffs, p)


def test_reduce_mod_trims_and_guards():
    assert reduce_mod([7, -1, 10, 5], 5).tolist() == [2, 4]
    assert reduce_mod([5, 10], 5).tolist() == []
    with pytest.raises(ValueError):
        reduce_mod([1, 1], 1)
    with pytest.raises(ValueError):
        reduce_mod([1] * 10, 2 ** 31 - 1)


def _add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += int(c)
    for i, c in enumerate(b):
        out[i] += int(c)
    return reduce_mod(out, p)


def test_divmod_and_gcd_against_products(rng):
    for p in (2, 3, 7, 31):
        for _ in range(20):
            a = _random_poly(rng, rng.randint(1, 8), p)
            b = _random_poly(rng, rng.randint(1, 8), p)
            c = _random_poly(rng, rng.randint(0, 4), p)
            quo, rem = poly_divmod(a, b, p)
            assert degree(rem) < degree(b)
            back = _add(poly_mul(quo.tolist() or [0], b.tolist()), rem, p)
            assert back.tolist() == a.tolist()
            ac = reduce_mod(poly_mul(a.tolist(), c.tolist()), p)
            bc = reduce_mod(poly_mul(b.tolist(), c.tolist()), p)
            g = gcd(ac, bc, p)
            assert g[-1] == 1
            assert poly_divmod(g, c, p)[1].tolist() == []
            assert poly_divmod(ac, g, p)[1].tolist() == []
            assert poly_divmod(bc, g, p)[1].tolist() == []


def test_squarefree_detection():
    p = 5
    assert is_squarefree(reduce_mod([4, 0, 0, -8, 0, 0, 1], p), p)
    square = reduce_mod(poly_mul([1, 1, 1], [1, 1, 1]), p)     # (x^2+x+1)^2
    assert not is_squarefree(square, p)
    assert not is_squarefree(reduce_mod([1, 0, 0, 0, 0, 1], p), p)  # (x+1)^5


def test_distinct_degree_factors_known_values():
    # x^6 - 8x^3 + 4 is irreducible mod 5; x^4 - 1 = (x-1)(x+1)(x^2+1)
    # mod 3, with x^2 + 1 irreducible there
    assert factor_degree_counts(reduce_mod([4, 0, 0, -8, 0, 0, 1], 5), 5) \
        == {6: 1}
    ddf = distinct_degree_factors(reduce_mod([-1, 0, 0, 0, 1], 3), 3)
    assert [(i, g.tolist()) for i, g in ddf] == [(1, [2, 0, 1]),
                                                 (2, [1, 0, 1])]
    assert factor_degree_counts(reduce_mod([3, 2], 7), 7) == {1: 1}


def test_distinct_degree_factors_agree_with_sympy(rng):
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    checked = 0
    while checked < 150:
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 47])
        f = monic(_random_poly(rng, rng.randint(1, 14), p), p)
        if not is_squarefree(f, p):
            continue
        ours = [(g[::-1].tolist(), i)
                for i, g in distinct_degree_factors(f, p)]
        theirs = galois.gf_ddf_zassenhaus(f[::-1].tolist(), p, ZZ)
        assert ours == [([int(c) for c in g], i) for g, i in theirs], (
            p, f.tolist())
        checked += 1


def test_subset_sums():
    assert degrees_of(subset_sums([])) == (0,)
    assert degrees_of(subset_sums([(6, 1)])) == (0, 6)
    assert degrees_of(subset_sums([(15, 1), (33, 1)])) == (0, 15, 33, 48)
    assert degrees_of(subset_sums([(1, 2), (2, 1)])) == (0, 1, 2, 3, 4)
    counts = {1: 1, 3: 2}
    sums = set(degrees_of(subset_sums(counts.items())))
    total = sum(i * c for i, c in counts.items())
    assert sums == {total - k for k in sums}
