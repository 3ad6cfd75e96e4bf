import json
import math

import numpy as np
import pytest

from ghlcert import sieve
from ghlcert.sieve import (
    RangeFilter,
    SpfTable,
    ap_prime_gaps,
    exact_p5_pairs,
    factorize,
    gpf,
    gpf_ap_product,
    gpf_array,
    gpf_floor_check,
    growth_inequality,
    integer_root,
    prime_count,
    prime_factors,
    primes_up_to,
    progression_prime_set,
    progression_prime_set_mismatches,
    progression_prime_set_size_printed,
    residue_prime_count,
    smooth_pairs,
    smoothness_bound,
    smoothness_bound_exact,
    smoothness_bound_pow2,
    verify_gpf_bound,
)


def brute_factorize(m):
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_prime_basics():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_count(10 ** 6) == 78498
    assert prime_count(1) == 0


def test_spf_table(rng):
    table = SpfTable(10_000, segment=1024)
    for _ in range(200):
        m = rng.randint(2, 10_000)
        brute = brute_factorize(m)
        assert table.smallest_factor(m) == min(brute)
        assert table.factorize(m) == brute
    assert SpfTable(5000, segment=999, jobs=2).factorize(4998) == \
        table.factorize(4998)


def test_factorize_and_gpf(rng):
    for _ in range(200):
        m = rng.randint(2, 10 ** 9)
        brute = brute_factorize(m)
        assert factorize(m) == brute
        assert prime_factors(m) == sorted(brute)
        assert gpf(m) == max(brute)
    assert gpf(1) == 1
    assert factorize(1) == {}


def test_gpf_ap_product():
    # product starts at n itself: n (n+d) ... (n+d(k-1))
    assert gpf_ap_product(10, 4, 3) == gpf(10 * 14 * 18)
    assert gpf_ap_product(7, 3, 1) == 7
    assert gpf_ap_product(11, 4, 2) == gpf(11 * 15)


def test_gpf_array(rng):
    g = gpf_array(3000)
    for _ in range(150):
        m = rng.randint(1, 3000)
        assert g[m] == gpf(m)
    assert list(gpf_array(50, jobs=2)) == list(gpf_array(50))


def test_range_filter():
    flt = RangeFilter(min_exclusive=8, odd_only=True, not_divisible_by=3)
    vals = np.arange(20)
    kept = list(vals[flt.mask(vals)])
    assert kept == [11, 13, 17, 19]
    assert "odd" in flt.describe() and "n>8" in flt.describe()
    assert RangeFilter().describe() == "n>0"


def test_verify_gpf_bound_small_range():
    flt = RangeFilter(min_exclusive=8, odd_only=True)
    report = verify_gpf_bound(4, 2, 12, 200, flt)
    assert report.exceptions == [11, 21, 45, 77, 121]
    assert report.extremal == 121
    # brute-force the same range
    brute = [m for m in range(9, 201, 2)
             if gpf(m * (m + 4)) <= 12]
    assert report.exceptions == brute
    blob = report.to_json_dict()
    json.dumps(blob)
    assert blob["params"]["filter"] == "n>8, odd"
    assert "elapsed_ms" not in blob
    assert "elapsed_ms" in report.to_json_dict(include_elapsed=True)


def test_verify_gpf_bound_other_shapes():
    report = verify_gpf_bound(3, 2, 6, 300, RangeFilter(min_exclusive=6,
                                                        not_divisible_by=3))
    assert report.exceptions == [125]
    report = verify_gpf_bound(4, 3, 16, 200, RangeFilter(min_exclusive=12,
                                                         odd_only=True))
    assert report.exceptions == [117]


def test_smooth_pairs(rng):
    got = smooth_pairs(7, 6, 400)
    brute = [m for m in range(1, 401) if gpf(m * (m + 6)) <= 7]
    assert got == brute


def test_exact_p5_pairs():
    assert exact_p5_pairs(2000) == [(1, 125), (2, 250), (4, 500), (5, 625)]


def test_ap_prime_gaps_small():
    report = ap_prime_gaps(3, (1, 2), 1000, 40)
    assert report.exceptions == [] and report.extremal == 36
    # brute force both residue classes, successors allowed past the limit
    primes = [int(p) for p in primes_up_to(2000)]
    worst = 0
    for l in (1, 2):
        cls = [p for p in primes if p % 3 == l]
        for p, q in zip(cls, cls[1:]):
            if p <= 1000:
                worst = max(worst, q - p)
    assert worst == 36
    tight = ap_prime_gaps(3, (1, 2), 1000, 30)
    assert all(q - p > 30 and p <= 1000 for p, q in tight.exceptions)
    assert tight.exceptions == [(521, 557)]


def test_ap_prime_gaps_rejects_bad_residue():
    with pytest.raises(ValueError):
        ap_prime_gaps(4, (2,), 100, 10)


@pytest.mark.parametrize("modulus, residues", [
    (0, (1,)), (-3, (1,)),            # no residue classes at all
    (4, (5,)), (4, (1, 7)), (3, (-1,)),   # residue outside 0..modulus-1
])
def test_ap_prime_gaps_rejects_bad_classes(modulus, residues):
    # these inputs used to extend the sieve without bound
    with pytest.raises(ValueError, match="modulus"):
        ap_prime_gaps(modulus, residues, 100, 10)


def test_ap_prime_gaps_extension_is_capped(monkeypatch):
    # no prime is 1 mod 10007 below 4010, so the extension hits the cap
    monkeypatch.setattr(sieve, "MAX_GAP_SLACK", 4000)
    with pytest.raises(ValueError, match="no two primes"):
        ap_prime_gaps(10007, (1,), 10, 0)


def test_residue_prime_count():
    primes = [int(p) for p in primes_up_to(500)]
    for modulus, l in ((3, 1), (3, 2), (4, 1), (4, 3)):
        expect = sum(1 for p in primes if p % modulus == l)
        assert residue_prime_count(500, modulus, l) == expect
    assert residue_prime_count(1.5, 3, 1) == 0


def test_progression_prime_set():
    assert progression_prime_set(2) == {2, 7}           # (1+3)(1+6)
    assert progression_prime_set(3) == {2, 5, 11}       # (2+3)(2+6)(2+9)
    with pytest.raises(ValueError):
        progression_prime_set(1)


def test_progression_prime_set_printed_count_disagrees():
    # the closed-form count does not match the direct set size everywhere;
    # pin a couple of witnesses so the discrepancy stays visible
    assert progression_prime_set_size_printed(2) == 0
    mm = progression_prime_set_mismatches(2, 12)
    assert (2, 2, 0) in mm
    assert (3, 3, 4) in mm
    assert 5 not in [k for k, _, _ in mm]


def test_integer_root(rng):
    for _ in range(200):
        e = rng.randint(1, 6)
        r = rng.randint(0, 10 ** 8)
        n = r ** e + rng.randint(0, max(r, 1))
        got = integer_root(n, e)
        assert got ** e <= n < (got + 1) ** e
    assert integer_root(10 ** 60, 2) == 10 ** 30
    with pytest.raises(ValueError):
        integer_root(-1, 2)


def test_smoothness_bound_values():
    n_exact, t = smoothness_bound_exact(401, 3)
    assert t == 149
    assert len(str(n_exact)) == 750
    assert round(smoothness_bound(401, 3), 2) == 106866.68
    assert round(smoothness_bound(100, 3)) == 355699
    with pytest.raises(ValueError):
        smoothness_bound_exact(1, 1)


def test_smoothness_bound_pow2_matches_first_prime():
    for k in (67, 100, 401):
        assert smoothness_bound_pow2(k) == smoothness_bound(k, 1)


def test_smoothness_bound_printed_variant():
    # 269 is prime, so pi(4k) and pi(4k+3) differ at k = 67 and the inner
    # exponent changes the corrected factorial
    default_n = smoothness_bound_exact(67, 3)[0]
    printed_n = smoothness_bound_exact(67, 3, printed_inner_pi=True)[0]
    assert default_n != printed_n
    assert smoothness_bound_exact(67, 3)[1] == smoothness_bound_exact(
        67, 3, printed_inner_pi=True)[1]


def test_growth_inequality():
    assert growth_inequality(1, 138)
    assert not growth_inequality(401, 138)
    with pytest.raises(ValueError):
        growth_inequality(0, 138)


def test_gpf_floor_check():
    assert gpf_floor_check(7000, 3, 300)
    assert gpf_floor_check(1_000_101, 4, 2000)
    with pytest.raises(ValueError):
        gpf_floor_check(100, 3, 300)        # below the quotable range
    with pytest.raises(ValueError):
        gpf_floor_check(7000, 5, 300)
