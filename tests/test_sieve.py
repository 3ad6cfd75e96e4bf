import json
import math
import tracemalloc

import numpy as np
import pytest

from ghlcert import sieve
from ghlcert.sieve import (
    RangeFilter,
    SpfTable,
    ap_prime_gaps,
    exact_p5_pairs,
    gpf_array,
    prime_flags,
    primes_up_to,
    progression_prime_set_mismatches,
    smoothness_bound,
    smoothness_bound_exact,
    verify_gpf_bound,
)
from ghlcert.valuation import factorize, gpf, prime_factors
from oracles import (ap_prime_gap_pairs, distinct_prime_factors,
                     progression_prime_set, progression_prime_set_sizes)


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
    assert np.count_nonzero(prime_flags(10 ** 6)) == 78498
    assert not prime_flags(1).any()


def test_spf_table(rng):
    table = SpfTable(10_000)
    for _ in range(200):
        m = rng.randint(2, 10_000)
        brute = brute_factorize(m)
        assert table.spf[m] == min(brute)


def test_factorize_and_gpf(rng):
    for _ in range(200):
        m = rng.randint(2, 10 ** 9)
        brute = brute_factorize(m)
        assert factorize(m) == brute
        assert prime_factors(m) == sorted(brute)
        assert gpf(m) == max(brute)
    assert gpf(1) == 1
    assert factorize(1) == {}


def test_gpf_array(rng):
    g = gpf_array(3000)
    for _ in range(150):
        m = rng.randint(1, 3000)
        assert g[m] == gpf(m)


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


def test_verify_gpf_bound_refuses_terms_past_int64():
    # n + d(k-1) used to overflow numpy's int64 (exit 3, OverflowError)
    for d, k, limit in ((10 ** 18, 20, 100), (2 ** 63 - 10, 2, 10)):
        with pytest.raises(ValueError, match="does not fit int64"):
            verify_gpf_bound(d, k, 12, limit)
    # the largest top that fits: 10 + (2^63 - 11) = 2^63 - 1
    assert verify_gpf_bound(2 ** 63 - 11, 2, 12, 10).exceptions == []


def test_verify_gpf_bound_accepts_k_at_the_cap():
    # k = 10^8 ran until killed; the cap itself is still accepted
    assert verify_gpf_bound(4, sieve.MAX_GPF_TERMS, 12, 10).exceptions == []


def test_verify_gpf_bound_other_shapes():
    report = verify_gpf_bound(3, 2, 6, 300, RangeFilter(min_exclusive=6,
                                                        not_divisible_by=3))
    assert report.exceptions == [125]
    report = verify_gpf_bound(4, 3, 16, 200, RangeFilter(min_exclusive=12,
                                                         odd_only=True))
    assert report.exceptions == [117]


def test_smooth_pairs(rng):
    got = verify_gpf_bound(6, 2, 7, 400).exceptions
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


def test_ap_prime_gaps_finds_far_successors():
    # each class's only prime up to 7 is its residue; the next prime in the
    # class lies up to 26 steps of 10,000,019 above the limit
    report = ap_prime_gaps(10000019, (2, 3, 5, 7), 7, 0)
    assert report.exceptions == sorted(ap_prime_gap_pairs(
        10000019, (2, 3, 5, 7), 7))
    assert report.exceptions[-1] == (7, 260000501)
    assert report.extremal == 260000494


def _check_ap_prime_gaps(modulus, residues, limit, gap_bound):
    pairs = ap_prime_gap_pairs(modulus, residues, limit)
    report = ap_prime_gaps(modulus, residues, limit, gap_bound)
    assert report.exceptions == sorted(
        (p, q) for p, q in pairs if q - p > gap_bound)
    assert report.extremal == max((q - p for p, q in pairs), default=0)


@pytest.mark.parametrize("modulus, residues, limit, gap_bound", [
    (1, (0,), 0, 0), (1, (0,), 1, 0), (1, (0,), 2, 0), (1, (0,), 3, 1),
    (2, (1,), 2, 0), (3, (1, 2), 3, 2), (4, (1, 3), 3, 1),
    (10007, (1,), 10, 0),         # no prime in the class up to the limit
    (100, (3, 7), 50, 10),        # exactly one prime in each class
    (12, (1, 5, 7, 11), 13, 0),
])
def test_ap_prime_gaps_edge_cases_match_trial_division(
        modulus, residues, limit, gap_bound):
    _check_ap_prime_gaps(modulus, residues, limit, gap_bound)


def test_ap_prime_gaps_match_trial_division(rng):
    for _ in range(40):
        modulus = rng.choice([rng.randint(1, 12), rng.randint(13, 10007)])
        residues = sorted({l for l in (rng.randrange(modulus)
                                       for _ in range(4))
                           if math.gcd(l, modulus) == 1} or {1 % modulus})
        _check_ap_prime_gaps(modulus, residues, rng.randint(0, 5000),
                             rng.randint(0, 3 * modulus))


def test_sieve_above_the_cap_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            ap_prime_gaps(4, (1, 3), sieve.MAX_SIEVE_LIMIT + 1, 270)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    with pytest.raises(ValueError, match="above the cap"):
        prime_flags(sieve.MAX_SIEVE_LIMIT + 1)
    with pytest.raises(ValueError, match="above the cap"):
        smoothness_bound_exact(401, sieve.MAX_SIEVE_LIMIT)


def test_residue_prime_count():
    # the closed form counts the sieve's primes in each class mod 3: they
    # are the trial-division primes
    assert primes_up_to(2000).tolist() == [
        m for m in range(2001) if distinct_prime_factors(m) == {m}]


def test_progression_prime_set():
    assert progression_prime_set(2) == {2, 7}           # (1+3)(1+6)
    assert progression_prime_set(3) == {2, 5, 11}       # (2+3)(2+6)(2+9)
    with pytest.raises(ValueError):
        progression_prime_set(1)
    with pytest.raises(ValueError, match="k must be at least 2, got 1"):
        progression_prime_set_mismatches(1, 5)


def test_progression_prime_set_printed_count_disagrees():
    # the closed-form count does not match the direct set size everywhere;
    # pin a couple of witnesses so the discrepancy stays visible
    assert progression_prime_set_sizes(3) == {2: (2, 0), 3: (3, 4)}
    mm = progression_prime_set_mismatches(2, 12)
    assert (2, 2, 0) in mm
    assert (3, 3, 4) in mm
    assert 5 not in [k for k, _, _ in mm]


@pytest.fixture(scope="module")
def rset_rows():
    """(k, direct, closed form) for k = 2..600 where the two differ, by
    trial division."""
    return [(k, direct, closed) for k, (direct, closed)
            in progression_prime_set_sizes(600).items() if direct != closed]


def test_progression_prime_set_mismatches_match_trial_division(rset_rows):
    assert progression_prime_set_mismatches(2, 600) == rset_rows


@pytest.mark.parametrize("k_lo, k_hi", [
    (2, 2), (3, 3), (5, 5), (600, 600), (2, 3), (3, 4), (4, 9), (7, 8),
    (101, 250), (250, 401), (599, 600)])
def test_progression_prime_set_mismatches_on_subranges(rset_rows, k_lo, k_hi):
    # ranges that start at odd and at even k, and single-k ranges
    assert progression_prime_set_mismatches(k_lo, k_hi) == \
        [row for row in rset_rows if k_lo <= row[0] <= k_hi]


def test_smoothness_bound_values():
    n_exact, t = smoothness_bound_exact(401, 3)
    assert t == 149
    assert len(str(n_exact)) == 750
    assert round(smoothness_bound(401, 3), 2) == 106866.68
    assert round(smoothness_bound(100, 3)) == 355699
    with pytest.raises(ValueError):
        smoothness_bound_exact(1, 1)


def test_smoothness_bound_pow2_matches_first_prime():
    # with l = 1 the only correction is 2^-ord_2((k-1)!): the bound is the
    # odd part of (k-1)! to the power 1/T
    for k in (67, 100, 401):
        odd = math.factorial(k - 1)
        while odd % 2 == 0:
            odd //= 2
        t = k + 1 - sum(1 for m in range(4 * k + 4)
                        if distinct_prime_factors(m) == {m})
        assert smoothness_bound_exact(k, 1) == (odd, t)
        assert smoothness_bound(k, 1) == math.exp(math.log(odd) / t)


def test_smoothness_bound_printed_variant():
    # 269 is prime, so pi(4k) and pi(4k+3) differ at k = 67 and the inner
    # exponent changes the corrected factorial
    default_n = smoothness_bound_exact(67, 3)[0]
    printed_n = smoothness_bound_exact(67, 3, printed_inner_pi=True)[0]
    assert default_n != printed_n
    assert smoothness_bound_exact(67, 3)[1] == smoothness_bound_exact(
        67, 3, printed_inner_pi=True)[1]


# --- segmented smoothness sieve --------------------------------------------

_GPF = [0, 1] + [max(brute_factorize(m)) for m in range(2, 2100)]


def brute_gpf_bound(d, k, bound, limit, flt=RangeFilter()):
    return [n for n in range(1, limit + 1)
            if flt.mask(np.array([n]))[0]
            and max(_GPF[n + d * i] for i in range(k)) <= bound]


def gpf_array_bound(d, k, bound, limit, flt):
    """The same query answered from a full greatest-prime-factor array."""
    g = gpf_array(limit + d * (k - 1))
    best = g[:limit + 1].copy()
    for i in range(1, k):
        np.maximum(best, g[i * d:i * d + limit + 1], out=best)
    values = np.arange(limit + 1)
    return values[flt.mask(values) & (values >= 1) & (best <= bound)].tolist()


@pytest.fixture
def small_segment(monkeypatch):
    # an odd block size, so that halos and prime powers cross block edges
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 97)


def test_segmented_gpf_bound_matches_brute_force(rng, small_segment):
    for _ in range(60):
        d, k = rng.randint(1, 6), rng.randint(1, 4)
        limit = rng.randint(1, 2100 - d * (k - 1) - 1)
        # small bounds, and bounds at or above isqrt(top), where the
        # cofactor left after dividing out the small primes is a prime
        bound = rng.choice([rng.randint(0, 20), rng.randint(30, 300)])
        flt = RangeFilter(min_exclusive=rng.randint(0, 20),
                          odd_only=rng.random() < 0.5,
                          not_divisible_by=rng.choice([None, 3, 5]))
        expect = brute_gpf_bound(d, k, bound, limit, flt)
        report = verify_gpf_bound(d, k, bound, limit, flt)
        assert report.exceptions == expect, (d, k, bound, limit, flt)
        assert report.extremal == max(expect, default=None)


@pytest.mark.parametrize("segment", [97, 128, 243, 729, 1024, 1025])
def test_segmented_sieve_divides_out_prime_powers(monkeypatch, segment):
    # 2^10 and 3^6 start or end a block for some of these sizes
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    assert verify_gpf_bound(1, 1, 2, 2000).exceptions == \
        [2 ** e for e in range(11)]
    assert verify_gpf_bound(1, 1, 3, 1500).exceptions == sorted(
        2 ** a * 3 ** b for a in range(11) for b in range(7)
        if 2 ** a * 3 ** b <= 1500)
    # 729 * 972 = 3^11 * 2^2 and 1024 * 1029 = 2^10 * 3 * 7^3
    assert 729 in verify_gpf_bound(243, 2, 3, 1000).exceptions
    assert 1024 in verify_gpf_bound(5, 2, 7, 1050).exceptions
    for d, k, bound, limit in ((243, 2, 3, 1000), (5, 2, 7, 1050),
                               (7, 3, 13, 1500)):
        assert verify_gpf_bound(d, k, bound, limit).exceptions == \
            brute_gpf_bound(d, k, bound, limit)


def test_segmented_gpf_bound_edge_bounds(small_segment):
    assert verify_gpf_bound(4, 1, 0, 500).exceptions == []
    assert verify_gpf_bound(4, 1, 1, 500).exceptions == [1]
    assert verify_gpf_bound(4, 2, 1, 500).exceptions == []
    # every m <= top is smooth once the bound reaches the top
    assert verify_gpf_bound(3, 3, 506, 500).exceptions == \
        list(range(1, 501))
    # 48 * 49: the prime 7 = isqrt(49) is only reached through the halo
    assert verify_gpf_bound(1, 2, 7, 48).exceptions == \
        brute_gpf_bound(1, 2, 7, 48)
    for bound in (0, 1, 2, 40, 500):
        assert verify_gpf_bound(1, 1, bound, 1000).exceptions == \
            brute_gpf_bound(1, 1, bound, 1000)


def test_segmented_gpf_bound_threads_match_serial(rng, small_segment):
    flt = RangeFilter(min_exclusive=3, odd_only=True)
    for _ in range(10):
        d, k, bound = rng.randint(1, 6), rng.randint(1, 4), rng.randint(2, 60)
        one = verify_gpf_bound(d, k, bound, 2000, flt, jobs=1)
        two = verify_gpf_bound(d, k, bound, 2000, flt, jobs=2)
        assert two.exceptions == one.exceptions


def test_segmented_pairs_match_brute_force(small_segment):
    for M, gap in ((11, 4), (5, 1), (13, 12), (2, 2)):
        assert verify_gpf_bound(gap, 2, M, 2000).exceptions == \
            [m for m in range(1, 2001) if max(_GPF[m], _GPF[m + gap]) <= M]
    brute = sorted(
        (i, x) for x in range(81, 2001) if x % 3
        for i in range(1, 8)
        if x * (x + 3 * i) % 2 == 0 and max(_GPF[x], _GPF[x + 3 * i]) == 5)
    assert exact_p5_pairs(2000) == brute


@pytest.mark.parametrize("d, k, bound, flt", [
    (4, 2, 12, RangeFilter(min_exclusive=8, odd_only=True)),       # AC-01
    (4, 3, 16, RangeFilter(min_exclusive=12, odd_only=True)),      # AC-02
    (4, 2, 8, RangeFilter(min_exclusive=8, odd_only=True)),        # AC-03
    (3, 2, 6, RangeFilter(min_exclusive=6, not_divisible_by=3)),   # AC-04
])
def test_segmented_gpf_bound_matches_gpf_array(monkeypatch, d, k, bound, flt):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 9973)
    assert verify_gpf_bound(d, k, bound, 10 ** 5, flt).exceptions == \
        gpf_array_bound(d, k, bound, 10 ** 5, flt)


def test_segmented_p5_pairs_matches_gpf_array(monkeypatch):      # AC-05
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 9973)
    limit = 10 ** 5
    g = gpf_array(limit + 21)
    x = np.arange(limit + 1)
    expect = sorted(
        (i, v) for i in range(1, 8)
        for v in x[(x > 80) & (x % 3 != 0)
                   & (np.maximum(g[:limit + 1], g[3 * i:limit + 1 + 3 * i]) == 5)
                   & ((x * (x + 3 * i)) % 2 == 0)].tolist())
    assert exact_p5_pairs(limit) == expect


@pytest.mark.parametrize("limit", [-5, 0])
def test_pair_queries_reject_bad_limit(limit):
    with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
        exact_p5_pairs(limit)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d", [500, 10 ** 4])
def test_long_halo_is_sieved_window_by_window(monkeypatch, small_segment,
                                              d, k):
    # a halo d(k-1) longer than the block is sieved one shifted window at
    # a time, so no mask spans more than two blocks whatever d and k are
    spans = []

    def spy(lo, hi, bound, primes, _fn=sieve._smooth_mask):
        spans.append(hi - lo)
        return _fn(lo, hi, bound, primes)
    monkeypatch.setattr(sieve, "_smooth_mask", spy)
    for bound in (13, 60):
        expect = [n for n in range(1, 501)
                  if max(gpf(n + d * i) for i in range(k)) <= bound]
        assert verify_gpf_bound(d, k, bound, 500).exceptions == expect
    assert max(spans) <= 2 * 97
