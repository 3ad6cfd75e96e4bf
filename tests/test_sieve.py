import json
import math
import threading
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
from ghlcert.valuation import factorize, prime_factors
from oracles import (ap_prime_gap_pairs, ap_prime_gaps_from_prime_list,
                     distinct_prime_factors, eratosthenes, gpf,
                     progression_prime_set, progression_prime_set_sizes,
                     sieve_report_dict)


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
    # the benchmark's layer trace counts calls through the sieve's name
    assert sieve.prime_factors is prime_factors
    assert type(prime_factors(-360)) is list and prime_factors(1) == []


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
    blob = sieve_report_dict(report)
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


def test_ap_prime_gaps_rejects_repeated_residue():
    # a repeated residue used to report each of its exceptions twice
    with pytest.raises(ValueError, match="residue 1 given more than once"):
        ap_prime_gaps(3, (1, 2, 1), 100, 11)


def test_ap_prime_gaps_refuses_modulus_past_int64():
    # primes % modulus on int64 ended in an OverflowError (exit 3)
    with pytest.raises(ValueError, match="modulus 9,223,372,036,854,775,808 "
                                         "does not fit int64"):
        ap_prime_gaps(2 ** 63, (7,), 100, 0)
    # the largest modulus that fits: each class's only prime up to the
    # limit is its residue, and its successor lies a multiple of it above
    report = ap_prime_gaps(2 ** 63 - 1, (2, 97), 100, 0)
    assert [p for p, _ in report.exceptions] == [2, 97]
    assert all((q - p) % (2 ** 63 - 1) == 0 for p, q in report.exceptions)


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


# --- block boundaries of the segmented prime sieve ---------------------------

def _trial_division_primes(limit):
    return [m for m in range(limit + 1) if distinct_prime_factors(m) == {m}]


@pytest.mark.parametrize("segment", [4, 5, 64])
def test_prime_blocks_match_trial_division(monkeypatch, segment):
    # a block of `segment` odd numbers spans 2 * segment integers, so every
    # base prime's first multiple lands at many offsets within a block
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    expect = _trial_division_primes(600)
    for limit in range(601):
        blocks = list(sieve.prime_blocks(limit))
        assert all(b.dtype == np.int64 for b in blocks)
        got = np.concatenate([np.zeros(0, np.int64), *blocks]).tolist()
        assert got == expect[:np.searchsorted(expect, limit, "right")], limit
        # [2], then one block per `segment` odd numbers up to the limit
        assert len(blocks) == (limit >= 2) + -(-((limit + 1) // 2) // segment)


@pytest.mark.parametrize("segment", [4, 64])
def test_ap_prime_gaps_across_block_ends_match_trial_division(
        monkeypatch, rng, segment):
    # with 8 or 128 integers per block, nearly every gap within a class
    # straddles one or more block ends
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    for _ in range(30):
        modulus = rng.randint(1, 60)
        residues = sorted({l for l in (rng.randrange(modulus)
                                       for _ in range(3))
                           if math.gcd(l, modulus) == 1} or {1 % modulus})
        _check_ap_prime_gaps(modulus, residues, rng.randint(0, 3000),
                             rng.randint(0, 2 * modulus))


@pytest.mark.parametrize("segment", [4, 64])
def test_rset_and_smoothness_across_block_ends(monkeypatch, rset_rows,
                                               segment):
    smooth = {(k, l, printed): smoothness_bound_exact(k, l, printed)
              for k in (67, 100, 401) for l in (1, 3, 30)
              for printed in (False, True)}
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    for k_lo, k_hi in ((2, 600), (101, 250), (599, 600)):
        assert progression_prime_set_mismatches(k_lo, k_hi) == \
            [row for row in rset_rows if k_lo <= row[0] <= k_hi]
    for (k, l, printed), expect in smooth.items():
        assert smoothness_bound_exact(k, l, printed) == expect


@pytest.fixture(scope="module")
def primes_6e6():
    return eratosthenes(6 * 10 ** 6)


@pytest.mark.parametrize("modulus, residues, gap_bound", [
    (1, (0,), 100), (2, (1,), 100), (3, (1, 2), 200), (4, (1, 3), 200),
    (5, (1, 2, 3, 4), 300), (8, (1, 3, 5, 7), 300),
    (12, (1, 5, 7, 11), 300), (30, (1, 7, 11, 13, 17, 19, 23, 29), 700),
    (210, (1, 11, 209), 3000), (10007, (1, 2, 10006), 200000),
    (2 ** 61 - 1, (1, 2, 3, 5), 0),
])
def test_ap_prime_gaps_over_real_blocks_match_prime_list(
        primes_6e6, modulus, residues, gap_bound):
    # 6*10^6 spans 3 blocks of 2^20 odd numbers; each odd modulus's
    # residues include the class of 2
    report = ap_prime_gaps(modulus, residues, 6 * 10 ** 6, gap_bound)
    assert (report.extremal, report.exceptions) == \
        ap_prime_gaps_from_prime_list(primes_6e6, modulus, residues,
                                      gap_bound)


@pytest.mark.parametrize("modulus, residues", [
    (30, (1, 7, 11, 13, 17, 19, 23, 29)), (97, (2, 3, 96)), (10007, (2, 5))])
def test_ap_prime_gaps_with_step_above_the_block_length(
        monkeypatch, modulus, residues):
    # blocks of 4 odd numbers: each class has at most one entry per block,
    # so every gap spans blocks
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 4)
    for limit in (0, 2, 3, 100, 2999):
        _check_ap_prime_gaps(modulus, residues, limit, 2 * modulus)
        _check_ap_prime_gaps(modulus, residues, limit, 0)


def test_ap_prime_gaps_exceptions_cap_counts_every_pair(monkeypatch):
    # exactly at the cap the query answers, one pair more stops it; all
    # four pairs here come from the successors past the limit
    monkeypatch.setattr(sieve, "MAX_GAP_EXCEPTIONS", 4)
    assert len(ap_prime_gaps(10000019, (2, 3, 5, 7), 7, 0).exceptions) == 4
    monkeypatch.setattr(sieve, "MAX_GAP_EXCEPTIONS", 3)
    with pytest.raises(ValueError, match="more than 3 pairs exceed the gap "
                       "bound 0 "):
        ap_prime_gaps(10000019, (2, 3, 5, 7), 7, 0)


def test_sieve_report_json_chunks_match_stdlib_encoder():
    # the text comes in a head-and-tail piece plus one piece per 5
    # exceptions: no pair, one chunk, exactly one, several
    pairs = ap_prime_gaps(4, (1, 3), 2000, 0)
    ints = verify_gpf_bound(4, 2, 12, 200,
                            RangeFilter(min_exclusive=8, odd_only=True))
    for report, count in ((pairs, 0), (pairs, 1), (pairs, 5), (pairs, 6),
                          (pairs, 23), (ints, 0), (ints, 5)):
        part = report._replace(exceptions=report.exceptions[:count])
        pieces = list(part.json_chunks(5))
        assert "".join(pieces) == json.dumps(sieve_report_dict(part),
                                             sort_keys=True, indent=2)
        assert len(pieces) == 1 + math.ceil(count / 5)


def test_ap_prime_gaps_memory_is_one_block():
    # a whole-range sieve held 40 MB of flags and 20 MB of primes here
    tracemalloc.start()
    try:
        report = ap_prime_gaps(4, (1, 3), 4 * 10 ** 7, 270)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # the answer a whole-range sieve gave
    assert report.extremal == 420 and len(report.exceptions) == 106
    assert sum(p for p, _ in report.exceptions) == 2_740_365_560


def test_ap_prime_gaps_memory_grows_only_with_the_base_primes(monkeypatch):
    # with blocks of 2^18 odd numbers both limits sieve full blocks, and the
    # first, densest block sets both peaks; ten times the limit may then
    # cost only the int64 base primes up to its square root (384 more),
    # within 1 KiB; a whole-range buffer here costs ~9 MB
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 1 << 18)
    ap_prime_gaps(4, (1, 3), 10 ** 4, 270)   # lazy set-up outside the peaks
    peaks = []
    for limit in (2 * 10 ** 6, 2 * 10 ** 7):
        tracemalloc.start()
        try:
            ap_prime_gaps(4, (1, 3), limit, 270)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = len(primes_up_to(math.isqrt(2 * 10 ** 7))) - len(
        primes_up_to(math.isqrt(2 * 10 ** 6)))
    assert peaks[1] - peaks[0] <= 8 * growth + 1024, peaks


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
    # smoothness sieves only to 4k + 3, whatever l is
    assert (smoothness_bound_exact(401, 5 * 10 ** 8)
            == smoothness_bound_exact(401, 10 ** 6))


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


def test_progression_prime_set_mismatches_range_cap():
    # every row is held in memory (2:1000000 took 517 MiB); a range of
    # MAX_RSET_RANGE values runs, one more is refused before the sieve
    cap = sieve.MAX_RSET_RANGE
    rows = progression_prime_set_mismatches(10 ** 6, 10 ** 6 + cap - 1)
    assert rows[0][0] >= 10 ** 6 and rows[-1][0] <= 10 ** 6 + cap - 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"k range of {cap + 1:,} values "
                           f"is above the cap {cap:,}"):
            progression_prime_set_mismatches(10 ** 6, 10 ** 6 + cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


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
def sieve_only(monkeypatch):
    # the segmented sieve answers every query: no smooth numbers are listed
    monkeypatch.setattr(sieve, "_smooth_numbers", lambda bound, top: None)


@pytest.fixture
def small_segment(monkeypatch, sieve_only):
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
def test_segmented_sieve_divides_out_prime_powers(monkeypatch, sieve_only,
                                                  segment):
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


def test_segmented_gpf_bound_threads_match_serial(monkeypatch, rng,
                                                  small_segment):
    # the blocks run on min(blocks, usable CPUs) threads: with one CPU all
    # on the calling thread, with two on pool threads, to the same report
    flt = RangeFilter(min_exclusive=3, odd_only=True)
    mask, seen = sieve._smooth_mask, set()

    def noted(*args):
        seen.add(threading.get_ident())
        return mask(*args)
    monkeypatch.setattr(sieve, "_smooth_mask", noted)
    for _ in range(10):
        d, k, bound = rng.randint(1, 6), rng.randint(1, 4), rng.randint(2, 60)
        reports = {}
        for cpus in (1, 2):
            monkeypatch.setattr(sieve, "_usable_cpus", lambda: cpus)
            seen.clear()
            reports[cpus] = verify_gpf_bound(d, k, bound, 2000,
                                             flt)._replace(elapsed_ms=0)
            assert (threading.get_ident() in seen) == (cpus == 1)
        assert reports[2] == reports[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_segmented_gpf_bound_memory_is_one_block_per_thread(monkeypatch,
                                                            sieve_only, cpus):
    # each thread holds one block's int64 window whatever the limit, so the
    # peaks at two limits 10x apart differ by less than one block a thread
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: cpus)
    peaks = []
    for limit in (2 * 10 ** 6, 2 * 10 ** 7):
        tracemalloc.start()
        try:
            report = verify_gpf_bound(1, 2, 5, limit)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # Stormer: the last of the ten 5-smooth n(n+1) is 80 * 81
        assert report.exceptions == [1, 2, 3, 4, 5, 8, 9, 15, 24, 80]
    assert abs(peaks[1] - peaks[0]) < cpus * 8 * sieve.DEFAULT_SEGMENT, peaks


def test_segmented_sieve_refuses_limits_above_the_sieve_cap(monkeypatch):
    # the blocks run at about 1 s per 10^8, so --limit 10^12 ran for hours;
    # the listing path, whose cost follows the smooth count, stays uncapped
    monkeypatch.setattr(sieve, "MAX_SIEVE_LIMIT", 1000)
    listed = verify_gpf_bound(4, 2, 12, 2000).exceptions
    assert listed == brute_gpf_bound(4, 2, 12, 2000)
    monkeypatch.setattr(sieve, "_smooth_numbers", lambda bound, top: None)
    assert verify_gpf_bound(4, 2, 12, 1000).exceptions == \
        [m for m in listed if m <= 1000]
    with pytest.raises(ValueError, match="above the cap 1,000 of the "
                                         "segmented sieve"):
        verify_gpf_bound(4, 2, 12, 1001)


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
def test_segmented_gpf_bound_matches_gpf_array(monkeypatch, sieve_only,
                                               d, k, bound, flt):
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 9973)
    assert verify_gpf_bound(d, k, bound, 10 ** 5, flt).exceptions == \
        gpf_array_bound(d, k, bound, 10 ** 5, flt)


def test_segmented_p5_pairs_matches_gpf_array(monkeypatch,       # AC-05
                                              sieve_only):
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


def test_short_windows_divide_out_primes_above_the_span():
    # primes above the window's length hit at most one number each; those
    # hits are divided out together, so a number with two or three such
    # factors (101*103*107) or a square of one (1009^2) must lose them all
    centres = (101 * 103 * 107, 1009 ** 2, 1009 * 1013, 997 * 991, 10 ** 6)
    for centre in centres:
        for span in (1, 2, 5, 11):
            for lo in (centre - span + 1, centre - 1, centre):
                hi = lo + span
                for bound in (5, 107, 1009, 1013, 2000):
                    primes = primes_up_to(max(0, min(bound, math.isqrt(hi - 1))))
                    got = sieve._smooth_mask(lo, hi, bound, primes).tolist()
                    assert got == [max(brute_factorize(m)) <= bound
                                   for m in range(lo, hi)], (lo, hi, bound)


def test_large_bound_on_a_short_window(sieve_only):
    # d = 10^12 puts the second window at 10^12 with ~78,000 primes to try
    # there, nearly all above its 41-number length, so their hits come from
    # the residue test rather than the strided loop
    sympy = pytest.importorskip("sympy")
    d, bound = 10 ** 12, 10 ** 6
    expect = [n for n in range(1, 41)
              if max(sympy.factorint(n * (n + d)), default=1) <= bound]
    assert verify_gpf_bound(d, 2, bound, 40).exceptions == expect
    assert len(expect) == 12   # 4, 9, 10, 11, ..., 37


# --- listing the smooth numbers ----------------------------------------------

def count_smooth(top, primes):
    """Number of m in [1, top] whose prime factors all lie in ``primes``,
    by recursion on the exponent of the first prime."""
    if not primes:
        return 1 if top >= 1 else 0
    total, pe = 0, 1
    while pe <= top:
        total += count_smooth(top // pe, primes[1:])
        pe *= primes[0]
    return total


def is_smooth(m, bound):
    """Whether m >= 1 has no prime factor above bound, by dividing out
    every integer from 2 to bound."""
    for q in range(2, bound + 1):
        while m % q == 0:
            m //= q
    return m == 1 and bound >= 1


def exponent_vectors(bound, top, cap):
    """The gate's product, 1 + floor(log_p top) over the primes p <=
    min(bound, top), stopped once it passes ``cap``."""
    product = 1
    for p in range(2, min(bound, top) + 1):
        if distinct_prime_factors(p) == {p}:
            product *= 1 + next(e for e in range(64) if p ** (e + 1) > top)
            if product > cap:
                break
    return product


@pytest.fixture
def listings(monkeypatch):
    """Records every list of smooth numbers, checking that the gate let it
    through only when the exponent-vector count is at most DEFAULT_SEGMENT,
    and that the list holds at most that many numbers."""
    seen = []

    def spy(bound, top, _fn=sieve._smooth_numbers):
        got = _fn(bound, top)
        product = exponent_vectors(bound, top, sieve.DEFAULT_SEGMENT)
        assert (got is not None) == (product <= sieve.DEFAULT_SEGMENT)
        if got is not None:
            assert got.size <= product <= sieve.DEFAULT_SEGMENT
            # P(1) = 1, so 1 is smooth unless the bound is below 1
            assert got.size == (bound >= 1) * count_smooth(top, [
                p for p in range(2, min(bound, top) + 1)
                if distinct_prime_factors(p) == {p}])
            assert np.all(np.diff(got) > 0)
        seen.append(got)
        return got
    monkeypatch.setattr(sieve, "_smooth_numbers", spy)
    return seen


def test_smooth_numbers_are_the_smooth_numbers():
    for bound in range(-1, 60):
        for top in (1, 2, 3, 8, 9, 97, 1000, 2099):
            got = sieve._smooth_numbers(bound, top)
            if got is not None:
                assert got.tolist() == [m for m in range(1, top + 1)
                                        if _GPF[m] <= bound], (bound, top)


def test_smooth_numbers_gate_is_exact(monkeypatch):
    # 3-smooth numbers up to 1000 have (1 + 9)(1 + 6) = 70 exponent
    # vectors: a block of 70 lists them, a block of 69 does not
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 70)
    assert sieve._smooth_numbers(3, 1000).size == count_smooth(1000, [2, 3])
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", 69)
    assert sieve._smooth_numbers(3, 1000) is None


def test_smooth_numbers_near_int64_max_do_not_wrap():
    # every product stays <= top; a wrapped one would be negative or small
    top = 2 ** 63 - 1
    got = sieve._smooth_numbers(5, top).tolist()
    expect = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(63) for b in range(40) for c in range(28)
                    if 2 ** a * 3 ** b * 5 ** c <= top)
    assert got == expect
    assert sieve._smooth_numbers(7, top) is None   # 63*40*28*23 > 2^20


def _both_paths(monkeypatch, listings, run):
    """run() on the listing path (default segment) and on the sieve path
    (segment 97, listing off); both answers, which must agree."""
    listed = run()
    assert listings and listings[-1] is not None
    with monkeypatch.context() as m:
        m.setattr(sieve, "DEFAULT_SEGMENT", 97)
        m.setattr(sieve, "_smooth_numbers", lambda bound, top: None)
        sieved = run()
    assert listed == sieved
    return listed


def test_listing_and_sieve_match_brute_force(rng, monkeypatch, listings):
    for _ in range(60):
        d, k = rng.randint(1, 6), rng.randint(1, 4)
        limit = rng.randint(1, 2100 - d * (k - 1) - 1)
        bound = rng.randint(0, 16)
        flt = RangeFilter(min_exclusive=rng.randint(0, 20),
                          odd_only=rng.random() < 0.5,
                          not_divisible_by=rng.choice([None, 3, 5]))
        got = _both_paths(monkeypatch, listings, lambda: verify_gpf_bound(
            d, k, bound, limit, flt).exceptions)
        assert got == brute_gpf_bound(d, k, bound, limit, flt), \
            (d, k, bound, limit, flt)
        assert got == gpf_array_bound(d, k, bound, limit, flt)


@pytest.mark.parametrize("d, k, bound, limit, flt", [
    (4, 1, 0, 500, RangeFilter()),            # bound 0: nothing is smooth
    (4, 1, 1, 500, RangeFilter()),            # bound 1: only 1
    (4, 2, 1, 500, RangeFilter()),
    (1, 1, 2, 1024, RangeFilter()),           # 2^10 = top
    (4, 2, 3, 725, RangeFilter()),            # 3^6 = top
    (5, 3, 7, 333, RangeFilter()),            # 7^3 = top
    (1, 1, 13, 1, RangeFilter()),             # bound >= top
    (2, 2, 50, 40, RangeFilter(min_exclusive=3)),
    (4, 2, 12, 2000, RangeFilter(min_exclusive=8, odd_only=True)),
    (3, 2, 6, 2000, RangeFilter(min_exclusive=6, not_divisible_by=3)),
])
def test_listing_edge_cases(monkeypatch, listings, d, k, bound, limit, flt):
    got = _both_paths(monkeypatch, listings, lambda: verify_gpf_bound(
        d, k, bound, limit, flt).exceptions)
    assert got == brute_gpf_bound(d, k, bound, limit, flt)


def test_listing_at_the_int64_top(monkeypatch, listings):
    # n + d runs up to 2^63 - 1 (and 1 + 3^39 - 1 is 3-smooth); a listing
    # or a lookup that overflowed int64 would wrap
    for d in (2 ** 63 - 11, 3 ** 39 - 1):
        for bound in (3, 5):
            got = _both_paths(monkeypatch, listings, lambda: verify_gpf_bound(
                d, 2, bound, 10).exceptions)
            assert got == [n for n in range(1, 11)
                           if is_smooth(n * (n + d), bound)]
    assert got[0] == 1


def test_listing_answers_p5_pairs(monkeypatch, listings):
    brute = sorted(
        (i, x) for x in range(81, 2001) if x % 3
        for i in range(1, 8)
        if x * (x + 3 * i) % 2 == 0 and max(_GPF[x], _GPF[x + 3 * i]) == 5)
    assert _both_paths(monkeypatch, listings,
                       lambda: exact_p5_pairs(2000)) == brute


def test_large_bounds_fall_back_to_the_sieve(listings):
    # the 25 primes up to 100 have more exponent vectors below 3000 than
    # one block holds, so the query is sieved and nothing is listed
    assert verify_gpf_bound(1, 1, 100, 3000).exceptions == [
        m for m in range(1, 3001) if is_smooth(m, 100)]
    assert listings == [None]
