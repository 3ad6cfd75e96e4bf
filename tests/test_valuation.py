import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ghlcert.polynomials import GhlParams, SeedCoefficients, build_substituted
from ghlcert.sieve import primes_up_to
from ghlcert.valuation import (
    INFINITY,
    PRIMALITY_LIMIT,
    TRIAL_DIVISION_BOUND,
    TermTable,
    coefficient_valuations,
    digit_sum,
    factorize,
    is_prime,
    nu,
    ord_factorial,
    ordinates_from_polynomial,
    prime_factors,
    term_table,
)

from oracles import distinct_prime_factors, legendre_direct

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_infinity_arithmetic():
    assert INFINITY + 5 == INFINITY
    assert 5 + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY
    assert INFINITY > 10 ** 18
    assert not (INFINITY < 0)
    assert INFINITY == INFINITY
    assert INFINITY != 3


def test_nu_brute_force(rng):
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        r = rng.randint(1, 10 ** 6) * rng.choice([-1, 1])
        count = 0
        m = abs(r)
        while m % p == 0:
            m //= p
            count += 1
        assert nu(p, r) == count
    assert nu(7, 0) == INFINITY
    with pytest.raises(ValueError):
        nu(6, 10)


def test_nu_of_high_prime_powers(rng):
    # the squaring ladder against valuations far past the small ones above
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        e = rng.randrange(3000)
        unit = rng.randrange(1, 10 ** 40)
        unit += unit % p == 0  # a multiple of p plus one is not
        assert nu(p, -unit * p ** e if e % 2 else unit * p ** e) == e


def test_digit_sum():
    for p in (2, 3, 5, 7):
        for m in (0, 1, 9, 42, 1000, 123456):
            digits = []
            v = m
            while v:
                digits.append(v % p)
                v //= p
            assert digit_sum(p, m) == sum(digits)


def test_ord_factorial_matches_direct(rng):
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        m = rng.randint(0, 5000)
        assert ord_factorial(p, m) == legendre_direct(p, m)
    assert ord_factorial(2, 42) == 39
    assert ord_factorial(2, 41) == 38
    assert ord_factorial(2, 21) == 18
    assert ord_factorial(2, 4) == 3


def test_coefficient_valuations_match_polynomial(rng):
    # analytic ordinates must equal direct valuations of the built coefficients
    for _ in range(80):
        d = rng.choice([2, 3, 4, 5])
        alpha = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        u = rng.choice([-1, 0])
        n = rng.randint(1, 8)
        delta = rng.choice([1, d])
        params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
        seed = SeedCoefficients(tuple(
            rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(n + 1)))
        p = rng.choice(SMALL_PRIMES)
        analytic = coefficient_valuations(p, params, seed)
        direct = ordinates_from_polynomial(p, build_substituted(params, seed))
        assert len(analytic) == delta * n + 1
        assert analytic == direct


@st.composite
def seeded_instances(draw):
    """(p, params, seed): a family with d <= 12 and u in {-1, 0}, n <= 300,
    either delta, a ones, laguerre or custom seed, and p drawn from the
    primes up to 50, the prime divisors of n and of the top term, and the
    least prime above n."""
    d = draw(st.integers(2, 12))
    alpha = draw(st.sampled_from(
        [a for a in range(1, d) if math.gcd(a, d) == 1]))
    n = draw(st.integers(1, 300))
    params = GhlParams(d=d, u=draw(st.sampled_from((-1, 0))), alpha=alpha,
                       n=n, delta=draw(st.sampled_from((1, d))))
    kind = draw(st.sampled_from(("ones", "laguerre", "custom")))
    if kind == "custom":
        inner = st.integers(-10 ** 6, 10 ** 6)
        ends = inner.filter(bool)
        seed_coeffs = SeedCoefficients((draw(ends), *draw(st.lists(
            inner, min_size=n - 1, max_size=n - 1)), draw(ends)))
    else:
        seed_coeffs = SeedCoefficients.of_kind(n, kind)
    above = next(q for q in range(n + 1, 2 * n + 3) if is_prime(q))
    primes = {*SMALL_PRIMES, *prime_factors(n),
              *prime_factors(params.top_term), above}
    return draw(st.sampled_from(sorted(primes))), params, seed_coeffs


@seed(33)
@settings(max_examples=150, deadline=None, database=None)
@given(seeded_instances())
def test_coefficient_valuations_match_the_built_polynomial(instance):
    # the factored ordinates (Legendre for a binomial seed, 0 for ones,
    # divided values for a custom seed) against the valuations of the
    # coefficients of the polynomial built in full
    p, params, seed_coeffs = instance
    assert coefficient_valuations(p, params, seed_coeffs) == \
        ordinates_from_polynomial(p, build_substituted(params, seed_coeffs))


def test_large_primes_match_the_trial_division_oracle(rng):
    # n is asked for in shuffled order: a table doubles past a small n,
    # grows to n itself past twice its length, and answers a smaller n
    # from what it holds
    for d in (2, 3, 4, 5, 6, 7, 12, 97, 1000):
        for u in (-1, 0):
            for alpha in (a for a in range(1, d) if math.gcd(a, d) == 1):
                table = TermTable(d, u, alpha)
                expected = [()] + [
                    tuple(sorted(p for p in distinct_prime_factors(
                        alpha + (u + i) * d) if p > d)) for i in range(1, 61)]
                for n in rng.sample(range(1, 31), 5):
                    large = table.large_primes(n)
                    assert len(large) > n
                    assert large == expected[:len(large)], (d, u, alpha, n)


def test_large_primes_stop_doubling_at_the_primality_limit():
    # terms past index 12 are at or above PRIMALITY_LIMIT, so the table
    # doubles from 5 to 10, and then to 12 rather than to 20
    d = (PRIMALITY_LIMIT - 2) // 12
    assert 1 + 12 * d < PRIMALITY_LIMIT <= 1 + 13 * d
    table = TermTable(d, 0, 1)
    assert [len(table.large_primes(n)) - 1 for n in (5, 6, 11, 4)] == \
        [5, 10, 12, 12]
    for i, primes in enumerate(table.large_primes(12)[1:], 1):
        rest = 1 + i * d
        assert list(primes) == sorted(primes)
        for p in primes:
            assert p > d and is_prime(p) and rest % p == 0
            rest //= p ** nu(p, rest)
        # rest < 13d: a prime factor above d would leave a quotient m < 13
        assert not any(rest % m == 0 and rest // m > d and is_prime(rest // m)
                       for m in range(1, 13)), i
    with pytest.raises(ValueError, match="u in"):
        TermTable(3, -2, 1).large_primes(4)


def test_coefficient_valuations_do_not_depend_on_table_order(rng):
    # each family's term table is first grown past every n checked, and
    # other families' tables are built in between; u = -2 gives negative
    # terms, and zero seed entries give INFINITY ordinates
    families = [(d, u, alpha) for d in (2, 3, 4, 5) for u in (-2, -1, 0)
                for alpha in range(1, d) if math.gcd(alpha, d) == 1]
    primes = SMALL_PRIMES[:8]
    term_table.cache_clear()
    for d, u, alpha in families:
        table = term_table(d, u, alpha)
        if u in (-1, 0):
            table.large_primes(30)
        warm = GhlParams(d=d, u=u, alpha=alpha, n=30)
        for p in primes:
            coefficient_valuations(p, warm, SeedCoefficients.ones(30))
        for other in rng.sample(families, 3):
            n = rng.randint(1, 40)
            coefficient_valuations(rng.choice(primes), GhlParams(*other, n=n),
                                   SeedCoefficients.ones(n))
        assert term_table(d, u, alpha) is table
        for n in (12, 1, 7, 3, 12):
            values = [rng.choice([0, 0, 1, -2, 3, 12, 45])
                      for _ in range(n - 1)]
            for seed in (SeedCoefficients.ones(n), SeedCoefficients.laguerre(n),
                         SeedCoefficients((6, *values, -9))):
                for delta in (1, d):
                    params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
                    poly = build_substituted(params, seed)
                    for p in primes:
                        assert coefficient_valuations(p, params, seed) == \
                            ordinates_from_polynomial(p, poly), (params, p)


def test_ordinates_are_leading_first():
    poly = build_substituted(
        GhlParams(d=3, u=-1, alpha=1, n=2, delta=3),
        SeedCoefficients.laguerre(2))
    # x^6 - 8x^3 + 4: leading-first ordinates at p=2
    ys = ordinates_from_polynomial(2, poly)
    assert ys[0] == 0 and ys[3] == 3 and ys[6] == 2
    assert all(ys[i] == INFINITY for i in (1, 2, 4, 5))


def test_is_prime_agrees_with_sieve():
    flags = set(primes_up_to(10_000))
    for m in range(-2, 10_000):
        assert is_prime(m) == (m in flags)


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(3215031751)         # strong pseudoprime to 2,3,5,7
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(1_000_000_007)


def test_is_prime_rejects_twelve_base_pseudoprime():
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(psi12)
    assert not is_prime(PRIMALITY_LIMIT - 1)  # the largest decided input
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(PRIMALITY_LIMIT)             # psi_13 passes all 13 bases


def test_is_prime_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for digits in range(2, 25):
        for _ in range(40):
            m = rng.randint(10 ** (digits - 1), 10 ** digits)
            assert is_prime(m) == sympy.isprime(m), m
    for m in (2 ** 61 - 1, 2 ** 64 - 59, 2 ** 79 - 67, 10 ** 24 - 9):
        assert is_prime(m) == sympy.isprime(m), m


def _oracle_prime(rng, lo, hi):
    """A random prime in [lo, hi), confirmed by trial division."""
    p = rng.randrange(lo, hi) | 1
    while not is_prime(p):
        p += 2
    assert distinct_prime_factors(p) == {p}
    return p


def test_factorize_splits_factors_past_trial_division(rng):
    # every prime factor here is far above TRIAL_DIVISION_BOUND, so each is
    # found by is_prime on a cofactor or split off by rho
    assert TRIAL_DIVISION_BOUND < 10 ** 6
    cases = []
    for _ in range(3):
        # the oracle trial-divides up to the smaller factor, ~1.1*10^6
        p = _oracle_prime(rng, 10 ** 6, 11 * 10 ** 5)
        cases.append(([p, _oracle_prime(rng, 10 ** 6, 10 ** 9)], True))
    p = _oracle_prime(rng, 10 ** 6, 11 * 10 ** 5)
    cases += [([p, p], True), ([p, p, p], True), ([2, 2, 3, 7, p, p], True)]
    for _ in range(4):
        # products of two or three factors of 10^6..10^9, up to 2*10^24,
        # are past the oracle's reach; their factors are confirmed singly
        p = _oracle_prime(rng, 10 ** 8, 10 ** 9)
        q = _oracle_prime(rng, 10 ** 8, 10 ** 9)
        r = _oracle_prime(rng, 10 ** 7, 10 ** 8)
        s = _oracle_prime(rng, 10 ** 6, 2 * 10 ** 6)
        cases += [([p, q], False), ([q, q], False), ([r, r, r], False),
                  ([p, q, s], False)]
    for primes, oracle_reaches in cases:
        m = math.prod(primes)
        assert m < PRIMALITY_LIMIT
        expected = {p: primes.count(p) for p in primes}
        assert factorize(m) == expected, primes
        assert factorize(-m) == expected
        if oracle_reaches:
            assert distinct_prime_factors(m) == set(expected)


def test_factorize_refuses_undecidable_cofactors():
    # psi_13 passes every Miller-Rabin base, so its primality is not
    # decided: factorize says so at once instead of trial-dividing
    with pytest.raises(ValueError, match="cannot decide"):
        factorize(PRIMALITY_LIMIT)
    # above the limit, but every part left to test is below it
    expected = {2: 20, 17: 1, 1709: 1, 1366183751: 1, 83570142193: 1}
    assert math.prod(p ** e for p, e in expected.items()) == \
        2 ** 20 * (PRIMALITY_LIMIT - 2)
    assert factorize(2 ** 20 * (PRIMALITY_LIMIT - 2)) == expected
    assert all(distinct_prime_factors(p) == {p} for p in expected)
