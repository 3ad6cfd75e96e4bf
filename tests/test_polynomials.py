import math
from fractions import Fraction

import pytest

from ghlcert.polynomials import (
    GhlParams,
    IntegerPolynomial,
    InvalidParameters,
    SeedCoefficients,
    build_ghl,
    build_substituted,
    hermite_polynomial,
    read_coefficients,
    substitute_power,
    write_coefficients,
)

from oracles import evaluate, hermite_recurrence


def q_params(num, den, n, delta=1):
    return GhlParams.from_q(Fraction(num, den), n, delta=delta)


def test_params_validation():
    GhlParams(d=3, u=-1, alpha=1, n=5)
    with pytest.raises(InvalidParameters):
        GhlParams(d=1, u=0, alpha=0, n=5)
    with pytest.raises(InvalidParameters):
        GhlParams(d=4, u=0, alpha=2, n=5)   # gcd(alpha, d) != 1
    with pytest.raises(InvalidParameters):
        GhlParams(d=4, u=0, alpha=4, n=5)   # alpha out of range
    with pytest.raises(InvalidParameters):
        GhlParams(d=4, u=0, alpha=0, n=5)
    with pytest.raises(InvalidParameters):
        GhlParams(d=3, u=0, alpha=1, n=0)
    with pytest.raises(InvalidParameters):
        GhlParams(d=3, u=0, alpha=1, n=5, delta=2)  # delta must be 1 or d
    GhlParams(d=3, u=0, alpha=1, n=5, delta=3)


def test_from_q_roundtrip():
    cases = {
        Fraction(-2, 3): (3, -1, 1),
        Fraction(-1, 3): (3, -1, 2),
        Fraction(1, 3): (3, 0, 1),
        Fraction(2, 3): (3, 0, 2),
        Fraction(-3, 4): (4, -1, 1),
        Fraction(-1, 4): (4, -1, 3),
        Fraction(1, 4): (4, 0, 1),
        Fraction(3, 4): (4, 0, 3),
    }
    for q, (d, u, alpha) in cases.items():
        p = GhlParams.from_q(q, 7)
        assert (p.d, p.u, p.alpha) == (d, u, alpha)
        assert p.q == q


def test_terms_and_top():
    p = GhlParams(d=3, u=-1, alpha=2, n=4)
    assert [p.term(i) for i in range(5)] == [-1, 2, 5, 8, 11]
    assert p.top_term == 11
    assert q_params(3, 4, 10).top_term == 43
    assert q_params(-2, 3, 2).top_term == 4


def test_seed_validation():
    SeedCoefficients((1, -2, 3))
    with pytest.raises(InvalidParameters):
        SeedCoefficients((0, 1, 1))
    with pytest.raises(InvalidParameters):
        SeedCoefficients((1, 1, 0))
    with pytest.raises(InvalidParameters):
        SeedCoefficients((5,))


def test_seed_constructors():
    assert SeedCoefficients.ones(3).values == (1, 1, 1, 1)
    lag = SeedCoefficients.laguerre(4)
    assert lag.values == (1, -4, 6, -4, 1)
    assert SeedCoefficients.laguerre(5).values == (1, -5, 10, -10, 5, -1)


def test_laguerre_seed_recurrence_matches_comb():
    for n in range(1, 301):
        assert SeedCoefficients.laguerre(n).values == tuple(
            (-1) ** j * math.comb(n, j) for j in range(n + 1))


def test_integer_polynomial_basics():
    f = IntegerPolynomial((4, 0, 1, 0))
    assert f.degree == 2
    assert f.coeffs == (4, 0, 1)
    assert f.leading == 1 and f.constant == 4
    assert f.coefficient(5) == 0
    assert evaluate(f.coeffs, 3) == 13
    with pytest.raises(InvalidParameters):
        IntegerPolynomial((0, 0))


def test_build_matches_direct_sum(rng):
    # evaluate the built polynomial against the defining sum
    for _ in range(60):
        d = rng.randint(2, 5)
        alpha = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        u = rng.choice([-1, 0])
        n = rng.randint(1, 8)
        params = GhlParams(d=d, u=u, alpha=alpha, n=n)
        seed = SeedCoefficients(tuple(
            rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n + 1)))
        f = build_ghl(params, seed)
        assert f.degree == n
        assert f.leading == seed.values[n]
        x = rng.randint(-3, 3)
        direct = 0
        for j in range(n + 1):
            tail = 1
            for i in range(j + 1, n + 1):
                tail *= params.term(i)
            direct += seed.values[j] * x ** j * tail
        assert evaluate(f.coeffs, x) == direct


def test_build_known_instance():
    # d=3, u=-1, alpha=1, n=2 with alternating-binomial seed:
    # x^2 - 2*4*x + 1*4 = x^2 - 8x + 4
    params = q_params(-2, 3, 2)
    f = build_ghl(params, SeedCoefficients.laguerre(2))
    assert f.coeffs == (4, -8, 1)


def test_substitute_power():
    f = IntegerPolynomial((4, -8, 1))
    g = substitute_power(f, 3)
    assert g.coeffs == (4, 0, 0, -8, 0, 0, 1)
    for x in range(-3, 4):
        assert evaluate(g.coeffs, x) == evaluate(f.coeffs, x ** 3)
    assert substitute_power(f, 1).coeffs == f.coeffs


def test_build_substituted():
    params = q_params(-2, 3, 2, delta=3)
    g = build_substituted(params, SeedCoefficients.laguerre(2))
    assert g.coeffs == (4, 0, 0, -8, 0, 0, 1)
    assert g.degree == params.delta * params.n


def test_hermite_matches_recurrence():
    for m in range(1, 13):
        assert hermite_polynomial(m).coeffs == tuple(hermite_recurrence(m)), m
    with pytest.raises(InvalidParameters):
        hermite_polynomial(0)


def test_hermite_classical_rows():
    assert hermite_polynomial(1).coeffs == (0, 2)
    assert hermite_polynomial(3).coeffs == (0, -12, 0, 8)
    assert hermite_polynomial(4).coeffs == (12, 0, -48, 0, 16)


def test_coefficient_file_roundtrip(tmp_path):
    f = IntegerPolynomial((4, 0, 0, -8, 0, 0, 1))
    path = tmp_path / "poly.txt"
    write_coefficients(path, f, header="degree 6")
    g = read_coefficients(path)
    assert g.coeffs == f.coeffs
    text = path.read_text()
    assert text.startswith("# degree 6\n")


def test_coefficient_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# comment\n\n4\n-8\n\n1\n")
    assert read_coefficients(path).coeffs == (4, -8, 1)
    bad = tmp_path / "bad.txt"
    bad.write_text("4\nxyz\n1\n")
    with pytest.raises(ValueError) as exc:
        read_coefficients(bad)
    assert "2" in str(exc.value)  # offending line number
