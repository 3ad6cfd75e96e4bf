"""Acceptance suite.

Each criterion prints one `[AC-nn] PASS/FAIL` line and is wrapped in a
pytest test; run this file directly (`python3 tests/test_acceptance.py`)
to see every line without pytest's capture.
"""

import functools
import random
import sys
import time

from ghlcert.certify import Verdict
from ghlcert.newton import admissible_degrees, build_polygon, degrees_of
from ghlcert.polynomials import (GhlParams, IntegerPolynomial,
                                 SeedCoefficients, build_substituted)
from ghlcert.sieve import (RangeFilter, ap_prime_gaps, exact_p5_pairs,
                           primes_up_to, verify_gpf_bound)
from ghlcert.valuation import digit_sum, ord_factorial

from oracles import (certify_instance, expected_breaks, factor_of_degree,
                     legendre_direct, poly_mul, verify_break_valuations,
                     verify_certificate)

FAMILIES = [(3, -1, 1), (3, -1, 2), (3, 0, 1), (3, 0, 2),
            (4, -1, 1), (4, -1, 3), (4, 0, 1), (4, 0, 3)]

CRITERIA = []


def criterion(tag):
    def deco(fn):
        CRITERIA.append((tag, fn))
        return fn
    return deco


def _run(tag):
    fn = dict(CRITERIA)[tag]
    ok, detail = fn()
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@criterion("AC-01")
def _gpf_pairs_bound12():
    t0 = time.perf_counter()
    report = verify_gpf_bound(4, 2, 12, 10 ** 6,
                              RangeFilter(min_exclusive=8, odd_only=True))
    dt = time.perf_counter() - t0
    ok = report.exceptions == [11, 21, 45, 77, 121] and dt < 10
    return ok, f"exceptions={report.exceptions} elapsed={dt:.2f}s (limit 10s)"


@criterion("AC-02")
def _gpf_triples_bound16():
    t0 = time.perf_counter()
    report = verify_gpf_bound(4, 3, 16, 10 ** 6,
                              RangeFilter(min_exclusive=12, odd_only=True))
    dt = time.perf_counter() - t0
    ok = report.exceptions == [117] and dt < 15
    return ok, f"exceptions={report.exceptions} elapsed={dt:.2f}s (limit 15s)"


@criterion("AC-03")
def _gpf_pairs_bound8():
    report = verify_gpf_bound(4, 2, 8, 10 ** 6,
                              RangeFilter(min_exclusive=8, odd_only=True))
    ok = report.exceptions == [21, 45]
    return ok, f"exceptions={report.exceptions}"


@criterion("AC-04")
def _gpf_step3_bound6():
    report = verify_gpf_bound(3, 2, 6, 10 ** 6,
                              RangeFilter(min_exclusive=6, not_divisible_by=3))
    ok = report.exceptions == [125]
    return ok, f"exceptions={report.exceptions}"


@criterion("AC-05")
def _p5_pairs():
    pairs = exact_p5_pairs(10 ** 6)
    ok = pairs == [(1, 125), (2, 250), (4, 500), (5, 625)]
    return ok, f"pairs={pairs}"


@criterion("AC-06")
def _ap_gap_sweeps():
    t0 = time.perf_counter()
    mod3 = ap_prime_gaps(3, (1, 2), 6450, 60)
    mod4 = ap_prime_gaps(4, (1, 3), 11_000_000, 270)
    dt = time.perf_counter() - t0
    expected4 = [(3358151, 3358423), (5927759, 5928031), (7856441, 7856713),
                 (9287659, 9287939), (10087201, 10087481)]
    ok = (mod3.exceptions == [] and mod3.extremal == 60
          and mod4.exceptions == expected4 and mod4.extremal == 280
          and dt < 30)
    return ok, (f"mod3 max_gap={mod3.extremal} exceptions={len(mod3.exceptions)}, "
                f"mod4 exceptions={len(mod4.exceptions)} max_gap={mod4.extremal}, "
                f"elapsed={dt:.2f}s (limit 30s)")


def _carrier_vertices(u, alpha, n, delta):
    params = GhlParams(d=3, u=u, alpha=alpha, n=n, delta=delta)
    poly = build_substituted(params, SeedCoefficients.ones(n))
    return build_polygon(poly, 2)


@criterion("AC-07")
def _polygon_goldens():
    golden = {
        (-1, 2, 43, 1): ((0, 0), (32, 33), (40, 42), (43, 46)),
        (-1, 2, 43, 3): ((0, 0), (96, 33), (120, 42), (129, 46)),
        (0, 2, 42, 1): ((0, 0), (32, 33), (40, 42), (42, 45)),
        (0, 2, 42, 3): ((0, 0), (96, 33), (120, 42), (126, 45)),
    }
    bad = []
    for (u, alpha, n, delta), vertices in golden.items():
        polygon = _carrier_vertices(u, alpha, n, delta)
        if polygon.vertices != vertices:
            bad.append(((u, alpha, n, delta), polygon.vertices))
    ok = not bad
    return ok, "all four dyadic polygons match" if ok else f"mismatches={bad}"


@criterion("AC-08")
def _legendre_identity():
    t0 = time.perf_counter()
    bad = 0
    for p in (int(v) for v in primes_up_to(50)):
        for m in range(10 ** 4 + 1):
            lhs = ord_factorial(p, m)
            if lhs != (m - digit_sum(p, m)) // (p - 1) or lhs != legendre_direct(p, m):
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 5
    return ok, f"mismatches={bad} over 15 primes x 10001 m, elapsed={dt:.2f}s (limit 5s)"


@criterion("AC-09")
def _break_valuations():
    bad = []
    for u, alpha, eta in ((-1, 1, 0), (-1, 2, 1), (0, 1, 0), (0, 2, 1)):
        for s in range(2, 17):
            n = -u + 2 ** eta * (4 ** s - 1) // 3
            bs = expected_breaks(GhlParams(d=3, u=u, alpha=alpha, n=n))
            if (bs.eta, bs.s) != (eta, s) or not verify_break_valuations(bs):
                bad.append((u, alpha, s))
    ok = not bad
    return ok, ("valuation identities hold for 4 shapes x s=2..16"
                if ok else f"failures={bad}")


@criterion("AC-10")
def _dumas_soundness():
    rng = random.Random(20250815)
    checked = 0
    bad = []
    while checked < 200:
        da, db = rng.randint(1, 6), rng.randint(1, 6)
        a = [rng.randint(-50, 50) for _ in range(da)] + [rng.choice([-1, 1]) * rng.randint(1, 50)]
        b = [rng.randint(-50, 50) for _ in range(db)] + [rng.choice([-1, 1]) * rng.randint(1, 50)]
        prod = poly_mul(a, b)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if prod[0] == 0 or (prod[0] * prod[-1]) % p == 0:
            continue
        adm = degrees_of(admissible_degrees(
            build_polygon(IntegerPolynomial(tuple(prod)), p)))
        if da not in adm or db not in adm:
            bad.append((a, b, p))
        checked += 1
    ok = not bad
    return ok, (f"200 factored products, factor degrees always admissible"
                if ok else f"violations={bad[:3]}")


@functools.lru_cache(maxsize=1)
def _grid():
    out = []
    for d, u, alpha in FAMILIES:
        for n in range(2, 101):
            out.append(((d, u, alpha), n,
                        certify_instance(d, u, alpha, n, d,
                                         degree_sets=True)))
    return out


def _factor_degrees(coeffs):
    """Degrees of the integer factors the oracle finds, with their
    cofactors' degrees: exactly the degrees a sound residual must keep."""
    total = len(coeffs) - 1
    found = set()
    for k in range(1, total // 2 + 1):
        if factor_of_degree(coeffs, k) is not None:
            found.update((k, total - k))
    return tuple(sorted(found))


@criterion("AC-11")
def _full_grid_certification():
    # The engine must decide every grid instance: certify it, or (only
    # where the oracle can check it, d*n <= 12) leave as residual exactly
    # the degrees of the factors that really exist.  L_2^(1/4)(x^4) =
    # (x^4-3)(x^4-15) is the one reducible instance; no instance is named
    # here, its exemption comes from the oracle.
    t0 = time.perf_counter()
    grid = _grid()
    invalid = [(fam, n) for fam, n, cert in grid
               if not verify_certificate(cert)]
    failures = []
    reducible = []
    for fam, n, cert in grid:
        d = fam[0]
        if d * n > 12:
            if cert.verdict != Verdict.IRREDUCIBLE_CERTIFIED:
                failures.append((fam, n, cert.verdict.value, cert.residual))
            continue
        params = GhlParams(d=d, u=fam[1], alpha=fam[2], n=n, delta=d)
        coeffs = list(build_substituted(
            params, SeedCoefficients.laguerre(n)).coeffs)
        real = _factor_degrees(coeffs)
        if cert.residual != real:
            failures.append((fam, n, cert.verdict.value, cert.residual,
                             f"oracle factor degrees {real}"))
        elif real:
            reducible.append((fam, n, real))
    dt = time.perf_counter() - t0
    ok = not invalid and not failures and dt < 300
    detail = (f"{len(grid)} instances, elapsed={dt:.1f}s (limit 300s); "
              f"uncertified only where the oracle finds factors: {reducible}")
    if invalid:
        detail += f"; invalid certificates={invalid}"
    if failures:
        detail += f"; undecided={failures}"
    return ok, detail


@criterion("AC-12")
def _certificate_partitions():
    certs = [cert for _, _, cert in _grid()]
    for u, alpha, n in ((-1, 2, 43), (0, 2, 42)):
        for delta in (1, 3):
            certs.append(certify_instance(3, u, alpha, n, delta,
                                          seed_kind="ones"))
    bad = sum(1 for cert in certs if not verify_certificate(cert))
    ok = bad == 0
    return ok, f"{len(certs)} certificates partition their degree ranges" \
        if ok else f"{bad} certificates failed the partition check"


def test_criterion_01_gpf_pair_sweep():
    assert _run("AC-01")


def test_criterion_02_gpf_triple_sweep():
    assert _run("AC-02")


def test_criterion_03_gpf_pair_tight_bound():
    assert _run("AC-03")


def test_criterion_04_gpf_step3_sweep():
    assert _run("AC-04")


def test_criterion_05_exact_p5_pairs():
    assert _run("AC-05")


def test_criterion_06_ap_prime_gaps():
    assert _run("AC-06")


def test_criterion_07_polygon_goldens():
    assert _run("AC-07")


def test_criterion_08_legendre_identity():
    assert _run("AC-08")


def test_criterion_09_break_valuations():
    assert _run("AC-09")


def test_criterion_10_dumas_soundness():
    assert _run("AC-10")


def test_criterion_11_grid_certification():
    assert _run("AC-11")


def test_criterion_12_certificate_partitions():
    assert _run("AC-12")


def main() -> int:
    failed = 0
    for tag, _ in CRITERIA:
        if not _run(tag):
            failed += 1
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
