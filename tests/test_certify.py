import itertools
import json
import math
from collections import Counter

import pytest

from ghlcert import certify, cli, criteria, polynomials, valuation
from ghlcert.certify import (
    CertificationInternalError,
    HypothesisViolation,
    Verdict,
    exception_family,
    full_certify,
    laguerre_np_certify,
    special_2adic_certify,
    special_3adic_check,
)
from ghlcert.cli import main
from ghlcert.criteria import (DegreeLedger, Method, PolygonCache,
                              delta_stage, witness_stage)
from ghlcert.newton import (admissible_degrees, degrees_of,
                            polygon_from_params, subset_sums)
from ghlcert.polynomials import (
    GhlParams,
    SeedCoefficients,
    build_substituted,
)
from ghlcert.valuation import TERM_TABLES, ord_factorial, term_table

from oracles import (accepted_vertex_patterns, certificate_dict,
                     certify_instance, distinct_prime_factors,
                     expected_breaks, factor_of_degree, irreducible_over_z,
                     subset_sums_per_copy, three_adic_check_loop,
                     verify_break_valuations, verify_certificate)


def test_exception_family_tags():
    cases = [
        ((3, 0, 1, 5), "d3:1+3n=2^a"),          # 16 = 2^4
        ((3, 0, 1, 2), None),                    # 7
        ((3, 0, 2, 16), "d3:2+3n=2^b*5^c"),      # 50
        ((3, 0, 2, 6), "d3:2+3n=2^b*5^c"),       # 20
        ((3, 0, 2, 7), None),                    # 23
        ((3, -1, 1, 22), None),                  # both-negative families close
        ((3, -1, 2, 43), None),
        ((4, -1, 3, 7), "d4:4n-1=3^a"),          # 27
        ((4, -1, 3, 5), None),                   # 19
        ((4, 0, 1, 2), "d4:1+4n=3^b*5^c"),       # 9
        ((4, 0, 1, 20), "d4:1+4n=3^b*5^c"),      # 81
        ((4, 0, 1, 3), None),                    # 13
        ((4, 0, 3, 85), "d4:3+4n=7^y"),          # 343
        ((4, 0, 3, 10), None),                   # 43
    ]
    for (d, u, alpha, n), tag in cases:
        assert exception_family(GhlParams(d=d, u=u, alpha=alpha, n=n)) == tag, (
            d, u, alpha, n)


def test_expected_breaks_known_values():
    bs = expected_breaks(GhlParams(d=3, u=0, alpha=2, n=42))
    assert (bs.eta, bs.s, bs.a) == (1, 3, 7)
    assert bs.breaks == (0, 32, 40, 42)
    bs = expected_breaks(GhlParams(d=3, u=-1, alpha=1, n=22))
    assert (bs.eta, bs.s, bs.a) == (0, 3, 6)
    assert bs.breaks == (0, 16, 20, 22)
    bs = expected_breaks(GhlParams(d=3, u=-1, alpha=2, n=43))
    assert (bs.eta, bs.s, bs.a) == (1, 3, 7)
    assert bs.breaks == (0, 32, 40, 43)


def test_expected_breaks_prefix_structure():
    bs = expected_breaks(GhlParams(d=3, u=0, alpha=1, n=85))   # 256 = 2^8
    assert (bs.eta, bs.s) == (0, 4)
    for i in range(1, bs.s):
        assert bs.breaks[i] == 2 ** bs.eta * sum(
            4 ** (bs.s - t) for t in range(1, i + 1))
    assert bs.breaks[-1] == 85


def test_expected_breaks_rejects_non_family():
    # top factor 2 = 2^1 (q = -1/3, n = 1) gives s = 0: only the breaks
    # (0, n), and the 2-adic handler declines with a note.  Outside its
    # family the handler never runs, which
    # test_stages_yield_each_handler_only_in_its_family pins
    bs = expected_breaks(GhlParams(d=3, u=-1, alpha=2, n=1))
    assert (bs.s, bs.breaks) == (0, (0, 1))
    cert = certify_instance(3, -1, 2, 1, 3)
    assert cert.notes == ("2-adic handler: top factor 2 too small (s=0)",)


@pytest.mark.parametrize("u,alpha,eta", [(-1, 1, 0), (-1, 2, 1),
                                         (0, 1, 0), (0, 2, 1)])
def test_break_valuations_all_shapes(u, alpha, eta):
    for s in range(2, 6):
        n = -u + 2 ** eta * (4 ** s - 1) // 3
        bs = expected_breaks(GhlParams(d=3, u=u, alpha=alpha, n=n))
        assert (bs.eta, bs.s) == (eta, s)
        assert verify_break_valuations(bs)


@pytest.mark.parametrize("u,alpha", [(-1, 1), (-1, 2), (0, 1), (0, 2)])
def test_two_adic_polygon_vertices_follow_the_closed_form(u, alpha):
    # the paper's breaks, checked here and not on every certificate: the
    # ones carrier's p = 2 polygon of G(x^3) has the vertices of one of the
    # patterns the closed form accepts, for s = 1..9 (n up to 174,763)
    eta = int(alpha != 1)
    for s in range(1, 10):
        n = -u + 2 ** eta * (4 ** s - 1) // 3
        params = GhlParams(d=3, u=u, alpha=alpha, n=n, delta=3)
        bs = expected_breaks(params)
        assert (bs.eta, bs.s) == (eta, s)
        poly = polygon_from_params(2, params, SeedCoefficients.ones(n))
        assert poly.vertex_xs() in accepted_vertex_patterns(bs, 3), s


def test_break_valuation_unit_correction():
    # the uniform closed form needs the +1 only in the (u, eta) = (-1, 1)
    # family: binary digit sum of n-1 is s there, not s-1
    assert ord_factorial(2, 42) == 39     # n = 43: 43 - 3 - 1 + 1 - 2 + 1
    assert ord_factorial(2, 41) == 38     # n = 42: 42 - 3 + 0 + 1 - 2
    assert ord_factorial(2, 21) == 18
    assert ord_factorial(2, 4) == 3


def run_alone(handler, cache):
    """Run handler(cache, ledger) on a fresh ledger, which must return no
    note; the ledger's records."""
    ledger = DegreeLedger(cache.params.delta * cache.params.n)
    assert handler(cache, ledger) is None
    return ledger.records


def declined(handler, cache):
    """The note handler(cache, ledger) returns on a fresh ledger, which it
    must leave without a record."""
    ledger = DegreeLedger(cache.params.delta * cache.params.n)
    note = handler(cache, ledger)
    assert ledger.records == []
    return note


def test_special_2adic_record():
    params = GhlParams(d=3, u=-1, alpha=2, n=43, delta=3)
    [rec] = run_alone(special_2adic_certify,
                      PolygonCache(params, SeedCoefficients.laguerre(43)))
    assert rec.method == Method.SPECIAL_2ADIC
    assert sorted(rec.degrees) == [1, 2, 3, 126, 127, 128]
    assert rec.evidence["vertices"] == [0, 96, 120, 129]
    assert rec.evidence["margins"] == {"1": 0, "2": 0, "3": 1}
    assert (rec.evidence["min_slope"],
            rec.evidence["max_slope"]) == ("11/32", "4/9")
    [flat] = run_alone(
        special_2adic_certify,
        PolygonCache(GhlParams(d=3, u=-1, alpha=2, n=43, delta=1),
                     SeedCoefficients.laguerre(43)))
    assert sorted(flat.degrees) == [1, 42]


def test_special_2adic_rejections():
    # in its family the handler declines with a note; with an even seed
    # endpoint _stages does not yield it (its ones-carrier margins would
    # not hold for the seed: test_stages_yield_each_handler_only_in_its_family)
    assert declined(special_2adic_certify, PolygonCache(      # top 2^2
        GhlParams(d=3, u=-1, alpha=1, n=2, delta=1),
        SeedCoefficients.laguerre(2))) == (
            "2-adic polygon excluded no low degree")
    assert declined(special_2adic_certify, PolygonCache(      # top 2
        GhlParams(d=3, u=-1, alpha=2, n=1, delta=3),
        SeedCoefficients.laguerre(1))) == "top factor 2 too small (s=0)"


def test_special_3adic_check():
    assert special_3adic_check(GhlParams(d=4, u=-1, alpha=1, n=3))
    assert special_3adic_check(GhlParams(d=4, u=0, alpha=3, n=3))
    # the bound is uniform in the block count, small caps still pass
    assert special_3adic_check(GhlParams(d=4, u=-1, alpha=1, n=3))


def test_special_3adic_closed_form_matches_loop():
    # the inequality depends on the family only; n just has to put a
    # factor 3 in the top linear factor
    for u, alpha in ((-1, 1), (0, 3)):
        ns = [n for n in range(1, 30)
              if GhlParams(d=4, u=u, alpha=alpha, n=n).top_term % 3 == 0]
        for n in ns[:4]:
            params = GhlParams(d=4, u=u, alpha=alpha, n=n)
            assert special_3adic_check(params) == three_adic_check_loop(params)


def binomial_cache(d, u, alpha, n, delta):
    return PolygonCache(GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta),
                        SeedCoefficients.laguerre(n))


def test_laguerre_np_records():
    [rec] = run_alone(laguerre_np_certify, binomial_cache(3, 0, 1, 5, 3))
    assert rec.method == Method.LAGUERRE_NP
    assert rec.evidence["prime"] == 5
    assert sorted(rec.degrees) == list(range(1, 15))
    [rec] = run_alone(laguerre_np_certify, binomial_cache(3, 0, 2, 26, 3))
    assert rec.evidence["prime"] == 13
    assert len(rec.degrees) == 76
    assert 39 not in rec.degrees and 3 in rec.degrees
    [rec] = run_alone(laguerre_np_certify, binomial_cache(4, -1, 3, 7, 4))
    assert rec.evidence["prime"] == 7
    assert sorted(rec.degrees) == list(range(1, 28))


def test_laguerre_np_rejections():
    # in its family the handler declines with a note; the last two at a
    # flat prime (p = 3 for q = 2/3, n = 6; p = 2 for q = 1/4, n = 20)
    assert declined(laguerre_np_certify, binomial_cache(3, 0, 2, 16, 3)) == (
        "no prime divisor of n=16 avoids the top factor 50 and the low "
        "factors 10")
    assert declined(laguerre_np_certify, binomial_cache(3, 0, 2, 6, 3)) == (
        "degree 3 stays lattice-admissible at p=3 (vertices [0, 6])")
    assert declined(laguerre_np_certify, binomial_cache(4, 0, 1, 20, 4)) == (
        "degree 4 stays lattice-admissible at p=2 (vertices [0, 20])")


def test_laguerre_np_reads_the_prime_divisors_of_n_from_the_cache(
        monkeypatch):
    # the run's candidate primes already hold every prime factor of n, so
    # the handler factorises nothing; its note or record stays as before
    calls = []
    original = valuation.factorize

    def counted(m):
        calls.append(m)
        return original(m)

    caches = [binomial_cache(3, 0, 2, n, 3) for n in (16, 26, 66)]
    monkeypatch.setattr(valuation, "factorize", counted)
    assert declined(laguerre_np_certify, caches[0]) == (
        "no prime divisor of n=16 avoids the top factor 50 and the low "
        "factors 10")
    for cache, p, admissible in ((caches[1], 13, [39]),
                                 (caches[2], 11, [33, 66, 99, 132, 165])):
        [rec] = run_alone(laguerre_np_certify, cache)
        m = cache.params.delta * cache.params.n
        assert rec.prime == p and rec.evidence == {
            "prime": p, "vertices": [0, cache.params.n],
            "min_slope": f"1/{admissible[0]}",
            "max_slope": f"1/{admissible[0]}"}
        assert rec.degrees == tuple(k for k in range(1, m)
                                    if k not in admissible)
    assert calls == []
    # with delta = 1 no handler runs: the run's cache factorises the top
    # factor 256 and n = 85 once each, and the witness and delta stages
    # write every record
    cert = full_certify(GhlParams(d=3, u=0, alpha=1, n=85, delta=1),
                        SeedCoefficients.laguerre(85))
    assert calls == [256, 85]
    assert {rec.method for rec in cert.records} == {
        Method.WITNESS_PRIME, Method.DELTA_DIVISIBILITY}


def own_prime_instances():
    """Every instance a certify command gives the own-prime handler: d in
    {3, 4}, u in {-1, 0}, alpha coprime to d, an exceptional family,
    delta = d and d*n up to cli.MAX_DEGREE (with the laguerre seed)."""
    for d in (3, 4):
        for u, alpha in itertools.product((-1, 0), range(1, d)):
            if math.gcd(alpha, d) != 1:
                continue
            for n in range(1, cli.MAX_DEGREE // d + 1):
                params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=d)
                if exception_family(params) is not None:
                    yield params


def test_own_prime_handler_on_every_instance_a_command_reaches():
    # the paper's own prime is the largest prime p | n dividing neither the
    # top factor nor term(-1) * term(0) * term(1).  At it, the vertices of
    # G(x^d)'s polygon sit at multiples of d with the paper's spacing (the
    # handler does not check it), and the handler's record is every degree
    # outside the admissible set, or its note says that degree d is
    # admissible; 6 instances have no such p
    outcomes = Counter()
    for params in own_prime_instances():
        d, n = params.d, params.n
        seed = SeedCoefficients.laguerre(n)
        low = math.prod(params.alpha + (params.u + i) * d for i in (-1, 0, 1))
        primes = [p for p in distinct_prime_factors(n)
                  if params.top_term % p and low % p]
        ledger = DegreeLedger(d * n)
        note = laguerre_np_certify(PolygonCache(params, seed), ledger)
        if not primes:
            assert note.startswith(f"no prime divisor of n={n} "), params
            outcomes["no prime"] += 1
            continue
        p = max(primes)
        poly = polygon_from_params(p, params, seed)
        assert all(x % d == 0 for x in poly.vertex_xs()), (params, p)
        xs = [x // d for x in poly.vertex_xs()]
        assert xs[1] >= 2 and xs[-2] <= n - 2 and all(
            b - a >= 2 for a, b in zip(xs[1:-2], xs[2:-1])), (params, p, xs)
        admissible = admissible_degrees(poly)
        if admissible >> d & 1:
            assert note == (f"degree {d} stays lattice-admissible at p={p} "
                            f"(vertices {xs})"), params
            outcomes["admissible"] += 1
            continue
        assert note is None, (params, note)
        [rec] = ledger.records
        assert (rec.method, rec.prime) == (Method.LAGUERRE_NP, p), params
        assert rec.degrees == tuple(
            K for K in range(1, d * n) if not admissible >> K & 1), params
        outcomes["record"] += 1
    assert outcomes == {"record": 45, "no prime": 6, "admissible": 4}


def certified(d, u, alpha, n):
    return certify_instance(d, u, alpha, n, d)


def test_full_certify_known_greens():
    for d, u, alpha, n in [(3, 0, 2, 6), (4, 0, 1, 20), (3, 0, 2, 66),
                           (4, -1, 1, 3), (3, 0, 1, 5), (3, -1, 2, 43)]:
        cert = certified(d, u, alpha, n)
        assert cert.verdict == Verdict.IRREDUCIBLE_CERTIFIED, (d, u, alpha, n)
        assert cert.residual == ()
        assert verify_certificate(cert)


def test_full_certify_methods_compose():
    cert = certified(3, 0, 1, 5)
    methods = {rec.method for rec in cert.records}
    assert Method.SPECIAL_2ADIC in methods
    assert Method.LAGUERRE_NP in methods


def test_full_certify_witness_only_instance():
    # q = -3/4, n = 20: witness primes alone close every degree, in one
    # record holding a prime for each k = 1..10
    cert = full_certify(GhlParams(d=4, u=-1, alpha=3, n=20, delta=4),
                        SeedCoefficients.laguerre(20))
    assert cert.residual == ()
    (rec,) = cert.records
    assert rec.method is Method.WITNESS_PRIME and rec.prime is None
    assert rec.evidence.keys() == {"delta", "primes"}
    assert rec.evidence["delta"] == 4
    primes = rec.evidence["primes"]
    assert len(primes) == 10 and None not in primes
    assert rec.degrees == tuple(range(1, 80))


def test_witness_stage_claims_once_per_certificate(capsys, monkeypatch):
    # the witness pass of each certificate is one ledger claim, whatever
    # the number of k it finds a prime for
    calls = Counter()
    claim = criteria.DegreeLedger.claim

    def counted(self, method, *args):
        calls[method] += 1
        return claim(self, method, *args)

    monkeypatch.setattr(criteria.DegreeLedger, "claim", counted)
    assert main(["certify", "--q", "1/3", "--batch-n", "2:100",
                 "--delta", "3"]) in (0, 1)
    assert len(json.loads(capsys.readouterr().out)) == 99
    assert calls[Method.WITNESS_PRIME] == 99


_STAGE_FUNCTIONS = ("witness_stage", "special_2adic_certify",
                    "special_3adic_check", "laguerre_np_certify",
                    "delta_stage", "window_stage", "margin_stage",
                    "degree_set_stage")


def test_full_certify_calls_stages_through_module_names(monkeypatch):
    # the pipeline must reach every stage function through its module-level
    # name at call time, as a tracer that rebinds those names relies on;
    # each applicable stage runs exactly once, the others (the window and
    # margin stages among them) not at all
    calls = Counter()
    for name in _STAGE_FUNCTIONS:
        def counted(*args, _name=name,
                    _fn=getattr(certify, name, getattr(criteria, name, None)),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (certify, criteria):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    generic = {"witness_stage": 1, "delta_stage": 1}
    cases = [
        (GhlParams(d=3, u=0, alpha=1, n=5, delta=3), SeedCoefficients.ones(5), False,
         {"special_2adic_certify": 1}),
        (GhlParams(d=4, u=0, alpha=3, n=3, delta=4), SeedCoefficients.ones(3), False,
         {"special_3adic_check": 1}),
        (GhlParams(d=3, u=0, alpha=2, n=16, delta=3), SeedCoefficients.laguerre(16), True,
         {"laguerre_np_certify": 1, "degree_set_stage": 1}),
    ]
    for params, seed, degree_sets, special in cases:
        calls.clear()
        full_certify(params, seed, degree_sets=degree_sets)
        assert dict(calls) == {**generic, **special}, params


def test_stages_yield_each_handler_only_in_its_family():
    # the special handlers _stages yields, one instance per row: the 2-adic
    # one for d = 3 with a top factor 2^a and odd seed endpoints, the
    # 3-adic one for d = 4 in its two families with 3 dividing the top
    # factor, the own-prime one for a binomial seed in an exceptional
    # family; none for d = 2 or 5 (u outside {-1, 0} exits 2 before any
    # stage: test_cli pins that), and none at delta = 1, where only the
    # witness and delta stages run, and the degree-set stage when it is on
    cases = [
        ((2, 0, 1, 13, "laguerre"), []),                    # top 27
        ((5, 0, 1, 3, "laguerre"), []),                     # top 16 = 2^4
        ((5, -1, 4, 4, "ones"), []),                        # top 19
        ((3, 0, 1, 2, "laguerre"), []),                     # top 7
        ((3, -1, 2, 43, "laguerre"), ["2-adic"]),           # top 2^7
        ((3, 0, 1, 5, "ones"), ["2-adic"]),                 # top 2^4
        ((3, 0, 1, 5, "laguerre"), ["2-adic", "own-prime"]),
        ((3, 0, 2, 2, (3, 4, -5)), ["2-adic"]),             # top 2^3
        ((3, 0, 2, 2, (4, 4, -2)), []),                     # even a_0
        ((3, 0, 1, 5, (1, 1, 1, 1, 1, 6)), []),             # even a_n
        ((4, -1, 1, 3, "laguerre"), ["3-adic"]),            # top 9
        ((4, 0, 3, 3, "ones"), ["3-adic"]),                 # top 15
        ((4, 0, 3, 3, (6, 1, 1, 2)), ["3-adic"]),           # 3 | a_0 too
        ((4, -1, 1, 4, "laguerre"), []),                    # top 13
        ((4, -1, 3, 7, "laguerre"), ["own-prime"]),         # top 27
        ((4, -1, 3, 7, "ones"), []),
        ((3, 0, 2, 6, "laguerre"), ["own-prime"]),          # top 20
        ((3, 0, 2, 6, "ones"), []),
        ((4, 0, 1, 20, "laguerre"), ["own-prime"]),         # top 81
        ((4, 0, 1, 20, "ones"), []),
    ]
    for (d, u, alpha, n, seed), expect in cases:
        seed = (SeedCoefficients.of_kind(n, seed) if type(seed) is str
                else SeedCoefficients(seed))
        params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=d)
        names = [name for name, _ in certify._stages(
            PolygonCache(params, seed), False)]
        assert [name.removesuffix(" handler") for name in names
                if name.endswith(" handler")] == expect, (params, seed)
        cache = PolygonCache(params._replace(delta=1), seed)
        for degree_sets, tail in ((False, []), (True, ["degree-set"])):
            assert [name for name, _ in certify._stages(
                cache, degree_sets)] == ["witness", "delta", *tail], (
                    params, seed)


def test_handlers_exclude_nothing_new_at_delta_1():
    # at delta = 1 the 2-adic and 3-adic handlers' readings are margins
    # and windows, which the delta stage covers at the same prime (the
    # Dumas lemma of test_criteria): run between the witness and delta
    # stages, a handler leaves the same degrees open as those two alone,
    # and so it does before the delta stage alone
    handlers = {3: special_2adic_certify, 4: certify._three_adic_stage}
    claimed = 0
    for d, u, alpha in ((3, -1, 1), (3, -1, 2), (3, 0, 1), (3, 0, 2),
                        (4, -1, 1), (4, 0, 3)):
        for n in range(1, 101):
            params = GhlParams(d=d, u=u, alpha=alpha, n=n)
            if d == 3 and not certify._is_power_of(params.top_term, 2):
                continue
            if d == 4 and params.top_term % 3:
                continue
            for kind in ("ones", "laguerre"):
                seed = SeedCoefficients.of_kind(n, kind)
                # 3 | top divides the constant coefficient: no carrier
                # the 3-adic handler reads ends at height 0
                assert d == 3 or all(
                    poly.ordinates[poly.degree] >= 1 for _, poly in
                    PolygonCache(params, seed).carriers(3)), (params, kind)
                for first in ((witness_stage,), ()):
                    ledgers = []
                    for stages in (first + (handlers[d], delta_stage),
                                   first + (delta_stage,)):
                        cache = PolygonCache(params, seed)
                        ledger = DegreeLedger(n)
                        for stage in stages:
                            stage(cache, ledger)
                        ledgers.append(ledger)
                    assert ledgers[0].remaining == ledgers[1].remaining, (
                        params, kind, first)
                    claimed += any(rec.method.value.startswith("SPECIAL")
                                   for rec in ledgers[0].records)
    assert claimed == 180               # the handlers are not vacuous here


def test_stages_return_the_certificate_notes():
    # every stage _stages yields returns None or a note and raises
    # nothing; run in order on one cache and ledger, the notes headed by
    # the stage names are the certificate's notes
    for d in (3, 4):
        for alpha in range(1, d):
            if math.gcd(alpha, d) != 1:
                continue
            for u, n, delta, kind in itertools.product(
                    (-1, 0), range(1, 201), (1, d), ("laguerre", "ones")):
                params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
                seed = SeedCoefficients.of_kind(n, kind)
                cache = PolygonCache(params, seed)
                ledger = DegreeLedger(delta * n)
                notes = []
                for name, stage in certify._stages(cache, False):
                    note = stage(cache, ledger)
                    assert note is None or type(note) is str, (params, name)
                    if note is not None:
                        notes.append(f"{name}: {note}")
                assert tuple(notes) == full_certify(params, seed).notes, \
                    (params, kind)


def test_full_certify_builds_each_polygon_once(monkeypatch):
    # the 2-adic handler, the own-prime handler and the polygon stages read
    # one PolygonCache, so q = -1/3, n = 43 (top factor 2^7) builds each
    # p = 2 polygon once and its p = 5 polygon once; the stages build none
    # at a prime dividing neither the leading nor the constant coefficient
    # (its hull is one flat edge), and neither does the own-prime handler,
    # whose prime for q = 2/3, n = 6 is the flat p = 3
    builds = Counter()

    def counted(p, params, seed, _fn=criteria.polygon_from_params):
        builds[p, params, seed.values] += 1
        return _fn(p, params, seed)

    def flat_primes(params, seed):
        poly = build_substituted(params, seed)
        return {p for p, _, _ in builds
                if poly.leading * poly.constant % p != 0}
    monkeypatch.setattr(criteria, "polygon_from_params", counted)
    params = GhlParams(d=3, u=-1, alpha=2, n=43, delta=3)
    cert = full_certify(params, SeedCoefficients.laguerre(43))
    assert Method.SPECIAL_2ADIC in {rec.method for rec in cert.records}
    assert {key[0] for key in builds} == {2, 5}
    assert max(builds.values()) == 1, builds.most_common(3)
    assert flat_primes(params, SeedCoefficients.laguerre(43)) == set()
    builds.clear()
    params = GhlParams(d=3, u=0, alpha=2, n=6, delta=3)
    cert = full_certify(params, SeedCoefficients.laguerre(6))
    assert any(note.startswith("own-prime handler: degree 3 stays")
               for note in cert.notes), cert.notes
    assert max(builds.values()) == 1, builds.most_common(3)
    assert flat_primes(params, SeedCoefficients.laguerre(6)) == set()


def test_full_certify_residual_regressions():
    # the four known gaps in the machinery on the usual grid; kept as
    # regression pins so silent behavior changes surface here
    expect = {
        (3, 0, 2, 2): (Verdict.EXCLUSIONS_ONLY, (2, 4)),
        (3, 0, 2, 16): (Verdict.EXCEPTIONAL_FAMILY, (3, 45)),
        (3, -1, 1, 2): (Verdict.EXCLUSIONS_ONLY, (3,)),
        (4, 0, 1, 2): (Verdict.EXCEPTIONAL_FAMILY, (4,)),
    }
    for (d, u, alpha, n), (verdict, residual) in expect.items():
        cert = certified(d, u, alpha, n)
        assert cert.verdict == verdict, (d, u, alpha, n)
        assert cert.residual == residual, (d, u, alpha, n)
        assert verify_certificate(cert)
    cert = certified(3, 0, 2, 16)
    assert any("own-prime handler" in note for note in cert.notes)


def test_degree_sets_close_the_irreducible_residuals():
    # the modular degree-set stage closes the three irreducible residuals
    # pinned above, each at one prime; the records' own factor counts
    # re-derive exactly the degrees they claim
    closing = {(3, -1, 1, 2): 5, (3, 0, 2, 2): 7, (3, 0, 2, 16): 31}
    for (d, u, alpha, n), prime in closing.items():
        cert = certify_instance(d, u, alpha, n, d, degree_sets=True)
        assert cert.verdict == Verdict.IRREDUCIBLE_CERTIFIED, (d, u, alpha, n)
        assert cert.residual == ()
        assert verify_certificate(cert)
        records = [rec for rec in cert.records
                   if rec.method == Method.DEGREE_SET]
        assert [rec.evidence["prime"] for rec in records] == [prime]
        earlier: set[int] = set()
        for rec in cert.records:
            if rec.method == Method.DEGREE_SET:
                counts = {int(i): c
                          for i, c in rec.evidence["factor_degrees"].items()}
                assert sum(i * c for i, c in counts.items()) == d * n
                impossible = set(range(1, d * n)) - set(
                    degrees_of(subset_sums(counts.items())))
                assert set(rec.degrees) == impossible - earlier
            earlier.update(rec.degrees)
        blob = certificate_dict(cert)
        json.dumps(blob, sort_keys=True)
        assert any(entry["method"] == "DEGREE_SET" and entry["prime"] == prime
                   for entry in blob["records"])


def test_degree_sets_keep_the_reducible_residual():
    # (x^4-3)(x^4-15): degree 4 is real, so no prime may exclude it
    cert = certify_instance(4, 0, 1, 2, 4, degree_sets=True)
    assert cert.verdict == Verdict.EXCEPTIONAL_FAMILY
    assert cert.residual == (4,)
    assert verify_certificate(cert)


def test_degree_sets_off_by_default():
    # the default pipeline gives the certificates pinned in
    # test_full_certify_residual_regressions, record for record
    for d, u, alpha, n in [(3, -1, 1, 2), (3, 0, 2, 2), (3, 0, 2, 16),
                           (4, 0, 1, 2), (3, 0, 1, 5)]:
        default = certify_instance(d, u, alpha, n, d)
        assert default == certify_instance(d, u, alpha, n, d,
                                           degree_sets=False)
        assert all(rec.method != Method.DEGREE_SET for rec in default.records)
    # on an instance the other stages already close, the stage adds nothing
    green = certify_instance(3, 0, 1, 5, 3)
    assert certify_instance(3, 0, 1, 5, 3, degree_sets=True) == green


def test_residual_instances_match_reality():
    # (1/4, n=2) really is reducible: the residual degree 4 is realized
    poly = build_substituted(GhlParams(d=4, u=0, alpha=1, n=2, delta=4),
                             SeedCoefficients.laguerre(2))
    factor = factor_of_degree(list(poly.coeffs), 4)
    assert factor is not None
    # while the other residual instances are irreducible, just uncertified
    poly = build_substituted(GhlParams(d=3, u=-1, alpha=1, n=2, delta=3),
                             SeedCoefficients.laguerre(2))
    assert poly.coeffs == (4, 0, 0, -8, 0, 0, 1)
    assert irreducible_over_z(list(poly.coeffs))


def test_hypothesis_violations():
    # u outside {-1, 0} and a seed of the wrong length are refused; seed
    # endpoints the d = 3, 4 checks once refused (a prime above 3, even
    # ones at a top factor 2^a, 3 | a_0 at a top factor 3^a) are accepted,
    # at both deltas, and certified soundly
    with pytest.raises(HypothesisViolation):
        full_certify(GhlParams(d=3, u=1, alpha=1, n=4),
                     SeedCoefficients.ones(4))
    with pytest.raises(HypothesisViolation):
        full_certify(GhlParams(d=3, u=0, alpha=1, n=4),
                     SeedCoefficients.ones(5))
    sympy = pytest.importorskip("sympy")
    for (d, u, alpha, n), values in (((3, 0, 1, 4), (7, 1, 1, 1, 1)),
                                     ((3, 0, 1, 5), (2, 1, 1, 1, 1, 2)),
                                     ((4, 0, 1, 20), (3,) + (1,) * 20)):
        seed = SeedCoefficients(values)
        for delta in (1, d):
            cert = full_certify(
                GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta), seed)
            assert verify_certificate(cert)
            assert_sound(sympy, cert, seed)


def test_classify_seed():
    # a seed built from values gets the kind its values have
    for named, kind in ((SeedCoefficients.ones(4), "ones"),
                        (SeedCoefficients.laguerre(4), "laguerre")):
        assert SeedCoefficients(named.values).kind == kind
    assert SeedCoefficients((2, 1, 1)).kind == "custom"


def _kind_by_comparison(seed):
    """The seed's kind found by building both reference seeds of its n."""
    n = len(seed.values) - 1
    for kind in ("ones", "laguerre"):
        if seed.values == SeedCoefficients.of_kind(n, kind).values:
            return kind
    return "custom"


def test_classify_seed_matches_the_reference_seeds(rng):
    # a seed built from values reads its kind off them; near misses change one
    # entry of a reference seed by one or flip its sign, in both halves
    for n in range(1, 301):
        seeds = [tuple(rng.choice((-3, -1, 1, 2)) for _ in range(n + 1))]
        for kind in ("ones", "laguerre"):
            ref = SeedCoefficients.of_kind(n, kind).values
            seeds += [ref, tuple(-v for v in ref)]
            for j in {0, 1, n // 2, min(n // 2 + 1, n), n - 1, n,
                      rng.randint(0, n)}:
                for v in (ref[j] + 1, ref[j] - 1, -ref[j]):
                    seeds.append(ref[:j] + (v,) + ref[j + 1:])
        for values in seeds:
            if values[0] and values[-1]:
                seed = SeedCoefficients(values)
                assert seed.kind == _kind_by_comparison(seed), \
                    values


def test_named_seeds_state_their_kind_without_classifying(monkeypatch):
    # ones, laguerre and of_kind give the kind themselves; only a seed
    # built from values alone is classified
    def refuse(values):
        raise AssertionError("a named seed was classified")

    monkeypatch.setattr(polynomials, "_seed_kind", refuse)
    for n in range(1, 51):
        for kind in ("ones", "laguerre"):
            assert getattr(SeedCoefficients, kind)(n).kind == kind
            assert SeedCoefficients.of_kind(n, kind).kind == kind
    cert = certify_instance(3, 0, 1, 5, 3)
    assert cert.seed.kind == "laguerre" and verify_certificate(cert)
    with pytest.raises(AssertionError):
        SeedCoefficients((1, 1))


def test_certificate_json_shape():
    cert = certified(4, 0, 1, 2)
    blob = certificate_dict(cert)
    json.dumps(blob)      # must be serializable as-is
    assert blob["schema_version"] == 1
    assert blob["verdict"] == "EXCEPTIONAL_FAMILY"
    assert blob["residual"] == [4]
    assert blob["params"]["q"] == "1/4"
    assert blob["params"]["total_degree"] == 8
    assert blob["seed"] == {"kind": "laguerre", "values": [1, -2, 1]}
    ranges = [rec["k_range"] for rec in blob["records"]]
    assert ranges == [[1, 3], [5, 7]]
    assert all(rec["method"] for rec in blob["records"])


def test_verify_certificate_detects_tampering():
    cert = certified(3, 0, 1, 5)
    assert verify_certificate(cert)
    broken = cert._replace(records=cert.records[1:])
    assert not verify_certificate(broken)
    red = certified(4, 0, 1, 2)
    gamed = red._replace(residual=())
    assert not verify_certificate(gamed)


def test_certificates_do_not_depend_on_table_order():
    # the families' term tables persist across instances: every order of
    # a batch must give each n the certificate a cold table gives it
    families = [(3, 0, 1), (3, -1, 2), (4, 0, 3), (4, -1, 1)]
    ns = range(2, 31)
    fresh = {}
    for d, u, alpha in families:
        for n in ns:
            term_table.cache_clear()
            fresh[d, u, alpha, n] = certify_instance(d, u, alpha, n, d)
    orders = {"ascending": [(f, n) for f in families for n in ns],
              "descending": [(f, n) for f in families for n in reversed(ns)],
              "interleaved": [(f, n) for n in ns for f in families]}
    for name, order in orders.items():
        term_table.cache_clear()
        certs = [certify_instance(*f, n, f[0]) for f, n in order]
        assert certs == [fresh[(*f, n)] for f, n in order], name


def test_large_d_factorises_only_the_top_term_and_n(monkeypatch):
    # the witness primes of terms near 3*10^23 come from striking residue
    # classes; factorising each term took rho about 13 s
    calls, original = [], valuation.factorize

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(valuation, "factorize", counted)
    term_table.cache_clear()
    params = GhlParams(d=3 * 10 ** 20, u=0, alpha=1, n=1000, delta=1)
    cert = full_certify(params, SeedCoefficients.ones(1000))
    assert verify_certificate(cert)
    assert sorted(calls) == sorted([params.top_term, 1000])


def test_term_tables_stay_bounded():
    term_table.cache_clear()
    families = [(d, u, alpha) for d in (3, 4, 5) for u in (-1, 0)
                for alpha in range(1, d) if math.gcd(alpha, d) == 1]
    assert len(families) > TERM_TABLES
    for d, u, alpha in families:
        certify_instance(d, u, alpha, 6, d)
    assert term_table.cache_info().currsize == TERM_TABLES


def assert_sound(sympy, cert, seed):
    """Every degree a record of cert excludes is no sum of the degrees of
    a sub-multiset of the factors sympy finds; whether it found two
    factors or more (counted with multiplicity)."""
    coeffs = build_substituted(cert.params, seed).coeffs
    _, factors = sympy.Poly(coeffs[::-1], sympy.Symbol("x")).factor_list()
    sums = subset_sums_per_copy((f.degree(), mult) for f, mult in factors)
    for rec in cert.records:
        assert sums.isdisjoint(rec.degrees), (cert.params, seed, rec)
    return len(factors) > 1 or factors[0][1] > 1


def _old_checks_refuse(params, endpoints):
    """The seed endpoint products the d = 3, 4 hypothesis checks refused:
    a prime factor above 3, an even one at d = 3 with a top factor 2^a,
    one divisible by 3 at d = 4 with a top factor 3^a."""
    top = params.top_term
    return (certify._cofactor(endpoints, (2, 3)) != 1
            or (params.d == 3 and certify._is_power_of(top, 2)
                and endpoints % 2 == 0)
            or (params.d == 4 and certify._is_power_of(top, 3)
                and endpoints % 3 == 0))


def _refused_seed(rng, params):
    """Random seed values for params, endpoints from 2, 3, 5 and 7 and
    refused by the old checks, the others in [-9, 9]."""
    while True:
        a0, an = (rng.choice((-1, 1)) * rng.choice(
            (1, 2, 3, 4, 5, 6, 7, 10, 14, 15, 21)) for _ in range(2))
        if _old_checks_refuse(params, a0 * an):
            return (a0, *(rng.randint(-9, 9) for _ in range(params.n - 1)),
                    an)


def test_exclusions_are_sound_against_a_factoriser(rng):
    # every degree a record excludes must be no sum of the degrees of a
    # sub-multiset of the factors sympy finds, with degree sets on, over
    # d = 2..6, every alpha coprime to d, u in {-1, 0}, delta in {1, d}
    # with delta*n <= 12 and both named seeds; and at d = 3, 4 over two
    # custom seeds per instance whose endpoints the old d = 3, 4 checks
    # refused, with 2, 3, 5 and 7 in them, and q = 2/3, n = 2 with seed
    # (4, 4, -2): G(x^3) = -2(x^3 - 20)(x^3 + 4), where the 2-adic
    # handler's ones-carrier margin would exclude degree 3
    sympy = pytest.importorskip("sympy")
    certificates = reducible = 0
    custom = [(GhlParams(d=3, u=0, alpha=2, n=2, delta=3), (4, 4, -2))]
    for d in range(2, 7):
        for alpha, u, delta in itertools.product(range(1, d), (-1, 0),
                                                 sorted({1, d})):
            if math.gcd(alpha, d) != 1:
                continue
            for n in range(1, 12 // delta + 1):
                params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=delta)
                for kind in ("ones", "laguerre"):
                    seed = SeedCoefficients.of_kind(n, kind)
                    reducible += assert_sound(
                        sympy, full_certify(params, seed, degree_sets=True),
                        seed)
                    certificates += 1
                if d in (3, 4):
                    custom += ((params, _refused_seed(rng, params))
                               for _ in range(2))
    for params, values in custom:
        seed = SeedCoefficients(values)
        reducible += assert_sound(
            sympy, full_certify(params, seed, degree_sets=True), seed)
        certificates += 1
    assert (certificates, reducible) == (905, 15)


def test_exclusions_are_sound_for_small_degrees():
    # no certified instance may exclude the degree of a genuine factor
    grid = [(3, u, alpha, n) for u in (-1, 0) for alpha in (1, 2)
            for n in (2, 3)]
    grid += [(4, u, alpha, n) for u, alpha in ((-1, 1), (-1, 3), (0, 1), (0, 3))
             for n in (2,)]
    for d, u, alpha, n in grid:
        cert = certified(d, u, alpha, n)
        params = GhlParams(d=d, u=u, alpha=alpha, n=n, delta=d)
        coeffs = list(build_substituted(params, SeedCoefficients.laguerre(n)).coeffs)
        total = d * n
        for k in range(1, total // 2 + 1):
            if factor_of_degree(coeffs, k) is not None:
                assert k in cert.residual, (d, u, alpha, n, k)
        if cert.verdict == Verdict.IRREDUCIBLE_CERTIFIED:
            assert irreducible_over_z(coeffs), (d, u, alpha, n)
