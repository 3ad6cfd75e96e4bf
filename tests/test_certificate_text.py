"""The certificate writer against its oracle: the pieces of
Certificate.json_pieces(pad), joined, must equal json.dumps(
certificate_dict(cert), sort_keys=True, indent=2) with every newline
written as pad, for every record shape the stages produce, every seed
kind, notes, residuals and any indentation.  certificate_dict, in
tests/oracles.py, builds the layout as data and derives the witness
entries from runs, so it checks json_pieces' join rule rather than
copying it.  The writer's memory is pinned on W2."""

import contextlib
import io
import json
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, reject, seed, settings
from hypothesis import strategies as st

from ghlcert.certify import (Certificate, CertificationInternalError,
                             HypothesisViolation, Verdict, full_certify)
from ghlcert.cli import main
from ghlcert.criteria import (DegreeLedger, Method, PolygonCache,
                              delta_stage, margin_stage, window_stage)
from ghlcert.jsontext import unlimited_int_digits
from ghlcert.newton import degrees_of
from ghlcert.polynomials import GhlParams, SeedCoefficients

from oracles import (certificate_dict, certify_instance, verify_certificate,
                     witness_primes_per_k)

W1_FAMILIES = ("1/3", "-1/3", "2/3", "-2/3", "1/4", "-1/4", "3/4", "-3/4")


def assert_text_matches(cert, pads=("\n", "\n  ")):
    reference = json.dumps(certificate_dict(cert), sort_keys=True, indent=2)
    for pad in pads:
        pieces = cert.json_pieces(pad)
        # a few large pieces, not one per entry or per seed value
        assert len(pieces) <= 8, len(pieces)
        assert "".join(pieces) == reference.replace("\n", pad), pad


def stage_alone(stage, params, seed, notes=()):
    """A certificate of what one polygon stage claims on a fresh ledger:
    the window and margin stages claim nothing on the grids the full
    pipeline runs, because the stages before them leave them no degree."""
    ledger = DegreeLedger(params.delta * params.n)
    stage(PolygonCache(params, seed), ledger)
    return Certificate(params=params, seed=seed, records=tuple(ledger.records),
                       residual=degrees_of(ledger.remaining),
                       verdict=Verdict.EXCLUSIONS_ONLY, notes=tuple(notes))


def w1_certificates():
    for q in W1_FAMILIES:
        base = GhlParams.from_q(Fraction(q), 2, delta=1)
        yield from (certify_instance(base.d, base.u, base.alpha, n, base.d)
                    for n in range(2, 101))


def test_json_text_matches_stdlib_on_the_w1_grid():
    count = 0
    for cert in w1_certificates():
        assert_text_matches(cert)
        count += 1
    assert count == 792


def test_json_text_covers_every_method():
    params = GhlParams(d=3, u=0, alpha=1, n=2, delta=3)
    laguerre = SeedCoefficients.laguerre(2)
    certs = [
        certify_instance(3, 0, 1, 5, 3),        # witness, 2-adic, own prime
        certify_instance(4, -1, 1, 3, 4, "ones"),   # 3-adic handler
        certify_instance(3, -1, 1, 3, 3, "ones"),   # delta
        certify_instance(3, 0, 2, 2, 3, degree_sets=True),
        stage_alone(window_stage, params, laguerre),
        stage_alone(margin_stage, params, laguerre),
    ]
    seen = {rec.method for cert in certs for rec in cert.records}
    assert seen == set(Method)
    for cert in certs:
        assert_text_matches(cert)
        # to_json_dict, kept for the layer trace, reads the text back
        assert cert.to_json_dict() == json.loads(
            json.dumps(certificate_dict(cert)))


def test_json_text_on_seed_kinds_notes_residuals_and_split_runs():
    ones = certify_instance(3, -1, 1, 3, 3, "ones")
    custom = full_certify(GhlParams(d=4, u=0, alpha=3, n=5, delta=4),
                          SeedCoefficients((3, -7, 0, 11, 5, 2)))
    residual = certify_instance(4, 0, 1, 2, 4)      # (x^4-3)(x^4-15)
    noted = certify_instance(3, 0, 2, 16, 3)        # handler note, residual
    assert (ones.seed.kind, custom.seed.kind) == ("ones", "custom")
    assert residual.residual and noted.residual and noted.notes
    # a witness record covers a window and its mirror: two entries
    assert len(certificate_dict(custom)["records"]) > len(custom.records)
    for cert in (ones, custom, residual, noted):
        assert_text_matches(cert)


def test_json_text_edge_shapes():
    # odd evidence (%, escapes, non-str keys, floats) must come out as the
    # stdlib encoder writes it
    cert = certify_instance(3, 0, 1, 5, 3)
    witness, handler = cert.records[:2]
    assert (witness.method, handler.method) == (Method.WITNESS_PRIME,
                                                Method.SPECIAL_2ADIC)
    odd = handler._replace(
        evidence={"float": 0.5, "inf": float("inf"),
                  "tuple": (1, [2, "x"]), "int_keys": {3: "a", 1: [None, True]},
                  "text": "é\n\"\\", "empty": [], "none": {},
                  "percent": ["100%", "%d", "%s%%", "%(k)d"], "%d": "%"})
    shapes = [
        cert,
        cert._replace(records=(), residual=tuple(range(1, 15))),
        cert._replace(records=(witness, odd) + cert.records[2:],
                      notes=("a: line\nbreak", "b: € \U0001f600")),
    ]
    for shape in shapes:
        assert_text_matches(shape, pads=("\n", "\n  ", "\n" + " " * 7))


def test_writers_refuse_a_witness_record_its_windows_do_not_cover():
    # the witness stage claims first, on a fresh ledger, so the windows of
    # its primes and their mirrors cover its record's degrees exactly;
    # the writer and the oracle raise on a record whose degree count they
    # miss
    cert = certify_instance(3, 0, 1, 5, 3)
    witness = cert.records[0]
    degrees = witness.degrees
    trimmed = [witness._replace(degrees=kept) for kept in (
        tuple(K for K in degrees if K % 2), degrees[1:-1], (degrees[0],))]
    stray = [witness._replace(evidence={"delta": 3, "primes": [None] * 2}),
             witness._replace(degrees=degrees + (100,))]
    for rec in trimmed + stray:
        shape = cert._replace(records=(rec,) + cert.records[1:])
        with pytest.raises(CertificationInternalError):
            shape.json_pieces()
        with pytest.raises(CertificationInternalError):
            certificate_dict(shape)
    # a swapped degree keeps the count: both still give the stage's
    # windows, and the partition invariant refuses the record
    swapped = cert._replace(records=(
        witness._replace(degrees=degrees[:-1] + (100,)),) + cert.records[1:])
    assert certificate_dict(swapped) == certificate_dict(cert)
    assert_text_matches(swapped)
    assert not verify_certificate(swapped)


def with_values(cert, values):
    """cert with its seed's values replaced, the seed's kind kept."""
    return cert._replace(seed=cert.seed._replace(values=values))


def test_json_text_writes_integers_past_the_str_digit_cap():
    cert = certify_instance(3, 0, 1, 5, 3)
    big = with_values(cert, (10 ** 5000 + 1, -(7 ** 6000)))
    with unlimited_int_digits():
        assert_text_matches(big)


def test_seed_writer_reuses_mirrored_digits_only_where_they_match():
    cert = certify_instance(3, 0, 1, 5, 3)
    big = (10 ** 5000 + 1, -(7 ** 6000))
    seeds = [SeedCoefficients.ones(6).values,
             SeedCoefficients.laguerre(7).values,
             SeedCoefficients.laguerre(8).values,
             (5, -12, 0, 7, 0, 12, -5),
             (-5, 12, 3, -12, 5),
             (3, -4, 4, 0, -3, 9),
             (1, 1), (2, -2), (-3, 3),
             big, big[::-1], (big[1], -big[1])]
    for seed in seeds:
        with unlimited_int_digits():
            assert_text_matches(with_values(cert, seed))
    for kind, n in (("ones", 6), ("laguerre", 7), ("laguerre", 8),
                    ("ones", 1), ("laguerre", 1)):
        assert_text_matches(certify_instance(3, 0, 1, n, 3, seed_kind=kind))
    assert '"values": []' in "".join(with_values(cert, ()).json_pieces())
    assert_text_matches(with_values(cert, ()))


def test_w2_writer_peak_stays_below_three_times_its_output():
    # W2's certificate is 1.34 MB, mostly records and seed values: each is
    # one join written as it is, so a copy of the whole text (the pieces
    # concatenated, or the separator prepended) lifts the traced peak of
    # the command past 3x the output
    argv = ["certify", "--q", "1/3", "--n", "2000", "--delta", "3"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return out
    run()   # fills the process tables: decimals, term tables, primes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    assert size > 1_300_000
    assert peak < 3 * size, f"traced peak {peak / size:.2f}x the output"


@st.composite
def instances(draw):
    d = draw(st.sampled_from((2, 3, 4, 5)))
    alpha = draw(st.sampled_from([a for a in range(1, d) if gcd(a, d) == 1]))
    params = GhlParams(d=d, u=draw(st.sampled_from((-1, 0))), alpha=alpha,
                       n=draw(st.integers(1, 8)),
                       delta=draw(st.sampled_from((1, d))))
    kind = draw(st.sampled_from(("ones", "laguerre", "custom")))
    if kind == "custom":
        ends = st.sampled_from((1, -1, 2, -2, 3, -3))
        values = ([draw(ends)]
                  + draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                  min_size=params.n - 1,
                                  max_size=params.n - 1))
                  + [draw(ends)])
        seed_coeffs = SeedCoefficients(tuple(values))
    else:
        seed_coeffs = SeedCoefficients.of_kind(params.n, kind)
    return params, seed_coeffs


@seed(9)
@settings(max_examples=80, deadline=None, database=None)
@given(instances(),
       st.sampled_from(("full", "degree sets", "delta", "window", "margin")),
       st.lists(st.text(max_size=6), max_size=2), st.integers(0, 9))
def test_json_text_matches_stdlib_encoder(instance, how, notes, indent):
    params, seed_coeffs = instance
    if how in ("full", "degree sets"):
        try:
            cert = full_certify(params, seed_coeffs,
                                degree_sets=how == "degree sets")
        except HypothesisViolation:
            reject()
        cert = cert._replace(notes=cert.notes + tuple(notes))
    else:
        stage = {"delta": delta_stage, "window": window_stage,
                 "margin": margin_stage}[how]
        cert = stage_alone(stage, params, seed_coeffs, notes)
    assert_text_matches(cert, pads=("\n", "\n" + " " * indent))


def oracle_witness_entries(cert, seed_coeffs):
    """The WITNESS_PRIME entries of a certificate, rebuilt k by k from the
    oracle's primes: each k with a prime takes what is still open of its
    window [delta*k-delta+1, delta*k] and the window's mirror, and gives
    an entry per run of consecutive degrees.  The witness stage runs
    first, so every degree starts open."""
    params, m = cert.params, cert.total_degree
    delta = params.delta
    open_degrees = set(range(1, m))
    entries = []
    for k, p in enumerate(witness_primes_per_k(params, seed_coeffs), 1):
        if p is None:
            continue
        window = range(delta * k - delta + 1, delta * k + 1)
        taken = {x for K in window for x in (K, m - K)} & open_degrees
        open_degrees -= taken
        runs = []
        for K in sorted(taken):
            if runs and runs[-1][1] == K - 1:
                runs[-1][1] = K
            else:
                runs.append([K, K])
        entries += [{"evidence": {"k": k, "window": [window[0], window[-1]]},
                     "k_range": run, "method": "WITNESS_PRIME", "prime": p}
                    for run in runs]
    return sorted(entries, key=lambda e: e["k_range"][0])


def assert_witness_entries_match_oracle(cert, seed_coeffs):
    written = [e for e in certificate_dict(cert)["records"]
               if e["method"] == "WITNESS_PRIME"]
    assert written == oracle_witness_entries(cert, seed_coeffs)


def test_witness_entries_match_the_oracle_on_the_w1_grid():
    count = 0
    for cert in w1_certificates():
        assert_witness_entries_match_oracle(
            cert, SeedCoefficients.laguerre(cert.params.n))
        count += 1
    assert count == 792


@seed(11)
@settings(max_examples=80, deadline=None, database=None)
@given(instances())
def test_witness_entries_match_the_oracle_on_generated_instances(instance):
    params, seed_coeffs = instance
    try:
        cert = full_certify(params, seed_coeffs)
    except HypothesisViolation:
        reject()
    assert_witness_entries_match_oracle(cert, seed_coeffs)


def assert_mirror_closed(cert):
    """Every record's degrees are closed under K -> m-K, and every entry
    names the prime its record used."""
    m = cert.total_degree
    for rec in cert.records:
        assert {m - K for K in rec.degrees} == set(rec.degrees), rec
    assert all(type(entry["prime"]) is int
               for entry in certificate_dict(cert)["records"])


def test_records_are_mirror_closed_on_the_w1_grid():
    count = 0
    for q in W1_FAMILIES:
        base = GhlParams.from_q(Fraction(q), 2, delta=1)
        for n in range(2, 101):
            assert_mirror_closed(certify_instance(
                base.d, base.u, base.alpha, n, base.d, degree_sets=True))
            count += 1
    assert count == 792


@seed(10)
@settings(max_examples=80, deadline=None, database=None)
@given(instances(), st.booleans())
def test_records_are_mirror_closed_on_generated_instances(instance,
                                                          degree_sets):
    params, seed_coeffs = instance
    try:
        cert = full_certify(params, seed_coeffs, degree_sets=degree_sets)
    except HypothesisViolation:
        reject()
    assert_mirror_closed(cert)
