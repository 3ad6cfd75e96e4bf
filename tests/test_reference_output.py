"""The commands of the benchmark's four workloads, run in-process: W1
(AC-11 grid) and W2 (one n = 2000 certificate) certify, W3 (the AC-01..06
sieve sweeps) and W4 (gpf-bound at 10^7) sieve.  Each command's stdout and
exit code must equal the digests recorded in perfbench/reference.json.  A
refactor of the pipeline or the sieve that changes one byte of output fails
here, and so does one that removes a name the benchmark's layer trace
wraps."""

import argparse
import hashlib
import heapq
import json
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from ghlcert import cli, criteria, valuation
from ghlcert.certify import full_certify
from ghlcert.cli import main
from ghlcert.polynomials import GhlParams, SeedCoefficients

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"


def _reference(workload):
    return sorted(json.loads(REFERENCE.read_text())[workload].items())


def _commands(*workloads):
    for workload in workloads:
        for command, expected in _reference(workload):
            yield pytest.param(command, expected, id=command)


def _check(command, expected, capsys):
    code = main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == expected["exit"]
    assert len(out) == expected["bytes"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("command,expected", _commands("w1_grid", "w2_large"))
def test_certify_output_matches_reference(command, expected, capsys):
    _check(command, expected, capsys)


@pytest.mark.parametrize("command,expected",
                         _commands("w3_sweeps", "w4_gpf7"))
def test_sieve_output_matches_reference(command, expected, capsys):
    _check(command, expected, capsys)


def test_w1_polygon_work_is_pinned(monkeypatch, capsys):
    # the W1 commands build 758 polygons and 704 admissible-degree sets,
    # factorise 1,584 numbers, take 8,038 valuations (_nu, recursion
    # included, from cold family and factorial tables), make 1,299 ledger
    # claims, 1,264 of which record, and write 11,378,692 bytes; a change
    # that does more work (a polygon at a prime dividing neither the
    # leading nor the constant coefficient, a second build of one polygon,
    # a p = 3 window read with no degree open, a window or margin stage
    # back in the pipeline, a term factorised twice, valuation sums no
    # longer shared by a family, a binomial seed value divided for its
    # valuation) or writes more fails here without timing
    calls = {"polygon_from_params": 0, "admissible_degrees": 0,
             "factorize": 0, "_nu": 0, "claim": 0, "recorded": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            calls["recorded"] += name == "claim" and out is not None
            return out
        monkeypatch.setattr(module, name, wrapper)
    for name in ("polygon_from_params", "admissible_degrees"):
        counted(criteria, name)
    counted(valuation, "factorize")
    counted(valuation, "_nu")
    counted(criteria.DegreeLedger, "claim")
    # warm tables from earlier tests would hide the W1 run's own valuations
    valuation.term_table.cache_clear()
    monkeypatch.setattr(valuation, "_FACTORIAL_VALUATIONS", {})
    written = 0
    for command, expected in _reference("w1_grid"):
        assert main(command.split()) == expected["exit"]
        written += len(capsys.readouterr().out.encode())
    assert calls == {"polygon_from_params": 758, "admissible_degrees": 704,
                     "factorize": 1584, "_nu": 8038, "claim": 1299,
                     "recorded": 1264}
    assert written == 11_378_692


def test_witness_scan_pushes_each_candidate_prime_once(monkeypatch):
    # from cold tables, the witness scan of the binomial-seeded q = 1/3,
    # delta = 3 certificate pushes 148 primes onto its heap at n = 500 and
    # 268 at n = 1,000 (ratio 1.81): each candidate once, as the top block
    # gains it; a heap rebuilt at every k pushes every candidate again at
    # each k and fails the ratio
    pushes = 0

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)
    monkeypatch.setattr(criteria, "heapq", types.SimpleNamespace(
        heappush=counted, heappop=heapq.heappop))
    counts = {}
    for n in (500, 1000):
        valuation.term_table.cache_clear()
        monkeypatch.setattr(valuation, "_FACTORIAL_VALUATIONS", {})
        pushes = 0
        full_certify(GhlParams.from_q(Fraction(1, 3), n, delta=3),
                     SeedCoefficients.laguerre(n))
        counts[n] = pushes
    assert counts[500] <= 148 and counts[1000] <= 268, counts
    assert counts[1000] <= 2.2 * counts[500], counts


@pytest.mark.parametrize("hi, sieves", [(100, 7), (200, 8), (400, 9)])
def test_family_primes_are_sieved_once_per_doubling(hi, sieves, monkeypatch,
                                                    capsys):
    # a batch over n = 2..hi grows the family's TermTable by doubling, so
    # it sieves the primes up to its length once per doubling: 7, 8 and 9
    # times for hi = 100, 200 and 400; a table grown by a fixed step
    # sieves once per step
    calls = 0
    sieve = valuation._primes_up_to

    def counted(n):
        nonlocal calls
        calls += 1
        return sieve(n)
    monkeypatch.setattr(valuation, "_primes_up_to", counted)
    valuation.term_table.cache_clear()
    monkeypatch.setattr(valuation, "_FACTORIAL_VALUATIONS", {})
    assert main(["certify", "--q", "1/3", "--batch-n", f"2:{hi}",
                 "--delta", "3"]) == 0
    capsys.readouterr()
    assert calls == sieves


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    # one process, one parser: W3, an argparse usage error, a refused
    # instance and a command taking --not-divisible-by from --config, then
    # W3 and a W1 command again; each matches its reference, and the
    # config value does not reach the W3 queries run after it
    w3, w1 = _reference("w3_sweeps"), _reference("w1_grid")
    for command, expected in w3:
        _check(command, expected, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "gpf-bound", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound",
                 "12", "--limit", "1000", "--not-divisible-by", "0"]) == 2
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_divisible_by": 3}))
    command = ("sieve gpf-bound --d 3 --k 2 --bound 6 --limit 1000000 "
               "--min-exclusive 6")
    _check(f"{command} --config {cfg}",
           dict(w3)[f"{command} --not-divisible-by 3"], capsys)
    for command, expected in w3:
        _check(command, expected, capsys)
    command = "certify --q=-2/3 --batch-n 2:100 --delta 3"
    _check(command, dict(w1)[command], capsys)


@pytest.mark.parametrize("workload", ["w1_grid", "w3_sweeps"])
def test_parser_is_built_once_per_process(workload, monkeypatch, capsys):
    # the top-level parser and its four subcommand parsers are built by the
    # first command and reused by the rest: 5 constructions for the whole
    # workload, where one build per command made 40 (W1) and 35 (W3)
    built = 0
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for command, expected in _reference(workload):
        assert main(command.split()) == expected["exit"]
        capsys.readouterr()
    assert built == 5


def test_layer_trace_installs():
    # the benchmark's layer trace looks up ghlcert names by attribute; a
    # rename or deletion of a traced name must fail here too
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import layertrace; layertrace.install()")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
