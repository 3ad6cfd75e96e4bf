import hashlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ghlcert import cli, sieve
from ghlcert.certify import CertificationInternalError, full_certify
from ghlcert.cli import decimal_digits, main
from ghlcert.jsontext import unlimited_int_digits
from ghlcert.newton import build_polygon
from ghlcert.polynomials import GhlParams, SeedCoefficients, build_substituted
from ghlcert.sieve import smoothness_bound_exact
from ghlcert.valuation import PRIMALITY_LIMIT

from oracles import certificate_dict, sieve_report_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith(("{", "[")) else out)


def test_build_json(capsys):
    code, blob = run(capsys, "build", "--q=-2/3", "--n", "2", "--delta", "3")
    assert code == 0
    assert blob["degree"] == 6
    assert blob["coefficients"] == [4, 0, 0, -8, 0, 0, 1]


def test_build_requires_equals_for_negative_q(capsys):
    # the slash keeps "-2/3" from parsing as a negative number, so the
    # space-separated form is rejected by the argument parser
    with pytest.raises(SystemExit):
        main(["build", "--q", "-2/3", "--n", "2"])
    capsys.readouterr()


def test_build_explicit_params_match_q(capsys):
    _, via_q = run(capsys, "build", "--q=-2/3", "--n", "3", "--delta", "3")
    _, explicit = run(capsys, "build", "--d", "3", "--u", "-1", "--alpha", "1",
                      "--n", "3", "--delta", "3")
    assert via_q["coefficients"] == explicit["coefficients"]


def test_build_hermite(capsys):
    code, blob = run(capsys, "build", "--hermite", "4")
    assert code == 0
    assert blob["coefficients"] == [12, 0, -48, 0, 16]


def test_build_out_file(tmp_path, capsys):
    path = tmp_path / "coeffs.txt"
    code, _ = run(capsys, "build", "--q", "1/3", "--n", "2", "--delta", "3",
                  "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert [int(x) for x in lines[1:]] == [28, 0, 0, -14, 0, 0, 1]


def test_build_missing_n_is_usage_error(capsys):
    assert main(["build", "--q", "1/3"]) == 2
    assert "error" in capsys.readouterr().err


def _digit_cap():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture
def default_digit_cap():
    """CPython's default cap of 4,300 digits on int-to-str conversion, set
    for the test and restored after it (None where there is no cap)."""
    old = _digit_cap()
    if old is None:
        yield None
        return
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_build_writes_integers_past_the_str_digit_cap(capsys,
                                                      default_digit_cap):
    # the q = 1/3, n = 1500 coefficients pass the cap; the CLI lifts it
    # only while writing
    code = main(["build", "--q", "1/3", "--n", "1500"])
    out = capsys.readouterr().out
    assert code == 0
    assert _digit_cap() == default_digit_cap
    with unlimited_int_digits():
        blob = json.loads(out)
    params = GhlParams.from_q(Fraction(1, 3), 1500, delta=1)
    poly = build_substituted(params, SeedCoefficients.laguerre(1500))
    assert any(abs(c) >= 10 ** 4300 for c in blob["coefficients"])
    assert blob["coefficients"] == list(poly.coeffs)


def test_certificates_write_integers_past_the_str_digit_cap(
        tmp_path, capsys, default_digit_cap):
    # a binomial seed passes the cap from n = 14,300 on; a seed file with
    # one such value takes the same path, read and written, in a fraction
    # of the time
    seed = SeedCoefficients((1, 10 ** 5000 + 1, 1, 1, 1, 1))
    path = tmp_path / "seed.txt"
    with unlimited_int_digits():
        path.write_text("".join(f"{c}\n" for c in seed.values))
    code = main(["certify", "--q", "1/3", "--n", "5", "--delta", "3",
                 "--seed-file", str(path)])
    out = capsys.readouterr().out
    assert _digit_cap() == default_digit_cap
    cert = full_certify(GhlParams.from_q(Fraction(1, 3), 5, delta=3), seed)
    assert code == (1 if cert.residual else 0)
    with unlimited_int_digits():
        blob = json.loads(out)
        assert blob == json.loads(json.dumps(certificate_dict(cert)))
    assert blob["seed"]["values"] == list(seed.values)


def test_coefficient_files_past_the_str_digit_cap_read_back(
        tmp_path, capsys, default_digit_cap):
    # build --out writes coefficients of more than 4,300 digits, and
    # polygon --coeff-file reads them back (the certify test above reads
    # such a value through --seed-file)
    path = tmp_path / "big.txt"
    assert main(["build", "--q", "1/3", "--n", "1500", "--out",
                 str(path)]) == 0
    code, from_file = run(capsys, "polygon", "--coeff-file", str(path),
                          "--prime", "2")
    assert code == 0
    assert _digit_cap() == default_digit_cap
    _, direct = run(capsys, "polygon", "--q", "1/3", "--n", "1500",
                    "--prime", "2")
    assert from_file == direct


def test_bad_coefficient_line_is_quoted_short(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1\n" + "7" * 5000 + "x\n")
    assert main(["polygon", "--coeff-file", str(path), "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: not an integer coefficient: '{'7' * 40}'..." in err
    assert len(err) < len(str(path)) + 100


@pytest.mark.parametrize("argv", [
    ["build", "--q", "1/3", "--n", "5"],
    ["polygon", "--q", "1/3", "--n", "5", "--prime", "2"],
    ["certify", "--q", "1/3", "--n", "5"],
])
def test_delta_zero_is_usage_error(capsys, argv):
    # --delta 0 is refused like --delta 2, not read as the default 1
    assert main(argv + ["--delta", "0"]) == 2
    captured = capsys.readouterr()
    assert "delta" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["build", "certify"])
def test_q_with_zero_denominator_is_usage_error(capsys, command):
    assert main([command, "--q", "1/0", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert "zero denominator" in captured.err and captured.out == ""


def test_polygon_json(capsys):
    code, blob = run(capsys, "polygon", "--q=-1/3", "--n", "43", "--delta", "3",
                     "--seed", "ones", "--prime", "2")
    assert code == 0
    assert blob["vertices"] == [[0, 0], [96, 33], [120, 42], [129, 46]]
    assert blob["min_slope"] == "11/32" and blob["max_slope"] == "4/9"
    assert len(blob["admissible_degrees"]) == 32


def test_polygon_of_a_large_step_does_not_factorise_its_terms(capsys):
    # terms near 2 * 10^17: trial division of even one would not finish
    d = 10 ** 15 + 37
    t0 = time.perf_counter()
    code, blob = run(capsys, "polygon", "--d", str(d), "--u", "0",
                     "--alpha", "1", "--n", "200", "--prime", "2")
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    params = GhlParams(d=d, u=0, alpha=1, n=200)
    poly = build_polygon(
        build_substituted(params, SeedCoefficients.laguerre(200)), 2)
    assert blob["vertices"] == [[x, poly.ordinates[x]]
                                for x in poly.vertex_xs()]


def test_polygon_tsv_stdout(capsys, tmp_path):
    code, out = run(capsys, "polygon", "--q", "1/3", "--n", "2", "--delta", "3",
                    "--prime", "2", "--tsv", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x\ty\tis_vertex"
    assert len(lines) == 8
    # --tsv PATH writes the same table to the file, and nothing to stdout
    path = tmp_path / "poly.tsv"
    assert run(capsys, "polygon", "--q", "1/3", "--n", "2", "--delta", "3",
               "--prime", "2", "--tsv", str(path)) == (0, "")
    assert path.read_text() == out


def test_polygon_coeff_file_and_svg(tmp_path, capsys):
    coeffs = tmp_path / "p.txt"
    coeffs.write_text("\n".join(str(c) for c in (4, 0, 0, -8, 0, 0, 1)) + "\n")
    svg = tmp_path / "p.svg"
    code, blob = run(capsys, "polygon", "--coeff-file", str(coeffs),
                     "--prime", "2", "--svg", str(svg))
    assert code == 0
    assert blob["vertices"] == [[0, 0], [6, 2]]
    assert "<svg" in svg.read_text()


def test_certify_clean_exit(capsys):
    code, blob = run(capsys, "certify", "--q", "1/3", "--n", "5", "--delta", "3")
    assert code == 0
    assert blob["verdict"] == "IRREDUCIBLE_CERTIFIED"
    assert blob["residual"] == []


def test_certify_residual_exit(capsys):
    code, blob = run(capsys, "certify", "--q", "1/4", "--n", "2", "--delta", "4")
    assert code == 1
    assert blob["verdict"] == "EXCEPTIONAL_FAMILY"
    assert blob["residual"] == [4]


def test_certify_hypothesis_violation(capsys):
    code = main(["certify", "--d", "3", "--u", "1", "--alpha", "1", "--n", "4"])
    assert code == 2
    assert "error" in capsys.readouterr().err


_SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports ghlcert from this tree."""
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); " + code, str(_SRC)],
        capture_output=True, text=True, timeout=timeout)


def test_large_seed_endpoints_fail_fast(tmp_path):
    # seed endpoints near 10^30 are read by valuation at the stages' primes
    # and by divisibility in the witness scan, never factorised
    path = tmp_path / "seed.txt"
    path.write_text(f"{10 ** 30 + 57}\n1\n1\n{10 ** 30 + 57}\n")
    argv = ["certify", "--q", "1/3", "--n", "3", "--delta", "3",
            "--seed-file", str(path)]
    done = _python(f"from ghlcert.cli import main; sys.exit(main({argv!r}))",
                   timeout=2)
    assert done.returncode == 0, done.stderr
    cert = json.loads(done.stdout)
    assert cert["verdict"] == "IRREDUCIBLE_CERTIFIED"
    assert cert["seed"] == {"kind": "custom",
                            "values": [10 ** 30 + 57, 1, 1, 10 ** 30 + 57]}


@pytest.mark.parametrize("argv", [
    ["certify", "--q", "1/3", "--n", "100000000000", "--delta", "3"],
    ["polygon", "--q", "1/3", "--n", "100000000000", "--prime", "2"],
    ["build", "--q", "1/3", "--n", "25001"],
    ["build", "--hermite", "100000000000"],
    ["certify", "--q", "1/3", "--batch-n", "2:8334", "--delta", "3"],
    ["certify", "--q", "1/3", "--batch-n", "2:1000"],
])
def test_oversized_input_is_refused_before_building(capsys, monkeypatch,
                                                     argv):
    def built(*args, **kwargs):
        raise AssertionError("built an instance above the cap")

    for module, name in ((cli, "_seed_from_args"),
                         (cli, "hermite_polynomial"),
                         (cli.certify_mod, "full_certify")):
        monkeypatch.setattr(module, name, built)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the cap" in captured.err


def test_largest_degree_under_the_cap_is_accepted(capsys):
    code, blob = run(capsys, "polygon", "--q", "1/3", "--n", "8333",
                     "--delta", "3", "--seed", "ones", "--prime", "2")
    assert code == 0 and blob["degree"] == 3 * 8333 <= cli.MAX_DEGREE


def test_certify_and_polygon_leave_numpy_unloaded():
    # nor dataclasses and inspect, which cost start-up time; whatever the
    # interpreter's site module loaded before is not counted
    done = _python(
        "before = set(sys.modules); "
        "from ghlcert.cli import main; "
        "codes = [main(['certify', '--q', '1/3', '--n', '40', '--delta', '3']),"
        " main(['polygon', '--q', '1/3', '--n', '40', '--prime', '2']),"
        " main(['build', '--q', '1/3', '--n', '40'])]; "
        "assert codes == [0, 0, 0], codes; "
        "new = set(sys.modules) - before; "
        "bad = {'numpy', 'dataclasses', 'inspect'} & new; "
        "assert not bad, f'{sorted(bad)} imported'")
    assert done.returncode == 0, done.stderr


def test_sieve_loads_numpy_when_it_runs(capsys):
    done = _python("from ghlcert.cli import main; "
                   "assert 'numpy' not in sys.modules; "
                   "sys.exit(main(['sieve', 'p5-pairs', '--limit', '1000']))")
    assert done.returncode == 0, done.stderr
    _, in_process = run(capsys, "sieve", "p5-pairs", "--limit", "1000")
    assert json.loads(done.stdout) == in_process


def test_importing_sieve_after_numpy_adds_no_dataclasses():
    done = _python("import numpy; before = set(sys.modules); "
                   "import ghlcert.sieve; "
                   "assert 'dataclasses' not in set(sys.modules) - before")
    assert done.returncode == 0, done.stderr


def test_importing_sieve_leaves_thread_pools_unloaded():
    # only a segmented sweep of two or more blocks on two or more usable
    # CPUs starts a thread pool, and it imports one then; the listing path
    # and a one-block sweep run on the calling thread
    done = _python(
        "from ghlcert import sieve; sieve._usable_cpus = lambda: 2; "
        "assert sieve.verify_gpf_bound(4, 2, 12, 10 ** 6).exceptions; "
        "sieve._smooth_numbers = lambda bound, top: None; "
        "sieve.verify_gpf_bound(4, 2, 12, sieve.DEFAULT_SEGMENT - 1); "
        "assert 'concurrent.futures' not in sys.modules; "
        "sieve.verify_gpf_bound(4, 2, 12, sieve.DEFAULT_SEGMENT); "
        "assert 'concurrent.futures' in sys.modules")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("limit, message", [
    ("100000000000", "above the cap"),
    ("-1", "limit must be nonnegative"),
])
def test_sieve_ap_gaps_rejects_bad_limit(capsys, limit, message):
    assert main(["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3",
                 "--limit", limit, "--gap-bound", "270"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("modulus, residues, message", [
    # primes % modulus on int64 ended in an OverflowError (exit 3)
    ("100000000000000000000", "7",
     "modulus 100,000,000,000,000,000,000 does not fit int64"),
    # a repeated residue printed each exception twice
    ("3", "1,1", "residue 1 given more than once"),
    # int()'s own message named neither the flag nor the value
    ("4", "1,x", "--residues takes comma-separated integers, got '1,x'"),
])
def test_sieve_ap_gaps_rejects_bad_classes(capsys, modulus, residues, message):
    assert main(["sieve", "ap-gaps", "--modulus", modulus, "--residues",
                 residues, "--limit", "100", "--gap-bound", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_polygon_refuses_twelve_base_pseudoprime(capsys):
    # psi_12 passes Miller-Rabin to the bases 2..37 but not to 41
    assert main(["polygon", "--q", "1/3", "--n", "5", "--prime",
                 "318665857834031151167461"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not prime" in captured.err


def test_certify_batch(capsys):
    code, blobs = run(capsys, "certify", "--q", "1/3", "--batch-n", "2:4",
                      "--delta", "3")
    assert code == 0
    assert [b["params"]["n"] for b in blobs] == [2, 3, 4]
    assert all(b["verdict"] == "IRREDUCIBLE_CERTIFIED" for b in blobs)


def test_certify_batch_with_residual(capsys):
    code, blobs = run(capsys, "certify", "--q", "1/4", "--batch-n", "2:3",
                      "--delta", "4")
    assert code == 1
    assert blobs[0]["residual"] == [4]
    assert blobs[1]["residual"] == []


@pytest.mark.parametrize("q, lo, hi, delta", [
    ("1/3", 2, 12, 3),
    ("1/4", 2, 4, 4)])    # n = 2 of 1/4 is reducible: a residual
def test_certify_batch_entry_is_the_single_certificate(capsys, q, lo, hi,
                                                        delta):
    flags = [f"--q={q}", "--delta", str(delta)]
    code, blobs = run(capsys, "certify", "--batch-n", f"{lo}:{hi}", *flags)
    assert len(blobs) == hi - lo + 1
    for i, blob in enumerate(blobs):
        single_code, single = run(capsys, "certify", "--n", str(lo + i),
                                  *flags)
        assert blob == single
        assert single_code == (1 if single["residual"] else 0)
    assert code == (1 if any(b["residual"] for b in blobs) else 0)


def test_certify_n_and_seed_file_match_the_batch_of_one(tmp_path, capsys):
    # --n runs the --batch-n loop with lo = hi; a seed file holding the
    # binomial seed's values is classified "laguerre" and gives the same
    # certificate text
    flags = ["certify", "--q", "1/3", "--delta", "3"]
    assert main([*flags, "--batch-n", "7:7"]) == 0
    batch = json.loads(capsys.readouterr().out)
    assert main([*flags, "--n", "7"]) == 0
    single = capsys.readouterr().out
    assert [json.loads(single)] == batch
    assert batch[0]["seed"]["kind"] == "laguerre"
    path = tmp_path / "seed.txt"
    path.write_text("".join(f"{v}\n"
                            for v in SeedCoefficients.laguerre(7).values))
    assert main([*flags, "--n", "7", "--seed-file", str(path)]) == 0
    assert capsys.readouterr().out == single


def test_sieve_p5_pairs(capsys):
    code, blob = run(capsys, "sieve", "p5-pairs", "--limit", "2000")
    assert code == 0
    assert blob["pairs"] == [[1, 125], [2, 250], [4, 500], [5, 625]]


def test_sieve_limit_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limit": 2000}))
    code, blob = run(capsys, "--config", str(cfg), "sieve", "p5-pairs")
    assert code == 0 and blob["limit"] == 2000
    assert main(["sieve", "p5-pairs"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --limit is required\n" in captured.err


def test_sieve_gpf_bound(capsys):
    code, blob = run(capsys, "sieve", "gpf-bound", "--d", "4", "--k", "2",
                     "--bound", "12", "--limit", "200", "--odd-only",
                     "--min-exclusive", "8")
    assert code == 0
    assert blob["exceptions"] == [11, 21, 45, 77, 121]
    assert blob["extremal"] == 121


@pytest.mark.parametrize("flag, value", [
    ("--k", "0"), ("--d", "0"), ("--limit", "-5"), ("--limit", "0"),
    # a divisor of 0 dropped the filter and the query ran unfiltered
    ("--not-divisible-by", "0"), ("--not-divisible-by", "-3")])
def test_sieve_gpf_bound_rejects_bad_input(capsys, flag, value):
    args = {"--d": "4", "--k": "2", "--bound": "12", "--limit": "200"}
    args[flag] = value
    argv = ["sieve", "gpf-bound"] + [t for kv in args.items() for t in kv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be at least 1, got {value}" in err


@pytest.mark.parametrize("argv", [
    ["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
     "--limit", "200", "--jobs", "2"],
    ["sieve", "p5-pairs", "--limit", "100", "--jobs", "1"]])
def test_jobs_is_an_unknown_flag(capsys, argv):
    # the smooth sweep takes its threads from the CPU affinity
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_sieve_smoothness(capsys):
    code, blob = run(capsys, "sieve", "smoothness", "--k", "401", "--l", "3")
    assert code == 0
    assert blob["T"] == 149 and blob["N_digits"] == 750
    assert round(blob["bound"], 2) == 106866.68
    code, blob = run(capsys, "sieve", "smoothness", "--k", "401", "--pow2")
    assert code == 0 and blob["variant"] == "pow2"


def test_sieve_smoothness_counts_digits_past_the_str_digit_cap(
        capsys, default_digit_cap):
    # N = 1999! times small-prime corrections has more than 4,300 digits
    code, blob = run(capsys, "sieve", "smoothness", "--k", "2000", "--l", "3")
    assert code == 0
    assert _digit_cap() == default_digit_cap
    n_exact, t = smoothness_bound_exact(2000, 3)
    assert blob["T"] == t
    assert 10 ** (blob["N_digits"] - 1) <= n_exact < 10 ** blob["N_digits"]


@pytest.mark.parametrize("k, bound", [
    (67, 22232865.8080437), (100, 616088.8750797423),
    (401, 106866.68098107076)])
def test_sieve_smoothness_pow2_values(capsys, k, bound):
    code, blob = run(capsys, "sieve", "smoothness", "--k", str(k), "--pow2")
    assert code == 0
    assert blob == {"query": "smoothness", "k": k, "variant": "pow2",
                    "bound": bound}


def test_sieve_smoothness_pow2_rejects_nonpositive_exponent(capsys):
    assert main(["sieve", "smoothness", "--k", "3", "--pow2"]) == 2
    assert "exponent k+1-pi(4k+3) = -2 must be positive" in \
        capsys.readouterr().err


def test_sieve_rset_mismatch(capsys):
    code, blob = run(capsys, "sieve", "rset-mismatch", "--k", "2")
    assert code == 0
    assert blob["mismatches"] == [[2, 2, 0]]


def test_decimal_digits_at_powers_of_ten():
    assert [decimal_digits(n) for n in (1, 2, 9, 10, 11)] == [1, 1, 1, 2, 2]
    for j in range(1, 3001):
        p = 10 ** j
        assert (decimal_digits(p - 1), decimal_digits(p),
                decimal_digits(p + 1)) == (j, j + 1, j + 1), j


@pytest.mark.parametrize("argv, message", [
    (["sieve", "rset-mismatch", "--k", "200000000"],
     "sieve limit 600,000,002 is above the cap 500,000,000"),
    (["sieve", "rset-mismatch", "--k-range", "2:200000000"],
     "sieve limit 600,000,002 is above the cap 500,000,000"),
    (["sieve", "smoothness", "--k", "500001", "--l", "3"],
     "k 500,001 is above the cap 500,000"),
    (["sieve", "smoothness", "--k", "500001", "--pow2"],
     "k 500,001 is above the cap 500,000"),
    (["sieve", "gpf-bound", "--d", "4", "--k", "100000000", "--bound", "12",
      "--limit", "10"], "k 100,000,000 is above the cap 10,000"),
    (["sieve", "gpf-bound", "--d", "1000000000000000000", "--k", "20",
      "--bound", "12", "--limit", "100"],
     "limit + d*(k-1) = 19,000,000,000,000,000,100 does not fit int64"),
    (["sieve", "rset-mismatch", "--k-range", "2:500002"],
     "k range of 500,001 values is above the cap 500,000"),
    (["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "100",
      "--limit", str(10 ** 12)],
     "limit 1,000,000,000,000 is above the cap 500,000,000 of the "
     "segmented sieve"),
    (["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3", "--limit",
      "100000000", "--gap-bound", "-1"], "gap bound must be nonnegative"),
])
def test_sieve_queries_above_their_caps_exit_2_at_once(capsys, argv,
                                                       message):
    # rset --k 200000000 and gpf-bound --k 100000000 ran until killed, the
    # int64 case ended in an internal error, and gpf-bound --bound 100
    # --limit 10^12 sieved for hours; each is now refused before any sieve
    # is allocated (the rset sieve would take 600 MB)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert peak < 1 << 20


def test_certify_with_large_d_factorises_its_terms_fast(capsys):
    # the linear factors near 2*10^14 took about 17 s by trial division;
    # the digest is that of the stdout written before factorize split
    # large cofactors with rho
    t0 = time.perf_counter()
    code = main(["certify", "--d", "1000000000000", "--u", "0",
                 "--alpha", "1", "--n", "200", "--delta", "1"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "2a56c0e6c55a19b42284310e6421453ef5fc9e78db4d52438f13e140d9e537b2"


@pytest.mark.parametrize("argv, message", [
    (["--d", str(PRIMALITY_LIMIT - 1), "--u", "0", "--alpha", "1",
      "--n", "1"], "top linear factor is 3,317,044,064,679,887,385,961,981"),
    (["--d", str(PRIMALITY_LIMIT // 3), "--u", "0", "--alpha", "1",
      "--batch-n", "1:3"], "--batch-n top linear factor is 3,317,044,064,"
     "679,887,385,961,981, above the cap 3,317,044,064,679,887,385,961,980"),
])
def test_certify_refuses_a_top_term_past_the_primality_limit(
        capsys, monkeypatch, argv, message):
    # is_prime decides nothing at or above the limit, so the terms could
    # not be factorised: refused before a seed or a certificate is built
    def built(*args, **kwargs):
        raise AssertionError("built past the cap")
    monkeypatch.setattr(cli.certify_mod, "full_certify", built)
    monkeypatch.setattr(cli, "_seed_from_args", built)
    assert main(["certify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_certify_accepts_the_largest_decidable_top_term(capsys):
    code, blob = run(capsys, "certify", "--d", str(PRIMALITY_LIMIT - 2),
                     "--u", "0", "--alpha", "1", "--n", "1")
    assert code == 0
    assert blob["verdict"] == "IRREDUCIBLE_CERTIFIED"


@pytest.mark.parametrize("argv", [
    ["sieve", "smoothness", "--k", "-5", "--l", "3"],
    ["sieve", "smoothness", "--k", "-5", "--l", "40"],
    ["sieve", "smoothness", "--k", "-5", "--pow2"]])
def test_sieve_smoothness_rejects_negative_k(capsys, argv):
    # 4k + 4 is a negative slice bound here: it must count no primes
    assert main(argv) == 2
    assert "exponent k+1-pi(4k+3) = -4 must be positive" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sieve", "smoothness", "--k", "401", "--l", "0"], "need l >= 1, got 0"),
    (["sieve", "rset-mismatch", "--k-range", "1:5"],
     "k must be at least 2, got 1"),
    (["sieve", "rset-mismatch", "--k-range="], "--k-range takes lo:hi, got ''"),
    (["sieve", "rset-mismatch", "--k-range", "2:12", "--k", "5"],
     "--k-range cannot be combined with --k")])
def test_sieve_closed_form_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sieve", "p5-pairs", "--limit", "2000", "--d", "4", "--modulus", "7",
      "--pow2"], "sieve p5-pairs cannot be combined with --d, --modulus, "
                 "--pow2"),
    (["sieve", "smoothness", "--k", "401", "--l", "3", "--limit", "5",
      "--residues", "1,x", "--odd-only"],
     "sieve smoothness cannot be combined with --limit, --odd-only, "
     "--residues"),
    (["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
      "--limit", "200", "--gap-bound", "9"],
     "sieve gpf-bound cannot be combined with --gap-bound"),
    (["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3", "--limit",
      "1000", "--gap-bound", "10", "--k", "3", "--printed-inner-pi"],
     "sieve ap-gaps cannot be combined with --k, --printed-inner-pi"),
    (["sieve", "rset-mismatch", "--k", "5", "--bound", "0"],
     "sieve rset-mismatch cannot be combined with --bound"),
    # --pow2 reads neither --l nor --printed-inner-pi
    (["sieve", "smoothness", "--k", "401", "--l", "3", "--pow2"],
     "--pow2 cannot be combined with --l"),
    (["sieve", "smoothness", "--k", "401", "--pow2", "--printed-inner-pi"],
     "--pow2 cannot be combined with --printed-inner-pi"),
    (["sieve", "gpf-bound", "--k", "2", "--bound", "12", "--limit", "200"],
     "--d is required"),
    (["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3",
      "--limit", "1000"], "--gap-bound is required"),
    (["sieve", "smoothness", "--l", "3"], "--k is required"),
    (["sieve", "smoothness", "--k", "401"], "--l is required"),
    (["sieve", "ap-gaps", "--modulus", "4", "--residues", ",", "--limit",
      "1000", "--gap-bound", "10"],
     "--residues takes comma-separated integers, got ','"),
    (["sieve", "rset-mismatch"], "--k or --k-range is required")])
def test_sieve_queries_refuse_options_they_do_not_read(capsys, argv,
                                                       message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}\n" in captured.err


def test_sieve_refuses_an_unread_option_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pow2": True, "odd_only": False}))
    assert main(["--config", str(cfg), "sieve", "p5-pairs",
                 "--limit", "100"]) == 2
    captured = capsys.readouterr()
    assert "error: sieve p5-pairs cannot be combined with --pow2\n" in (
        captured.err)
    # a switch the config sets false is not given, so nothing is refused
    cfg.write_text(json.dumps({"odd_only": False}))
    code, blob = run(capsys, "--config", str(cfg), "sieve", "p5-pairs",
                     "--limit", "2000")
    assert code == 0 and len(blob["pairs"]) == 4


def test_sieve_ap_gaps(capsys):
    code, blob = run(capsys, "sieve", "ap-gaps", "--modulus", "3",
                     "--residues", "1,2", "--limit", "1000",
                     "--gap-bound", "40")
    assert code == 0
    assert blob["exceptions"] == [] and blob["extremal"] == 36


def test_sieve_ap_gaps_past_the_exceptions_cap_exits_2(capsys, monkeypatch):
    # --gap-bound 0 at 2*10^7 wrote 1.27 million pairs (54 MB, 535 MiB);
    # the query stops before it builds the pairs past the cap
    monkeypatch.setattr(sieve, "MAX_GAP_EXCEPTIONS", 1000)
    tracemalloc.start()
    try:
        code = main(["sieve", "ap-gaps", "--modulus", "4", "--residues",
                     "1,3", "--limit", "20000000", "--gap-bound", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: more than 1,000 pairs exceed the gap bound 0 (the cap "
            "on reported pairs); ask for a larger --gap-bound") in captured.err
    assert peak < 8 << 20             # one block, no pair built past the cap


class _WriteLog(io.StringIO):
    def write(self, text):
        self.writes = getattr(self, "writes", 0) + 1
        return super().write(text)


def test_sieve_report_is_written_a_chunk_at_a_time(monkeypatch):
    # --gap-bound 0 near the exceptions cap writes 41 MB: the CLI writes
    # REPORT_CHUNK pairs at a time, never the whole text at once
    monkeypatch.setattr(cli, "REPORT_CHUNK", 4)
    out = _WriteLog()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3",
                 "--limit", "2000", "--gap-bound", "0"]) == 0
    report = sieve.ap_prime_gaps(4, (1, 3), 2000, 0)
    assert out.getvalue() == json.dumps(sieve_report_dict(report),
                                        sort_keys=True, indent=2) + "\n"
    assert out.writes == math.ceil(len(report.exceptions) / 4) + 2


def test_config_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "1/3", "n": 5, "delta": 3}))
    code, blob = run(capsys, "certify", "--config", str(cfg))
    assert code == 0 and blob["params"]["n"] == 5
    code, blob = run(capsys, "certify", "--config", str(cfg), "--n", "6")
    assert blob["params"]["n"] == 6          # explicit flag wins
    # a negative value is spliced as one --flag=value token
    cfg.write_text(json.dumps({"q": "-2/3", "n": 4, "delta": 3}))
    code, blob = run(capsys, "certify", "--config", str(cfg))
    assert code == 0 and blob["params"]["q"] == "-2/3"
    missing = main(["certify", "--config", str(tmp_path / "nope.json")])
    assert missing == 2
    with pytest.raises(SystemExit) as exc:   # no subcommand to follow
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "1/3", "n": 5}))
    code, blob = run(capsys, f"--config={cfg}", "build")
    assert code == 0 and blob["degree"] == 5
    code, blob = run(capsys, f"--config={cfg}", "build", "--n", "6")
    assert blob["degree"] == 6               # explicit flag wins
    assert main([f"--config={tmp_path / 'nope.json'}", "build"]) == 2
    assert capsys.readouterr().err.startswith("error: bad --config:")
    with pytest.raises(SystemExit):      # an abbreviation is not read
        main(["--conf", str(cfg), "build"])
    capsys.readouterr()


_BATCH = ["certify", "--q", "1/3", "--delta", "3", "--batch-n", "2:2"]


@pytest.mark.parametrize("argv, flags", [
    pytest.param(_BATCH + ["--n", "2"], ("--n", "--batch-n"), id="--n"),
    pytest.param(_BATCH + ["--seed-file", "SEED"], ("--seed-file",
                                                    "--batch-n"),
                 id="--seed-file"),
    pytest.param(["certify", "--q", "1/3", "--n", "3", "--d", "5", "--u",
                  "7", "--alpha", "2"], ("--q", "--d"), id="q-and-d-u-alpha"),
    pytest.param(["build", "--q", "1/3", "--n", "2", "--alpha", "1"],
                 ("--q", "--alpha"), id="build-q-and-alpha"),
    pytest.param(["polygon", "--q", "1/3", "--n", "2", "--prime", "2",
                  "--u", "0"], ("--q", "--u"), id="polygon-q-and-u"),
    pytest.param(["certify", "--q", "1/3", "--n", "2", "--seed", "ones",
                  "--seed-file", "SEED"], ("--seed", "--seed-file"),
                 id="certify-seed-and-seed-file"),
    pytest.param(["build", "--q", "1/3", "--n", "2", "--seed-file", "SEED",
                  "--seed", "laguerre"], ("--seed", "--seed-file"),
                 id="build-seed-and-seed-file"),
    pytest.param(["polygon", "--config", "CFG", "--n", "2", "--prime", "2",
                  "--seed-file", "SEED"], ("--seed", "--seed-file"),
                 id="polygon-config-seed-and-seed-file"),
    pytest.param(["certify", "--config", "CFG", "--n", "2", "--d", "5"],
                 ("--q", "--d"), id="config-q-and-d"),
    pytest.param(["build", "--hermite", "3", "--seed-file", "MISSING"],
                 ("--hermite", "--seed-file"), id="build-hermite-and-seed-file"),
    pytest.param(["build", "--config", "CFG", "--hermite", "3"],
                 ("--hermite", "--q"), id="build-hermite-and-config-q"),
    pytest.param(["polygon", "--coeff-file", "SEED", "--prime", "2", "--n",
                  "5"], ("--coeff-file", "--n"), id="polygon-coeff-file-and-n"),
    pytest.param(["polygon", "--config", "CFG", "--coeff-file", "SEED",
                  "--prime", "2"], ("--coeff-file", "--seed"),
                 id="polygon-coeff-file-and-config-seed"),
    pytest.param(["--config", "CFG", "--config", "MISSING", "sieve",
                  "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
                  "--limit", "100"],
                 ("error: bad --config: --config given more than once",),
                 id="config-twice"),
    pytest.param(["certify", "--q", "1/3", "--n", "3", "--config"],
                 ("error: bad --config: --config needs a PATH",),
                 id="config-without-path"),
    pytest.param(["certify", "--d", "3", "--n", "4"],
                 ("give either --q or all of --d/--u/--alpha",),
                 id="d-without-u-and-alpha"),
    pytest.param(["polygon", "--coeff-file", "EMPTY", "--prime", "2"],
                 ("empty.txt: no coefficients found",), id="empty-coeff-file"),
    pytest.param(["polygon", "--coeff-file", "ZERO", "--prime", "2"],
                 ("constant term must be nonzero",), id="zero-constant-term"),
    pytest.param(["build", "--q", "1/3", "--n", "3", "--seed-file", "TWO"],
                 ("seed length 2 does not match degree n=3",),
                 id="seed-file-too-short"),
])
def test_certify_batch_rejects_per_instance_flags(tmp_path, capsys, argv,
                                                  flags):
    # two flags that give the same thing (--batch-n and --n or
    # --seed-file; --q and --d/--u/--alpha; --seed and --seed-file;
    # build --hermite or polygon --coeff-file and any instance flag) are a
    # usage error naming both, in every command that reads them, before
    # any file is read; a --config value (here {"q": "1/3", "seed":
    # "ones"}) counts as a flag given first, and a second --config is
    # refused before either file is read; the last three read a file
    # that holds no coefficient, a zero constant term or too few values
    paths = {"SEED": tmp_path / "seed.txt", "CFG": tmp_path / "cfg.json",
             "MISSING": tmp_path / "missing.txt",
             "EMPTY": tmp_path / "empty.txt", "ZERO": tmp_path / "zero.txt",
             "TWO": tmp_path / "two.txt"}
    paths["SEED"].write_text("1\n1\n1\n")
    paths["EMPTY"].write_text("")
    paths["ZERO"].write_text("0\n1\n2\n")
    paths["TWO"].write_text("1\n1\n")
    paths["CFG"].write_text(json.dumps({"q": "1/3", "seed": "ones"}))
    assert main([str(paths.get(tok, tok)) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(flag in captured.err for flag in flags), captured.err


@pytest.mark.parametrize("exc", [
    CertificationInternalError("x"), RuntimeError("y")])
def test_internal_errors_exit_3_naming_the_exception(capsys, monkeypatch,
                                                     exc):
    # one last-resort boundary: any exception that is not a usage error
    # exits 3 with its type and text on stderr and nothing on stdout
    def raising(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli.certify_mod, "full_certify", raising)
    assert main(["certify", "--q", "1/3", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"internal error: {type(exc).__name__}: {exc.args[0]}\n")


def test_elapsed_goes_to_stderr(capsys):
    main(["build", "--hermite", "2"])
    err = capsys.readouterr().err
    assert "elapsed_ms=" in err


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["certify", "--config", str(cfg), "--q", "1/3",
                 "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --config:")
    assert "list" in captured.err


def test_certify_batch_rejects_an_empty_range(capsys):
    assert main(["certify", "--q", "1/3", "--batch-n", "5:2",
                 "--delta", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5:2" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["certify", "--q", "1/3", "--batch-n", "5", "--delta", "3"],
     "--batch-n"),
    (["sieve", "rset-mismatch", "--k-range", "5"], "--k-range")])
def test_range_without_colon_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} takes lo:hi, got '5'" in captured.err


def test_empty_batch_range_is_a_batch_usage_error(capsys):
    # an empty --batch-n is given, not absent: it must be refused as a
    # range, not fall back to --n
    assert main(["certify", "--q", "1/3", "--batch-n=", "--delta", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--batch-n takes lo:hi, got ''" in captured.err


@pytest.mark.parametrize("argv, flag, spec", [
    (["certify", "--q", "1/3", "--batch-n", "2:x", "--delta", "3"],
     "--batch-n", "2:x"),
    (["certify", "--q", "1/3", "--batch-n", "2.5:9", "--delta", "3"],
     "--batch-n", "2.5:9"),
    (["sieve", "rset-mismatch", "--k-range", ":5"], "--k-range", ":5"),
    (["sieve", "rset-mismatch", "--k-range", "2:"], "--k-range", "2:")])
def test_range_with_a_non_integer_end_names_its_flag(capsys, argv, flag,
                                                     spec):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} takes integers lo:hi, got '{spec}'\n" in (
        captured.err)


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_sieve_p5_pairs_rejects_bad_limit(capsys, limit):
    assert main(["sieve", "p5-pairs", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: limit must be at least 1, got {limit}" in captured.err


@pytest.mark.parametrize("argv", [
    ["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
     "--limit", "200", "--odd-only", "--min-exclusive", "8"],
    ["sieve", "ap-gaps", "--modulus", "3", "--residues", "1,2",
     "--limit", "1000", "--gap-bound", "40"]])
def test_sieve_reports_query_time_and_memory_on_stderr(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "peak_rss_mb" not in captured.out
    lines = captured.err.splitlines()
    assert [ln.split("=")[0] for ln in lines] == ["query_ms", "elapsed_ms"]
    assert captured.err.count("elapsed_ms=") == 1
    assert captured.err.count("peak_rss_mb=") == 1
    fields = dict(kv.split("=") for kv in lines[0].split())
    assert set(fields) == {"query_ms", "peak_rss_mb"}
    assert float(fields["peak_rss_mb"]) > 0
