"""src/ghlcert holds only what a command runs, or what ALLOWLIST names.

A fixed corpus of commands runs in-process through cli.main, in a fresh
interpreter, under sys.setprofile and threading.setprofile: the segmented
gpf sweep runs its blocks on threads, which sys.setprofile alone misses.
Every function defined in the package's source, nested ones included,
that no command called must be an entry of ALLOWLIST, and every entry must
still be uncalled, so the allowlist can only shrink.  A helper that only
the tests call belongs in tests/oracles.py, not in src/."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_TRACE_HOOK = ("wrapped by perfbench/layertrace.py, which fails on a "
               "missing name; goes with its hook")
_DEGREE_SETS = ("the degree-set stage, which only the library runs "
                "(full_certify(..., degree_sets=True)); goes when certify "
                "runs it")

ALLOWLIST = {
    "certify.Certificate.to_json_dict": _TRACE_HOOK,
    "criteria.find_exclusion_prime": _TRACE_HOOK,
    "criteria.window_stage": _TRACE_HOOK,
    "criteria.margin_stage": _TRACE_HOOK,
    "sieve.SpfTable.__init__": _TRACE_HOOK,
    "sieve.shared_table": _TRACE_HOOK,
    "sieve.gpf_array": _TRACE_HOOK,
    "certify._degree_set_stage": _DEGREE_SETS,
    "criteria.degree_set_stage": _DEGREE_SETS,
    "polynomials.IntegerPolynomial.leading": _DEGREE_SETS,
    "gfp._trim": _DEGREE_SETS,
    "gfp.reduce_mod": _DEGREE_SETS,
    "gfp.degree": _DEGREE_SETS,
    "gfp.monic": _DEGREE_SETS,
    "gfp.poly_divmod": _DEGREE_SETS,
    "gfp.gcd": _DEGREE_SETS,
    "gfp._derivative": _DEGREE_SETS,
    "gfp.is_squarefree": _DEGREE_SETS,
    "gfp._ResidueRing.__init__": _DEGREE_SETS,
    "gfp._ResidueRing.mul": _DEGREE_SETS,
    "gfp._ResidueRing.pow": _DEGREE_SETS,
    "gfp.distinct_degree_factors": _DEGREE_SETS,
    "gfp.factor_degree_counts": _DEGREE_SETS,
}

# 1 + d = 100000000003 * 100001000009: certify factorises it by rho
_BIG_D = "10000100001200003000026"

# (argv, exit code); paths are relative to the run's working directory,
# where seed.txt and cfg.json are written first
CORPUS = [
    # W1, the AC-11 grid, to n = 30
    *((["certify", f"--q={q}", "--batch-n", "2:30", "--delta", q[-1]], code)
      for q, code in (("-1/3", 0), ("-1/4", 0), ("-2/3", 1), ("-3/4", 0),
                      ("1/3", 0), ("1/4", 1), ("2/3", 1), ("3/4", 0))),
    # W2 at n = 300
    (["certify", "--q", "1/3", "--n", "300", "--delta", "3"], 0),
    # W3 with smaller limits, then the segmented gpf sweep
    (["sieve", "ap-gaps", "--modulus", "3", "--residues", "1,2", "--limit",
      "6450", "--gap-bound", "60"], 0),
    (["sieve", "ap-gaps", "--modulus", "4", "--residues", "1,3", "--limit",
      "110000", "--gap-bound", "100"], 0),
    (["sieve", "gpf-bound", "--d", "3", "--k", "2", "--bound", "6",
      "--limit", "100000", "--min-exclusive", "6", "--not-divisible-by",
      "3"], 0),
    (["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
      "--limit", "100000", "--odd-only", "--min-exclusive", "8"], 0),
    (["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "8",
      "--limit", "100000", "--odd-only", "--min-exclusive", "8"], 0),
    (["sieve", "gpf-bound", "--d", "4", "--k", "3", "--bound", "16",
      "--limit", "100000", "--odd-only", "--min-exclusive", "12"], 0),
    (["sieve", "p5-pairs", "--limit", "100000"], 0),
    (["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "100",
      "--limit", "3000000"], 0),
    (["sieve", "smoothness", "--k", "401", "--l", "3"], 0),
    (["sieve", "smoothness", "--k", "401", "--pow2"], 0),
    (["sieve", "rset-mismatch", "--k-range", "2:200"], 0),
    # build, polygon and certify options
    (["build", "--q", "1/3", "--n", "5", "--delta", "3"], 0),
    (["build", "--hermite", "7"], 0),
    (["build", "--q", "1/3", "--n", "30", "--out", "big.txt"], 0),
    (["polygon", "--coeff-file", "big.txt", "--prime", "2", "--tsv", "-"],
     0),
    (["polygon", "--q", "1/3", "--n", "10", "--prime", "2", "--svg",
      "polygon.svg"], 0),
    (["certify", "--q", "1/3", "--n", "3", "--delta", "3", "--seed-file",
      "seed.txt"], 0),
    (["certify", "--q=-3/4", "--n", "20", "--delta", "4", "--seed", "ones"],
     0),
    (["certify", "--d", _BIG_D, "--u", "0", "--alpha", "1", "--n", "1"], 0),
    (["--config", "cfg.json", "certify"], 0),
    (["certify", "--q", "1/3", "--n", "3", "--d", "5"], 2),
]

# Run the corpus under the profiler and print the (file, first line, name)
# of every package function that was called, and each command's exit code.
_PROBE = """
import contextlib, io, json, sys, threading
import numpy  # imported before the profiler: not package code

root, corpus = sys.argv[1], json.loads(sys.argv[2])
called = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(root):
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

threading.setprofile(profile)
sys.setprofile(profile)
from ghlcert.cli import main
codes = []
for argv in corpus:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def _package_functions(root: Path) -> dict:
    """{(file, first line, name): "module.qualname"} for every function,
    method and nested function in root's modules; comprehensions and
    lambdas belong to the function they sit in."""
    out = {}

    def walk(code, prefix, module):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
            qualname = prefix + const.co_name
            if is_function:
                out[const.co_filename, const.co_firstlineno,
                    const.co_name] = f"{module}.{qualname}"
            walk(const, qualname + (".<locals>." if is_function else "."),
                 module)

    for path in sorted(root.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), "", path.stem)
    return out


def test_every_package_function_is_run_by_a_command_or_allowlisted(
        tmp_path):
    (tmp_path / "seed.txt").write_text("3\n-1\n4\n-1\n")
    (tmp_path / "cfg.json").write_text(
        json.dumps({"q": "1/3", "n": 5, "delta": 3}))
    root = _SRC / "ghlcert"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(root),
         json.dumps([argv for argv, _ in CORPUS])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [code for _, code in CORPUS]
    functions = _package_functions(root)
    called = {tuple(key) for key in result["called"]}
    uncalled = {name for key, name in functions.items() if key not in called}
    assert sorted(uncalled - ALLOWLIST.keys()) == [], (
        "run by no command: move to tests/oracles.py, delete, or add a "
        "command that runs it")
    assert sorted(ALLOWLIST.keys() - uncalled) == [], (
        "run by a command now, or gone: drop from ALLOWLIST")
    assert elapsed < 2.0, elapsed
