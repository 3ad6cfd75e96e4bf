"""Checks of the benchmark itself: pinned trace counts, traced output
identical to untraced output, metric names as BENCHMARK.json lists them,
and the runaway guard.  Not part of the package's test suite; run with

    python3 -m pytest -q perfbench/check_trace.py

A count that differs from its pinned value usually means a wrapper missed
a binding (for example ``from .sieve import prime_factors`` in certify).
"""

import json
import os
import subprocess
import sys

import run

SEED = 1


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", ".builds", "bytes", "_ratio"))}


def _digests(p: dict) -> list:
    return [(r["exit"], r["sha256"]) for r in p["results"]]


def _traced_pass(workload, seed, tmp_path):
    cmds = run.commands(workload, seed)
    p = run.run_pass(cmds, trace_file=tmp_path / f"{workload}-{seed}.json")
    assert run.count_failed(workload, cmds, p["results"],
                            run.load_reference()) == 0
    return cmds, p


def test_w1_grid_counts_pinned_repeatable_and_outputs_untouched(tmp_path):
    cmds, a = _traced_pass("w1_grid", SEED, tmp_path)
    _, b = _traced_pass("w1_grid", SEED, tmp_path)
    plain = run.run_pass(cmds)
    assert _counts(a["layers"]) == _counts(b["layers"])
    assert _digests(a) == _digests(b) == _digests(plain)
    layers = a["layers"]
    assert layers["certify.full_certify.calls"] == 792
    assert layers["criteria.find_exclusion_prime.calls"] == 20_000
    assert layers["certify.special_3adic_check.calls"] == 66
    assert layers["cli.out_bytes"] == sum(r["bytes"] for r in plain["results"])


def test_w2_large_counts_pinned(tmp_path):
    cmds, a = _traced_pass("w2_large", SEED, tmp_path)
    _, b = _traced_pass("w2_large", SEED, tmp_path)
    assert _counts(a["layers"]) == _counts(b["layers"])
    assert _digests(a) == _digests(run.run_pass(cmds))
    assert a["layers"]["criteria.find_exclusion_prime.calls"] == 1_000
    assert a["layers"]["sieve.prime_factors.calls"] == 500_502
    assert a["layers"]["certify.special_3adic_check.calls"] == 0
    assert a["layers"]["newton.polygon_from_params.calls"] == 0


def test_metric_names_match_benchmark_json(tmp_path):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    res = run.run_workload("w3_sweeps", SEED, 0, trace=False)
    assert set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    _, p = _traced_pass("w3_sweeps", SEED, tmp_path)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(p["layers"]) | {"trace.overhead_s"} == set(per_layer)
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())


def test_timeout_counts_unfinished_command_as_failed():
    cmds = run.commands("w2_large", SEED)
    p = run.run_pass(cmds, timeout=0.5)
    assert p["killed"] and p["results"] == [None]
    assert 0 < p["peak_rss_mb"] < 200  # the killed worker's own figure
    assert run.count_failed("w2_large", cmds, p["results"],
                            run.load_reference()) == 1


def test_address_space_cap_counts_command_as_failed():
    cmds = run.commands("w4_gpf7", SEED)
    p = run.run_pass(cmds, as_mb=400)
    assert p["results"][0]["exit"] == 3  # MemoryError at the CLI boundary
    assert run.count_failed("w4_gpf7", cmds, p["results"],
                            run.load_reference()) == 1


def test_calibration_kernels_stay_below_sieve_peak_rss():
    # The kernels run inside every pass, so they must not set its peak RSS.
    code = ("import resource, ghlcert.cli, worker\n"
            "for kernel in worker.KERNELS.values(): kernel()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = run._worker_env()
    env["PYTHONPATH"] += os.pathsep + str(run.HERE)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    kernels_mb = int(out) / 1024.0
    p = run.run_pass(run.commands("w3_sweeps", SEED))
    assert kernels_mb + 10 < p["peak_rss_mb"]
