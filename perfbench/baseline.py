"""Repeat the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/baseline.py [--seeds 10] [--workloads w1_grid,...]
    python3 perfbench/baseline.py --out FILE  # also trace, keep the record

Each run is a fresh ``python3 perfbench/run.py`` with seeds 1..N, the
run_seconds and the command from BENCHMARK.json.  The spread is
(q3 - q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``.  ``--out`` appends the set to FILE's list of sets, so every set
run stays in the record, adds one traced run per workload (seed 1) with
the per-layer metrics and the share of traced wall time spent in each
module's own code, and writes the machine it ran on.
perfbench/baseline.json is that record for the commit that added the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy

import run

# What the record may not be read as; each workload's reason is its
# ``why`` in BENCHMARK.json.
NOTES = {
    "bandwidth": "Byte counts in the trace are computed from array sizes. "
                 "w4_gpf7's arrays (SPF table ~40 MB, peak RSS ~350 MiB) "
                 "are below 4x the reported L3 (300 MiB), so no memory-"
                 "bandwidth figure is claimed, only computed bytes.",
    "failed_frac": "failed / attempted commands: a command fails when its "
                   "exit code or stdout sha256 differs from "
                   "perfbench/reference.json or its pass was killed.",
    "units": "setup_s and wall_s are in reference seconds, scaled by the "
             "calibration kernels of perfbench/worker.py (see run.py). Sets "
             "with a different benchmark_sha256 measured other benchmark "
             "code; sets without one measured raw seconds.",
}


def load_benchmark() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                         check=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def stats(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values)}


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
        with open("/proc/meminfo") as fh:
            kb = int(next(line.split()[1] for line in fh
                          if line.startswith("MemTotal")))
            info["ram_gib"] = round(kb / 2 ** 20, 2)
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            if not index.startswith("index"):
                continue
            with open(f"{cache}/{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{cache}/{index}/size") as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                info[f"l{level}_per_instance"] = size
    except (OSError, StopIteration):
        pass  # not Linux, or a field the kernel does not expose
    return info


def layer_shares(traced_passes: list) -> dict:
    """Median self seconds per module across traced passes, and that as a
    share of the median raw traced wall time."""
    wall = statistics.median(p["raw_wall_s"] for p in traced_passes)
    per_module = []
    for p in traced_passes:
        acc = defaultdict(float)
        for name, secs in p["self_s_by_name"].items():
            acc[name.split(".")[0]] += secs
        per_module.append(acc)
    modules = sorted({m for acc in per_module for m in acc})
    out = {}
    for module in modules:
        secs = statistics.median(acc.get(module, 0.0) for acc in per_module)
        out[module] = {"self_s": secs, "share": secs / wall}
    return {"traced_raw_wall_s": wall, "modules": out}


def sha256_of(directory) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--out", default=None,
                    help="also trace each workload; append all to this record")
    args = ap.parse_args()
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    record = {"sets": [], "per_layer": {}, "layer_shares": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    this_set = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "seeds": f"1..{args.seeds}",
                "run_seconds": bench["run_seconds"],
                "sources_sha256": sha256_of(run.SRC / "ghlcert"),
                "benchmark_sha256": sha256_of(run.HERE), "end_to_end": {}}
    for workload in names:
        values = defaultdict(list)
        failed = attempted = 0
        for seed in range(1, args.seeds + 1):
            res = run_once(bench, workload, seed, 0)
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        rows = {}
        for name, vals in values.items():
            rows[name] = stats(vals)
            s = rows[name]
            print(f"{workload:10s} {name:12s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} bound/3={bounds[name] / 3:.4f}"
                  f"{'' if s['spread'] < bounds[name] / 3 else '  WIDE'}",
                  flush=True)
        rows["failed_frac"] = failed / attempted
        this_set["end_to_end"][workload] = rows
        if args.out:
            res = run.run_workload(workload, 1, bench["run_seconds"], True)
            record["per_layer"][workload] = {
                name: m["value"] for name, m in res["metrics"].items()}
            record["layer_shares"][workload] = layer_shares(
                res["traced_passes"])
    if args.out:
        record["sets"].append(this_set)
        record["machine"] = machine()
        record["why"] = {w["name"]: w["why"] for w in bench["workloads"]}
        record["notes"] = NOTES
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
