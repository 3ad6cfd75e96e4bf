"""ghlcert benchmark: four CLI workloads, timed end to end, traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in turn

Run from the repository root.  Each pass is a fresh interpreter
(worker.py) that calls ``ghlcert.cli.main(argv)`` in-process for each
command of the workload, in order: a closed loop with one client and
``--jobs`` left at 1, so the load is one process.  There is no warm-up: a
CLI user pays the cold prime and smallest-prime-factor caches on every
invocation.  Passes repeat until ``--seconds`` is used (at least
MIN_PASSES) and the median pass is reported.  On w1_grid the seed sets one
order of the commands, which every pass of the run follows, traced or not.
w3_sweeps keeps the order listed below, whatever the seed: its order sets
how often the shared SPF table is rebuilt (1 to 3 times over seeds 1..10)
and its peak RSS (quartiles 79 and 88 MiB over those seeds), so a per-seed
order made runs with different seeds do different work.  The listed order
rebuilds it 3 times.
w2_large and w4_gpf7 have one command.

End-to-end metrics (``--trace 0``):

* setup_s: spawn of a worker until ghlcert is imported and ready; median
  over the set-up-only workers, one spawned before each pass.
* wall_s: the pass's command times, summed; median over passes.
* peak_rss_mb: peak resident set size of a pass's process; median over
  passes.

setup_s and wall_s are in reference seconds.  The host this was written on
(a shared 2-vCPU VM) changes speed by up to 1.8x within seconds and for
minutes at a time, so raw medians of runs of the same code differed by up
to 50%.  Each worker therefore times a fixed calibration kernel right
before and after every command (worker.KERNELS: an interpreter kernel for
``certify``, a numpy kernel for ``sieve``), and a command's time counts as
``s * REF_S[kind] / mean(before, after)``: its time on a host where the
kernel takes REF_S seconds.  Set-up time is scaled the same way by both
kernels, timed right after import.  The raw times are printed in the
summary line (raw_wall_s, raw_setup_s) but are not metrics.  A change to
the kernels or to REF_S changes the unit, so compare only runs of the same
benchmark code.  Work that a command leaves running in the background would
slow the kernels and read as a gain, so a claimed gain should also show in
the raw times.

Failures are the result line's ``failed`` out of ``attempted`` commands
(failed_frac in the summary line).  A command fails when its exit code or
the sha256 of its stdout differs from reference.json, or when its pass
was killed by the wall-clock timeout or hit the address-space cap.

With ``--trace 1`` traced and untraced passes alternate; the result
carries the per-layer metrics of layertrace.py (median over traced passes)
and trace.overhead_s, the traced minus the untraced median wall_s.  The
spans of the last traced pass are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

AS_MB = 2048          # address-space cap of a worker
PASS_TIMEOUT = 60.0   # wall-clock cap of one pass, seconds
RUN_DEADLINE = 150.0  # no pass may run past this point of a run
MIN_PASSES = 3
# Calibration kernel seconds that define one reference second: the
# kernels' median times in set-up-only workers on the 2-vCPU Xeon host the
# benchmark was written on.
REF_S = {"certify": 0.060, "sieve": 0.055}

_W1_FAMILIES = [("-2/3", 3), ("-1/3", 3), ("1/3", 3), ("2/3", 3),
                ("-3/4", 4), ("-1/4", 4), ("1/4", 4), ("3/4", 4)]

# Why each workload is here: the ``why`` entries of BENCHMARK.json.
WORKLOADS = {
    "w1_grid": [["certify", f"--q={q}", "--batch-n", "2:100",
                 "--delta", str(d)] for q, d in _W1_FAMILIES],
    "w2_large": [["certify", "--q", "1/3", "--n", "2000", "--delta", "3"]],
    "w3_sweeps": [s.split() for s in (
        "sieve gpf-bound --d 4 --k 2 --bound 12 --limit 1000000 --odd-only "
        "--min-exclusive 8",
        "sieve gpf-bound --d 4 --k 3 --bound 16 --limit 1000000 --odd-only "
        "--min-exclusive 12",
        "sieve gpf-bound --d 4 --k 2 --bound 8 --limit 1000000 --odd-only "
        "--min-exclusive 8",
        "sieve gpf-bound --d 3 --k 2 --bound 6 --limit 1000000 "
        "--min-exclusive 6 --not-divisible-by 3",
        "sieve p5-pairs --limit 1000000",
        "sieve ap-gaps --modulus 3 --residues 1,2 --limit 6450 --gap-bound 60",
        "sieve ap-gaps --modulus 4 --residues 1,3 --limit 11000000 "
        "--gap-bound 270")],
    "w4_gpf7": [["sieve", "gpf-bound", "--d", "4", "--k", "2", "--bound", "12",
                 "--limit", "10000000", "--odd-only", "--min-exclusive", "8"]],
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's commands in the order they run under ``seed``."""
    cmds = [list(c) for c in WORKLOADS[workload]]
    if workload == "w1_grid":
        random.Random(seed).shuffle(cmds)
    return cmds


def _worker_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _under(path: str, root: Path) -> bool:
    try:
        Path(path).resolve().relative_to(root.resolve())
        return True
    except ValueError:
        return False


def _spawn(extra, stdin_text: str, timeout: float, as_mb: int) -> dict:
    """Run one worker and wait for it; kill it after ``timeout`` seconds.
    Returns its parsed output lines, the set-up time (None if it never got
    ready), whether it was killed (then also its peak RSS), and the seconds
    it took."""
    argv = [sys.executable, str(HERE / "worker.py"), "--as-mb", str(as_mb),
            *extra]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_worker_env(), cwd=ROOT)
    killed, peak_rss_mb = False, None
    try:
        out, err = proc.communicate(stdin_text, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        killed = True
        proc.kill()
        # reap it here for its own peak RSS; communicate() then only drains
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_rss_mb = usage.ru_maxrss / 1024.0
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.monotonic() - t_spawn
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut short by the kill
    setup_s = None
    if lines and "ready" in lines[0]:
        if not _under(lines[0]["module"], SRC):
            raise RuntimeError(f"worker imported {lines[0]['module']}, "
                               f"not the sources under {SRC}")
        setup_s = lines[0]["ready"] - t_spawn
    return {"lines": lines, "setup_s": setup_s, "killed": killed,
            "peak_rss_mb": peak_rss_mb, "elapsed": elapsed, "stderr": err}


def setup_once() -> dict | None:
    """Set-up time of one set-up-only worker, raw and scaled by both
    kernels; None if it never got ready."""
    run = _spawn(["--setup-only"], "", PASS_TIMEOUT, AS_MB)
    cal = next((rec["cal_s"] for rec in run["lines"] if "cal_s" in rec),
               None)
    if run["setup_s"] is None or cal is None:
        return None
    scale = sum(REF_S[kind] for kind in cal) / sum(cal.values())
    return {"setup_s": run["setup_s"] * scale, "raw_setup_s": run["setup_s"]}


def scaled_s(argv, rec) -> float:
    """A command's time in reference seconds (see the module docstring)."""
    return rec["s"] * REF_S[argv[0]] / statistics.mean(rec["cal_s"])


def run_pass(cmds, *, trace_file: Path | None = None,
             timeout: float = PASS_TIMEOUT, as_mb: int = AS_MB) -> dict:
    """One worker pass over ``cmds``.  ``results[i]`` is the i-th command's
    {"exit", "sha256", "bytes", "s", "cal_s"}, or None if it never
    finished.  ``wall_s`` is the scaled sum of the command times and
    ``raw_wall_s`` the plain sum; a killed or crashed pass is charged its
    raw elapsed time in both."""
    extra = ["--trace", str(trace_file)] if trace_file else []
    run = _spawn(extra, json.dumps(cmds), timeout, as_mb)
    results = [None] * len(cmds)
    done = None
    for rec in run["lines"]:
        if "cmd" in rec:
            results[rec["cmd"]] = rec
        elif "peak_rss_mb" in rec:
            done = rec
    if done is None:  # killed or crashed: charge what it cost
        print(f"worker {'killed' if run['killed'] else 'failed'}:\n"
              f"{run['stderr'][-2000:]}", file=sys.stderr)
        done = {"peak_rss_mb": run["peak_rss_mb"],
                "wall_s": run["elapsed"], "raw_wall_s": run["elapsed"]}
    else:
        done["wall_s"] = sum(scaled_s(argv, rec)
                             for argv, rec in zip(cmds, results))
        done["raw_wall_s"] = sum(rec["s"] for rec in results)
    return {"results": results,
            "killed": run["killed"], "elapsed": run["elapsed"], **done}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def count_failed(workload: str, cmds, results, reference: dict) -> int:
    expected = reference[workload]
    failed = 0
    for argv, got in zip(cmds, results):
        want = expected[" ".join(argv)]
        if got is None or got["exit"] != want["exit"] \
                or got["sha256"] != want["sha256"]:
            failed += 1
    return failed


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload for about ``seconds``; returns the result line's
    fields plus the per-pass data the summary and baseline.py use."""
    reference = load_reference()
    start = time.monotonic()
    setups, plain, traced = [], [], []
    attempted = failed = 0
    trace_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    while True:
        elapsed = time.monotonic() - start
        done = len(plain) + len(traced)
        if done >= min_passes:
            typical = statistics.median(p["elapsed"] for p in plain + traced)
            if elapsed + typical > seconds:
                break
        if elapsed > RUN_DEADLINE - 1.0:
            break
        use_trace = trace and done % 2 == 1
        if not trace:
            setups.append(setup_once())
        cmds = commands(workload, seed)
        p = run_pass(cmds, trace_file=trace_file if use_trace else None,
                     timeout=min(PASS_TIMEOUT, RUN_DEADLINE - elapsed))
        attempted += len(cmds)
        failed += count_failed(workload, cmds, p["results"], reference)
        (traced if use_trace else plain).append(p)
    setups = [s for s in setups if s is not None]
    if not trace and not setups:
        raise RuntimeError(f"no worker could import ghlcert from {SRC}")
    rss = [p["peak_rss_mb"] for p in plain if p["peak_rss_mb"] is not None]
    if not rss:
        raise RuntimeError("every pass crashed before reporting its RSS")
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        runs = [p["layers"] for p in traced if "layers" in p] or [{}]
        # median_low keeps counts integral: it returns one pass's value
        layers = {name: statistics.median_low(r.get(name, 0) for r in runs)
                  for name in layertrace.Tracer().metrics()}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - wall)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"]
                                                   for s in setups),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": plain, "traced_passes": traced,
            "setups": setups}


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".builds")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "s"


def result_line(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def summary(workload: str, res: dict) -> str:
    parts = [f"{name}={m['value']:.6g} {m['unit']}"
             for name, m in res["metrics"].items()
             if "." not in name or name.startswith("trace.")]
    for key, runs in (("raw_setup_s", res["setups"]),
                      ("raw_wall_s", res["passes"])):
        if runs:
            raw = statistics.median(r[key] for r in runs)
            parts.append(f"{key}={raw:.6g} s")
    frac = res["failed"] / res["attempted"]
    parts.append(f"failed_frac={frac:.6g} ({res['failed']}/"
                 f"{res['attempted']} commands)")
    return f"{workload}: " + "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ghlcert" / "cli.py").is_file():
        print(f"error: no ghlcert sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary(name, res), flush=True)
        if len(names) == 1:
            total = result_line(res)
            break
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
