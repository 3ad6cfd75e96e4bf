"""One benchmark pass in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH and the pass's commands as a
JSON list of argv lists on stdin.  Caps its own address space, imports
ghlcert, then calls ``ghlcert.cli.main(argv)`` for each command in order
with stdout and stderr captured in memory.  Writes one JSON object per line
to its real stdout:

    {"ready": <time.monotonic() once ghlcert is imported>, "module": ...}
    {"cal_s": {kind: seconds, ...}}          (--setup-only: every kernel)
    {"cmd": i, "exit": code, "sha256": ..., "bytes": n, "s": seconds,
     "cal_s": [before, after]}                          (per command)
    {"peak_rss_mb": ..., "layers": {...}}               (at the end)

The per-command lines are flushed as they happen, so a pass that is killed
still shows which commands finished.

Calibration: right before and right after each command the worker times a
fixed kernel of the command's kind (``KERNELS``, keyed by subcommand), so
that run.py can scale the command's time by the host's speed at that
moment.  A command of the same kind as the one before it reuses that
command's after-time as its before-time.  The interpreter kernel
allocates next to nothing; the array kernel, run only around sieve
commands, allocates about 14 MB, which stays below the sieve workloads'
peak RSS.

    python3 perfbench/worker.py [--setup-only] [--trace FILE] [--as-mb N]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

_OUT = sys.stdout


def _interpreter_kernel() -> int:
    """Pure-Python integer and dict work, like certify's witness search."""
    acc, seen = 0, {}
    for i in range(250_000):
        x = i * i % 1_000_003
        seen[x & 1023] = x
        acc += x // 7
    return acc


def _array_kernel() -> int:
    """numpy gather, scatter and division on fresh arrays, like the sieve's
    greatest-prime-factor peeling."""
    import numpy as np
    acc = 0
    for _ in range(3):
        cur = np.arange(1_000_000, dtype=np.int32)
        idx = np.flatnonzero(cur % 3 > 0)
        cur[idx] //= cur[idx] % 7 + 2
        acc += int(cur[::4096].sum())
    return acc


KERNELS = {"certify": _interpreter_kernel, "sieve": _array_kernel}


def calibrate(kind: str) -> float:
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def emit(obj) -> None:
    _OUT.write(json.dumps(obj) + "\n")
    _OUT.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None,
                    help="trace the pass and write its spans to this file")
    ap.add_argument("--as-mb", type=int, required=True,
                    help="address-space cap in MiB")
    args = ap.parse_args()
    cap = args.as_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import ghlcert.cli
    emit({"ready": time.monotonic(), "module": ghlcert.cli.__file__})
    if args.setup_only:
        emit({"cal_s": {kind: calibrate(kind) for kind in KERNELS}})
        return 0
    commands = json.load(sys.stdin)
    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.install()
    cli_main = ghlcert.cli.main  # looked up after install: maybe wrapped

    prev_kind, after = None, None
    for i, argv in enumerate(commands):
        if tracer is not None:
            tracer.cmd = i
        kind = argv[0]
        before = after if kind == prev_kind else calibrate(kind)
        t0 = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects a command
                code = exc.code
        cmd_s = time.perf_counter() - t0
        after, prev_kind = calibrate(kind), kind
        data = out.getvalue().encode()
        if tracer is not None:
            tracer.nbytes["cli.out"] += len(data)
        emit({"cmd": i, "exit": code,
              "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
              "s": cmd_s, "cal_s": [before, after]})

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = {"peak_rss_mb": peak_mb}
    if tracer is not None:
        done["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
        done["self_s_by_name"] = dict(tracer.self_s)
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["id", "parent", "cmd", "name", "start",
                                  "end"],
                       "spans": tracer.spans}, fh)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
