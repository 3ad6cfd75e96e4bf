"""Write reference.json: the exit code and stdout sha256 of every benchmark
command, from one untraced pass per workload at the current sources.

    python3 perfbench/make_reference.py [--force]

The stored reference is the correctness gate of run.py.  It was written
once at the commit that added the benchmark; regenerate it only when a
change is meant to alter command output, and say so in that change.
"""

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--force", action="store_true",
                    help="overwrite an existing reference.json")
    args = ap.parse_args()
    if run.REFERENCE.exists() and not args.force:
        print(f"{run.REFERENCE} exists; pass --force to overwrite",
              file=sys.stderr)
        return 1
    reference = {}
    for workload, cmds in run.WORKLOADS.items():
        p = run.run_pass(cmds)
        if None in p["results"]:
            print(f"{workload}: pass did not finish", file=sys.stderr)
            return 1
        reference[workload] = {
            " ".join(argv): {k: got[k] for k in ("exit", "sha256", "bytes")}
            for argv, got in zip(cmds, p["results"])}
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
