"""Regenerate reference.json: the checked results of every workload.

    python3 perfbench/reference.py

Runs each workload at both sizes with seeds 0 and 1, requires the two to
agree (exactly for counts, flags, booleans and exit codes; floats within
FLOAT_RTOL), and stores the seed-0 results.  Run it only at a commit
whose answers are trusted: every benchmark run is checked against it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Ritz values converge to a relative residual of 1e-9 (the default
# EigOptions tolerance of the ladders); extrapolated values combine two
# rungs, so a float may move by a small multiple of that between seeds
FLOAT_RTOL = 1e-8


def main() -> int:
    ref = {"source": run.git_state(), "tolerances": {"float_rtol": FLOAT_RTOL},
           "workloads": {}}
    for name in run.WORKLOAD_NAMES:
        ref["workloads"][name] = {}
        for size in workloads.SIZES:
            got = []
            for seed in (0, 1):
                workdir = os.path.join(run.OUT, f"reference-{name}-{size}")
                inp = workloads.build(name, size, seed, workdir)
                got.append(workloads.run(name, inp).results)
            ref["workloads"][name][size] = got[0]
            problems = workloads.check(name, size, got[1], ref, FLOAT_RTOL)
            bad = [m for msgs in problems.values() for m in msgs]
            if bad:
                print(f"{name}/{size}: seeds 0 and 1 disagree or a bound "
                      f"fails:\n  " + "\n  ".join(bad), file=sys.stderr)
                return 1
            print(f"{name}/{size}: {len(got[0])} operations", flush=True)
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
