"""shearspec benchmark: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload strip --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the end-to-end metrics are measured with no
spans installed; with ``--trace 1`` untraced and traced calls alternate and
the per-layer metrics come from the traced ones.  Every call's results are
checked against ``reference.json``.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is the machine record.  Spans and a full record of
the run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("strip", "shear_sweep", "lmask", "certificates")
# fresh processes timed for setup_s; the median is reported
SETUP_RUNS = 3

# a child process times its own import of shearspec and the build of the
# workload's inputs, from its first statement
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.build({name!r}, {size!r}, {seed!r}, {workdir!r})
print(time.perf_counter() - t0)
"""


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_flops"):
        return "computed_flop"
    return "count"


def fresh_setup_seconds(name: str, size: str, seed: int, workdir: str) -> float:
    code = _SETUP_CHILD.format(paths=[HERE, SRC], name=name, size=size,
                               seed=seed, workdir=workdir)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup process failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _openblas(pkg) -> list[dict]:
    """Version string and thread count of each OpenBLAS a wheel bundles."""
    libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                          pkg.__name__ + ".libs")
    found = []
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        rec = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and cfg is not None:
                    get.restype = ctypes.c_int
                    cfg.restype = ctypes.c_char_p
                    rec["threads"] = get()
                    rec["config"] = cfg().decode()
                    break
            if "threads" in rec:
                break
        found.append(rec)
    return found


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        st = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip() or None,
            "dirty": bool(st.stdout.strip()) if st.returncode == 0 else None}


def machine_record() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_numpy": _openblas(numpy),
        "openblas_scipy": _openblas(scipy),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git": git_state(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    # imported here: both import shearspec, which main() first locates
    import spans
    import workloads

    with open(REFERENCE) as f:
        ref = json.load(f)
    rtol = ref["tolerances"]["float_rtol"]
    workdir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    os.makedirs(workdir, exist_ok=True)

    setups = [] if trace else [
        fresh_setup_seconds(name, size, seed, os.path.join(workdir, "setup"))
        for _ in range(SETUP_RUNS)]

    # warm-up at the smoke size: lazy imports and first-call costs are
    # paid here, once per process, not in the timed calls
    warm = workloads.build(name, "smoke", seed, os.path.join(workdir, "warm"))
    workloads.run(name, warm)

    inputs = workloads.build(name, size, seed, os.path.join(workdir, "run"))
    tracer = spans.Tracer()
    plain, traced, layers, problems = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    rep = 0
    while True:
        with_spans = trace and rep % 2 == 1
        if with_spans:
            tracer.run_id = rep
            tracer.install()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = workloads.run(name, inputs)
        except Exception:
            out = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if with_spans:
            tracer.uninstall()

        if out is None:
            ops = len(ref["workloads"][name][size])
            attempted += ops
            failed += ops
            problems.append(f"call {rep} raised:\n{error}")
        else:
            found = workloads.check(name, size, out.results, ref, rtol)
            attempted += len(found)
            failed += sum(1 for msgs in found.values() if msgs)
            problems += [m for msgs in found.values() for m in msgs]
        (traced if with_spans else plain).append((wall, cpu))
        if with_spans and out is not None:
            layers.append(spans.layer_metrics(tracer.spans, rep, out.rungs))
        rep += 1
        if time.perf_counter() >= t_end and (not trace or rep >= 2):
            break

    if trace:
        metrics = spans.median_metrics(layers) if layers else {}
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced)
            - statistics.median(w for w, _ in plain))
        metrics["fail_frac"] = failed / attempted
        tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "machine": machine_record(),
              "untraced_calls": plain, "traced_calls": traced,
              "setup_runs": setups, "problems": problems, "result": line}
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    return line, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "shearspec", "__init__.py")):
        print(f"error: no shearspec sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    line, record = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for msg in record["problems"]:
        print(f"problem: {msg}", file=sys.stderr)
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
