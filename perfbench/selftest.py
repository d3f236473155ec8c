"""Self-test of the benchmark at smoke size (tiny grids, well under a minute).

    python3 perfbench/selftest.py

For every workload it checks that

* a traced call returns results identical to an untraced call with the
  same seed, and that removing the spans restores every wrapped name;
* the results agree with the smoke-size reference;
* ``run.measure`` emits exactly the metrics ``BENCHMARK.json`` names,
  each with its unit, with and without tracing.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _bound_names() -> list[tuple]:
    names = []
    for name, owner, attr, _ in spans.FUNCTIONS:
        names.append((owner, attr, getattr(owner, attr)))
    for name, cls, attr, _ in spans.METHODS:
        names.append((cls, attr, vars(cls).get(attr)))
    return names


def check_workload(name: str, declared: dict, ref: dict) -> list[str]:
    bad = []
    workdir = os.path.join(run.OUT, f"selftest-{name}")
    inputs = workloads.build(name, "smoke", SEED, workdir)
    plain = workloads.run(name, inputs)

    before = _bound_names()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workloads.run(name, inputs)
    finally:
        tracer.uninstall()
    if _bound_names() != before:
        bad.append("uninstall did not restore every wrapped name")
    if not tracer.spans:
        bad.append("the traced call recorded no spans")
    if traced.results != plain.results:
        bad.append("traced results differ from untraced results")

    problems = workloads.check(name, "smoke", plain.results, ref,
                               ref["tolerances"]["float_rtol"])
    bad += [m for msgs in problems.values() for m in msgs]

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = run.measure(name, SEED, 0.0, trace, size="smoke")
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != declared[kind]:
            missing = sorted(set(declared[kind]) - set(got))
            extra = sorted(set(got) - set(declared[kind]))
            wrong = sorted(k for k in set(got) & set(declared[kind])
                           if got[k] != declared[kind][k])
            bad.append(f"{kind}: missing {missing}, extra {extra}, "
                       f"wrong unit {wrong}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            bad.append(f"{kind} run: {line['failed']} of "
                       f"{line['attempted']} operations failed")
    return bad


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    with open(run.REFERENCE) as f:
        ref = json.load(f)
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        print("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
        return 1
    failed = False
    for name in run.WORKLOAD_NAMES:
        bad = check_workload(name, declared, ref)
        print(f"{name}: {'ok' if not bad else 'FAIL'}", flush=True)
        for msg in bad:
            print(f"  {msg}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
