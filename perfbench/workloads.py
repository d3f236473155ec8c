"""The four benchmark workloads: inputs, the timed call, and its checks.

Each workload has a ``build`` step (the inputs a user prepares before the
first timed call: specs, configs, masks) and a ``run`` step (the timed
calls).  ``run`` returns the checked results, one entry per operation,
plus the ladder rungs of every spectrum report it produced.  Results hold
no timings, so the same inputs and seed give the same results; they are
compared against ``reference.json``.

Sizes are ``full`` (what the benchmark measures) and ``smoke`` (tiny
grids for the warm-up call and the self-test).  The seed goes only into
``EigOptions.seed``, the random start block of the eigensolver; a correct
count must not depend on it.

Public functions are always called through their module attribute
(``waveguide.compute_spectrum(...)``), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

from shearspec import certificates, cli, waveguide
from shearspec.eigcore import EigOptions
from shearspec.geometry import Rect, WaveguideSpec

PI2 = math.pi ** 2
SQUARE = Rect(0.0, 1.0, 0.0, 1.0)
STRIP = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))
SWEEP_BETAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
PRISM_BETAS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
EXISTENCE_BETAS = (0.25, 0.5, 1.0, 2.0, 4.0)
BFORM_WELLS = ((0.5, 1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 9.0),
               (1.0, 2.0, 0.75, 9.0), (1.0, 2.0, 0.25, 16.0),
               (0.2, 0.5, 0.3, 4.0))
SIZES = ("full", "smoke")

# ladder grids per size; the full sizes keep the ladder shape of the
# demos at a quarter of their linear resolution so that one timed call
# takes seconds, not minutes
STRIP_DISC = {
    "full": dict(nx=40, n1=8, n2=8, L=21.2, refine=3),
    "smoke": dict(nx=16, n1=8, n2=8, L=21.2, refine=2),
}
SWEEP_DISC = {
    "full": dict(nx=8, n1=8, n2=8, L=4.0, refine=3),
    "smoke": dict(nx=8, n1=8, n2=8, L=4.0, refine=2),
}
LMASK_DISC = {
    "full": dict(nx=10, n1=12, n2=12, L=4.0, refine=2),
    "smoke": dict(nx=8, n1=12, n2=12, L=4.0, refine=2),
}
CERT_GRIDS = {
    "full": dict(sym=(16, 12, 12), sep=(16, 10, 12), prism_unit=64,
                 prism=48),
    "smoke": dict(sym=(8, 8, 8), sep=(8, 8, 8), prism_unit=16, prism=12),
}


@dataclass
class Run:
    """What one timed call produced: checked results and ladder rungs."""

    results: dict[str, dict]
    rungs: list[dict]


def _report_result(rep) -> dict:
    return {
        "count": int(rep.count),
        "stable": bool(rep.stable),
        "flags": list(rep.flags),
        "counts_by_rung": {f"r{r}s{s}": int(c)
                           for (r, s), c in sorted(rep.counts_by_rung.items())},
        "threshold": float(rep.threshold),
        "eigenvalues": [float(v) for v in rep.eigenvalues],
    }


def _report_rungs(rep) -> list[dict]:
    return [{"rung": f"r{rr.grid.r}s{rr.grid.s}", "seconds": rr.seconds,
             "iterations": rr.iterations} for rr in rep.rungs]


# ------------------------------------------------------------------ strip

def build_strip(size: str, seed: int, workdir: str) -> dict:
    d = STRIP_DISC[size]
    disc = waveguide.DiscretizationSpec(mode="reduced2d", l_steps=2, **d)
    return {"spec": WaveguideSpec(1.0, STRIP), "disc": disc,
            "opts": EigOptions(k=4, tol=1e-9, seed=seed)}


def run_strip(inp: dict) -> Run:
    rep = waveguide.compute_spectrum(inp["spec"], inp["disc"], inp["opts"])
    return Run({"strip": _report_result(rep)}, _report_rungs(rep))


def check_strip(results: dict) -> list[tuple[str, str]]:
    r = results["strip"]
    bad = []
    if r["count"] != 1 or not r["stable"] or r["flags"]:
        bad.append(("strip", f"count {r['count']}, stable {r['stable']}, "
                             f"flags {r['flags']}"))
    lam = r["eigenvalues"][0] - PI2
    if abs(lam - 0.93) > 0.01:
        bad.append(("strip", f"lambda1 - pi^2 = {lam:.6f} not within 0.01 "
                             f"of 0.93"))
    return bad


# ------------------------------------------------------------ shear_sweep

def build_shear_sweep(size: str, seed: int, workdir: str) -> dict:
    """Write the sweep config the CLI reads; output goes under workdir."""
    d = dict(SWEEP_DISC[size], mode="reduced", l_steps=2)
    cfg = {"betas": list(SWEEP_BETAS), "rect": [0, 1, 0, 1], "disc": d,
           "eig": {"k": 4, "tol": 1e-9, "seed": int(seed)}}
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "sweep_config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)
    return {"config": path, "out": os.path.join(workdir, "sweep_out")}


def run_shear_sweep(inp: dict) -> Run:
    out = inp["out"]
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", inp["config"], "--out", out])
    with open(os.path.join(out, "reports.json")) as f:
        reports = json.load(f)
    results = {"exit_code": {"code": int(code)}}
    rungs = []
    for rep in reports:
        results[f"beta={rep['beta']:g}"] = {
            "count": rep["count"], "stable": rep["stable"],
            "flags": rep["flags"], "threshold": rep["threshold"],
            "lambda1": rep["eigenvalues"][0],
        }
        rungs += [{"rung": f"r{rr['r']}s{rr['s']}", "seconds": rr["seconds"],
                   "iterations": rr["iterations"]} for rr in rep["rungs"]]
    return Run(results, rungs)


def check_shear_sweep(results: dict) -> list[tuple[str, str]]:
    want = {f"beta={b:g}" for b in SWEEP_BETAS} | {"exit_code"}
    if set(results) != want:
        return [("exit_code", f"reports {sorted(results)} != {sorted(want)}")]
    return []


# ------------------------------------------------------------------ lmask

def build_lmask(size: str, seed: int, workdir: str) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    mask = cli.load_mask(os.path.join(here, os.pardir, "demos", "configs",
                                      "l_mask.txt"))
    d = LMASK_DISC[size]
    disc = waveguide.DiscretizationSpec(mode="half_DN", l_steps=2, **d)
    return {"spec": WaveguideSpec(1.0, mask), "disc": disc,
            "opts": EigOptions(k=4, tol=1e-9, seed=seed)}


def run_lmask(inp: dict) -> Run:
    rep = waveguide.compute_spectrum(inp["spec"], inp["disc"], inp["opts"])
    return Run({"lmask": _report_result(rep)}, _report_rungs(rep))


def check_lmask(results: dict) -> list[tuple[str, str]]:
    r = results["lmask"]
    # the demo's documented band case: one solid bound state, the second
    # value inside the safety band
    if r["count"] != 1 or not r["stable"] or r["flags"] != ["inconclusive"]:
        return [("lmask", f"count {r['count']}, stable {r['stable']}, "
                          f"flags {r['flags']}")]
    return []


# ----------------------------------------------------------- certificates

def build_certificates(size: str, seed: int, workdir: str) -> dict:
    g = CERT_GRIDS[size]
    nx, n1, n2 = g["sym"]
    sym = waveguide.DiscretizationSpec(nx=nx, n1=n1, n2=n2, L=4.0)
    nx, n1, n2 = g["sep"]
    sep = waveguide.DiscretizationSpec(nx=nx, n1=n1, n2=n2, L=4.0)
    return {"spec": WaveguideSpec(1.0, SQUARE), "sym": sym, "sep": sep,
            "sym_opts": EigOptions(k=3, tol=1e-9, seed=seed),
            "sep_opts": EigOptions(k=4, seed=seed),
            "prism_unit": g["prism_unit"], "prism": g["prism"]}


def run_certificates(inp: dict) -> Run:
    res = {}
    sym = waveguide.symmetry_check(inp["spec"], inp["sym"], inp["sym_opts"])
    res["symmetry"] = {
        "half_values": [float(v) for v in sym.half_values[:3]],
        "rel_gap_ok": bool(sym.gaps[:3].max() <= 1e-3),
        "odd_fraction_ok": bool(sym.odd_fraction[0] <= 1e-6),
    }
    sep = waveguide.separation_check(inp["spec"], inp["sep"], inp["sep_opts"])
    res["separation"] = {"values3d": [float(v) for v in sep.values3d],
                         "pairs": [list(p) for p in sep.pairs],
                         "max_rel_ok": bool(sep.max_rel <= 1e-10)}
    unit = certificates.prism_eigen_check(1.0, SQUARE, grid=inp["prism_unit"])
    res["prism_unit"] = {"mu1": unit.mu1, "mu2": unit.mu2,
                         "closed_ok": bool(unit.rel_mu1 <= 0.01
                                           and unit.rel_mu2 <= 0.01)}
    for b in PRISM_BETAS:
        rep = certificates.prism_eigen_check(b, SQUARE, grid=inp["prism"])
        res[f"prism beta={b:g}"] = {"mu1": rep.mu1, "mu2": rep.mu2,
                                    "lower_ok": bool(rep.lower_margin >= 0)}
    eta0 = float(certificates.default_profile().eta(0.0))
    for b in EXISTENCE_BETAS:
        cert = certificates.existence_certificate(b, SQUARE)
        cross = cert.piece_cross / (2.0 * cert.eps)
        res[f"existence beta={b:g}"] = {
            "n": cert.n, "eps": cert.eps, "total": cert.total,
            "verdict": bool(cert.verdict and cert.total < 0),
            "cross_ok": bool(abs(cross + b * eta0 / 2.0) <= 1e-8),
        }
    for beta, eps, kappa, nu in BFORM_WELLS:
        count = certificates.bform_count(beta, eps, kappa, nu, 7.0)
        res[f"bform {beta:g},{eps:g},{kappa:g},{nu:g}"] = {"count": count}
    return Run(res, [])


def check_certificates(results: dict) -> list[tuple[str, str]]:
    """The acceptance bounds of c07, c08, c09 (without the slack that
    needs the square ladders) and c10; the c11 well counts are held by
    the reference."""
    return [(op, f"{key} is {v}") for op, r in results.items()
            for key, v in r.items()
            if (key.endswith("_ok") or key == "verdict") and v is not True]


WORKLOADS = {
    "strip": (build_strip, run_strip, check_strip),
    "shear_sweep": (build_shear_sweep, run_shear_sweep, check_shear_sweep),
    "lmask": (build_lmask, run_lmask, check_lmask),
    "certificates": (build_certificates, run_certificates,
                     check_certificates),
}


def build(name: str, size: str, seed: int, workdir: str) -> dict:
    return WORKLOADS[name][0](size, seed, workdir)


def run(name: str, inputs: dict) -> Run:
    return WORKLOADS[name][1](inputs)


def check(name: str, size: str, results: dict, reference: dict,
          rtol: float) -> dict[str, list[str]]:
    """Problems per operation: disagreement with the stored reference
    (exact for counts, flags, booleans and exit codes; floats within
    ``rtol``), plus the workload's own bounds at the full size."""
    want = reference["workloads"][name][size]
    problems = {op: [] for op in results}
    for op in sorted(set(want) - set(results)):
        problems[op] = [f"{op}: missing from the results"]
    for op, got in results.items():
        if op not in want:
            problems[op].append(f"{op}: not in the reference")
            continue
        problems[op] += [f"{op}{path}: {msg}"
                         for path, msg in _diff(got, want[op], rtol)]
    if size == "full":
        for op, msg in WORKLOADS[name][2](results):
            problems.setdefault(op, []).append(f"{op}: {msg}")
    return problems


def _diff(got, want, rtol, path=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            yield path, f"{got!r} does not have the keys {sorted(want)}"
            return
        for k in want:
            yield from _diff(got[k], want[k], rtol, f"{path}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield path, f"{got} != {want}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _diff(g, w, rtol, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        if not (isinstance(got, (int, float))
                and abs(got - want) <= rtol * max(abs(want), 1e-300)):
            yield path, f"{got!r} not within rtol {rtol:g} of {want!r}"
    elif type(got) is not type(want) or got != want:
        yield path, f"{got!r} != {want!r}"
