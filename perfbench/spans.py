"""Spans around the calls into each shearspec layer, from outside the package.

``Tracer.install()`` replaces every wrapped public function in each
``shearspec`` module that holds it (``shearspec.waveguide.assemble_reduced2d``
as well as ``shearspec.assembly.assemble_reduced2d``), wraps the listed
methods on their classes and ``scipy.linalg.eigh``, and ``uninstall()``
puts the originals back.  A span is ``[name, start, end, parent, run_id,
note]`` kept in memory; ``note`` carries an exact count taken at the
boundary (columns and computed flops of an apply, iterations and matmats
of a solve, the order of a dense eigenproblem).  Spans never alter
arguments or results, so a traced call returns what an untraced one does.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import scipy.linalg

from shearspec import assembly, certificates, cli, cross_section, eigcore
from shearspec import waveguide

RUNGS = ("r0s1", "r1s0", "r1s1", "r2s0", "r2s1")
BUILDS = ("assembly.assemble_reduced2d", "assembly.assemble_waveguide",
          "assembly.assemble_prism")
PRECONDS = ("eigcore.TensorPrecond", "eigcore.SpluPrecond",
            "eigcore.JacobiPrecond")


def _kron_flops(op, X) -> int:
    """Flops of one KronOp.matmat, computed from the terms' nnz and shape:
    2 nnz(F) n / size(F) b per factor F, plus the scaled accumulation."""
    b = 1 if X.ndim == 1 else X.shape[1]
    flops = 0
    for _, mats in op.terms:
        flops += 2 * op.n * b
        for m, s in zip(mats, op.shape):
            flops += 2 * m.nnz * (op.n // s) * b
    return flops


def _apply_note(args, kwargs, out):
    op, X = args[0], args[1]
    return [1 if X.ndim == 1 else X.shape[1], _kron_flops(op, X)]


def _solve_note(args, kwargs, out):
    return [out.iterations, out.matmats]


def _eigh_note(args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    return [a.shape[0]]


# (span name, owner, attribute, note); functions are replaced wherever a
# shearspec module holds them, methods on the owning class
FUNCTIONS = [
    ("waveguide.compute_spectrum", waveguide, "compute_spectrum", None),
    ("waveguide.symmetry_check", waveguide, "symmetry_check", None),
    ("waveguide.separation_check", waveguide, "separation_check", None),
    ("waveguide.sweep_beta", waveguide, "sweep_beta", None),
    ("assembly.assemble_reduced2d", assembly, "assemble_reduced2d", None),
    ("assembly.assemble_waveguide", assembly, "assemble_waveguide", None),
    ("assembly.assemble_prism", assembly, "assemble_prism", None),
    ("assembly.triangle_matrices", assembly, "triangle_matrices", None),
    ("eigcore.smallest_eigenpairs", eigcore, "smallest_eigenpairs",
     _solve_note),
    ("eigcore.count_below", eigcore, "count_below", None),
    ("eigcore.materialize", eigcore, "materialize", None),
    ("certificates.prism_eigen_check", certificates, "prism_eigen_check",
     None),
    ("certificates.existence_certificate", certificates,
     "existence_certificate", None),
    ("certificates.bform_count", certificates, "bform_count", None),
    ("cross_section.refine_mask", cross_section, "refine_mask", None),
    ("cli.main", cli, "main", None),
    ("lapack.eigh", scipy.linalg, "eigh", _eigh_note),
]
METHODS = [
    ("assembly.ShearForm.preconditioner", assembly.ShearForm,
     "preconditioner", None),
    # MassKron inherits KronOp.matmat; a wrapper on each class tells the
    # mass apply from the stiffness apply.  The subclass goes first so
    # that it wraps the original, not the KronOp wrapper.
    ("eigcore.apply_M", eigcore.MassKron, "matmat", _apply_note),
    ("eigcore.apply_A", eigcore.KronOp, "matmat", _apply_note),
    ("eigcore.TensorPrecond", eigcore.TensorPrecond, "__call__", None),
    ("eigcore.SpluPrecond", eigcore.SpluPrecond, "__call__", None),
    ("eigcore.JacobiPrecond", eigcore.JacobiPrecond, "__call__", None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "shearspec" or n.startswith("shearspec."))]
        for name, owner, attr, note in FUNCTIONS:
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, note)
            holders = [owner] + [m for m in modules if m is not owner]
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig, True))
                        setattr(mod, key, traced)
        for name, cls, attr, note in METHODS:
            had = attr in vars(cls)
            orig = getattr(cls, attr)
            self._undo.append((cls, attr, orig, had))
            setattr(cls, attr, self.wrap(name, orig, note))

    def uninstall(self) -> None:
        for owner, attr, orig, had in reversed(self._undo):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, run, note."""
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, run, note) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent, "run": run,
                                    "note": note}) + "\n")


def layer_metrics(spans: list[list], run_id: int, rungs: list[dict]) -> dict:
    """Per-layer values of one traced call, keyed by metric name.

    Times are span durations; a ``self`` time is a span's duration minus
    the durations of its direct children (nested spans of one thread
    never overlap).
    """
    ids = [i for i, s in enumerate(spans) if s[4] == run_id]
    child_time = defaultdict(float)
    kids = defaultdict(list)
    for i in ids:
        name, t0, t1, parent = spans[i][:4]
        if parent is not None:
            child_time[parent] += t1 - t0
            kids[parent].append(i)

    dur = defaultdict(float)
    calls = defaultdict(int)
    selft = defaultdict(float)
    notes = defaultdict(list)
    for i in ids:
        name, t0, t1, _, _, note = spans[i]
        dur[name] += t1 - t0
        calls[name] += 1
        selft[name] += (t1 - t0) - child_time[i]
        if note is not None:
            notes[name].append(note)

    def total(names):
        return sum(dur[n] for n in names)

    m = {}
    m["waveguide.rung_s"] = sum(r["seconds"] for r in rungs)
    for label in RUNGS:
        mine = [r for r in rungs if r["rung"] == label]
        m[f"waveguide.rung.{label}_s"] = sum(r["seconds"] for r in mine)
        m[f"waveguide.rung.{label}_iters"] = sum(r["iterations"] for r in mine)
    m["waveguide.self_s"] = selft["waveguide.compute_spectrum"]
    m["waveguide.symmetry_s"] = dur["waveguide.symmetry_check"]
    m["waveguide.separation_s"] = dur["waveguide.separation_check"]

    m["assembly.build_s"] = total(BUILDS)
    m["assembly.build_calls"] = sum(calls[n] for n in BUILDS)
    m["assembly.precond_setup_s"] = dur["assembly.ShearForm.preconditioner"]
    m["assembly.precond_setup_calls"] = \
        calls["assembly.ShearForm.preconditioner"]
    m["assembly.triangle_s"] = dur["assembly.triangle_matrices"]

    for op in ("A", "M"):
        name = f"eigcore.apply_{op}"
        m[f"{name}_s"] = dur[name]
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_cols"] = sum(n[0] for n in notes[name])
        m[f"{name}_flops"] = sum(n[1] for n in notes[name])
    m["eigcore.precond_apply_s"] = total(PRECONDS)
    m["eigcore.precond_apply_calls"] = sum(calls[n] for n in PRECONDS)
    m["eigcore.solve_s"] = dur["eigcore.smallest_eigenpairs"]
    m["eigcore.solve_calls"] = calls["eigcore.smallest_eigenpairs"]
    m["eigcore.solve_self_s"] = selft["eigcore.smallest_eigenpairs"]
    m["eigcore.iterations"] = sum(n[0] for n in
                                  notes["eigcore.smallest_eigenpairs"])
    m["eigcore.matmats"] = sum(n[1] for n in
                               notes["eigcore.smallest_eigenpairs"])
    m["eigcore.count_below_s"] = dur["eigcore.count_below"]
    m["eigcore.count_below_calls"] = calls["eigcore.count_below"]
    # each pass of the block-growth loop is one block solve or one dense
    # fallback (an eigh) directly under count_below
    m["eigcore.count_below_solves"] = sum(
        1 for i in ids if spans[i][0] == "eigcore.count_below"
        for c in kids[i]
        if spans[c][0] in ("eigcore.smallest_eigenpairs", "lapack.eigh"))
    m["eigcore.dense_s"] = dur["eigcore.materialize"]
    m["eigcore.dense_calls"] = calls["eigcore.materialize"]

    m["lapack.eigh_s"] = dur["lapack.eigh"]
    m["lapack.eigh_calls"] = calls["lapack.eigh"]
    m["lapack.eigh_max_n"] = max((n[0] for n in notes["lapack.eigh"]),
                                 default=0)

    m["certificates.prism_s"] = dur["certificates.prism_eigen_check"]
    m["certificates.existence_s"] = dur["certificates.existence_certificate"]
    m["certificates.bform_s"] = dur["certificates.bform_count"]
    m["cross_section.refine_mask_s"] = dur["cross_section.refine_mask"]
    m["cli.self_s"] = selft["cli.main"]
    m["trace.spans"] = len(ids)
    return m


def median_metrics(per_run: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
