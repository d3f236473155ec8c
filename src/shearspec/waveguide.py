"""End-to-end spectral runs: ladders, counts, and reports.

A run walks a two-axis ladder.  Mesh rungs double every 1-D grid size at
the longest box; box steps double the truncation length L at the finest
mesh (nx doubles with L, so h_x stays put and the coarse box's space is
nested in the long one).  Conforming P1 spaces make the Ritz values
upper bounds that fall monotonically along both axes, so the ladder is
also a self-test: any increase is flagged.

Counting is done on Richardson-extrapolated values (the h^2 model) with
a safety band widened by the observed extrapolation scatter and the
residual box-length drift, never on raw rung values: conforming FEM
biases eigenvalues up, and near-threshold states would otherwise be
missed.  A value inside the band gives a boundary flag and the report is
marked inconclusive rather than rounded either way.

The reduced2d mode solves the planar factor only and synthesizes full
eigenvalues by adding the exact transverse channel offsets
(pi k / w1)^2; the y1 direction is never discretized there, which is how
the weakly bound benchmark stays affordable at grid 256 and L in the
hundreds.  A 3-D guide is the one-channel case, offset 0.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import ShearForm, assemble_reduced2d, assemble_waveguide, fem1d
from .cross_section import ess_threshold, refine_mask
from .eigcore import EigOptions, EigResult, count_below, lowest_eigenpairs
from .geometry import (MaskSection, Rect, Section, WaveguideSpec, beta_value,
                       check_length)

__all__ = [
    "MODES",
    "DiscretizationSpec",
    "RungGrid",
    "RungResult",
    "SpectrumReport",
    "SymmetryReport",
    "SeparationReport",
    "compute_spectrum",
    "symmetry_check",
    "separation_check",
    "sweep_beta",
    "benchmark_disc",
]

MODES = ("half_DN", "full_sign", "reduced2d")

CSV_COLUMNS = ("beta", "mode", "rung", "L", "nx", "n1", "n2", "j",
               "lambda", "residual", "below_threshold", "flags")

# floor of every safety band around E1, relative to |E1|
BAND_REL = 1e-6


@dataclass(frozen=True)
class DiscretizationSpec:
    """Coarsest-rung grid sizes plus the ladder layout.

    ``refine`` mesh rungs run at the longest box and ``l_steps`` box
    lengths at the finest mesh; rung (r, s) uses grid sizes
    (nx 2^(r+s), n1 2^r, n2 2^r) and box length L 2^s.
    """

    nx: int
    n1: int
    n2: int
    L: float
    mode: str = "half_DN"
    refine: int = 3
    l_steps: int = 2

    def __post_init__(self) -> None:
        for name in ("nx", "n1", "n2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 8:
                raise ValueError(f"{name} must be an integer >= 8, got {v!r}")
        check_length("box length", self.L)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.refine < 1 or self.l_steps < 1:
            raise ValueError("ladder needs at least one rung and one box step")

    def rung(self, r: int, s: int) -> "RungGrid":
        if not (0 <= r < self.refine and 0 <= s < self.l_steps):
            raise ValueError(f"rung ({r}, {s}) outside the ladder")
        f = 2 ** r
        return RungGrid(r, s, self.nx * f * 2 ** s, self.n1 * f,
                        self.n2 * f, self.L * 2 ** s)

    def ladder(self) -> list[tuple[int, int]]:
        """The (r, s) pairs actually run: all mesh rungs at the longest
        box plus all box steps at the finest mesh."""
        tr, ts = self.refine - 1, self.l_steps - 1
        pairs = {(r, ts) for r in range(self.refine)}
        pairs.update((tr, s) for s in range(self.l_steps))
        return sorted(pairs)


@dataclass(frozen=True)
class RungGrid:
    r: int
    s: int
    nx: int
    n1: int
    n2: int
    L: float


@dataclass
class RungResult:
    """One ladder point: its grid, discrete threshold, and Ritz data.

    ``solved`` and ``solved_residuals`` are the solver's values and
    residual bounds (``EigResult.residuals``) in solver order;
    ``eigenvalues`` (with ``residuals`` and ``converged``) list their
    lowest channel sums on the full-guide scale, which in 3-D modes are
    the solved values themselves.
    ``solver`` is the branch of ``lowest_eigenpairs`` that produced them
    and ``shift`` the sigma of a factored solve.
    """

    grid: RungGrid
    threshold: float
    eigenvalues: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    seconds: float
    warnings: list[str] = field(default_factory=list)
    solved: np.ndarray | None = None
    solved_residuals: np.ndarray | None = None
    iterations: int = 0
    # A block applies (each paired with an M apply) of a block-CG solve;
    # 0 for a dense or factored one
    matmats: int = 0
    # below-band count of all channel sums; the listed values are
    # truncated, the count is not
    below: int = 0
    solver: str = ""
    shift: float | None = None    # certified sigma of a factored solve
    # negative eigenvalues at threshold -/+ band, on an inertia-counted
    # top rung
    inertia: tuple[int, int] | None = None


@dataclass
class SpectrumReport:
    """``solved`` and ``solved_est`` are the extrapolated solved values
    and their error estimates in solver order; ``eigenvalues``, ``est``
    and ``safety`` list their lowest channel sums in ascending order, and
    in reduced2d ``channels`` the (m, k) of each."""

    beta: float
    mode: str
    section: Section
    threshold: float
    order: int
    rungs: list[RungResult]
    eigenvalues: np.ndarray
    est: np.ndarray
    safety: np.ndarray
    count: int
    boundary: list[int]
    counts_by_rung: dict[tuple[int, int], int]
    stable: bool
    flags: list[str]
    seconds: float
    solved: np.ndarray
    solved_est: np.ndarray
    channels: list[tuple[int, int]] | None = None

    @property
    def gap(self) -> float:
        """Threshold clearance of the lowest extrapolated value."""
        return float(self.threshold - self.eigenvalues[0])

    def as_dict(self) -> dict:
        d = {
            "beta": self.beta,
            "mode": self.mode,
            "section": _section_dict(self.section),
            "threshold": self.threshold,
            "order": self.order,
            "eigenvalues": self.eigenvalues.tolist(),
            "est": self.est.tolist(),
            "safety": self.safety.tolist(),
            "count": self.count,
            "boundary": list(self.boundary),
            "counts_by_rung": {f"r{r}s{s}": c
                               for (r, s), c in sorted(self.counts_by_rung.items())},
            "stable": self.stable,
            "flags": list(self.flags),
            "seconds": self.seconds,
            "planar": (self.solved.tolist() if self.mode == "reduced2d"
                       else None),
            "channels": None if self.channels is None
                        else [list(p) for p in self.channels],
            "rungs": [],
        }
        for rr in self.rungs:
            g = rr.grid
            d["rungs"].append({
                "r": g.r, "s": g.s, "nx": g.nx, "n1": g.n1, "n2": g.n2,
                "L": g.L, "threshold": rr.threshold,
                "eigenvalues": rr.eigenvalues.tolist(),
                "residuals": rr.residuals.tolist(),
                "converged": rr.converged.astype(bool).tolist(),
                "warnings": list(rr.warnings),
                "seconds": rr.seconds,
                "iterations": rr.iterations,
                "matmats": rr.matmats,
                "solver": rr.solver,
                "shift": rr.shift,
                "inertia": None if rr.inertia is None else list(rr.inertia),
            })
        return d

    def rows(self) -> list[dict]:
        """Flat table rows, one per (rung, j) plus extrapolated rows."""
        out = []
        for rr in self.rungs:
            g = rr.grid
            for j, lam in enumerate(rr.eigenvalues):
                out.append({
                    "beta": self.beta, "mode": self.mode,
                    "rung": f"r{g.r}s{g.s}", "L": g.L,
                    "nx": g.nx, "n1": g.n1, "n2": g.n2, "j": j,
                    "lambda": float(lam),
                    "residual": float(rr.residuals[j]),
                    "below_threshold": int(lam < rr.threshold),
                    "flags": ";".join(rr.warnings),
                })
        g = self.rungs[-1].grid
        for j, lam in enumerate(self.eigenvalues):
            out.append({
                "beta": self.beta, "mode": self.mode, "rung": "ext",
                "L": g.L, "nx": g.nx, "n1": g.n1, "n2": g.n2, "j": j,
                "lambda": float(lam), "residual": float(self.est[j]),
                "below_threshold": int(lam < self.threshold - self.safety[j]),
                "flags": ";".join(self.flags),
            })
        return out


def _section_dict(section: Section) -> dict:
    if isinstance(section, Rect):
        return {"kind": "rect", "a": section.a, "b": section.b,
                "c": section.c, "d": section.d}
    return {"kind": "mask", "shape": list(section.inside.shape),
            "cells": int(section.inside.sum()), "cell": section.cell,
            "origin": list(section.origin)}


def _build(beta: float, section: Section, disc: DiscretizationSpec,
           g: RungGrid) -> ShearForm:
    if disc.mode == "reduced2d":
        return assemble_reduced2d(beta, section, g.L, (g.nx, g.n2))
    if isinstance(section, MaskSection) and g.r > 0:
        section = refine_mask(section, 2 ** g.r)
    return assemble_waveguide(beta, section, g.L, (g.nx, g.n1, g.n2),
                              disc.mode)


def _rung_threshold(beta: float, form: ShearForm) -> float:
    """Full-guide threshold consistent with this rung's discretization.

    Rectangles get the closed form.  Masks get the ground value of the
    assembled section pencil: the channel band of the discrete operator
    starts there, not at the continuum value, and mixing the two would
    corrupt near-threshold counts at coarse rungs.  The value comes from
    the section decomposition the preconditioner reuses.
    """
    if isinstance(form.section, Rect):
        return ess_threshold(beta, form.section)
    return float(form.section_pairs[0][0])


def _channel_sums(solved: np.ndarray, w1: float | None, e1: float,
                  band: float) -> tuple[list[tuple[float, int, int]], int]:
    """All (value, m, k) channel sums that could sit near or below e1,
    ascending, and the count of those certified below e1 - band.

    Channel k of a reduced2d rectangle of y1 width w1 adds (pi k / w1)^2;
    a 3-D guide (w1 None) has one channel, offset 0.  Planar values at
    or above the planar threshold only produce sums at or above e1, so a
    planar list with clearance above its own threshold makes the sum list
    complete below e1.  The channel loop stops at the first k > 1 whose
    lowest sum exceeds both e1 + band and every channel-1 sum: from there
    on no sum is counted, sits in the band or ranks among the first
    len(solved).
    """
    # a 3-D guide's ceiling admits no second channel; NaN stops the walk
    ceiling = (-math.inf if w1 is None
               else max(e1 + band, max(solved) + (math.pi / w1) ** 2))
    lowest = min(solved)
    entries = []
    count = 0
    for k in itertools.count(1):
        off = 0.0 if w1 is None else (math.pi * k / w1) ** 2
        if k > 1 and not off + lowest <= ceiling:
            break
        for m, p in enumerate(solved):
            v = p + off
            entries.append((v, m, k))
            if v < e1 - band:
                count += 1
    entries.sort()
    return entries, count


def _grid_for(disc: DiscretizationSpec, section: Section, r: int,
              s: int) -> RungGrid:
    """Ladder grid with labels matching what is actually discretized:
    reduced mode has no y1 grid, masks carry their own cell counts."""
    g = disc.rung(r, s)
    if disc.mode == "reduced2d":
        return dataclasses.replace(g, n1=0)
    if isinstance(section, MaskSection):
        s1, s2 = section.inside.shape
        return dataclasses.replace(g, n1=s1 * 2 ** r, n2=s2 * 2 ** r)
    return g


def _rung_setup(beta: float, section: Section, disc: DiscretizationSpec,
                p: tuple[int, int], section_pairs=None):
    """Rung ``p``'s grid, pencil, preconditioner, threshold and warnings;
    a box step is handed the finest mesh rung's ``section_pairs``."""
    g = _grid_for(disc, section, *p)
    form = _build(beta, section, disc, g)
    if section_pairs is not None:
        form.section_pairs = section_pairs
    pre = form.preconditioner()
    return g, form, pre, _rung_threshold(beta, form), form.warnings


def compute_spectrum(spec: WaveguideSpec, disc: DiscretizationSpec,
                     opts: EigOptions | None = None) -> SpectrumReport:
    """Run the full ladder and report extrapolated eigenvalues, the
    below-threshold count with its safety band, and stability flags.

    The finest rung is set up and counted first, by one ``count_below``
    call from a block of the ladder's max(k, 4) pairs, and its own solve
    settles that count (``CountResult.settle``: an inertia count is open
    at the bottom of its safety band until then).  The count fixes how many
    pairs every rung resolves, so values stay index-aligned across the
    ladder.  The rungs are then solved from coarse to fine, box steps
    last, each by one ``lowest_eigenpairs`` call unless its block-CG
    count holds enough values.  Nested spaces make the lowest value fall
    along the mesh series at about a quarter of the last drop per step,
    so each factored solve is shifted to the previous mesh rung's lowest
    value minus that rung's drop, and the first mesh rung to its
    threshold, from which its drop is measured (to the threshold's first
    back-off, (1 - 2^-4) of it, when the top rung counts a value below
    it): close below its spectrum, and certified below it by the
    factorization or its back-off.
    """
    t_start = time.perf_counter()
    base = opts or EigOptions()
    beta = spec.beta
    section = spec.section
    reduced = disc.mode == "reduced2d"
    if disc.refine < 2:
        raise ValueError("extrapolation needs at least two mesh rungs")
    flags: list[str] = []
    if disc.l_steps < 2:
        flags.append("single_box")

    pairs = disc.ladder()
    top = pairs[-1]
    tr, ts = top
    t0 = time.perf_counter()
    g, form, pre, e1_top, warnings = _rung_setup(beta, section, disc, top)
    # solved values sit one channel offset below the full-guide ones
    w1 = section.width1 if reduced else None
    offset = (math.pi / w1) ** 2 if reduced else 0.0
    shared = form.section_pairs if isinstance(section, MaskSection) else None
    band0 = BAND_REL * abs(e1_top)
    block = max(base.k, 4)
    bopts = dataclasses.replace(base, k=block)
    # the top rung's solved threshold and the bottom of its band
    e1_solved = e1_top - offset
    low = e1_solved - band0
    cres = count_below(form.A, form.M, e1_solved, band0, opts=bopts,
                       precond=pre)
    k_solve = max(block, cres.count + 2)
    sol = cres.result
    if sol is None or len(sol.theta) < k_solve:
        sol = None
    else:
        form = pre = None   # values in hand: free the pencil
    # a finest pencil the count left unsolved (a factored one) stays alive
    # across the coarse solves until its own; any other lives for its rung
    ready = {top: (g, form, pre, e1_top, warnings, sol,
                   time.perf_counter() - t0)}

    results: dict[tuple[int, int], RungResult] = {}
    theta1 = drop = None
    mesh = [(r, ts) for r in range(disc.refine)]
    for p in mesh + [(tr, s) for s in range(ts)]:
        t0 = time.perf_counter()
        g, form, pre, e1_r, warnings, sol, seconds = ready.pop(p, None) or (
            _rung_setup(beta, section, disc, p, shared if p[0] == tr
                        else None) + (None, 0.0))
        if sol is None:
            if form.n < k_solve:
                raise ValueError(
                    f"rung r{p[0]}s{p[1]} has order {form.n}, fewer than "
                    f"the k_solve = {k_solve} pairs each rung resolves (the "
                    f"largest of eig k = {base.k}, 4 and the top count + 2);"
                    " lower eig k or raise the coarsest grid sizes")
            if theta1 is not None:
                sigma = theta1 - drop
            else:
                # a top rung that binds: this rung most likely binds too,
                # so its threshold lies above its spectrum, and the first
                # back-off shift is the first that can factor
                sigma = (e1_r - offset) * (1.0 - 0.5 ** 4 if cres.count
                                           else 1.0)
            sol = lowest_eigenpairs(form.A, form.M, k_solve, base, pre,
                                    sigma=sigma)
        if p == top:
            cres = cres.settle(sol.theta[:k_solve])
        form = pre = None
        results[p] = _make_rung(g, e1_r, sol, k_solve, w1, warnings,
                                seconds + time.perf_counter() - t0)
        if p in mesh:
            last = e1_r - offset if theta1 is None else theta1
            theta1 = float(sol.theta[0])
            drop = last - theta1
    if not cres.reliable:
        flags.append(f"unreliable_count:r{tr}s{ts}")
    results[top].inertia = cres.inertia
    # the inertia counts the solved pencil's values below the band
    # exactly; a top-rung solve that skipped one counts fewer
    mismatch = cres.inertia is not None and cres.inertia[0] != int(np.sum(
        results[top].solved < low))
    if mismatch:
        flags.append(f"count_mismatch:r{tr}s{ts}")

    for (r, s), rr in sorted(results.items()):
        if not rr.converged.all():
            flags.append(f"nonconverged:r{r}s{s}")
        for w in rr.warnings:
            if w not in flags and not w.startswith("nonconverged"):
                flags.append(w)

    # two-point Richardson on the solved values of the mesh series at the
    # longest box; the scatter between the last two extrapolants is the
    # error estimate
    arr = np.vstack([results[(r, ts)].solved for r in range(disc.refine)])
    ext = (4.0 * arr[-1] - arr[-2]) / 3.0
    if disc.refine >= 3:
        prev_ext = (4.0 * arr[-2] - arr[-3]) / 3.0
        est = np.abs(ext - prev_ext)
    else:
        est = np.abs(ext - arr[-1])
    # box-length error is handled by the stability demand across the
    # last two L steps, not by the band: continuum-edge values approach
    # the threshold from above as L grows and would flag every run
    est = np.maximum(est, 1e-14 * max(1.0, abs(e1_top)))

    _flag_monotone(results, disc, e1_top, flags)

    if isinstance(section, Rect):
        e1_ext = e1_top
        thr_est = 0.0
    else:
        e1_prev = results[(tr - 1, ts)].threshold
        e1_ext = (4.0 * e1_top - e1_prev) / 3.0
        thr_est = abs(e1_ext - e1_top)

    safety_solved = np.maximum(BAND_REL * abs(e1_ext), est + thr_est)
    # the widest band keeps every sum the boundary test below reads
    entries, _ = _channel_sums(ext, w1, e1_ext, float(safety_solved.max()))
    count = sum(1 for v, m, _ in entries if v < e1_ext - safety_solved[m])
    take = entries[:k_solve]
    values = np.array([v for v, _, _ in take])
    safety = np.array([safety_solved[m] for _, m, _ in take])
    est_out = np.array([est[m] for _, m, _ in take])

    boundary = [int(j) for j in np.nonzero(
        np.abs(values - e1_ext) <= safety)[0]]
    # a sum past the displayed list could still sit in the band
    if any(abs(v - e1_ext) <= safety_solved[m]
           for v, m, _ in entries[k_solve:]):
        flags.append("boundary_beyond_list")

    counts_by_rung = {p: results[p].below for p in pairs}
    if disc.l_steps >= 2:
        stable = (counts_by_rung[(tr, ts)] == counts_by_rung[(tr - 1, ts)]
                  == counts_by_rung[(tr, ts - 1)] == count)
    else:
        stable = False
    if boundary or not stable or not cres.reliable or mismatch:
        flags.append("inconclusive")

    return SpectrumReport(
        beta=float(beta), mode=disc.mode, section=section,
        threshold=float(e1_ext), order=2,
        rungs=[results[p] for p in pairs],
        eigenvalues=values, est=est_out, safety=safety,
        count=count, boundary=boundary, counts_by_rung=counts_by_rung,
        stable=stable, flags=flags,
        seconds=time.perf_counter() - t_start,
        solved=ext, solved_est=est,
        channels=[(m, k) for _, m, k in take] if reduced else None)


def _make_rung(g: RungGrid, e1: float, sol: EigResult, k: int,
               w1: float | None, warnings: list[str],
               seconds: float) -> RungResult:
    theta = sol.theta[:k]
    res = sol.residuals[:k]
    conv = sol.converged[:k]
    warn = list(warnings)
    if not conv.all():
        warn.append("nonconverged")
    entries, below = _channel_sums(theta, w1, e1, BAND_REL * abs(e1))
    take = entries[:k]
    return RungResult(g, e1, np.array([v for v, _, _ in take]),
                      np.array([res[m] for _, m, _ in take]),
                      np.array([conv[m] for _, m, _ in take]), seconds, warn,
                      solved=theta.copy(), solved_residuals=res.copy(),
                      iterations=sol.iterations, matmats=sol.matmats,
                      below=below, solver=sol.solver, shift=sol.shift)


def _flag_monotone(results, disc: DiscretizationSpec, scale: float,
                   flags: list[str]) -> None:
    """Nested spaces force Ritz values down along both ladder axes; an
    increase beyond solver slack means something is wrong and is worth a
    flag even though counting would survive it.  Each solved value is
    compared with its own residual bound sqrt(8) ||r||_D
    (``RungResult.solved_residuals``): it bounds the value's distance to
    the spectrum and scales with it, so the slack means the same at
    every length scale."""
    tr, ts = disc.refine - 1, disc.l_steps - 1
    steps = [("refine", (r - 1, ts), (r, ts)) for r in range(1, disc.refine)]
    steps += [("L", (tr, s - 1), (tr, s)) for s in range(1, disc.l_steps)]
    for axis, pa, pb in steps:
        a, b = results[pa], results[pb]
        tol = 1e-7 * abs(scale) + 10.0 * (a.solved_residuals
                                          + b.solved_residuals)
        for j in np.nonzero(b.solved > a.solved + tol)[0]:
            flags.append(f"monotone_{axis}:j{j}")


@dataclass
class SymmetryReport:
    beta: float
    grid: RungGrid
    half_values: np.ndarray
    full_values: np.ndarray
    gaps: np.ndarray
    matches: list[int]
    odd_fraction: np.ndarray
    seconds: float


def symmetry_check(spec: WaveguideSpec, disc: DiscretizationSpec,
                   opts: EigOptions | None = None) -> SymmetryReport:
    """Half-guide (Neumann at the bend) versus full broken guide at
    matched resolution.

    The full run reuses the half grid sizes mirrored through x = 0, so
    every half mesh node is a full mesh node and the even part of the
    full spectrum must reproduce the half spectrum.  Reports the nearest
    relative gap for each half value and the odd-part mass fraction of
    every full eigenvector.
    """
    t0 = time.perf_counter()
    beta = beta_value(spec.beta)
    section = spec.section
    base = opts or EigOptions()
    k = max(base.k, 3)
    g = disc.rung(0, 0)
    grid = (g.nx, g.n1, g.n2)
    half = assemble_waveguide(beta, section, g.L, grid, "half_DN")
    full = assemble_waveguide(beta, section, g.L, grid, "full_sign")
    sh = lowest_eigenpairs(half.A, half.M, k, base, half.preconditioner())
    kf = min(2 * k + 2, full.n)
    sf = lowest_eigenpairs(full.A, full.M, kf, base, full.preconditioner())

    gaps = np.empty(k)
    matches = []
    for j in range(k):
        i = int(np.argmin(np.abs(sf.theta - sh.theta[j])))
        matches.append(i)
        gaps[j] = abs(sf.theta[i] - sh.theta[j]) / abs(sh.theta[j])

    # odd-part fraction in the mass norm; axis 0 of the full tensor grid
    # is x and its node row is symmetric about the bend
    V = sf.vectors
    shp = full.A.shape + (V.shape[1],)
    flipped = V.reshape(shp)[::-1].reshape(V.shape)
    odd = 0.5 * (V - flipped)
    m_odd = np.einsum("ij,ij->j", odd, full.M.matmat(odd))
    m_all = np.einsum("ij,ij->j", V, full.M.matmat(V))
    return SymmetryReport(beta, g, sh.theta.copy(), sf.theta.copy(), gaps,
                          matches, m_odd / m_all,
                          time.perf_counter() - t0)


@dataclass
class SeparationReport:
    beta: float
    grid: RungGrid
    values3d: np.ndarray
    pairs: list[tuple[int, int]]
    synthesized: np.ndarray
    rel: np.ndarray
    seconds: float

    @property
    def max_rel(self) -> float:
        return float(self.rel.max())


def separation_check(spec: WaveguideSpec, disc: DiscretizationSpec,
                     opts: EigOptions | None = None) -> SeparationReport:
    """Discrete tensor identity for rectangle sections.

    Every assembled term carries the y1 mass factor except the y1
    stiffness one, so each 3-D eigenvalue is exactly a planar eigenvalue
    plus a discrete y1 level; this check pairs them and reports the
    relative defect, which is solver noise only.
    """
    if not isinstance(spec.section, Rect):
        raise ValueError("separation holds for rectangle sections only")
    t0 = time.perf_counter()
    beta = beta_value(spec.beta)
    rect = spec.section
    base = opts or EigOptions(k=4)
    tight = dataclasses.replace(base, tol=1e-12)
    k = base.k
    g = disc.rung(0, 0)
    form3 = assemble_waveguide(beta, rect, g.L, (g.nx, g.n1, g.n2), "half_DN")
    form2 = assemble_reduced2d(beta, rect, g.L, (g.nx, g.n2))
    s3 = lowest_eigenpairs(form3.A, form3.M, k, tight, form3.preconditioner())
    s2 = lowest_eigenpairs(form2.A, form2.M, min(k + 4, form2.n), tight,
                           form2.preconditioner())
    mu = fem1d(g.n1, rect.width1).spectral().lam

    grid_sums = s2.theta[:, None] + mu[None, :]
    pairs = []
    synth = np.empty(k)
    for j in range(k):
        m, i = np.unravel_index(np.argmin(np.abs(grid_sums - s3.theta[j])),
                                grid_sums.shape)
        pairs.append((int(m), int(i + 1)))
        synth[j] = grid_sums[m, i]
    rel = np.abs(s3.theta[:k] - synth) / np.abs(s3.theta[:k])
    return SeparationReport(beta, g, s3.theta[:k].copy(), pairs, synth, rel,
                            time.perf_counter() - t0)


def sweep_beta(section: Section, betas, disc: DiscretizationSpec,
               opts: EigOptions | None = None) -> list[SpectrumReport]:
    """One SpectrumReport per shear value, sorted by beta."""
    bs = sorted(beta_value(b, allow_zero=True) for b in betas)
    if not bs:
        raise ValueError("sweep needs at least one beta")
    return [compute_spectrum(WaveguideSpec(b, section), disc, opts)
            for b in bs]


def benchmark_disc(rect: Rect) -> DiscretizationSpec:
    """Ladder profile for the weakly bound broken-strip benchmark.

    The bound state clears the threshold by about 7 percent of it, so
    its tail decays slowly: the top box step reaches L = 60 w2 / pi and
    the finest rung has 256 cells across the section.  h_x is kept near
    2 h_y; the x profile is smooth and does not need more.
    """
    if not isinstance(rect, Rect):
        raise ValueError("the benchmark profile is for rectangle sections")
    w2 = rect.width2
    L0 = 30.0 * w2 / math.pi
    hy = w2 / 64.0
    nx0 = max(8, int(round(L0 / (2.0 * hy))))
    return DiscretizationSpec(nx=nx0, n1=8, n2=64, L=L0, mode="reduced2d",
                              refine=3, l_steps=2)
