"""Acceptance suite: the twelve headline checks, one printed line each.

The heavy fixtures (broken-strip benchmark, the five-shear ladder set)
are shared across checks, so run the file as a whole.  Use ``-s`` to
watch the lines appear; the whole suite is a few minutes, dominated by
the strip benchmark.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from shearspec.certificates import (
    beta_star,
    bform_count,
    default_profile,
    existence_certificate,
    prism_eigen_check,
)
from shearspec.cross_section import section_eigenvalues
from shearspec.eigcore import EigOptions, smallest_eigenpairs
from shearspec.geometry import MaskSection, Rect, WaveguideSpec, metric
from shearspec.waveguide import (
    DiscretizationSpec,
    benchmark_disc,
    compute_spectrum,
    separation_check,
    symmetry_check,
)

PI2 = math.pi ** 2
EPS = np.finfo(float).eps
SQUARE = Rect(0.0, 1.0, 0.0, 1.0)
TALL = Rect(0.0, 1.0, 0.0, 2.0)
STRIP = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))

# ladder geometry per shear: weak binding needs a long box, strong
# shear needs x steps about half the transverse step
SQUARE_DISCS = {
    0.25: (384, 24, 32.0),
    0.5: (80, 16, 10.0),
    1.0: (48, 16, 6.0),
    2.0: (72, 24, 6.0),
    4.0: (144, 24, 3.0),
}


def _line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}",
          flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _ladder(beta, rect, nx, n2, L):
    disc = DiscretizationSpec(nx=nx, n1=8, n2=n2, L=L, mode="reduced2d",
                              refine=3, l_steps=2)
    return compute_spectrum(WaveguideSpec(beta, rect), disc)


def _rungs_by_key(rep):
    return {(r.grid.r, r.grid.s): r for r in rep.rungs}


def _l_margins(rep):
    """Threshold margin of the ground value at the top mesh, both boxes."""
    tr = max(r.grid.r for r in rep.rungs)
    ts = max(r.grid.s for r in rep.rungs)
    by = _rungs_by_key(rep)
    fine = rep.threshold - by[(tr, ts)].eigenvalues[0]
    half = rep.threshold - by[(tr, ts - 1)].eigenvalues[0]
    return fine, half


@pytest.fixture(scope="module")
def square_ladders():
    return {b: _ladder(b, SQUARE, *g) for b, g in SQUARE_DISCS.items()}


@pytest.fixture(scope="module")
def benchmark_report():
    disc = benchmark_disc(STRIP)
    return compute_spectrum(WaveguideSpec(1.0, STRIP), disc)


@pytest.fixture(scope="module")
def uniqueness_reports(benchmark_report):
    runs = [
        ("R=1 beta=0.866", _ladder(0.5 * beta_star(1.0), SQUARE, 64, 16, 8.0)),
        ("R=1 beta=1.559", _ladder(0.9 * beta_star(1.0), SQUARE, 48, 16, 4.0)),
        ("R=2 beta=1.236", _ladder(0.9 * beta_star(2.0), TALL, 48, 24, 8.0)),
        ("R=4.443 beta=1", benchmark_report),
    ]
    return runs


@pytest.fixture(scope="module")
def all_reports(square_ladders, uniqueness_reports, benchmark_report):
    straight = compute_spectrum(
        WaveguideSpec(0.0, SQUARE),
        DiscretizationSpec(nx=48, n1=8, n2=16, L=6.0, mode="reduced2d",
                           refine=3, l_steps=2))
    reports = list(square_ladders.values())
    reports += [rep for _, rep in uniqueness_reports[:3]]
    reports += [benchmark_report, straight]
    return reports


def test_c01_metric_identity():
    betas = [10.0 ** (k / 2.0) for k in range(-6, 7)]
    worst = 0.0
    for b in betas:
        scale = EPS * (1.0 + b * b)
        worst = max(worst, abs(metric(b).det - 1.0) / scale)
    _line(1, worst <= 8.0,
          f"max |det G - 1| = {worst:.2f} ulp over beta 1e-3..1e3")


def test_c02_cross_section_agreement():
    closed = 3.0 * PI2

    def square(n):  # the unit square as a mask of n x n cells
        return MaskSection(np.ones((n, n), dtype=bool), 1.0 / n)

    errs = {n: abs(section_eigenvalues(1.0, square(n), 1)[0] - closed)
            for n in (32, 64, 128)}
    rel = errs[128] / closed
    r1 = errs[32] / errs[64]
    r2 = errs[64] / errs[128]
    ok = rel <= 1e-3 and 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    _line(2, ok, f"rel err {rel:.2e} at 128^2, h^2 ratios {r1:.2f}, {r2:.2f}")


def test_c03_broken_strip_benchmark(benchmark_report):
    rep = benchmark_report
    lam = rep.eigenvalues[0] - PI2     # planar value, threshold sits at 1
    thr = rep.threshold - PI2
    ok = (abs(lam - 0.93) <= 0.01 and lam < thr and rep.count == 1
          and rep.stable)
    _line(3, ok, f"lambda1 = {lam:.5f} (0.93 +- 0.01), threshold {thr:.5f}, "
          f"count {rep.count}")


def test_c04_existence_margins(square_ladders):
    worst_ratio = math.inf
    worst_drift = 0.0
    ok = True
    for b, rep in sorted(square_ladders.items()):
        margin = rep.gap
        ratio = margin / rep.est[0]
        fine, half = _l_margins(rep)
        drift = abs(fine - half) / fine
        ok &= margin > 0 and ratio > 10.0 and drift < 0.05
        worst_ratio = min(worst_ratio, ratio)
        worst_drift = max(worst_drift, drift)
    _line(4, ok, f"five shears bind; min margin/est {worst_ratio:.1f}x, "
          f"max L-drift {100 * worst_drift:.2f}%")


def test_c05_uniqueness_counts(uniqueness_reports):
    ok = all(rep.count == 1 and rep.stable for _, rep in uniqueness_reports)
    detail = ", ".join(f"{label}: {rep.count}"
                       for label, rep in uniqueness_reports)
    _line(5, ok, detail)


def test_c06_finiteness_stability(all_reports):
    ok = True
    for rep in all_reports:
        tr = max(r.grid.r for r in rep.rungs)
        ts = max(r.grid.s for r in rep.rungs)
        c = rep.counts_by_rung
        ok &= c[(tr, ts)] == c[(tr - 1, ts)] == c[(tr, ts - 1)] == rep.count
        ok &= rep.boundary == [] and rep.stable
    _line(6, ok, f"{len(all_reports)} configurations: counts fixed across "
          "final rungs and boxes, safety band empty")


def test_c07_symmetry():
    disc = DiscretizationSpec(nx=16, n1=12, n2=12, L=4.0)
    rep = symmetry_check(WaveguideSpec(1.0, SQUARE), disc)
    rel = rep.gaps[:3] / np.abs(rep.half_values[:3])
    ok = rel.max() <= 1e-3 and rep.odd_fraction[0] <= 1e-6
    _line(7, ok, f"half vs full rel gap {rel.max():.2e}, "
          f"ground odd fraction {rep.odd_fraction[0]:.2e}")


def test_c08_separation():
    disc = DiscretizationSpec(nx=16, n1=10, n2=12, L=4.0)
    rep = separation_check(WaveguideSpec(1.0, SQUARE), disc)
    _line(8, rep.max_rel <= 1e-10,
          f"3d vs 2d+transverse rel error {rep.max_rel:.2e}")


def test_c09_certificate(square_ladders):
    eta0 = float(default_profile().eta(0.0))
    cases = [(b, SQUARE) for b in SQUARE_DISCS] + [
        (0.9 * beta_star(2.0), TALL), (1.0, STRIP)]
    cross_err = 0.0
    verdicts = True
    for b, rect in cases:
        cert = existence_certificate(b, rect)
        cross = cert.piece_cross / (2.0 * cert.eps)
        cross_err = max(cross_err, abs(cross - (-b * eta0 / 2.0)))
        verdicts &= cert.verdict and cert.total < 0
    # the trial quotient cannot beat the true gap
    slack = math.inf
    for b, rep in square_ladders.items():
        cert = existence_certificate(b, SQUARE)
        slack = min(slack, cert.total - (-rep.gap),
                    cert.rayleigh - (-rep.gap))
    ok = cross_err <= 1e-8 and verdicts and slack >= 0.0
    _line(9, ok, f"cross term err {cross_err:.1e}, all totals negative, "
          f"min slack over solver gap {slack:.3f}")


def test_c10_prism_closed_forms():
    at_unit = prism_eigen_check(1.0, SQUARE, grid=64)
    ok = at_unit.rel_mu1 <= 0.01 and at_unit.rel_mu2 <= 0.01
    worst = math.inf
    for b in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        rep = prism_eigen_check(b, SQUARE, grid=48)
        worst = min(worst, rep.lower_margin / rep.lower_bound)
        ok &= rep.lower_margin >= 0.0
    _line(10, ok, f"mu1 rel {at_unit.rel_mu1:.2e}, mu2 rel "
          f"{at_unit.rel_mu2:.2e}; min scaled margin over shear grid "
          f"{worst:.3f}")


def test_c11_eigensolver_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (60, 201, 400):
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        C = rng.standard_normal((n, n))
        M = C @ C.T + n * np.eye(n)
        res = smallest_eigenpairs(A, M, EigOptions(k=5, tol=1e-12))
        want = sla.eigh(A, M, eigvals_only=True)[:5]
        worst = max(worst, float(np.max(np.abs(res.theta - want)
                                        / np.abs(want))))
    bform_cases = [(0.5, 1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 9.0),
                   (1.0, 2.0, 0.75, 9.0), (1.0, 2.0, 0.25, 16.0),
                   (0.2, 0.5, 0.3, 4.0)]
    agree = True
    for beta, eps, kappa, nu in bform_cases:
        c0 = 1.0 - 2.0 * kappa * beta / eps
        got = bform_count(beta, eps, kappa, nu, 7.0)
        agree &= got == _dense_well_count(c0, math.sqrt(nu))
    ok = worst <= 1e-10 and agree
    _line(11, ok, f"block solver vs dense rel err {worst:.2e} up to n=400; "
          f"1d counts agree on {len(bform_cases)} wells")


def _dense_well_count(c0, w, span=50, n=6000):
    """Negative levels of -c0 f'' - 1_[0,w] f on (0, span*w), Dirichlet."""
    length = span * w
    h = length / n
    x = np.arange(1, n) * h
    diag = 2.0 * c0 / h ** 2 - (x <= w).astype(float)
    off = np.full(n - 2, -c0 / h ** 2)
    lam = sla.eigvalsh_tridiagonal(diag, off, select="v",
                                   select_range=(-2.0, -1e-10))
    return len(lam)


def test_c12_monotonicity(all_reports, benchmark_report):
    ok = all(not any("monotone" in f for f in rep.flags)
             for rep in all_reports)
    # spot-check the benchmark series directly, both ladder axes
    by = _rungs_by_key(benchmark_report)
    tr = max(r.grid.r for r in benchmark_report.rungs)
    ts = max(r.grid.s for r in benchmark_report.rungs)
    slack = 1e-6 * benchmark_report.threshold
    mesh = [by[(r, ts)].eigenvalues[0] for r in range(tr + 1)]
    ok &= all(b <= a + slack for a, b in zip(mesh, mesh[1:]))
    boxes = [by[(tr, s)].eigenvalues[0] for s in range(ts + 1)]
    ok &= all(b <= a + slack for a, b in zip(boxes, boxes[1:]))
    _line(12, ok, f"no monotonicity flags in {len(all_reports)} reports; "
          "benchmark series decrease along mesh and box axes")
