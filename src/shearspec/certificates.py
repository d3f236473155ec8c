"""Explicit variational objects behind the spectral statements.

Three independent devices live here.  The existence certificate builds
the two-piece trial family psi_n + eps*phi whose shifted energy can be
driven strictly negative, which places spectrum below the threshold.
The comparison form b is a 1-D square well whose bound states dominate
the count of discrete eigenvalues; it is counted in closed form from
the phase of its zero-energy solution.  The prism checks evaluate the
auxiliary anisotropic problem on the triangular prism against its
closed-form levels at unit shear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import assemble_prism
from .eigcore import lowest_eigenpairs
from .geometry import Rect, beta_value
from .thresholds import bound_factor, ess_threshold, prism_mu_unit

__all__ = [
    "CutoffProfile",
    "CertificateResult",
    "BForm",
    "PrismReport",
    "default_profile",
    "existence_certificate",
    "bform_count",
    "prism_eigen_check",
]


def _gauss(f, a, b, panels, order=16):
    """Composite Gauss-Legendre quadrature of f over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        total += half * float(w @ np.asarray(f(0.5 * (lo + hi) + half * x)))
    return total


@dataclass(frozen=True)
class CutoffProfile:
    """Scalar profiles of the trial family.

    w ramps from 1 (on x <= 1) to 0 (on x >= 2); its Dirichlet energy
    is stored in closed form.  eta lives on [0, 1) with eta(0) = 1 and
    couples the localized correction to the spreading piece.  panels
    sets the composite quadrature resolution for the eta integrals.
    """

    w: Callable = field(repr=False)
    w_prime: Callable = field(repr=False)
    dirichlet_energy: float = 0.0
    eta: Callable = field(repr=False, default=None)
    eta_prime: Callable = field(repr=False, default=None)
    panels: int = 4

    def __post_init__(self):
        if self.eta is None or self.eta_prime is None:
            raise ValueError("profiles need eta and eta_prime")
        xs = np.linspace(0.0, 3.0, 301)
        vals = np.asarray(self.w(xs))
        if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise ValueError("w must stay within [0, 1]")
        if abs(float(self.w(0.5)) - 1.0) > 1e-12 or abs(float(self.w(2.5))) > 1e-12:
            raise ValueError("w must be 1 on (-inf, 1] and 0 on [2, inf)")
        if abs(float(self.eta(1.0))) > 1e-12:
            raise ValueError("eta must vanish at 1")
        flux = _gauss(self.eta_prime, 0.0, 1.0, self.panels)
        if abs(flux + float(self.eta(0.0))) > 1e-8:
            raise ValueError("eta' must integrate to -eta(0)")


def default_profile() -> CutoffProfile:
    """Cosine ramp (energy pi^2/8) and cubic bump eta = (1-x)^3(1+3x)."""

    def w(x):
        x = np.asarray(x, dtype=float)
        ramp = np.cos(0.5 * np.pi * (np.clip(x, 1.0, 2.0) - 1.0))
        return np.where(x <= 1.0, 1.0, np.where(x >= 2.0, 0.0, ramp))

    def w_prime(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 1.0) & (x < 2.0)
        return np.where(inside,
                        -0.5 * np.pi * np.sin(0.5 * np.pi * (x - 1.0)), 0.0)

    def eta(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, 1.0)
        return np.where((x >= 0.0) & (x < 1.0),
                        (1.0 - xc) ** 3 * (1.0 + 3.0 * xc), 0.0)

    def eta_prime(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, 0.0, 1.0)
        return np.where((x >= 0.0) & (x < 1.0),
                        -12.0 * xc * (1.0 - xc) ** 2, 0.0)

    return CutoffProfile(w=w, w_prime=w_prime,
                         dirichlet_energy=math.pi**2 / 8.0,
                         eta=eta, eta_prime=eta_prime)


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the negative-energy trial construction.

    total = piece_ramp + piece_cross + piece_phi; the verdict is
    certified only when the quadrature error bar cannot flip the sign.
    rayleigh = total / norm_sq upper-bounds the gap to the threshold.
    """

    beta: float
    n: int
    eps: float
    piece_ramp: float
    piece_cross: float
    piece_phi: float
    total: float
    q_phi: float
    quad_error: float
    norm_sq: float
    verdict: bool

    def __post_init__(self):
        s = self.piece_ramp + self.piece_cross + self.piece_phi
        if abs(s - self.total) > 1e-12 * max(1.0, abs(self.total)):
            raise ValueError("pieces do not sum to total")

    @property
    def rayleigh(self) -> float:
        return self.total / self.norm_sq


def _phi_energy(beta, rect, prof, panels):
    """q_beta(phi) for phi = eta(x) y2 chi(y) by tensor quadrature.

    Every integral factors: eta pieces over [0,1], the y1 ground mode,
    and g(y2) = y2 chi_2(y2) over (c, d).
    """
    w1, w2 = rect.width1, rect.width2
    a, c = rect.a, rect.c
    E1 = ess_threshold(beta, rect)

    def chi2(y):
        return math.sqrt(2.0 / w2) * np.sin(np.pi * (y - c) / w2)

    def dchi2(y):
        return math.sqrt(2.0 / w2) * (np.pi / w2) * np.cos(np.pi * (y - c) / w2)

    def g(y):
        return y * chi2(y)

    def dg(y):
        return chi2(y) + y * dchi2(y)

    I_eta = _gauss(lambda x: prof.eta(x) ** 2, 0.0, 1.0, panels)
    I_etap = _gauss(lambda x: prof.eta_prime(x) ** 2, 0.0, 1.0, panels)
    I_mix = _gauss(lambda x: prof.eta(x) * prof.eta_prime(x), 0.0, 1.0, panels)
    G0 = _gauss(lambda y: g(y) ** 2, c, c + w2, panels)
    G1 = _gauss(lambda y: dg(y) ** 2, c, c + w2, panels)
    Gm = _gauss(lambda y: g(y) * dg(y), c, c + w2, panels)
    Q1 = _gauss(lambda y: (math.sqrt(2.0 / w1) * (np.pi / w1)
                           * np.cos(np.pi * (y - a) / w1)) ** 2,
                a, a + w1, panels)
    # (eta' g - beta eta g')^2 expands into three separable pieces
    shear = I_etap * G0 - 2.0 * beta * I_mix * Gm + beta**2 * I_eta * G1
    trans = I_eta * (Q1 * G0 + G1)
    shift = -E1 * I_eta * G0
    q_phi = shear + trans + shift
    extras = {"I_eta": I_eta, "G0": G0,
              "I_eta1": _gauss(prof.eta, 0.0, 1.0, panels),
              "C0": _gauss(lambda y: chi2(y) * g(y), c, c + w2, panels),
              "I_w2": _gauss(lambda x: np.asarray(prof.w(x)) ** 2,
                             0.0, 2.0, panels)}
    return q_phi, extras


def existence_certificate(beta, rect: Rect,
                          profiles: CutoffProfile | None = None
                          ) -> CertificateResult:
    """Pick (n, eps) making the trial energy strictly negative.

    Closed pieces: the spreading term is dirichlet_energy / n, and the
    cross term is -beta*eta(0)/2 exactly once the profile supports are
    disjoint (n >= 1).  Only q_beta(phi) needs quadrature; doubling the
    panel count supplies its error bar.
    """
    b = beta_value(beta)
    if not isinstance(rect, Rect):
        raise ValueError("certificate needs a rectangle section")
    prof = profiles or default_profile()
    eta0 = float(prof.eta(0.0))
    q_phi, ex = _phi_energy(b, rect, prof, prof.panels)
    q_fine, _ = _phi_energy(b, rect, prof, 2 * prof.panels)
    if q_phi <= 0.0:
        raise ValueError("phi energy must be positive; bad profiles")
    eps = b * eta0 / (2.0 * q_phi)
    depth = b * b * eta0 * eta0 / (4.0 * q_phi)
    n = int(prof.dirichlet_energy / depth) + 1
    piece_ramp = prof.dirichlet_energy / n
    piece_cross = -eps * b * eta0
    piece_phi = eps * eps * q_phi
    total = piece_ramp + piece_cross + piece_phi
    # same (n, eps) against the refined quadrature
    total_fine = piece_ramp - eps * b * eta0 + eps * eps * q_fine
    quad_error = abs(total - total_fine) + 1e-13 * (abs(piece_ramp)
                                                    + abs(piece_phi))
    norm_sq = (n * ex["I_w2"] + 2.0 * eps * ex["I_eta1"] * ex["C0"]
               + eps * eps * ex["I_eta"] * ex["G0"])
    verdict = total < 0.0 and quad_error < abs(total)
    return CertificateResult(beta=b, n=n, eps=eps, piece_ramp=piece_ramp,
                             piece_cross=piece_cross, piece_phi=piece_phi,
                             total=total, q_phi=q_phi, quad_error=quad_error,
                             norm_sq=norm_sq, verdict=verdict)


# --------------------------------------------------------------- b form

@dataclass(frozen=True)
class BForm:
    """1-D comparison form on (sqrt(nu), infinity), Dirichlet at the
    left end: (1 - 2*kappa*beta/eps)|f'|^2 plus a unit-depth well of
    width sqrt(nu) cut into the constant background E1."""

    beta: float
    eps: float
    kappa: float
    nu: float
    E1: float

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be non-negative")
        if self.c0 <= 0.0:
            raise ValueError(
                f"c0 = 1 - 2*kappa*beta/eps = {self.c0:.6g} <= 0; the "
                "comparison form is not coercive for these parameters")

    @property
    def c0(self) -> float:
        return 1.0 - 2.0 * self.kappa * self.beta / self.eps

    @property
    def width(self) -> float:
        return math.sqrt(self.nu)


def bform_count(beta, eps, kappa, nu, E1) -> int:
    """Bound states of the comparison well below its background level.

    Shifting by E1 leaves -c0 f'' - 1_[0,w] f on (0, infinity) with
    w = sqrt(nu) and Dirichlet at 0.  The threshold-energy solution is
    sin(x / sqrt(c0)) in the well and affine beyond it; its zeros count
    the eigenvalues.  With theta = w / sqrt(c0) the sine has
    ceil(theta/pi) - 1 zeros in (0, w), and the tangent line adds one
    more exactly when theta mod pi exceeds pi/2: floor(theta/pi + 1/2).
    """
    b = beta_value(beta)
    if eps < b:
        raise ValueError(f"eps = {eps:g} must be at least beta = {b:g}")
    form = BForm(beta=b, eps=eps, kappa=kappa, nu=nu, E1=E1)
    return math.floor(form.width / math.sqrt(form.c0) / math.pi + 0.5)


# ---------------------------------------------------------------- prism

@dataclass(frozen=True)
class PrismReport:
    """Numeric prism levels against the closed forms and inequalities.

    mu1/mu2 are discrete upper bounds.  rel_mu* compare with the unit
    shear closed forms and are None away from beta = 1.  lower_margin
    checks mu2 against bound_factor(beta) times the unit-shear second
    level; threshold_margin checks the key inequality mu2 >= threshold
    driving the single-eigenvalue argument.
    """

    beta: float
    grid: tuple[int, int]
    mu1: float
    mu2: float
    closed_mu1: float
    closed_mu2: float
    rel_mu1: float | None
    rel_mu2: float | None
    lower_bound: float
    lower_margin: float
    threshold_rhs: float
    threshold_margin: float
    slant_residual: float


def _slant_residual(vec, kept, n, h):
    """One-sided normal difference of the triangle mode on the slant.

    Nodes (i, i) sit on the face; stepping inward along the normal by
    h*sqrt(2) lands on (i+1, i-1).  First-order, so the invariant is
    decrease under refinement, not a rate.
    """
    index = {node: p for p, node in enumerate(kept)}
    diffs = []
    for i in range(2, n):
        here = index.get((i, i))
        inner = index.get((i + 1, i - 1))
        if here is None or inner is None:
            continue
        diffs.append((vec[here] - vec[inner]) / (h * math.sqrt(2.0)))
    scale = np.abs(vec).max()
    return float(np.sqrt(np.mean(np.square(diffs)))) / scale


def prism_eigen_check(beta, rect: Rect, grid=64) -> PrismReport:
    """Evaluate the prism problem numerically and compare with theory."""
    b = beta_value(beta)
    Atri, Mtri, kept, f1 = assemble_prism(b, rect, grid)
    n, n1 = (grid, grid) if isinstance(grid, int) else grid
    tri = lowest_eigenpairs(Atri, Mtri, 6)
    lam_1 = np.sort(f1.spectral().lam)
    sums = np.sort((tri.theta[:, None] + lam_1[None, :6]).ravel())
    mu1, mu2 = float(sums[0]), float(sums[1])
    cmu1, cmu2 = prism_mu_unit(rect)
    at_unit = abs(b - 1.0) <= 1e-12
    rel1 = abs(mu1 - cmu1) / cmu1 if at_unit else None
    rel2 = abs(mu2 - cmu2) / cmu2 if at_unit else None
    lower = bound_factor(b) * cmu2
    rhs = ess_threshold(b, rect)
    h = (rect.width2 / math.sqrt(2.0)) / n
    resid = _slant_residual(tri.vectors[:, 0], kept, n, h)
    return PrismReport(beta=b, grid=(n, n1), mu1=mu1, mu2=mu2,
                       closed_mu1=cmu1, closed_mu2=cmu2,
                       rel_mu1=rel1, rel_mu2=rel2,
                       lower_bound=lower, lower_margin=mu2 - lower,
                       threshold_rhs=rhs, threshold_margin=mu2 - rhs,
                       slant_residual=resid)
