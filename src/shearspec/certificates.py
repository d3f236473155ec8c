"""Explicit variational objects behind the spectral statements.

Three independent devices live here, one per claim of the paper.  The
existence certificate builds the two-piece trial family psi_n + eps*phi
whose shifted energy, in closed form, can be driven strictly negative,
which places spectrum below the threshold.  The comparison form b is a
1-D square well whose bound states dominate the count of discrete
eigenvalues; it is counted in closed form from the phase of its
zero-energy solution.  The prism checks evaluate the auxiliary
anisotropic problem on the triangular prism against its closed-form
levels at unit shear.

Those levels give the uniqueness bound.  For rectangle sections there is
an explicit sufficient bound beta_star(R) on the shear, R the aspect
ratio (d-c)/(b-a), below which exactly one discrete eigenvalue sits
under the threshold E1(beta).  It comes from a two-step chain: the
second prism eigenvalue mu2 at shear beta is at least bound_factor(beta)
times its beta=1 value, and uniqueness needs mu2(beta) to reach E1(beta).
prism_eigen_check reports the chain's two sides, PrismReport.lower_bound
and threshold_rhs, beside the numeric mu2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import assemble_prism
from .cross_section import ess_threshold
from .eigcore import lowest_eigenpairs
from .geometry import Rect, beta_value

__all__ = [
    "CutoffProfile",
    "CertificateResult",
    "PrismReport",
    "BRANCH_POINT",
    "default_profile",
    "existence_certificate",
    "bform_count",
    "beta_star",
    "bound_factor",
    "prism_mu_unit",
    "prism_eigen_check",
]


# closed-form integrals of the default profiles, each written once
RAMP_ENERGY = math.pi**2 / 8.0  # int_1^2 |w'|^2
RAMP_MASS = 3.0 / 2.0  # int_0^2 w^2
ETA_MASS = 2.0 / 7.0  # int_0^1 eta^2
ETA_ENERGY = 48.0 / 35.0  # int_0^1 eta'^2
ETA_MEAN = 2.0 / 5.0  # int_0^1 eta


@dataclass(frozen=True)
class CutoffProfile:
    """Scalar profiles of the trial family.

    w ramps from 1 (on x <= 1) to 0 (on x >= 2) with Dirichlet energy
    dirichlet_energy.  eta lives on [0, 1) with eta(0) = 1 and couples
    the localized correction to the spreading piece.
    """

    w: Callable = field(repr=False)
    w_prime: Callable = field(repr=False)
    dirichlet_energy: float
    eta: Callable = field(repr=False)
    eta_prime: Callable = field(repr=False)


def default_profile() -> CutoffProfile:
    """Cosine ramp and cubic bump eta = (1-x)^3(1+3x)."""

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

    return CutoffProfile(w=w, w_prime=w_prime, dirichlet_energy=RAMP_ENERGY,
                         eta=eta, eta_prime=eta_prime)


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the negative-energy trial construction.

    total = piece_ramp + piece_cross + piece_phi; the verdict is
    certified only when the rounding margin cannot flip the sign.
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


def existence_certificate(beta, rect: Rect) -> CertificateResult:
    """Pick (n, eps) making the trial energy strictly negative.

    Every piece is closed.  With g(y2) = y2 chi_2(y2), phi = eta(x) g
    chi_1 has q_beta(phi) = ETA_ENERGY G0 + ETA_MASS (1 + beta^2), where
    G0 = int g^2; int g g' = 0 and E1 cancels against the transverse
    energies.  The spreading term is RAMP_ENERGY / n, and the cross term
    is -beta eta(0)/2 exactly once the profile supports are disjoint
    (n >= 1).  quad_error is a rounding margin only.
    """
    b = beta_value(beta)
    if not isinstance(rect, Rect):
        raise ValueError("certificate needs a rectangle section")
    w2, c = rect.width2, rect.c
    G0 = c * c + c * w2 + w2 * w2 * (1.0 / 3.0 - 1.0 / (2.0 * math.pi**2))
    q_phi = ETA_ENERGY * G0 + ETA_MASS * (1.0 + b * b)
    eps = b / (2.0 * q_phi)
    depth = b * b / (4.0 * q_phi)
    ratio = RAMP_ENERGY / depth if depth > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"beta too small: at {b:g} the ramp length "
                         f"n = (pi^2/8) / (beta^2/4q) overflows")
    n = int(ratio) + 1
    piece_ramp = RAMP_ENERGY / n
    piece_cross = -eps * b
    piece_phi = eps * eps * q_phi
    total = piece_ramp + piece_cross + piece_phi
    quad_error = 1e-13 * (abs(piece_ramp) + abs(piece_phi))
    norm_sq = (n * RAMP_MASS + 2.0 * eps * ETA_MEAN * (c + 0.5 * w2)
               + eps * eps * ETA_MASS * G0)
    verdict = total < 0.0 and quad_error < abs(total)
    return CertificateResult(beta=b, n=n, eps=eps, piece_ramp=piece_ramp,
                             piece_cross=piece_cross, piece_phi=piece_phi,
                             total=total, q_phi=q_phi, quad_error=quad_error,
                             norm_sq=norm_sq, verdict=verdict)


# --------------------------------------------------------------- b form

def bform_count(beta, eps, kappa, nu, E1) -> int:
    """Bound states of the comparison well below its background level.

    The form lives on (sqrt(nu), infinity), Dirichlet at the left end:
    c0 |f'|^2, c0 = 1 - 2*kappa*beta/eps, plus a unit-depth well of width
    sqrt(nu) cut into the constant background E1.  Shifting by E1 leaves
    -c0 f'' - 1_[0,w] f on (0, infinity) with w = sqrt(nu) and Dirichlet
    at 0, so E1 does not enter the count.  The threshold-energy solution
    is sin(x / sqrt(c0)) in the well and affine beyond it; its zeros count
    the eigenvalues.  With theta = w / sqrt(c0) the sine has
    ceil(theta/pi) - 1 zeros in (0, w), and the tangent line adds one
    more exactly when theta mod pi exceeds pi/2: floor(theta/pi + 1/2).
    """
    b = beta_value(beta)
    if eps < b:
        raise ValueError(f"eps = {eps:g} must be at least beta = {b:g}")
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if kappa < 0.0:
        raise ValueError("kappa must be non-negative")
    c0 = 1.0 - 2.0 * kappa * b / eps
    if c0 <= 0.0:
        raise ValueError(
            f"c0 = 1 - 2*kappa*beta/eps = {c0:.6g} <= 0; the "
            "comparison form is not coercive for these parameters")
    return math.floor(math.sqrt(nu) / math.sqrt(c0) / math.pi + 0.5)


# ---------------------------------------------------------------- prism

BRANCH_POINT = 2.0 / math.sqrt(3.0)  # aspect ratio where beta_star switches


def beta_star(R: float) -> float:
    """Sufficient uniqueness bound on the shear for aspect ratio R.

    sqrt(3) R for R <= 2/sqrt(3), else
    (1/2) sqrt(-R^2 + 3 + sqrt(49 + 2R^2 + R^4)).

    The two branches do not meet at R = 2/sqrt(3) (2 vs about 1.498);
    the jump is kept as is.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError(f"aspect ratio must be positive, got {R}")
    if R <= BRANCH_POINT:
        return math.sqrt(3.0) * R
    R2 = R * R
    rad = math.sqrt(49.0 + R2 * (2.0 + R2))
    # -R^2 + rad rewritten to avoid cancellation for wide sections
    inner = 3.0 + (2.0 * R2 + 49.0) / (rad + R2)
    return 0.5 * math.sqrt(inner)


def bound_factor(beta) -> float:
    """min{(1+b^2)/(2b^2), 1, (1+b^2)/2}: decay of mu2 away from beta=1."""
    b = beta_value(beta)
    s = 1.0 + b * b
    return min(s / (2.0 * b * b), 1.0, s / 2.0)


def prism_mu_unit(rect: Rect) -> tuple[float, float]:
    """First two prism eigenvalues at beta = 1, branch chosen by R.

    mu1 is the same on both branches; mu2 doubles the y1 mode for
    narrow sections (R <= 2/sqrt(3)) and the y2/x pair otherwise.
    """
    w1, w2 = rect.width1, rect.width2
    mu1 = math.pi**2 * (1.0 / w2**2 + 1.0 / w1**2)
    if rect.aspect <= BRANCH_POINT:
        mu2 = math.pi**2 * (1.0 / w2**2 + 4.0 / w1**2)
    else:
        mu2 = math.pi**2 * (5.0 / w2**2 + 1.0 / w1**2)
    return mu1, mu2


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
