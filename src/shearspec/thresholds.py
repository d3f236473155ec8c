"""Spectral thresholds in closed form.

The essential spectrum of the waveguide is [E1(beta), inf) with E1 the
ground eigenvalue of the cross-section operator.  For rectangle sections
there is an explicit sufficient bound beta_star(R) on the shear, R the
aspect ratio (d-c)/(b-a), below which exactly one discrete eigenvalue
sits under the threshold.  The bound comes from a two-step chain: the
second prism eigenvalue mu2 at shear beta is at least bound_factor(beta)
times its beta=1 value, and uniqueness needs mu2(beta) to reach E1(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cross_section import section_eigenvalues
from .geometry import Rect, Section, beta_value

__all__ = [
    "BRANCH_POINT",
    "UniquenessReport",
    "ess_threshold",
    "beta_star",
    "bound_factor",
    "uniqueness_condition",
    "prism_mu_unit",
]

BRANCH_POINT = 2.0 / math.sqrt(3.0)  # aspect ratio where beta_star switches


def ess_threshold(beta, section: Section) -> float:
    """Bottom of the essential spectrum, E1(beta).

    Analytic for rectangles.  Masks get the ground value of the Q1
    section pencil on their cell grid; it is the rung threshold
    ``compute_spectrum`` uses on the same grid (``refine_mask`` gives
    the finer rungs'), and carries that grid's discretization error.
    """
    return float(section_eigenvalues(beta, section, 1)[0])


def beta_star(R: float) -> float:
    """Sufficient uniqueness bound on the shear for aspect ratio R.

    sqrt(3) R for R <= 2/sqrt(3), else
    (1/2) sqrt(-R^2 + 3 + sqrt(49 + 2R^2 + R^4)).

    The two branches do not meet at R = 2/sqrt(3) (2 vs about 1.498);
    the jump is kept as is and flagged by uniqueness_condition.
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
class UniquenessReport:
    """Outcome of the sufficient uniqueness condition beta < beta_star(R).

    ``chain_holds`` reports whether the explicit lower-bound chain
    bound_factor(beta) * mu2(1) >= E1(beta) closes numerically at these
    parameters; the sufficient condition is the beta_star comparison.
    """

    holds: bool
    beta: float
    beta_star: float
    aspect: float
    branch: str               # 'linear' | 'radical'
    bound_factor: float
    mu2_lower: float          # bound_factor * mu2(1)
    threshold: float          # E1(beta)
    chain_holds: bool
    near_branch_jump: bool

    def __bool__(self) -> bool:
        return self.holds


def uniqueness_condition(beta, rect: Rect) -> UniquenessReport:
    """Strict test beta < beta_star(R), with both sides of the chain."""
    b = beta_value(beta)
    R = rect.aspect
    bs = beta_star(R)
    fac = bound_factor(b)
    _, mu2 = prism_mu_unit(rect)
    e1 = ess_threshold(b, rect)
    return UniquenessReport(
        holds=b < bs,
        beta=b,
        beta_star=bs,
        aspect=R,
        branch="linear" if R <= BRANCH_POINT else "radical",
        bound_factor=fac,
        mu2_lower=fac * mu2,
        threshold=e1,
        chain_holds=fac * mu2 >= e1,
        near_branch_jump=abs(R - BRANCH_POINT) <= 1e-9,
    )
