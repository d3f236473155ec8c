import math

import numpy as np
import pytest

from shearspec.certificates import (
    BRANCH_POINT,
    beta_star,
    bound_factor,
    prism_mu_unit,
)
from shearspec.cross_section import (
    ess_threshold,
    l_shaped_mask,
    section_eigenvalues,
)
from shearspec.geometry import Rect

PI2 = math.pi**2
UNIT = Rect(0.0, 1.0, 0.0, 1.0)
WIDE = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))

# frozen 40-digit decimal evaluations of the radical branch
BSTAR_R2 = 1.3733174929088258
BSTAR_RPI_SQRT2 = 1.1321028162929224
BSTAR_RIGHT_OF_JUMP = 1.4981019157437551


# ---------------------------------------------------------------- ess bottom

def test_ess_threshold_closed_forms():
    assert ess_threshold(1.0, UNIT) == pytest.approx(3 * PI2, rel=1e-14)
    assert ess_threshold(0.0, UNIT) == pytest.approx(2 * PI2, rel=1e-14)
    # width pi*sqrt(2) turns the threshold into pi^2 + 1 exactly
    assert ess_threshold(1.0, WIDE) == pytest.approx(PI2 + 1.0, rel=1e-14)


def test_ess_threshold_mask_delegates_to_numeric():
    mask = l_shaped_mask(64)
    want = section_eigenvalues(1.0, mask, 1)[0]
    assert ess_threshold(1.0, mask) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- beta_star

def test_beta_star_linear_branch():
    assert beta_star(1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert beta_star(BRANCH_POINT) == pytest.approx(2.0, rel=1e-15)


def test_beta_star_radical_branch_frozen_values():
    assert beta_star(2.0) == pytest.approx(BSTAR_R2, rel=1e-14)
    assert beta_star(math.pi * math.sqrt(2.0)) == pytest.approx(
        BSTAR_RPI_SQRT2, rel=1e-14)


def test_beta_star_jump_at_branch_point():
    eps = 1e-12
    left = beta_star(BRANCH_POINT)
    right = beta_star(BRANCH_POINT + eps)
    assert left == pytest.approx(2.0)
    assert right == pytest.approx(BSTAR_RIGHT_OF_JUMP, rel=1e-9)
    assert left - right > 0.5  # the printed formula really jumps


def test_beta_star_linear_branch_increasing():
    r = np.linspace(1e-3, BRANCH_POINT, 50)
    v = np.array([beta_star(x) for x in r])
    assert np.all(np.diff(v) > 0)


def test_beta_star_stable_for_wide_sections():
    # the fused radical avoids the R^2 cancellation: limit is 1 from above
    v = beta_star(1e6)
    assert 1.0 < v < 1.0 + 1e-10


def test_beta_star_rejects_bad_aspect():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            beta_star(bad)


# -------------------------------------------------------------- bound factor

def test_bound_factor_examples():
    assert bound_factor(1.0) == pytest.approx(1.0)
    assert bound_factor(2.0) == pytest.approx(5.0 / 8.0)
    assert bound_factor(0.5) == pytest.approx(5.0 / 8.0)
    with pytest.raises(ValueError):
        bound_factor(0.0)


def test_bound_factor_limits():
    assert bound_factor(1e-3) == pytest.approx(0.5, rel=1e-5)
    assert bound_factor(1e3) == pytest.approx(0.5, rel=1e-5)


# ------------------------------------------------------------------ prism mu

def test_prism_mu_unit_square():
    mu1, mu2 = prism_mu_unit(UNIT)
    assert mu1 == pytest.approx(2 * PI2)
    assert mu2 == pytest.approx(5 * PI2)


def test_prism_mu_wide_branch():
    mu1, mu2 = prism_mu_unit(Rect(0, 1, 0, 2))
    assert mu1 == pytest.approx(PI2 * (1 / 4 + 1))
    assert mu2 == pytest.approx(PI2 * (5 / 4 + 1))


# ---------------------------------------------------------- one-state bound

def _chain_holds(beta, rect):
    """The explicit chain bound_factor(beta) * mu2(1) >= E1(beta)."""
    return (bound_factor(beta) * prism_mu_unit(rect)[1]
            >= ess_threshold(beta, rect))


def test_uniqueness_examples():
    assert 1.0 < beta_star(WIDE.aspect)
    assert not 2.0 < beta_star(UNIT.aspect)


def test_uniqueness_boundary_is_strict():
    beta = math.sqrt(3.0)
    assert beta == beta_star(UNIT.aspect)
    assert not beta < beta_star(UNIT.aspect)


def _chain_region_oracle(R: float, beta: float) -> bool:
    """Where the explicit mu2 chain closes, worked out by hand.

    With s = 1 + beta^2 the chain inequality reduces to a quadratic in s
    on each piece of the min; solving gives the regions below.
    """
    s = 1.0 + beta * beta
    if R <= BRANCH_POINT:
        if beta <= 1.0:
            return s * (2.0 - 1.0 / (2.0 * R * R)) >= 1.0
        bound = (3 + 2 * R**2 + math.sqrt((3 + 2 * R**2) ** 2 + 16 * R**2)) / 4
        return s <= bound
    if beta <= 1.0:
        return s * (3.0 / (2.0 * R * R) + 0.5) >= 1.0
    bound = (7 - R**2 + math.sqrt(R**4 + 2 * R**2 + 49)) / 4
    return s <= bound


def test_chain_flag_matches_region_algebra():
    rng_R = [0.4, 0.6, 0.75, 1.0, BRANCH_POINT - 1e-6,
             BRANCH_POINT + 1e-6, 1.5, 2.0, math.sqrt(3.0) + 0.2,
             math.pi * math.sqrt(2.0), 8.0]
    rng_b = [0.05, 0.2, 0.5, 0.8, 0.999, 1.001, 1.2, 1.3, 1.5, 1.7, 2.5]
    for R in rng_R:
        rect = Rect(0.0, 1.0, 0.0, R)
        for beta in rng_b:
            want = _chain_region_oracle(R, beta)
            got = _chain_holds(beta, rect)
            # skip points sitting on a region boundary to float precision
            if abs(beta - 1.0) < 1e-2:
                continue
            assert got == want, f"chain mismatch at R={R}, beta={beta}"


def test_chain_can_fail_inside_the_linear_branch():
    # beta below beta_star does not guarantee the explicit chain closes:
    # the sufficient condition and its printed derivation part ways here
    assert 1.56 < beta_star(UNIT.aspect)
    assert not _chain_holds(1.56, UNIT)


def test_chain_equals_condition_above_one_on_radical_branch():
    for R in (1.2, 1.5, 2.0, 3.0, math.pi * math.sqrt(2.0), 10.0):
        rect = Rect(0.0, 1.0, 0.0, R)
        bs = beta_star(R)
        for beta in np.linspace(1.01, 2.0 * bs, 25):
            if abs(beta - bs) < 1e-3:
                continue
            assert _chain_holds(float(beta), rect) == (beta < bs)
