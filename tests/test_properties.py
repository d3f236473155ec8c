"""Randomized checks of the closed-form layer.

Everything here is pure arithmetic (no matrix assembly), so wide
parameter ranges are cheap.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from shearspec.certificates import (
    BRANCH_POINT,
    beta_star,
    bound_factor,
)
from shearspec.cross_section import (
    ess_threshold,
    l_shaped_mask,
    rect_mode_value,
    refine_mask,
)
from shearspec.geometry import Rect, metric

EPS = sys.float_info.epsilon

betas = st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=0.1, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
ratios = st.floats(min_value=1e-2, max_value=1e2,
                   allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    w1 = draw(widths)
    w2 = draw(widths)
    return Rect(0.0, w1, 0.0, w2)


@given(betas)
def test_shear_preserves_volume(b):
    # det cancels beta^2 against itself, so the error scales with 1+beta^2
    assert abs(metric(b).det - 1.0) <= 4 * EPS * (1.0 + b * b)


@settings(deadline=None)
@given(betas, rects())
def test_threshold_closed_form(b, rect):
    got = ess_threshold(b, rect)
    want = math.pi**2 * (1.0 / rect.width1**2
                         + (1.0 + b * b) / rect.width2**2)
    assert got == want


@given(st.floats(min_value=1e-3, max_value=100.0), betas, rects())
def test_threshold_grows_with_shear(db, b, rect):
    assert ess_threshold(b + db, rect) > ess_threshold(b, rect)


@given(ratios)
def test_beta_star_branches(R):
    bs = beta_star(R)
    if R <= BRANCH_POINT:
        assert bs == math.sqrt(3.0) * R
    else:
        # radical branch decays from ~1.498 toward 1 for wide sections
        assert 1.0 < bs <= 1.5


@given(betas)
def test_bound_factor_range_and_duality(b):
    fac = bound_factor(b)
    assert 0.0 < fac <= 1.0
    assert fac == (1.0 if b == 1.0 else min((1 + b * b) / (2 * b * b),
                                            (1 + b * b) / 2))
    # the factor cannot tell a shear from its reciprocal
    assert math.isclose(fac, bound_factor(1.0 / b), rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6), betas, rects())
def test_mode_values_increase_with_index(m, n, b, rect):
    v = rect_mode_value(m, n, b, rect)
    assert rect_mode_value(m + 1, n, b, rect) > v
    assert rect_mode_value(m, n + 1, b, rect) > v


@given(st.integers(min_value=8, max_value=20).filter(lambda n: n % 4 == 0),
       st.integers(min_value=2, max_value=4))
def test_mask_refinement_preserves_shape(n, f):
    mask = l_shaped_mask(n)
    fine = refine_mask(mask, f)
    assert fine.inside.sum() == f * f * mask.inside.sum()
    assert fine.cell * f == mask.cell
