import math

import numpy as np
import pytest

from shearspec.cross_section import (
    l_shaped_mask,
    rect_mode_value,
    refine_mask,
    section_eigenvalues,
)
from shearspec.assembly import section_fem
from shearspec.eigcore import lowest_eigenpairs
from shearspec.geometry import MaskSection, Rect

PI2 = math.pi**2
UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def full_mask(rect: Rect, n1: int, n2: int | None = None) -> MaskSection:
    """The whole rectangle as a mask of n1 x n2 square cells."""
    n2 = n1 if n2 is None else n2
    assert rect.width1 / n1 == pytest.approx(rect.width2 / n2, rel=1e-14)
    return MaskSection(inside=np.ones((n1, n2), dtype=bool),
                       cell=rect.width1 / n1, origin=(rect.a, rect.c))


# ------------------------------------------------------------ closed forms

def test_unit_square_ground_modes():
    assert section_eigenvalues(1.0, UNIT, 1)[0] == pytest.approx(3 * PI2)
    assert section_eigenvalues(0.0, UNIT, 1)[0] == pytest.approx(2 * PI2)


def test_rect_mode_value_squares_by_multiplication():
    # beta**2 differs from beta * beta by one ulp here; the threshold
    # formula everywhere else squares by multiplication
    b = 9.798548485571086
    want = math.pi**2 * (1.0 / UNIT.width1**2 + (1.0 + b * b) / UNIT.width2**2)
    assert rect_mode_value(1, 1, b, UNIT) == want


def test_unit_square_second_mode_beta_one():
    E = section_eigenvalues(1.0, UNIT, 2)
    # (2,1) at 6 pi^2 beats (1,2) at 9 pi^2 once the shear weights y2
    assert E[1] == pytest.approx(6 * PI2)


def test_degenerate_ties_break_lexicographically():
    E = section_eigenvalues(0.0, UNIT, 3)
    assert E[1] == pytest.approx(5 * PI2)
    assert E[2] == pytest.approx(5 * PI2)


def test_rectangle_mode_list_is_sorted_and_complete():
    rect = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))
    E = section_eigenvalues(1.0, rect, 12)
    assert list(E) == sorted(E)
    # brute-force the same list over a wide index box
    brute = sorted(rect_mode_value(m, n, 1.0, rect)
                   for m in range(1, 40) for n in range(1, 40))[:12]
    assert np.allclose(E, brute, rtol=1e-14)


def test_e1_strictly_increasing_in_beta():
    rect = Rect(0.0, 1.5, 0.0, 0.7)
    betas = np.linspace(0.0, 4.0, 17)
    e1 = [section_eigenvalues(b, rect, 1)[0] for b in betas]
    assert np.all(np.diff(e1) > 0)


def test_e1_simple_on_rectangles():
    for rect in (UNIT, Rect(0, 1, 0, 2), Rect(0, 2, 0, 1), Rect(0, 1, 0, 4.44)):
        for beta in (0.25, 1.0, 3.0):
            E = section_eigenvalues(beta, rect, 2)
            assert E[1] - E[0] > 0


# ------------------------------------------------------------ numeric path

def test_numeric_matches_trivial_laplacian():
    got = section_eigenvalues(0.0, full_mask(UNIT, 128), 1)[0]
    assert got == pytest.approx(2 * PI2, rel=5e-3)


def test_numeric_matches_closed_form_at_128():
    got = section_eigenvalues(1.0, full_mask(UNIT, 128), 1)[0]
    assert got == pytest.approx(3 * PI2, rel=1e-3)


def test_numeric_second_order_convergence():
    exact = 3 * PI2
    errs = [abs(section_eigenvalues(1.0, full_mask(UNIT, n), 1)[0] - exact)
            for n in (32, 64, 128)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_numeric_anisotropic_rectangle_grid_pair():
    rect = Rect(0.0, 1.0, 0.0, 2.0)
    got = section_eigenvalues(2.0, full_mask(rect, 48, 96), 2)
    exact = section_eigenvalues(2.0, rect, 2)
    assert np.allclose(got, exact, rtol=3e-3)


def test_numeric_mode_nodal_normalization():
    # the section pencil section_eigenvalues solves for a mask returns
    # Q1-mass-normalized vectors
    K1, K2, _, M = section_fem(full_mask(UNIT, 32))
    v = lowest_eigenpairs((K1 + 2.0 * K2).tocsr(), M, 1).vectors[:, 0]
    assert v @ (M @ v) == pytest.approx(1.0, abs=1e-10)


def test_lshape_mask_self_convergence():
    coarse = section_eigenvalues(1.0, l_shaped_mask(128), 1)[0]
    fine = section_eigenvalues(1.0, l_shaped_mask(256), 1)[0]
    assert abs(coarse - fine) / fine < 0.01
    # the L-shape binds tighter than its bounding square
    assert fine > 3 * PI2


def test_mask_refinement_is_exact_subdivision():
    assert np.array_equal(refine_mask(l_shaped_mask(64), 2).inside,
                          l_shaped_mask(128).inside)
    got = section_eigenvalues(1.0, refine_mask(l_shaped_mask(64), 2), 1)[0]
    ref = section_eigenvalues(1.0, l_shaped_mask(128), 1)[0]
    assert got == pytest.approx(ref, rel=1e-12)


# ------------------------------------------------------------- validation

def test_validation_errors():
    with pytest.raises(ValueError):
        section_eigenvalues(1.0, UNIT, 0)
    with pytest.raises(ValueError):
        section_eigenvalues(1.0, l_shaped_mask(12), 0)
    with pytest.raises(ValueError):
        section_eigenvalues(1.0, l_shaped_mask(2), 1)  # no interior vertex
    with pytest.raises(ValueError):
        l_shaped_mask(7)
    with pytest.raises(ValueError):
        refine_mask(l_shaped_mask(8), 0)
    # up to 2^16 vertices: 255 x 255 cells pass, 256 x 256 do not
    one = MaskSection(np.ones((1, 1), bool), 1.0)
    assert refine_mask(one, 255).inside.shape == (255, 255)
    with pytest.raises(ValueError, match="limit of 65536 vertices"):
        refine_mask(one, 256)
    # a refinement factor below 1 is refused, not read as the mask as given
    for factor in (0, -3):
        with pytest.raises(ValueError, match="refinement factor"):
            refine_mask(l_shaped_mask(12), factor)
