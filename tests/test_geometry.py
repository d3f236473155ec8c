import math

import numpy as np
import pytest

from shearspec.assembly import assemble_reduced2d, assemble_waveguide
from shearspec.certificates import existence_certificate
from shearspec.cross_section import section_eigenvalues
from shearspec.geometry import (
    BETA_MAX,
    LENGTH_MIN,
    MaskSection,
    MetricTensor,
    Rect,
    WaveguideSpec,
    beta_value,
    metric,
    section_diameter,
)
from shearspec.waveguide import DiscretizationSpec


UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def test_metric_matrix_and_unit_determinant():
    for beta in (1e-3, 0.25, 1.0, 2.0, 1e3):
        g = metric(beta)
        expect = np.array([
            [1 + beta**2, 0, beta],
            [0, 1, 0],
            [beta, 0, 1],
        ])
        assert np.array_equal(g.matrix, expect)
        # volume-preserving shear: det stays 1 up to roundoff of the det
        # evaluation itself, which scales with the entries
        assert abs(g.det - 1.0) <= 32 * np.finfo(float).eps * (1 + beta**2)


def test_metric_symmetric_positive_definite():
    g = metric(3.0).matrix
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() > 0


def test_rect_validation_and_aspect():
    with pytest.raises(ValueError):
        Rect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    r = Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2.0))
    assert r.aspect == pytest.approx(math.pi * math.sqrt(2.0))


def test_mask_validation():
    with pytest.raises(ValueError):
        MaskSection(np.zeros((2, 2), dtype=bool), cell=0.1)
    with pytest.raises(ValueError):
        MaskSection(np.ones((2, 2), dtype=bool), cell=-0.1)
    with pytest.raises(ValueError):
        MaskSection(np.ones(4, dtype=bool), cell=0.1)


def test_section_diameter():
    assert section_diameter(UNIT) == pytest.approx(math.sqrt(2.0))
    inside = np.zeros((8, 8), dtype=bool)
    inside[2:5, 1:7] = True  # 3 x 6 block of 0.5-cells
    assert section_diameter(MaskSection(inside, cell=0.5)) == pytest.approx(
        math.hypot(1.5, 3.0))


def test_metric_tensor_repr_hides_matrix():
    g = metric(1.0)
    assert isinstance(g, MetricTensor)
    assert "matrix" not in repr(g)


@pytest.mark.parametrize("refuse", [
    lambda b: WaveguideSpec(b, UNIT),
    lambda b: assemble_reduced2d(b, UNIT, 4.0, (8, 8)),
    lambda b: assemble_waveguide(b, UNIT, 4.0, 8),
    lambda b: section_eigenvalues(b, UNIT, 1),
    lambda b: existence_certificate(b, UNIT),
    lambda b: metric(b),
], ids=["spec", "reduced2d", "waveguide", "section", "certificate",
        "metric"])
def test_shears_above_beta_max_are_refused(refuse):
    # above 2^26, 1 + beta^2 rounds to beta^2: the library refuses what
    # the configs and --beta refuse
    with pytest.raises(ValueError, match="2\\^26"):
        refuse(1e30)
    with pytest.raises(ValueError, match="2\\^26"):
        refuse(BETA_MAX * (1.0 + 2.0 ** -52))


def test_beta_max_itself_is_resolved():
    assert beta_value(BETA_MAX) == BETA_MAX == 2.0 ** 26
    WaveguideSpec(BETA_MAX, UNIT)


@pytest.mark.parametrize("make", [
    lambda v: Rect(0.0, v, 0.0, 1.0),
    lambda v: Rect(0.0, 1.0, 0.0, v),
    lambda v: MaskSection(np.ones((2, 2), dtype=bool), cell=v),
    lambda v: DiscretizationSpec(nx=8, n1=8, n2=8, L=v),
], ids=["rect_width1", "rect_width2", "mask_cell", "box_length"])
def test_lengths_below_the_floor_are_refused(make):
    # (pi / l)^2 of a length of 1e-300 overflows, and 1 / l^2 divides by
    # zero: such a length is refused where it is given, by name
    make(LENGTH_MIN)
    with pytest.raises(ValueError, match="1e-300"):
        make(1e-300)
    with pytest.raises(ValueError, match="2\\^-64"):
        make(LENGTH_MIN / 2.0)
