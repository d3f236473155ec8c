import math

import numpy as np
import pytest

from shearspec.geometry import (
    MaskSection,
    MetricTensor,
    Rect,
    WaveguideSpec,
    metric,
    section_diameter,
)


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
