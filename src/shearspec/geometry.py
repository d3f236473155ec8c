"""Geometry of broken sheared waveguides.

A guide with cross-section S and shear slope beta is the image of R x S
under (x, y1, y2) |-> (x, y1, beta*|x| + y2).  Pulling the Laplacian back
to the straight product domain produces the flat metric

    G_beta = [[1+b^2, 0, b], [0, 1, 0], [b, 0, 1]],   det G_beta = 1,

so the transformed problem lives on a rectangle/cylinder with constant
coefficients and all geometry is carried by the shear cross term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BETA_MAX",
    "LENGTH_MIN",
    "Rect",
    "MaskSection",
    "WaveguideSpec",
    "MetricTensor",
    "metric",
    "section_diameter",
]


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


# the largest shear double precision resolves: above it 1 + beta^2
# rounds to beta^2 and the x derivative drops out of the form
BETA_MAX = 2.0 ** 26

# the shortest length a section or box may have: a cell 2^-40 of it still
# keeps its cube and (1 + BETA_MAX^2) (pi / h)^2 inside the normal double
# range, where a length of 1e-300 overflows (pi / l)^2 or divides by zero
LENGTH_MIN = 2.0 ** -64


def beta_value(beta: float, *, allow_zero: bool = False) -> float:
    """Coerce a shear argument to a float, validating its sign and
    refusing shears above BETA_MAX."""
    b = float(beta)
    _require_finite("beta", b)
    if b < 0.0 or (b == 0.0 and not allow_zero):
        raise ValueError(f"shear slope out of range: {b}")
    if b > BETA_MAX:
        raise ValueError(f"beta {b:g} is too large: above 2^26, 1 + beta^2 "
                         f"rounds to beta^2 in double precision")
    return b


def check_length(name: str, *values: float) -> None:
    """Refuse a length that is not finite or is shorter than LENGTH_MIN."""
    for v in values:
        if not LENGTH_MIN <= v < math.inf:
            raise ValueError(f"{name} must be finite and at least 2^-64, "
                             f"got {v!r}")


@dataclass(frozen=True)
class Rect:
    """Open rectangle (a,b) x (c,d) used as a cross-section in (y1, y2)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        _require_finite("rectangle bounds", self.a, self.b, self.c, self.d)
        check_length("rectangle width", self.width1, self.width2)

    @property
    def width1(self) -> float:
        return self.b - self.a

    @property
    def width2(self) -> float:
        return self.d - self.c

    @property
    def aspect(self) -> float:
        """R = (d-c)/(b-a), the ratio steering the uniqueness threshold."""
        return self.width2 / self.width1


@dataclass(frozen=True)
class MaskSection:
    """Cross-section given by a boolean cell grid.

    ``inside[i, j]`` marks the cell with center
    ``origin + ((i+1/2)h, (j+1/2)h)`` as part of the section; axis 0 is y1.
    """

    inside: np.ndarray
    cell: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        arr = np.asarray(self.inside, dtype=bool)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
        if not arr.any():
            raise ValueError("mask has no inside cells")
        check_length("cell size", self.cell)
        object.__setattr__(self, "inside", arr)


Section = Rect | MaskSection


def section_diameter(section: Section) -> float:
    if isinstance(section, Rect):
        return math.hypot(section.width1, section.width2)
    idx = np.argwhere(section.inside)
    span = (idx.max(axis=0) - idx.min(axis=0) + 1) * section.cell
    return float(math.hypot(*span))


@dataclass(frozen=True)
class WaveguideSpec:
    """A broken sheared waveguide: shear slope beta >= 0 plus
    cross-section; beta = 0 is the straight tube."""

    beta: float
    section: Section

    def __post_init__(self) -> None:
        beta_value(self.beta, allow_zero=True)


@dataclass(frozen=True)
class MetricTensor:
    """Pullback metric of the shear map on one half-guide."""

    beta: float
    matrix: np.ndarray = field(repr=False)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


def metric(beta: float) -> MetricTensor:
    """Flat metric G_beta of the transformed half-guide; det G_beta = 1."""
    b = beta_value(beta)
    g = np.array([
        [1.0 + b * b, 0.0, b],
        [0.0, 1.0, 0.0],
        [b, 0.0, 1.0],
    ])
    return MetricTensor(beta=b, matrix=g)
