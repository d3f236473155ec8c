"""Cross-section operator T(beta) = -d^2/dy1^2 - (1+beta^2) d^2/dy2^2 on S.

Its ground eigenvalue E1(beta) is the bottom of the essential spectrum of
the waveguide; the gap E2 - E1 and two scalar integrals of the ground
eigenfunction chi (the y2-stiffness kappa and the first y2 moment) feed
the existence and finiteness estimates.  Rectangles are handled in
closed form, arbitrary cell masks by the conforming Q1 section pencil
(K1 + (1+beta^2) K2, M) of ``assembly.section_fem``, the same pencil
the waveguide assembly uses, so a mask threshold is one number whether
it comes from here or from a ladder rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import section_fem
from .eigcore import lowest_eigenpairs
from .geometry import MaskSection, Rect, beta_value

__all__ = [
    "SectionMode",
    "SectionConstants",
    "rectangle_modes",
    "numeric_modes",
    "section_constants",
    "refine_mask",
    "l_shaped_mask",
    "rect_mode_value",
]


def rect_mode_value(m: int, n: int, beta: float, rect: Rect) -> float:
    """Eigenvalue pi^2 (m^2/(b-a)^2 + (1+beta^2) n^2/(d-c)^2)."""
    return math.pi**2 * (m * m / rect.width1**2
                         + (1.0 + beta * beta) * n * n / rect.width2**2)


@dataclass(frozen=True)
class SectionMode:
    """One eigenpair of T(beta) on a section.

    ``kind`` is 'rect' for closed-form sine products (index = (m, n))
    or 'mask' for Q1 nodal vectors on the interior vertices of
    ``section`` (index = ordinal), normalized in the Q1 mass
    (v^T M v = 1).
    """

    kind: str
    E: float
    beta: float
    index: tuple[int, int] | int
    rect: Rect | None = None
    section: MaskSection | None = None
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.E <= 0.0:
            raise ValueError(f"section eigenvalue must be positive, got {self.E}")

    def evaluate(self, y1, y2):
        """Pointwise chi for closed-form rectangle modes."""
        if self.kind != "rect":
            raise ValueError("pointwise evaluation needs a closed-form mode")
        r = self.rect
        m, n = self.index
        amp = 2.0 / math.sqrt(r.width1 * r.width2)
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        inside = (r.a <= y1) & (y1 <= r.b) & (r.c <= y2) & (y2 <= r.d)
        out = amp * np.sin(m * np.pi * (y1 - r.a) / r.width1) \
            * np.sin(n * np.pi * (y2 - r.c) / r.width2)
        return np.where(inside, out, 0.0)


@dataclass(frozen=True)
class SectionConstants:
    kappa: float   # ||d(chi)/dy2||^2 over S
    moment: float  # integral of y2 * chi * d(chi)/dy2; always -1/2

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


def rectangle_modes(beta, rect: Rect, count: int) -> list[SectionMode]:
    """The ``count`` smallest closed-form modes, ties broken by (m, n)."""
    b = beta_value(beta, allow_zero=True)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    # the k-th smallest cannot beat the k-th pure-y1 mode, so the search
    # box (m <= count, n up to the matching bound) is complete
    cap = rect_mode_value(count, 1, b, rect)
    nmax = max(1, int(math.floor(rect.width2 * math.sqrt(cap)
                                 / (math.pi * math.sqrt(1.0 + b * b)))))
    cand = [(rect_mode_value(m, n, b, rect), m, n)
            for m in range(1, count + 1) for n in range(1, nmax + 1)]
    cand.sort()
    return [SectionMode(kind="rect", E=E, beta=b, index=(m, n), rect=rect)
            for E, m, n in cand[:count]]


def numeric_modes(beta, section: MaskSection, grid,
                  count: int) -> list[SectionMode]:
    """Lowest ``count`` eigenpairs of the Q1 section pencil of T(beta).

    The unknowns are the interior vertices of the mask, refined by the
    integer factor ``grid`` (None for the mask as given; at least 1).
    Rectangles have closed forms: use ``rectangle_modes``.
    """
    if isinstance(section, Rect):
        raise ValueError("rectangle sections have closed-form modes; "
                         "use rectangle_modes")
    b = beta_value(beta, allow_zero=True)
    if grid is not None:
        section = refine_mask(section, int(grid))
    K1, K2, _, M = section_fem(section)
    res = lowest_eigenpairs((K1 + (1.0 + b * b) * K2).tocsr(), M, count)
    return [SectionMode(kind="mask", E=float(res.theta[j]), beta=b, index=j,
                        section=section, values=res.vectors[:, j])
            for j in range(count)]


def section_constants(chi: SectionMode) -> SectionConstants:
    """kappa and the y2 moment of a normalized mode; moment is -1/2.

    The moment is -1/2 for every L2-normalized H^1_0 function, by
    integrating y2 d(chi^2)/dy2 by parts, so only kappa is computed:
    in closed form for rectangles, as v^T K2 v for Q1 modes.
    """
    if chi.kind == "rect":
        n = chi.index[1]
        kappa = (n * math.pi / chi.rect.width2) ** 2
        return SectionConstants(kappa=kappa, moment=-0.5)
    _, K2, _, M = section_fem(chi.section)
    v = chi.values
    norm = math.sqrt(float(v @ (M @ v)))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"mode is not normalized: L2 norm {norm}")
    return SectionConstants(kappa=float(v @ (K2 @ v)), moment=-0.5)


# the most vertices a refined mask may have: up to 255 x 255 cells, whose
# section pencil factors in a band of about 65536 x 257 doubles (134 MB)
_MAX_VERTICES = 2 ** 16


def refine_mask(section: MaskSection, factor: int) -> MaskSection:
    if factor < 1:
        raise ValueError(f"refinement factor must be >= 1, got {factor}")
    rows, cols = (int(s) * factor for s in section.inside.shape)
    if (rows + 1) * (cols + 1) > _MAX_VERTICES:
        raise ValueError(f"refinement factor {factor} makes a {rows} x {cols}"
                         f"-cell mask, over the limit of {_MAX_VERTICES} "
                         f"vertices")
    inside = np.kron(section.inside,
                     np.ones((factor, factor), dtype=bool))
    return MaskSection(inside=inside, cell=section.cell / factor,
                       origin=section.origin)


def l_shaped_mask(n: int) -> MaskSection:
    """Unit square minus its upper-right quadrant, n x n cells."""
    if n < 2 or n % 2:
        raise ValueError(f"need an even cell count >= 2, got {n}")
    inside = np.ones((n, n), dtype=bool)
    inside[n // 2:, n // 2:] = False
    return MaskSection(inside=inside, cell=1.0 / n)
