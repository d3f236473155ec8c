"""Cross-section operator T(beta) = -d^2/dy1^2 - (1+beta^2) d^2/dy2^2 on S.

Its ground eigenvalue E1(beta) is the bottom of the essential spectrum of
the waveguide; the gap E2 - E1 and two scalar integrals of the ground
eigenfunction chi (the y2-stiffness kappa and the first y2 moment) feed
the existence and finiteness estimates.  Rectangles are handled in
closed form, arbitrary cell masks by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .eigcore import (
    EigOptions,
    FactorSpectral,
    KronOp,
    SparseOp,
    SpluPrecond,
    TensorPrecond,
    smallest_eigenpairs,
)
from .geometry import MaskSection, Rect, Section, beta_value

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

    ``kind`` is 'rect' for closed-form sine products (index = (m, n)),
    'fd' for nodal vectors on a rectangle vertex grid, 'mask' for nodal
    vectors on mask cell centers (index = ordinal).  Nodal values are
    scaled to unit L2 norm over S with the grid cell as quadrature
    weight.
    """

    kind: str
    E: float
    beta: float
    index: tuple[int, int] | int
    rect: Rect | None = None
    section: MaskSection | None = None
    values: np.ndarray | None = field(default=None, repr=False)
    spacing: tuple[float, float] | None = None

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

    def grid_values(self) -> np.ndarray:
        """Nodal chi on the full 2-D grid, zeros outside the domain."""
        if self.kind == "fd":
            return self.values.copy()
        if self.kind == "mask":
            full = np.zeros(self.section.inside.shape)
            full[self.section.inside] = self.values
            return full
        raise ValueError("closed-form modes have no nodal grid")


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


def _chain(m: int, h: float) -> sp.csr_matrix:
    return (sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) / h**2).tocsr()


def _chain_spectral(n: int, h: float) -> FactorSpectral:
    # FD chain diagonalized by the interior sine basis with identity mass
    j = np.arange(1, n)
    lam = (2.0 / h**2) * (1.0 - np.cos(j * np.pi / n))
    nrm = np.full(n - 1, math.sqrt(n / 2.0))
    return FactorSpectral(lam=lam, kind="dst", nrm=nrm)


def _rect_fd_modes(b: float, rect: Rect, n1: int, n2: int,
                   count: int) -> list[SectionMode]:
    if min(n1, n2) < 9:
        raise ValueError("need at least 8x8 interior nodes")
    h1, h2 = rect.width1 / n1, rect.width2 / n2
    m1, m2 = n1 - 1, n2 - 1
    eye1, eye2 = sp.identity(m1, format="csr"), sp.identity(m2, format="csr")
    c2 = 1.0 + b * b
    A = KronOp([(1.0, (_chain(m1, h1), eye2)), (c2, (eye1, _chain(m2, h2)))],
               (m1, m2))
    pre = TensorPrecond([(1.0, _chain_spectral(n1, h1)),
                         (c2, _chain_spectral(n2, h2))])
    res = smallest_eigenpairs(A, None, EigOptions(k=count, tol=1e-10), pre)
    if not res.ok:
        raise RuntimeError("cross-section eigensolve did not converge")
    modes = []
    scale = 1.0 / math.sqrt(h1 * h2)
    for j in range(count):
        grid = res.vectors[:, j].reshape(m1, m2) * scale
        modes.append(SectionMode(kind="fd", E=float(res.theta[j]), beta=b,
                                 index=j, rect=rect, values=grid,
                                 spacing=(h1, h2)))
    return modes


def _mask_matrix(section: MaskSection, b: float):
    """Cell-centered 5-point stencil; Dirichlet walls sit on cell faces.

    A missing neighbor contributes 3w to the diagonal: 2w from the
    second difference plus w from the ghost value -u that puts the zero
    at the face midpoint.
    """
    inside = section.inside
    h = section.cell
    n1, n2 = inside.shape
    idx = -np.ones(inside.shape, dtype=int)
    cells = np.argwhere(inside)
    idx[inside] = np.arange(len(cells))
    w1, w2 = 1.0 / h**2, (1.0 + b * b) / h**2
    rows, cols, vals = [], [], []
    for p, (i, j) in enumerate(cells):
        diag = 0.0
        for di, dj, w in ((1, 0, w1), (-1, 0, w1), (0, 1, w2), (0, -1, w2)):
            ii, jj = i + di, j + dj
            if 0 <= ii < n1 and 0 <= jj < n2 and inside[ii, jj]:
                diag += w
                rows.append(p)
                cols.append(idx[ii, jj])
                vals.append(-w)
            else:
                diag += 3.0 * w
        rows.append(p)
        cols.append(p)
        vals.append(diag)
    m = len(cells)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m)), cells


def _mask_fd_modes(b: float, section: MaskSection,
                   count: int) -> list[SectionMode]:
    A, cells = _mask_matrix(section, b)
    if A.shape[0] < 64:
        raise ValueError("mask too coarse: need at least 8x8 inside cells")
    res = smallest_eigenpairs(SparseOp(A), None,
                              EigOptions(k=count, tol=1e-10),
                              SpluPrecond(A))
    if not res.ok:
        raise RuntimeError("cross-section eigensolve did not converge")
    modes = []
    for j in range(count):
        v = res.vectors[:, j] / section.cell  # unit L2 with cell weight
        modes.append(SectionMode(kind="mask", E=float(res.theta[j]), beta=b,
                                 index=j, section=section, values=v,
                                 spacing=(section.cell, section.cell)))
    return modes


def numeric_modes(beta, section: Section, grid, count: int) -> list[SectionMode]:
    """Lowest ``count`` eigenpairs of the FD discretization of T(beta).

    For rectangles ``grid`` is the subinterval count per side (int or
    pair), unknowns on interior vertices.  For masks the cells are the
    unknowns and ``grid`` is an integer refinement factor.
    """
    b = beta_value(beta, allow_zero=True)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if isinstance(section, Rect):
        n1, n2 = (grid, grid) if isinstance(grid, int) else grid
        return _rect_fd_modes(b, section, n1, n2, count)
    factor = 1 if grid is None else int(grid)
    if factor > 1:
        section = refine_mask(section, factor)
    return _mask_fd_modes(b, section, count)


def _nodal_constants(chi: SectionMode) -> SectionConstants:
    grid = chi.grid_values()
    h1, h2 = chi.spacing
    if chi.kind == "mask":
        origin = chi.section.origin[1]
        y2 = origin + (np.arange(grid.shape[1]) + 0.5) * h2
    else:
        y2 = chi.rect.c + (np.arange(1, grid.shape[1] + 1)) * h2
    # centered differences with zero extension; consistent with the stencil
    d = np.zeros_like(grid)
    d[:, 1:-1] = (grid[:, 2:] - grid[:, :-2]) / (2 * h2)
    d[:, 0] = grid[:, 1] / (2 * h2)
    d[:, -1] = -grid[:, -2] / (2 * h2)
    w = h1 * h2
    # the moment integrand chi * d(chi) vanishes on the boundary, so the
    # interior sum is already second order
    moment = float(np.sum(y2[None, :] * grid * d) * w)
    if chi.kind == "fd":
        kappa = _vertex_kappa(grid, h1, h2)
    else:
        kappa = float(np.sum(d * d) * w)
    return SectionConstants(kappa=kappa, moment=moment)


def _vertex_kappa(grid: np.ndarray, h1: float, h2: float) -> float:
    """||d(chi)/dy2||^2 on a vertex grid, boundary included.

    |d(chi)| does not vanish on the y2 walls, so the wall columns carry
    an O(h) share of the integral; one-sided second-order differences
    plus trapezoid weights recover it.
    """
    ext = np.zeros((grid.shape[0], grid.shape[1] + 2))
    ext[:, 1:-1] = grid
    d = np.zeros_like(ext)
    d[:, 1:-1] = (ext[:, 2:] - ext[:, :-2]) / (2 * h2)
    d[:, 0] = (-3 * ext[:, 0] + 4 * ext[:, 1] - ext[:, 2]) / (2 * h2)
    d[:, -1] = (3 * ext[:, -1] - 4 * ext[:, -2] + ext[:, -3]) / (2 * h2)
    wts = np.ones(ext.shape[1])
    wts[0] = wts[-1] = 0.5
    return float(np.sum((d * d) @ wts) * h1 * h2)


def section_constants(chi: SectionMode) -> SectionConstants:
    """kappa and the y2 moment of a normalized mode; moment is -1/2."""
    if chi.kind == "rect":
        n = chi.index[1]
        kappa = (n * math.pi / chi.rect.width2) ** 2
        return SectionConstants(kappa=kappa, moment=-0.5)
    norm = np.linalg.norm(chi.values) * math.sqrt(np.prod(chi.spacing))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"mode is not normalized: L2 norm {norm}")
    return _nodal_constants(chi)


def refine_mask(section: MaskSection, factor: int) -> MaskSection:
    if factor < 1:
        raise ValueError(f"refinement factor must be >= 1, got {factor}")
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
