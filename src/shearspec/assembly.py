"""Discrete quadratic forms for the transformed waveguide problems.

Operators are built from P1 element factors in x (stiffness K, mass M,
skew D = integral of phi' psi) and one section triple (M, K(beta), D2),
so the half-guide form

    Q_beta(psi) = int |psi' - beta d(psi)/dy2|^2 + |grad_y psi|^2

becomes  A = Kx(x)M + Mx(x)K - beta (Dx(x)D2' + Dx'(x)D2)

against the mass Mx(x)M, written once in ``_half_guide``.  Every matrix
comes from 1-D P1 factors without an element loop.  The forms differ
only in the triple: Kronecker products of the y1 and y2 factors for
rectangles, the same products restricted to the interior vertices for
masks (``section_fem``), the y2 factors for reduced2d.  The x (x) section
terms are summed once into one CSR matrix (``KronOp``), and the mass, a
``MassKron``, is assembled the same way.
Consistent mass everywhere: discrete eigenvalues are variational upper
bounds, which the ladder logic and the counting rely on.  The x interval is
capped at L with a Dirichlet end (upper bounds again, decreasing in L);
x = 0 is natural Neumann, or the kink node of the full guide on (-L, L).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .eigcore import (FactorSpectral, KronOp, MassKron, TensorPrecond,
                      lowest_eigenpairs)
from .geometry import MaskSection, Rect, Section, beta_value, section_diameter

__all__ = [
    "Fem1D",
    "ShearForm",
    "fem1d",
    "signed_skew",
    "section_fem",
    "assemble_waveguide",
    "assemble_reduced2d",
    "assemble_prism",
    "triangle_matrices",
]

_BC = ("dirichlet", "neumann")


@dataclass(frozen=True)
class Fem1D:
    """Uniform P1 element factor on an interval with per-end conditions.

    K, M, D live on the kept degrees of freedom: Dirichlet ends drop
    their node, Neumann ends keep it (natural).  D is antisymmetric on
    interior rows; kept end rows carry the by-parts boundary terms
    -1/2 and +1/2 on the diagonal.
    """

    n: int
    length: float
    start: float
    bc: tuple[str, str]
    K: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    D: sp.csr_matrix = field(repr=False)

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    def spectral(self) -> FactorSpectral:
        """M-orthonormal eigenbasis of (K, M) as a fast transform: sines
        for Dirichlet-Dirichlet, half-shift cosines for Neumann-Dirichlet,
        the only boundary pairs the forms use."""
        h = self.h
        if self.bc == ("dirichlet", "dirichlet"):
            j = np.arange(1, self.n)
            c = np.cos(np.pi * j / self.n)
            kind = "dst"
        elif self.bc == ("neumann", "dirichlet"):
            j = np.arange(self.n)
            c = np.cos(np.pi * (j + 0.5) / self.n)
            kind = "dct"
        else:
            raise ValueError(f"no closed-form eigenbasis for boundary "
                             f"conditions {self.bc}")
        lam = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
        nrm = np.sqrt((self.length / 6.0) * (2.0 + c))
        return FactorSpectral(lam=lam, kind=kind, nrm=nrm)


def fem1d(n: int, length: float, bc_left: str = "dirichlet",
          bc_right: str = "dirichlet", start: float = 0.0) -> Fem1D:
    if n < 2:
        raise ValueError(f"need at least 2 elements, got {n}")
    if length <= 0 or not math.isfinite(length):
        raise ValueError(f"bad interval length {length}")
    for bc in (bc_left, bc_right):
        if bc not in _BC:
            raise ValueError(f"unknown boundary condition {bc!r}")
    h = length / n
    m = n + 1
    # a Dirichlet end drops its node: the kept nodes are lo:hi
    lo = int(bc_left == "dirichlet")
    hi = m - int(bc_right == "dirichlet")
    cols = np.arange(lo, hi)[:, None] + np.array([-1, 0, 1])

    def tridiag(lower, diag, upper, ends):
        """CSR of the kept block of a tridiagonal matrix, without its
        zero entries."""
        vals = np.empty((m, 3))
        vals[:] = lower, diag, upper
        vals[0, 1], vals[-1, 1] = ends
        vals = vals[lo:hi]
        keep = (cols >= lo) & (cols < hi) & (vals != 0.0)
        indptr = np.zeros(hi - lo + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return sp.csr_matrix(
            (vals[keep], (cols[keep] - lo).astype(np.int32), indptr),
            shape=(hi - lo, hi - lo))

    return Fem1D(n=n, length=length, start=start, bc=(bc_left, bc_right),
                 K=tridiag(-1.0 / h, 2.0 / h, -1.0 / h, (1.0 / h,) * 2),
                 M=tridiag(h / 6, 4.0 * (h / 6), h / 6,
                           (2 * h / 6,) * 2),
                 D=tridiag(0.5, 0.0, -0.5, (-0.5, 0.5)))


def signed_skew(fem: Fem1D) -> sp.csr_matrix:
    """Skew factor with the per-element weight sign(x).

    The kink at x = 0 must be a grid node, so the element count is even
    and the interval symmetric.  Used by the full-domain mode, where the
    shear coefficient flips sign across the kink: ``fem.D`` minus twice
    the skew of the left half (Neumann at the kink), padded to full size.
    """
    if fem.n % 2 or abs(fem.start + fem.length / 2) > 1e-12 * fem.length:
        raise ValueError("signed skew needs a symmetric interval with "
                         "a node at x = 0")
    left = fem1d(fem.n // 2, fem.length / 2, fem.bc[0], "neumann",
                 fem.start).D
    left.resize(fem.D.shape)
    return fem.D - 2.0 * left


def _q1(f1: Fem1D, f2: Fem1D, keep=slice(None)):
    """Q1 section matrices (K1, K2, D2, M): Kronecker products of the y1
    and y2 factors, d2 fastest, restricted to the vertices ``keep``."""
    return tuple(sp.kron(a, b, "csr")[keep][:, keep]
                 for a, b in ((f1.K, f2.M), (f1.M, f2.K), (f1.M, f2.D),
                              (f1.M, f2.M)))


def section_fem(section: MaskSection):
    """Q1 element matrices on the union of inside cells.

    Degrees of freedom are cell vertices whose four surrounding cells
    are all inside (Dirichlet on the union boundary).  Every cell touching
    one is inside, so (K1, K2, D2, M) are the bounding grid's Kronecker
    products of Neumann 1-D factors, restricted to these vertices.
    """
    (n1, n2), h = section.inside.shape, section.cell
    pad = np.pad(section.inside, 1)
    # vertex (i, j), i in 0..n1, j in 0..n2: interior iff all 4 cells in
    interior = (pad[:-1, :-1] & pad[1:, :-1] & pad[:-1, 1:] & pad[1:, 1:])
    keep = np.flatnonzero(interior)
    if keep.size == 0:
        raise ValueError("mask has no interior vertices; refine it")
    return _q1(fem1d(n1, n1 * h, "neumann", "neumann"),
               fem1d(n2, n2 * h, "neumann", "neumann"), keep)


@dataclass
class ShearForm:
    """An assembled waveguide pencil (A, M).

    ``A.terms`` holds each (coefficient, (x block, section block)) of
    the form and ``A.shape`` its (x, section) grid.  ``separable`` pairs
    a coefficient with each factor the preconditioner inverts, a
    ``Fem1D`` or a section pencil (K, M).  ``warnings`` records advisory
    notes such as a truncation length that is short relative to the
    section.
    """

    A: KronOp
    M: MassKron
    separable: list[tuple[float, Fem1D | tuple]]
    section: Section | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.A.n

    # largest section whose full eigenbasis the preconditioner forms
    PRECOND_BASIS_MAX = 3000

    @functools.cached_property
    def section_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the section pencil, solved once per form:
        the full basis up to PRECOND_BASIS_MAX, the lowest pair above
        it."""
        K, Msec = next(fac for _, fac in self.separable
                       if not isinstance(fac, Fem1D))
        full = K.shape[0] <= self.PRECOND_BASIS_MAX
        res = lowest_eigenpairs(K, Msec, None if full else 1)
        return res.theta, res.vectors

    def preconditioner(self) -> TensorPrecond | None:
        """Exact inverse of the separable part; None when a section
        factor is above PRECOND_BASIS_MAX."""
        pairs = []
        for coeff, fac in self.separable:
            if isinstance(fac, Fem1D):
                pairs.append((coeff, fac.spectral()))
                continue
            lam, V = self.section_pairs
            if len(lam) < V.shape[0]:
                return None
            pairs.append((coeff, FactorSpectral(lam=lam, kind="dense", V=V)))
        return TensorPrecond(pairs)


def _x_factor(L: float, nx: int, mode: str):
    """x factor and skew: Neumann-Dirichlet on (0, L) for the half guide,
    Dirichlet on (-L, L) with the signed skew for full_sign."""
    if L <= 0 or not math.isfinite(L):
        raise ValueError(f"bad truncation length {L}")
    if mode == "full_sign":
        fem = fem1d(2 * nx, 2 * L, "dirichlet", "dirichlet", start=-L)
        return fem, signed_skew(fem)
    fem = fem1d(nx, L, "neumann", "dirichlet")
    return fem, fem.D


def _half_guide(b: float, fx: Fem1D, Dx, triple, separable,
                section: Section, L: float, diam: float) -> ShearForm:
    """The pencil Kx(x)M + Mx(x)K - b (Dx(x)D2' + Dx'(x)D2) against
    Mx(x)M, from the x factor and the section triple (M, K, D2)."""
    Msec, Ksec, D2 = triple
    shape = (fx.dim, Msec.shape[0])
    terms = [(1.0, (fx.K, Msec)), (1.0, (fx.M, Ksec))]
    if b:
        terms += [(-b, (Dx, D2.T.tocsr())), (-b, (Dx.T.tocsr(), D2))]
    warnings = []
    if L <= diam:
        warnings.append(f"truncation L={L:g} does not exceed the section "
                        f"diameter {diam:g}; expect strong confinement bias")
    return ShearForm(A=KronOp(terms, shape), M=MassKron((fx.M, Msec), shape),
                     separable=separable, section=section, warnings=warnings)


def assemble_waveguide(beta, section: Section, L: float, grid,
                       mode: str = "half_DN") -> ShearForm:
    """3-D half-guide (half_DN) or full-domain (full_sign) form; beta = 0
    is the straight tube in either.

    ``grid`` is (nx, n1, n2) or one size for all three; masks read nx
    only.  nx counts x elements on (0, L) (doubled for full_sign).
    Rectangles keep their 1-D factors for the preconditioner.
    """
    if mode not in ("half_DN", "full_sign"):
        raise ValueError(f"unknown mode {mode!r}")
    b = beta_value(beta, allow_zero=True)
    if np.ndim(grid) == 0:
        grid = (grid, grid, grid)
    fx, Dx = _x_factor(L, grid[0], mode)
    rect = isinstance(section, Rect)
    if rect:
        f1 = fem1d(grid[1], section.width1)
        f2 = fem1d(grid[2], section.width2)
        K1, K2, D2, Msec = _q1(f1, f2)
    else:
        K1, K2, D2, Msec = section_fem(section)
    Ksec = (K1 + (1.0 + b * b) * K2).tocsr()
    separable = [(1.0, fx)] + ([(1.0, f1), (1.0 + b * b, f2)] if rect
                               else [(1.0, (Ksec, Msec))])
    return _half_guide(b, fx, Dx, (Msec, Ksec, D2), separable,
                       section, L, section_diameter(section))


def assemble_reduced2d(beta, rect: Rect, L: float, grid) -> ShearForm:
    """Planar factor of the rectangle problem on (0, L) x (c, d).

    Full 3-D eigenvalues are these plus the y1 channel values
    pi^2 k^2 / (b-a)^2; solving in 2-D is how the fine ladders stay
    affordable.
    """
    if not isinstance(rect, Rect):
        raise ValueError("reduced mode needs a rectangle section")
    b = beta_value(beta, allow_zero=True)
    nx, n2 = (grid, grid) if isinstance(grid, int) else grid
    fx, Dx = _x_factor(L, nx, "half_DN")
    f2 = fem1d(n2, rect.width2)
    return _half_guide(b, fx, Dx,
                       (f2.M, (1.0 + b * b) * f2.K, f2.D),
                       [(1.0, fx), (1.0 + b * b, f2)], rect, L, rect.width2)


def triangle_matrices(n: int, A_len: float):
    """P1/Q1 matrices on the triangle -A < x < 0, 0 < y2 < x + A.

    The tensor grid is cut along the diagonal y2 = x + A: cells below it
    are standard Q1, diagonal cells keep their lower-right triangle with
    element integrals from 3-point edge-midpoint quadrature (exact for
    the gradient products).  Dirichlet on y2 = 0 only; x = 0 and the
    slant are natural.  Returns (Sxx, Syy, Mass, kept vertex list).

    Built without a Python loop, like ``section_fem``: the cells come from
    ``np.tril_indices(n)``, each takes its full or cut 4x4 blocks by one
    ``np.where``, and each matrix is one COO -> CSR conversion.  Entries
    run cell by cell (x index slowest) and then by local row and column,
    so duplicates are summed in a fixed order.
    """
    if n < 4:
        raise ValueError(f"grid too coarse for the diagonal cut: n={n}")
    h = A_len / n
    # vertex (i, k): x = -A + i h, y2 = k h; keep k >= 1 and k <= i + 1
    i, k = np.indices((n + 1, n + 1))
    keep = (k >= 1) & (k <= np.minimum(i + 1, n))
    idx = -np.ones((n + 1, n + 1), dtype=int)
    nv = int(np.count_nonzero(keep))
    idx[keep] = np.arange(nv)
    kept = list(zip(i[keep].tolist(), k[keep].tolist()))
    k1e = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m1e = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    Sxx_f = np.kron(k1e, m1e)
    Syy_f = np.kron(m1e, k1e)
    M_f = np.kron(m1e, m1e)

    # edge midpoints of the unit lower-right triangle (0,0)-(1,0)-(1,1)
    qp = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 0.5]])
    wq = np.full(3, 0.5 / 3.0)  # triangle area in cell coords over 3

    def q1(xi, eta):
        return np.array([(1 - xi) * (1 - eta), (1 - xi) * eta,
                         xi * (1 - eta), xi * eta])

    def q1_dxi(xi, eta):
        return np.array([-(1 - eta), -eta, (1 - eta), eta])

    def q1_deta(xi, eta):
        return np.array([-(1 - xi), (1 - xi), -xi, xi])

    Sxx_c = np.zeros((4, 4))
    Syy_c = np.zeros((4, 4))
    M_c = np.zeros((4, 4))
    # (1/h)^2 from each gradient cancels the h^2 area scale, so the
    # stiffness blocks are h-free; the mass keeps its h^2
    for (xi, eta), w in zip(qp, wq):
        p = q1(xi, eta)
        dx = q1_dxi(xi, eta)
        de = q1_deta(xi, eta)
        Sxx_c += w * np.outer(dx, dx)
        Syy_c += w * np.outer(de, de)
        M_c += w * h * h * np.outer(p, p)

    # cells (ci, ck) with ck <= ci, ci slowest: below the diagonal the
    # full Q1 blocks, on it the cut ones; entries in (cell, a, b) order
    ci, ck = np.tril_indices(n)
    offs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    glob = np.stack([idx[ci + a, ck + b] for a, b in offs], axis=1)
    rows = np.repeat(glob, 4, axis=1).ravel()
    cols = np.tile(glob, (1, 4)).ravel()
    ok = (rows >= 0) & (cols >= 0)
    cut = (ck == ci)[:, None, None]
    shape = (nv, nv)

    def asm(full, cutl):
        vals = np.where(cut, cutl, full).ravel()
        return sp.csr_matrix((vals[ok], (rows[ok], cols[ok])), shape=shape)

    return asm(Sxx_f, Sxx_c), asm(Syy_f, Syy_c), asm(M_f, M_c), kept


def assemble_prism(beta, rect: Rect, grid):
    """Comparison prism form J(beta) with its anisotropic coefficients.

    ``grid`` is (n, n1): n cells along x and y2 (equal, so the diagonal
    cut runs through cell corners), n1 elements across y1.  The x/y2
    triangle pencil and the y1 factor separate exactly, so prism
    eigenvalues are synthesized per channel from the two and the 3-D
    pencil is never formed.  Returns ``(Atri, Mtri, kept, f1)``: the
    triangle pencil, its kept vertex list and the y1 ``Fem1D``.
    """
    b = beta_value(beta)
    if not isinstance(rect, Rect):
        raise ValueError("prism comparison needs a rectangle section")
    n, n1 = (grid, grid) if isinstance(grid, int) else grid
    A_len = rect.width2 / math.sqrt(2.0)
    cx = (1.0 + b * b) / (2.0 * b * b)
    cy = (1.0 + b * b) / 2.0
    Sxx, Syy, Mass, kept = triangle_matrices(n, A_len)
    return (cx * Sxx + cy * Syy).tocsr(), Mass, kept, fem1d(n1, rect.width1)
