"""Cross-section operator T(beta) = -d^2/dy1^2 - (1+beta^2) d^2/dy2^2 on S.

Its ground eigenvalue E1(beta), ``ess_threshold``, is the bottom of the
essential spectrum of the waveguide, and the next level E2 sets the gap
E2 - E1.  Rectangles are handled in closed form, arbitrary cell masks by
the conforming Q1 section pencil (K1 + (1+beta^2) K2, M) of
``assembly.section_fem``, the same pencil the waveguide assembly uses,
so a mask threshold is one number whether it comes from here or from a
ladder rung.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import section_fem
from .eigcore import lowest_eigenpairs
from .geometry import MaskSection, Rect, Section, beta_value

__all__ = [
    "ess_threshold",
    "section_eigenvalues",
    "refine_mask",
    "l_shaped_mask",
    "rect_mode_value",
]


def rect_mode_value(m: int, n: int, beta: float, rect: Rect) -> float:
    """Eigenvalue pi^2 (m^2/(b-a)^2 + (1+beta^2) n^2/(d-c)^2)."""
    return math.pi**2 * (m * m / rect.width1**2
                         + (1.0 + beta * beta) * n * n / rect.width2**2)


def section_eigenvalues(beta, section: Section, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of T(beta) on ``section``, ascending.

    A rectangle's come from the closed form ``rect_mode_value``; a mask's
    from its Q1 section pencil, whose unknowns are the interior vertices
    of the mask as given (refine it with ``refine_mask`` first for a finer
    grid).
    """
    b = beta_value(beta, allow_zero=True)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if isinstance(section, Rect):
        # the k-th smallest cannot beat the k-th pure-y1 mode, so the
        # search box (m <= count, n up to the matching bound) is complete
        cap = rect_mode_value(count, 1, b, section)
        nmax = max(1, int(math.floor(section.width2 * math.sqrt(cap)
                                     / (math.pi * math.sqrt(1.0 + b * b)))))
        return np.sort([rect_mode_value(m, n, b, section)
                        for m in range(1, count + 1)
                        for n in range(1, nmax + 1)])[:count]
    K1, K2, _, M = section_fem(section)
    if M.shape[0] < count:
        raise ValueError(f"mask has {M.shape[0]} interior vertices, fewer "
                         f"than the {count} modes asked for; refine it")
    res = lowest_eigenpairs((K1 + (1.0 + b * b) * K2).tocsr(), M, count)
    return res.theta


def ess_threshold(beta, section: Section) -> float:
    """Bottom of the essential spectrum, E1(beta).

    Analytic for rectangles.  Masks get the ground value of the Q1
    section pencil on their cell grid; it is the rung threshold
    ``compute_spectrum`` uses on the same grid (``refine_mask`` gives
    the finer rungs'), and carries that grid's discretization error.
    """
    return float(section_eigenvalues(beta, section, 1)[0])


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
