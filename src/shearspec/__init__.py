"""shearspec: spectra of Dirichlet Laplacians on broken sheared waveguides.

The working objects are a geometry spec (shear slope + cross-section),
a discretization spec (grids, box length, boundary mode), and the
report types produced by the ladder runs.  The usual entry points:

    spec = WaveguideSpec(1.0, Rect(0, 1, 0, 1))
    disc = DiscretizationSpec(nx=48, n1=8, n2=16, L=6.0, mode="reduced2d")
    report = compute_spectrum(spec, disc)

Lower-level pieces (assembled forms, the block eigensolver, section
eigenvalues, the analytic certificates) live in their own modules and
are imported here unchanged.
"""

from .cross_section import (
    ess_threshold,
    l_shaped_mask,
    refine_mask,
    section_eigenvalues,
)
from .certificates import (
    beta_star,
    bform_count,
    bound_factor,
    existence_certificate,
    prism_eigen_check,
)
from .geometry import (
    MaskSection,
    Rect,
    WaveguideSpec,
    metric,
)
from .waveguide import (
    DiscretizationSpec,
    SpectrumReport,
    benchmark_disc,
    compute_spectrum,
    separation_check,
    sweep_beta,
    symmetry_check,
)

__version__ = "0.1.0"

__all__ = [
    "Rect",
    "MaskSection",
    "WaveguideSpec",
    "DiscretizationSpec",
    "SpectrumReport",
    "metric",
    "ess_threshold",
    "beta_star",
    "bound_factor",
    "section_eigenvalues",
    "refine_mask",
    "l_shaped_mask",
    "existence_certificate",
    "bform_count",
    "prism_eigen_check",
    "compute_spectrum",
    "symmetry_check",
    "separation_check",
    "sweep_beta",
    "benchmark_disc",
    "__version__",
]
