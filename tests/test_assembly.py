import functools
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from shearspec import eigcore
from shearspec.assembly import (
    Fem1D,
    ShearForm,
    assemble_prism,
    assemble_reduced2d,
    assemble_waveguide,
    fem1d,
    section_fem,
    signed_skew,
    triangle_matrices,
)
from shearspec.eigcore import KronOp, MassKron, lowest_eigenpairs, materialize
from shearspec.cli import load_mask
from shearspec.cross_section import l_shaped_mask, refine_mask
from shearspec.geometry import MaskSection, Rect

PI2 = math.pi**2
UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def pencil_eigs(form, k=None):
    A = materialize(form.A)
    M = materialize(form.M)
    lam = sla.eigh(A, M, eigvals_only=True)
    return lam if k is None else lam[:k]


def apply(op, x):
    return op.matmat(x.reshape(-1, 1))[:, 0]


# ---------------------------------------------------------------- fem1d

def test_fem1d_two_element_dirichlet():
    f = fem1d(2, 1.0)
    assert f.K.toarray()[0, 0] == pytest.approx(4.0)
    assert f.M.toarray()[0, 0] == pytest.approx(1.0 / 3.0)
    assert f.K.shape == (1, 1)
    lam = f.K.toarray()[0, 0] / f.M.toarray()[0, 0]
    assert lam == pytest.approx(12.0)


def test_fem1d_neumann_zero_mode():
    f = fem1d(6, 2.0, "neumann", "neumann")
    lam = sla.eigh(f.K.toarray(), f.M.toarray(), eigvals_only=True)
    assert abs(lam[0]) < 1e-12
    assert lam[1] > 1.0


def test_fem1d_skew_structure():
    f = fem1d(7, 1.0, "neumann", "neumann")
    S = (f.D + f.D.T).toarray()
    off = S - np.diag(np.diag(S))
    assert np.abs(off).max() == 0.0
    assert np.diag(S) == pytest.approx([-1.0] + [0.0] * 6 + [1.0])


def test_fem1d_dirichlet_drops_end_dofs():
    assert fem1d(5, 1.0).dim == 4
    assert fem1d(5, 1.0, "neumann", "dirichlet").dim == 5
    assert fem1d(5, 1.0, "neumann", "neumann").dim == 6


@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("neumann", "dirichlet")])
def test_fem1d_spectral_matches_dense(bc):
    f = fem1d(9, 1.7, *bc)
    s = f.spectral()
    lam = sla.eigh(f.K.toarray(), f.M.toarray(), eigvals_only=True)
    assert np.sort(s.lam) == pytest.approx(lam, abs=1e-11)
    # the basis must diagonalize the pencil M-orthonormally
    V = s.apply(np.eye(f.dim), 0)
    assert V.T @ f.M.toarray() @ V == pytest.approx(np.eye(f.dim), abs=1e-10)
    assert V.T @ f.K.toarray() @ V == pytest.approx(np.diag(s.lam), abs=1e-9)


@pytest.mark.parametrize("bc", [("neumann", "neumann"),
                                ("dirichlet", "neumann")])
def test_fem1d_spectral_rejects_unused_boundary_pairs(bc):
    with pytest.raises(ValueError, match="boundary conditions"):
        fem1d(9, 1.7, *bc).spectral()


def test_fem1d_validation():
    with pytest.raises(ValueError):
        fem1d(1, 1.0)
    with pytest.raises(ValueError):
        fem1d(4, -2.0)
    with pytest.raises(ValueError):
        fem1d(4, 1.0, "robin")


def test_fem1d_convergence_rate():
    # lowest Dirichlet eigenvalue on (0,1): error drops ~h^2
    errs = []
    for n in (8, 16, 32):
        f = fem1d(n, 1.0)
        lam = sla.eigh(f.K.toarray(), f.M.toarray(), eigvals_only=True)[0]
        errs.append(lam - PI2)
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def lil_fem1d(n, length, bc_left, bc_right, start=0.0):
    """The LIL builder ``fem1d`` replaced, verbatim: K, M and D."""
    h = length / n
    m = n + 1
    K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)).tolil() / h
    M = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(m, m)).tolil() * (h / 6)
    D = sp.diags([0.5, 0.0, -0.5], [-1, 0, 1], shape=(m, m)).tolil()
    K[0, 0] = K[-1, -1] = 1.0 / h
    M[0, 0] = M[-1, -1] = 2 * h / 6
    D[0, 0] = -0.5
    D[-1, -1] = 0.5
    keep = np.ones(m, dtype=bool)
    if bc_left == "dirichlet":
        keep[0] = False
    if bc_right == "dirichlet":
        keep[-1] = False
    idx = np.flatnonzero(keep)
    return (K.tocsr()[idx][:, idx].tocsr(), M.tocsr()[idx][:, idx].tocsr(),
            D.tocsr()[idx][:, idx].tocsr())


@pytest.mark.parametrize("n", [2, 8, 64, 256])
@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("neumann", "dirichlet"),
                                ("dirichlet", "neumann"),
                                ("neumann", "neumann")])
def test_fem1d_matches_the_lil_builder_bit_for_bit(n, bc):
    f = fem1d(n, 21.2, *bc, start=-0.3)
    old = lil_fem1d(n, 21.2, *bc, start=-0.3)
    for new, want in zip((f.K, f.M, f.D), old):
        for part in ("data", "indices", "indptr"):
            a, b = getattr(new, part), getattr(want, part)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.all(a == b), part


# ---------------------------------------------------------- signed skew

def test_signed_skew_requires_symmetric_even_grid():
    with pytest.raises(ValueError):
        signed_skew(fem1d(5, 2.0, start=-1.0))
    with pytest.raises(ValueError):
        signed_skew(fem1d(6, 3.0))


def loop_signed_skew(fem):
    """The element loop ``signed_skew`` replaced, verbatim."""
    h = fem.h
    m = fem.n + 1
    rows, cols, vals = [], [], []
    dl = 0.5 * np.array([[-1.0, -1.0], [1.0, 1.0]])
    for e in range(fem.n):
        s = math.copysign(1.0, fem.start + (e + 0.5) * h)
        for a in range(2):
            for b in range(2):
                rows.append(e + a)
                cols.append(e + b)
                vals.append(s * dl[a, b])
    D = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    keep = np.ones(m, dtype=bool)
    keep[0] = fem.bc[0] != "dirichlet"
    keep[-1] = fem.bc[1] != "dirichlet"
    idx = np.flatnonzero(keep)
    return D[idx][:, idx].tocsr()


@pytest.mark.parametrize("n", [4, 8, 40, 64])
@pytest.mark.parametrize("bc", [("dirichlet", "dirichlet"),
                                ("neumann", "dirichlet"),
                                ("dirichlet", "neumann"),
                                ("neumann", "neumann")])
def test_signed_skew_matches_the_element_loop_bit_for_bit(n, bc):
    for L in (1.0, 3.0, 21.2):
        fem = fem1d(n, 2 * L, *bc, start=-L)
        got = signed_skew(fem).toarray()
        want = loop_signed_skew(fem).toarray()
        assert got.shape == want.shape
        assert np.all(got == want)


def test_even_projection_reduces_full_to_half():
    # folding the symmetric interval onto (0, L) must reproduce the
    # half factors exactly, boundary rows included
    nx, L = 6, 3.0
    fh = fem1d(nx, L, "neumann", "dirichlet")
    ff = fem1d(2 * nx, 2 * L, "dirichlet", "dirichlet", start=-L)
    Ds = signed_skew(ff)
    P = np.zeros((ff.dim, fh.dim))
    for j in range(fh.dim):
        P[nx + j - 1, j] = 1.0
        if j > 0:
            P[nx - j - 1, j] = 1.0
    for full, half in ((ff.K, fh.K), (ff.M, fh.M), (Ds, fh.D)):
        assert np.abs(P.T @ full.toarray() @ P
                      - 2.0 * half.toarray()).max() == 0.0


# ------------------------------------------------------------ reduced2d

def test_reduced2d_straight_limit_separates():
    form = assemble_reduced2d(0.0, UNIT, 4.0, (16, 12))
    lam = pencil_eigs(form, 1)[0]
    fx = fem1d(16, 4.0, "neumann", "dirichlet")
    f2 = fem1d(12, 1.0)
    lx = sla.eigh(fx.K.toarray(), fx.M.toarray(), eigvals_only=True)[0]
    l2 = sla.eigh(f2.K.toarray(), f2.M.toarray(), eigvals_only=True)[0]
    assert lam == pytest.approx(lx + l2, abs=1e-11)


def test_reduced2d_symmetry_and_mass_positivity():
    form = assemble_reduced2d(1.3, UNIT, 5.0, (14, 11))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(form.n)
        y = rng.standard_normal(form.n)
        ax = apply(form.A, x)
        scale = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-30
        assert abs(y @ ax - x @ apply(form.A, y)) <= 1e-12 * scale
        assert x @ apply(form.M, x) > 0.0


def test_reduced2d_refinement_monotone():
    # nested P1 spaces: eigenvalues can only drop under uniform refinement
    coarse = pencil_eigs(assemble_reduced2d(1.0, UNIT, 6.0, (8, 6)), 2)
    fine = pencil_eigs(assemble_reduced2d(1.0, UNIT, 6.0, (16, 12)), 2)
    assert fine[0] < coarse[0]
    assert fine[1] < coarse[1]


def test_reduced2d_longer_box_monotone():
    # extension by zero embeds the short box in the long one
    short = pencil_eigs(assemble_reduced2d(1.0, UNIT, 4.0, (16, 12)), 1)[0]
    long_ = pencil_eigs(assemble_reduced2d(1.0, UNIT, 8.0, (32, 12)), 1)[0]
    assert long_ < short


def test_reduced2d_scaling_law():
    # dilating the geometry by s divides every eigenvalue by s^2
    base = pencil_eigs(assemble_reduced2d(0.8, UNIT, 4.0, (12, 10)), 3)
    big = pencil_eigs(
        assemble_reduced2d(0.8, Rect(0.0, 2.0, 0.0, 2.0), 8.0, (12, 10)), 3)
    assert big == pytest.approx(base / 4.0, rel=1e-12)


def test_reduced2d_warns_on_short_box():
    form = assemble_reduced2d(1.0, UNIT, 0.5, (8, 8))
    assert form.warnings
    with pytest.raises(ValueError):
        assemble_reduced2d(1.0, UNIT, -1.0, (8, 8))


# ------------------------------------------------------------- 3-D rect

def test_waveguide_symmetry_probe():
    form = assemble_waveguide(1.0, UNIT, 4.0, (8, 5, 6))
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(form.n)
        y = rng.standard_normal(form.n)
        ax = apply(form.A, x)
        scale = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-30
        assert abs(y @ ax - x @ apply(form.A, y)) <= 1e-12 * scale


def test_waveguide_straight_mode_separates():
    form = assemble_waveguide(0.0, UNIT, 4.0, (8, 5, 6))
    assert len(form.A.terms) == 2   # no shear terms
    lam = pencil_eigs(form, 4)
    parts = []
    for f in (fem1d(8, 4.0, "neumann", "dirichlet"), fem1d(5, 1.0),
              fem1d(6, 1.0)):
        parts.append(sla.eigh(f.K.toarray(), f.M.toarray(),
                              eigvals_only=True))
    sums = np.sort([a + b + c for a in parts[0][:4] for b in parts[1][:4]
                    for c in parts[2][:4]])
    assert lam == pytest.approx(sums[:4], abs=1e-10)


def test_waveguide_channel_separation():
    # with the shear on, the y1 direction still splits off: every 3-D
    # eigenvalue is a planar eigenvalue plus a y1 channel level
    beta, L = 1.0, 3.0
    form3 = assemble_waveguide(beta, UNIT, L, (10, 6, 8))
    lam3 = pencil_eigs(form3)
    form2 = assemble_reduced2d(beta, UNIT, L, (10, 8))
    lam2 = pencil_eigs(form2)
    f1 = fem1d(6, 1.0)
    lam1 = sla.eigh(f1.K.toarray(), f1.M.toarray(), eigvals_only=True)
    sums = np.sort((lam2[:, None] + lam1[None, :]).ravel())
    assert lam3[:12] == pytest.approx(sums[:12], abs=1e-10)


def test_full_sign_ground_state_matches_half():
    # the ground state is even in x, so half_DN at matched h sees it
    beta, L = 1.2, 4.0
    half = pencil_eigs(assemble_waveguide(beta, UNIT, L, (8, 4, 5)), 1)[0]
    full = pencil_eigs(
        assemble_waveguide(beta, UNIT, L, (8, 4, 5), mode="full_sign"), 1)[0]
    assert full == pytest.approx(half, abs=1e-10)


def test_full_sign_spectrum_contains_half_spectrum():
    beta, L = 1.0, 3.0
    half = pencil_eigs(assemble_waveguide(beta, UNIT, L, (6, 4, 4)))
    full = pencil_eigs(
        assemble_waveguide(beta, UNIT, L, (6, 4, 4), mode="full_sign"))
    for lam in half[:5]:
        assert np.abs(full - lam).min() < 1e-9


def test_waveguide_grid_int_shorthand():
    a = assemble_waveguide(1.0, UNIT, 3.0, 5)
    b = assemble_waveguide(1.0, UNIT, 3.0, (5, 5, 5))
    assert a.A.shape == b.A.shape
    # a numpy integer, as DiscretizationSpec allows, is a scalar grid too
    mask = l_shaped_mask(6)
    assert assemble_waveguide(1.0, mask, 3.0, np.int64(5)).A.shape == \
        assemble_waveguide(1.0, mask, 3.0, 5).A.shape


def test_waveguide_mode_validation():
    with pytest.raises(ValueError):
        assemble_waveguide(1.0, UNIT, 3.0, 5, mode="periodic")
    with pytest.raises(ValueError):
        assemble_waveguide(0.0, UNIT, 3.0, 5, mode="straight")
    with pytest.raises(ValueError):
        assemble_waveguide(-1.0, UNIT, 3.0, 5)
    with pytest.raises(ValueError):
        assemble_waveguide(1.0, UNIT, math.inf, 5)


# --------------------------------------------------------- mask section

def test_section_fem_matches_tensor_on_full_square():
    sec = MaskSection(np.ones((6, 6), dtype=bool), 1.0 / 6.0)
    K1, K2, D2, M = section_fem(sec)
    f1 = fem1d(6, 1.0)
    f2 = fem1d(6, 1.0)
    assert np.abs(K1.toarray()
                  - np.kron(f1.K.toarray(), f2.M.toarray())).max() < 1e-12
    assert np.abs(K2.toarray()
                  - np.kron(f1.M.toarray(), f2.K.toarray())).max() < 1e-12
    assert np.abs(D2.toarray()
                  - np.kron(f1.M.toarray(), f2.D.toarray())).max() < 1e-12
    assert np.abs(M.toarray()
                  - np.kron(f1.M.toarray(), f2.M.toarray())).max() < 1e-12


def scatter_section_fem(section):
    """The Q1 element scatter ``section_fem`` replaced, verbatim."""
    inside = section.inside
    h = section.cell
    n1, n2 = inside.shape
    pad = np.zeros((n1 + 2, n2 + 2), dtype=bool)
    pad[1:-1, 1:-1] = inside
    # vertex (i, j), i in 0..n1, j in 0..n2: interior iff all 4 cells in
    interior = (pad[:-1, :-1] & pad[1:, :-1] & pad[:-1, 1:] & pad[1:, 1:])
    idx = -np.ones(interior.shape, dtype=int)
    verts = np.argwhere(interior)
    if len(verts) == 0:
        raise ValueError("mask has no interior vertices; refine it")
    idx[interior] = np.arange(len(verts))
    k1e = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m1e = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    d1e = 0.5 * np.array([[-1.0, -1.0], [1.0, 1.0]])
    # local order (d1, d2) with d2 fastest
    K1l = np.kron(k1e, m1e)
    K2l = np.kron(m1e, k1e)
    D2l = np.kron(m1e, d1e)
    Ml = np.kron(m1e, m1e)
    cells = np.argwhere(inside)
    offs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    glob = np.stack([idx[cells[:, 0] + a, cells[:, 1] + b] for a, b in offs],
                    axis=1)
    rows = np.repeat(glob, 4, axis=1).ravel()
    cols = np.tile(glob, (1, 4)).ravel()
    ok = (rows >= 0) & (cols >= 0)
    nv = len(verts)

    def asm(local):
        vals = np.tile(local.reshape(1, 16), (len(cells), 1)).ravel()
        return sp.csr_matrix((vals[ok], (rows[ok], cols[ok])), shape=(nv, nv))

    return asm(K1l), asm(K2l), asm(D2l), asm(Ml)


DEMO_MASK = Path(__file__).parents[1] / "demos" / "configs" / "l_mask.txt"


@pytest.mark.parametrize("build", [
    lambda: l_shaped_mask(12),
    lambda: l_shaped_mask(64),
    lambda: load_mask(str(DEMO_MASK)),
    lambda: refine_mask(load_mask(str(DEMO_MASK)), 2),
    lambda: MaskSection(np.random.default_rng(5).random((17, 23)) < 0.8,
                        0.137),
    lambda: MaskSection(np.ones((6, 4), dtype=bool), 0.25),
], ids=["l12", "l64", "demo", "demo2", "random17x23", "full6x4"])
def test_section_fem_matches_the_element_scatter_bit_for_bit(build):
    section = build()
    for got, want in zip(section_fem(section), scatter_section_fem(section)):
        got, want = got.toarray(), want.toarray()
        assert got.shape == want.shape
        assert np.all(got == want)


def test_mask_waveguide_symmetry_and_separability():
    mask = l_shaped_mask(8)
    form = assemble_waveguide(1.0, mask, 3.0, 6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(form.n)
    y = rng.standard_normal(form.n)
    ax = apply(form.A, x)
    scale = np.linalg.norm(ax) * np.linalg.norm(y) + 1e-30
    assert abs(y @ ax - x @ apply(form.A, y)) <= 1e-12 * scale

    straight = assemble_waveguide(0.0, mask, 3.0, 6)
    lam = pencil_eigs(straight, 1)[0]
    fx = fem1d(6, 3.0, "neumann", "dirichlet")
    lx = sla.eigh(fx.K.toarray(), fx.M.toarray(), eigvals_only=True)[0]
    K1, K2, _, M = section_fem(mask)
    ls = sla.eigh((K1 + K2).toarray(), M.toarray(), eigvals_only=True)[0]
    assert lam == pytest.approx(lx + ls, abs=1e-10)


def test_section_eigenpairs_sparse_path_matches_dense(monkeypatch):
    K1, K2, _, M = section_fem(l_shaped_mask(24))
    K = (K1 + 2.0 * K2).tocsr()
    monkeypatch.setattr(eigcore, "DENSE_N", K.shape[0])
    dense = lowest_eigenpairs(K, M, 3)
    monkeypatch.setattr(eigcore, "DENSE_N", 100)
    sparse = lowest_eigenpairs(K, M, 3)
    assert (dense.solver, sparse.solver) == ("dense", "shift_invert")
    V_s, V_d = sparse.vectors, dense.vectors
    assert sparse.theta == pytest.approx(dense.theta, rel=1e-10)
    assert V_s.T @ (M @ V_s) == pytest.approx(np.eye(3), abs=1e-10)
    assert np.abs(V_s.T @ (M @ V_d)) == pytest.approx(np.eye(3), abs=1e-8)
    # the full basis is a dense solve at any order
    full = lowest_eigenpairs(K, M, None)
    assert full.solver == "dense"
    assert full.vectors.shape == (K.shape[0], K.shape[0])
    assert full.theta[:3] == pytest.approx(dense.theta, rel=1e-10)
    with pytest.raises(ValueError):
        lowest_eigenpairs(K, M, 0)


def test_mask_form_decomposes_its_section_once(monkeypatch):
    form = assemble_waveguide(1.0, l_shaped_mask(8), 3.0, 6)
    calls = []
    eigh = sla.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigh(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh", counting)
    assert form.preconditioner() is not None
    assert form.preconditioner() is not None
    lam, V = form.section_pairs
    assert calls == [V.shape[0]]
    assert V.shape == (V.shape[0], V.shape[0])
    Ms, Ks = (S for _, (_, S) in form.A.terms[:2])
    want = eigh(Ks.toarray(), Ms.toarray(), eigvals_only=True)
    assert lam == pytest.approx(want, rel=1e-12)


def test_preconditioner_skips_sections_above_dense_size(monkeypatch):
    monkeypatch.setattr(ShearForm, "PRECOND_BASIS_MAX", 20)
    form = assemble_waveguide(1.0, l_shaped_mask(8), 3.0, 6)
    assert form.preconditioner() is None
    assert len(form.section_pairs[0]) == 1


# ----------------------------------------------------------------- prism

def test_triangle_matrices_symmetric_spd():
    Sxx, Syy, M, kept = triangle_matrices(12, 1.0 / math.sqrt(2.0))
    for mat in (Sxx, Syy, M):
        assert np.abs((mat - mat.T).toarray()).max() < 1e-14
    lam = sla.eigh(M.toarray(), eigvals_only=True)
    assert lam[0] > 0.0
    assert len(kept) == M.shape[0]


def test_triangle_too_coarse():
    with pytest.raises(ValueError):
        triangle_matrices(3, 1.0)


def _triangle_matrices_loop(n, A_len):
    """Reference: the element-by-element loop the vectorized build
    replaced, kept verbatim as an oracle."""
    h = A_len / n
    idx = -np.ones((n + 1, n + 1), dtype=int)
    kept = [(i, k) for i in range(n + 1) for k in range(1, min(i + 1, n) + 1)]
    for p, (i, k) in enumerate(kept):
        idx[i, k] = p
    nv = len(kept)
    k1e = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m1e = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    Sxx_f = np.kron(k1e, m1e)
    Syy_f = np.kron(m1e, k1e)
    M_f = np.kron(m1e, m1e)

    qp = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 0.5]])
    wq = np.full(3, 0.5 / 3.0)

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
    for (xi, eta), w in zip(qp, wq):
        p = q1(xi, eta)
        dx = q1_dxi(xi, eta)
        de = q1_deta(xi, eta)
        Sxx_c += w * np.outer(dx, dx)
        Syy_c += w * np.outer(de, de)
        M_c += w * h * h * np.outer(p, p)

    rows, cols = [], []
    vx, vy, vm = [], [], []
    offs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for ci in range(n):
        for ck in range(ci + 1):
            loc_x, loc_y, loc_m = ((Sxx_f, Syy_f, M_f) if ck < ci
                                   else (Sxx_c, Syy_c, M_c))
            dofs = [idx[ci + a, ck + b] for a, b in offs]
            for a in range(4):
                if dofs[a] < 0:
                    continue
                for bq in range(4):
                    if dofs[bq] < 0:
                        continue
                    rows.append(dofs[a])
                    cols.append(dofs[bq])
                    vx.append(loc_x[a, bq])
                    vy.append(loc_y[a, bq])
                    vm.append(loc_m[a, bq])
    shape = (nv, nv)
    Sxx = sp.csr_matrix((vx, (rows, cols)), shape=shape)
    Syy = sp.csr_matrix((vy, (rows, cols)), shape=shape)
    Mass = sp.csr_matrix((vm, (rows, cols)), shape=shape)
    return Sxx, Syy, Mass, kept


@pytest.mark.parametrize("n", [4, 5, 12, 48])
def test_triangle_matrices_match_loop_bitwise(n):
    A_len = 1.0 / math.sqrt(2.0)
    *got, kept = triangle_matrices(n, A_len)
    *want, kept_loop = _triangle_matrices_loop(n, A_len)
    assert kept == kept_loop
    for g, w in zip(got, want):
        assert g.indptr.dtype == w.indptr.dtype
        assert g.indices.dtype == w.indices.dtype
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)
        assert np.array_equal(g.data, w.data)


def test_assembly_factorizes_no_mass(monkeypatch):
    # assembling a form factorizes nothing, the mass included
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called during assembly")

    monkeypatch.setattr(eigcore, "splu", no_splu)
    assemble_waveguide(1.0, UNIT, 3.0, 5)
    assemble_waveguide(1.0, l_shaped_mask(6), 3.0, 5)
    assemble_reduced2d(1.0, UNIT, 3.0, (5, 4))


def test_prism_separates_exactly():
    # A = Atri x M1 + Mtri x K1 shares eigenvectors with the factors, so
    # 3-D values are sums of triangle and channel values to roundoff
    Atri, Mtri, _, f1 = assemble_prism(1.0, UNIT, (8, 4))
    A = sp.kron(Atri, f1.M) + sp.kron(Mtri, f1.K)
    lam = sla.eigh(A.toarray(), sp.kron(Mtri, f1.M).toarray(),
                   eigvals_only=True)
    lt = sla.eigh(Atri.toarray(), Mtri.toarray(), eigvals_only=True)
    l1 = sla.eigh(f1.K.toarray(), f1.M.toarray(), eigvals_only=True)
    sums = np.sort((lt[:, None] + l1[None, :]).ravel())
    assert lam[:10] == pytest.approx(sums[:10], abs=1e-9)


def test_prism_unit_square_known_levels():
    # beta = 1 on the unit square: mu1 = 2 pi^2, mu2 = 5 pi^2
    Atri, Mtri, _, f1 = assemble_prism(1.0, UNIT, (48, 32))
    lt = sla.eigh(Atri.toarray(), Mtri.toarray(), eigvals_only=True)
    l1 = sla.eigh(f1.K.toarray(), f1.M.toarray(), eigvals_only=True)
    sums = np.sort((lt[:4, None] + l1[None, :4]).ravel())
    assert sums[0] == pytest.approx(2.0 * PI2, rel=0.01)
    assert sums[1] == pytest.approx(5.0 * PI2, rel=0.01)
    # discrete values sit above the exact ones
    assert sums[0] > 2.0 * PI2
    assert sums[1] > 5.0 * PI2


def test_prism_refinement_improves():
    vals = []
    for n in (12, 24, 48):
        Atri, Mtri, _, _ = assemble_prism(1.0, UNIT, (n, 8))
        vals.append(sla.eigh(Atri.toarray(), Mtri.toarray(),
                             eigvals_only=True)[0])
    assert vals[0] > vals[1] > vals[2]


def test_prism_validation():
    with pytest.raises(ValueError):
        assemble_prism(0.0, UNIT, (8, 4))
    with pytest.raises(ValueError):
        assemble_prism(1.0, l_shaped_mask(4), (8, 4))


# ------------------------------------------------------ CSR assembly

def kron_sum(terms):
    """Reference: the term-by-term sum of sparse Kronecker products."""
    return sum(c * functools.reduce(lambda a, b: sp.kron(a, b, "csr"), mats)
               for c, mats in terms)


def prism_pencil(beta, grid):
    """The 3-D prism pencil from its triangle and y1 factors, whose
    slot-0 factor is irregular: rows of the cut triangle differ in
    length, unlike every x stencil."""
    Atri, Mtri, _, f1 = assemble_prism(beta, UNIT, grid)
    shape = (Atri.shape[0], f1.dim)
    return SimpleNamespace(
        A=KronOp([(1.0, (Atri, f1.M)), (1.0, (Mtri, f1.K))], shape),
        M=MassKron((Mtri, f1.M), shape), n=shape[0] * shape[1])


@pytest.mark.parametrize("build", [
    lambda: assemble_reduced2d(1.3, UNIT, 3.0, (10, 7)),
    lambda: assemble_waveguide(0.7, UNIT, 3.0, (5, 4, 6), "half_DN"),
    lambda: assemble_waveguide(1.1, UNIT, 2.0, (4, 5, 4), "full_sign"),
    lambda: assemble_waveguide(1.0, l_shaped_mask(8), 3.0, 6),
    lambda: prism_pencil(1.5, (8, 5)),
], ids=["reduced2d", "half_DN", "full_sign", "mask", "prism"])
def test_assembled_csr_matches_kronecker_sum(build):
    form = build()
    ref = kron_sum(form.A.terms).toarray()
    got = form.A.matrix
    assert got.shape == (form.n, form.n)
    assert got.has_sorted_indices
    assert np.abs(got.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
    # the mass is a one-term KronOp: its apply, dense form and diagonal
    # come from the same assembly
    (coeff, mats), = form.M.terms
    Mref = coeff * functools.reduce(np.kron, [m.toarray() for m in mats])
    scale = np.abs(Mref).max()
    assert np.abs(form.M.toarray() - Mref).max() <= 1e-14 * scale
    assert np.abs(form.M.diagonal() - np.diag(Mref)).max() <= 1e-14 * scale
    X = np.random.default_rng(1).standard_normal((form.n, 3))
    want = Mref @ X
    assert np.abs(form.M.matmat(X) - want).max() <= \
        1e-14 * np.abs(want).max()


def test_csr_assembly_peak_memory_stays_near_output_size():
    # the L-mask benchmark's top rung: no full-size temporary may be
    # built on the way to the final matrix
    path = Path(__file__).parents[1] / "demos" / "configs" / "l_mask.txt"
    mask = refine_mask(load_mask(str(path)), 2)
    form = assemble_waveguide(1.0, mask, 4.0, 40)
    tracemalloc.start()
    try:
        A = KronOp(form.A.terms, form.A.shape).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    final = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert final > 1e6
    assert peak <= 2 * final


# ----------------------------------------- one pencil, three sections

def test_full_rectangle_mask_matches_rect_triple():
    # Q1 on a full rectangle is the Kronecker product of the 1-D P1
    # factors, in the same d2-fastest vertex order
    n1, n2, h = 6, 4, 0.25
    mask = MaskSection(np.ones((n1, n2), dtype=bool), h)
    rect = Rect(0.0, n1 * h, 0.0, n2 * h)
    fm = assemble_waveguide(0.9, mask, 3.0, 8)
    fr = assemble_waveguide(0.9, rect, 3.0, (8, n1, n2))
    for (_, (_, got)), (_, (_, want)) in zip(fm.A.terms, fr.A.terms):
        want = want.toarray()
        assert got.shape == want.shape
        assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    assert pencil_eigs(fm, 6) == pytest.approx(pencil_eigs(fr, 6), rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda r: assemble_waveguide(0.8, r, 3.0, (8, 5, 6)),
    lambda r: assemble_reduced2d(0.8, r, 3.0, (12, 9)),
], ids=["half_DN", "reduced2d"])
def test_translated_rect_keeps_spectrum(build):
    base = pencil_eigs(build(Rect(0.0, 1.0, 0.0, 1.5)), 8)
    moved = pencil_eigs(build(Rect(-2.0, -1.0, 3.25, 4.75)), 8)
    assert moved == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("mode", ["half_DN", "full_sign"])
def test_rect_pencil_matches_three_slot_sum(mode, beta):
    # the rectangle pencil as x stencil (x) section triple equals the
    # explicit sum of Kronecker products over the three 1-D factors
    nx, n1, n2, L = 6, 5, 7, 3.0
    rect = Rect(0.0, 1.0, 0.0, 1.3)
    form = assemble_waveguide(beta, rect, L, (nx, n1, n2), mode)
    if mode == "full_sign":
        fx = fem1d(2 * nx, 2 * L, "dirichlet", "dirichlet", start=-L)
        Dx = signed_skew(fx)
    else:
        fx = fem1d(nx, L, "neumann", "dirichlet")
        Dx = fx.D
    f1, f2 = fem1d(n1, rect.width1), fem1d(n2, rect.width2)
    shape = (fx.dim, f1.dim * f2.dim)
    ref = KronOp([(1.0, (fx.K, sp.kron(f1.M, f2.M))),
                  (1.0, (fx.M, sp.kron(f1.K, f2.M))),
                  (1.0 + beta * beta, (fx.M, sp.kron(f1.M, f2.K))),
                  (-beta, (Dx, sp.kron(f1.M, f2.D.T))),
                  (-beta, (Dx.T, sp.kron(f1.M, f2.D)))], shape).matrix
    got = form.A.matrix
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.abs(got.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    X = np.random.default_rng(2).standard_normal((form.n, 3))
    want = MassKron((fx.M, sp.kron(f1.M, f2.M)), shape).matmat(X)
    assert np.abs(form.M.matmat(X) - want).max() <= 1e-14 * np.abs(want).max()


def test_rect_preconditioner_inverts_straight_pencil():
    # x-major (nx, n1 n2) is the memory layout of (nx, n1, n2), so the
    # three-factor preconditioner applies to the two-slot pencil, in
    # either order of R (block CG hands it column-major blocks)
    form = assemble_waveguide(0.0, UNIT, 3.0, (6, 5, 4))
    A = materialize(form.A)
    M = materialize(form.M)
    R = np.random.default_rng(4).standard_normal((form.n, 2))
    for order in "CF":
        X = form.preconditioner()(np.asarray(R, order=order), 5.0)
        assert A @ X - 5.0 * (M @ X) == pytest.approx(R, abs=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])
def test_mask_preconditioner_inverts_straight_pencil(order):
    # at beta 0 the mask pencil is Kx (x) M + Mx (x) K, exactly the
    # separable part the x transform and the dense section basis invert
    form = assemble_waveguide(0.0, l_shaped_mask(6), 3.0, 5)
    P = form.preconditioner()
    A = materialize(form.A)
    M = materialize(form.M)
    R = np.random.default_rng(9).standard_normal((form.n, 3))
    sigma = 0.5 * P.lam_min
    X = P(np.asarray(R, order=order), sigma)
    assert np.abs(A @ X - sigma * (M @ X) - R).max() <= 1e-9 * np.abs(R).max()


# ------------------------------------------------------- form utilities

def test_preconditioner_inverts_separable_part():
    form = assemble_reduced2d(0.0, UNIT, 3.0, (8, 6))
    P = form.preconditioner()
    A = materialize(form.A)
    M = materialize(form.M)
    rng = np.random.default_rng(7)
    R = rng.standard_normal((form.n, 2))
    sigma = 5.0
    X = P(R, sigma)
    assert A @ X - sigma * (M @ X) == pytest.approx(R, abs=1e-9)


def test_preconditioner_available_for_all_modes():
    assert assemble_waveguide(1.0, UNIT, 3.0, 5).preconditioner() is not None
    mask = l_shaped_mask(6)
    assert assemble_waveguide(1.0, mask, 3.0, 5).preconditioner() is not None

