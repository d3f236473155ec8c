import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from shearspec import eigcore
from shearspec.assembly import (
    assemble_reduced2d,
    assemble_waveguide,
    section_fem,
    triangle_matrices,
)
from shearspec.cross_section import ess_threshold, l_shaped_mask
from shearspec.eigcore import (
    CountResult,
    EigOptions,
    FactorSpectral,
    JacobiPrecond,
    KronOp,
    MassKron,
    SpluPrecond,
    TensorPrecond,
    count_below,
    lowest_eigenpairs,
    materialize,
    smallest_eigenpairs,
)
from shearspec.geometry import Rect


def fd_chain(n, length=1.0):
    """Second-difference matrix on n interior nodes, Dirichlet ends."""
    h = length / (n + 1)
    return (sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2).tocsr()


def fd_chain_eigs(n, length=1.0):
    h = length / (n + 1)
    j = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(j * np.pi * h))


def rand_spd_pencil(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B + B.T
    C = rng.standard_normal((n, n)) / math.sqrt(n)
    M = C @ C.T + np.eye(n)
    return A, M


# ---------------------------------------------------------------- operators

def test_kron_op_matches_dense_kron_two_slots():
    rng = np.random.default_rng(0)
    Ax = rng.standard_normal((4, 4))
    Ay = rng.standard_normal((5, 5))
    Bx = rng.standard_normal((4, 4))
    By = rng.standard_normal((5, 5))
    op = KronOp([(2.0, (Ax, Ay)), (-0.5, (Bx, By))], (4, 5))
    dense = 2.0 * np.kron(Ax, Ay) - 0.5 * np.kron(Bx, By)
    X = rng.standard_normal((20, 3))
    assert np.allclose(op.matmat(X), dense @ X, rtol=1e-13, atol=1e-12)
    assert np.array_equal(op @ X, op.matmat(X))
    assert np.allclose(materialize(op), dense)
    assert np.array_equal(materialize(dense), dense)
    assert np.allclose(op.diagonal(), np.diag(dense))
    x = rng.standard_normal(20)
    assert np.allclose(op.matmat(x), dense @ x)


def test_kron_op_validates_shapes():
    with pytest.raises(ValueError):
        KronOp([(1.0, (np.eye(3), np.eye(4)))], (3, 3))
    with pytest.raises(ValueError):
        KronOp([(1.0, (np.eye(3),))], (3, 3))
    # two slots, x and section, and no other count
    with pytest.raises(ValueError, match="two slots"):
        KronOp([(1.0, (np.eye(3), np.eye(4), np.eye(2)))], (3, 4, 2))
    with pytest.raises(ValueError, match="two slots"):
        KronOp([(1.0, (np.eye(3),))], (3,))


def test_operator_linearity_and_symmetry_probes():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((6, 6))
    S = S + S.T
    op = KronOp([(1.0, (S, S))], (6, 6))
    x, y = rng.standard_normal((2, 36))
    alpha = 0.37
    lhs = op.matmat(alpha * x + y)
    rhs = alpha * op.matmat(x) + op.matmat(y)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-12)
    assert op.matmat(x) @ y == pytest.approx(x @ op.matmat(y), rel=1e-12)


# ------------------------------------------------------- factor eigenbases

def p1_factors(n, length, bc):
    """Uniform P1 stiffness/mass on (0, length); bc 'DD' or 'ND'."""
    h = length / n
    m = n - 1 if bc == "DD" else n
    K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)).tolil() / h
    M = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(m, m)).tolil() * (h / 6)
    if bc == "ND":
        # node 0 sits on the free end: half support
        K[0, 0] = 1.0 / h
        M[0, 0] = 2 * h / 6
    return K.tocsr(), M.tocsr()


def closed_form_spectral(n, length, bc):
    h = length / n
    if bc == "DD":
        j = np.arange(1, n)
        c = np.cos(np.pi * j / n)
        kind = "dst"
    else:
        j = np.arange(n)
        c = np.cos(np.pi * (j + 0.5) / n)
        kind = "dct"
    lam = (6.0 / h**2) * (1.0 - c) / (2.0 + c)
    nrm = np.sqrt((length / 6.0) * (2.0 + c))
    return FactorSpectral(lam=lam, kind=kind, nrm=nrm)


@pytest.mark.parametrize("bc", ["DD", "ND"])
def test_factor_spectral_diagonalizes_p1_chain(bc):
    n, length = 24, 2.5
    K, M = p1_factors(n, length, bc)
    f = closed_form_spectral(n, length, bc)
    m = K.shape[0]
    # columns of V via synthesis from unit coefficient vectors
    V = f.apply(np.eye(m), axis=0)
    assert np.allclose(V.T @ (M @ V), np.eye(m), atol=1e-10)
    assert np.allclose(V.T @ (K @ V), np.diag(f.lam), atol=1e-8)
    # adjoint really is V^T
    X = np.random.default_rng(5).standard_normal((m, 3))
    assert np.allclose(f.apply_adjoint(X, axis=0), V.T @ X, atol=1e-12)


def test_factor_spectral_dense_kind():
    A, M = rand_spd_pencil(9, seed=11)
    A = A @ A.T + 9 * np.eye(9)  # make positive definite
    lam, V = sla.eigh(A, M)
    f = FactorSpectral(lam=lam, kind="dense", V=V)
    X = np.random.default_rng(6).standard_normal((9, 2))
    assert np.allclose(f.apply(X, axis=0), V @ X)
    assert np.allclose(f.apply_adjoint(X, axis=0), V.T @ X)


def test_tensor_precond_exactly_inverts_separable_pencil():
    nx, ny, lx, ly = 12, 9, 1.0, 2.0
    Kx, Mx = p1_factors(nx, lx, "ND")
    Ky, My = p1_factors(ny, ly, "DD")
    fx = closed_form_spectral(nx, lx, "ND")
    fy = closed_form_spectral(ny, ly, "DD")
    cy = 3.0
    shape = (Kx.shape[0], Ky.shape[0])
    A = KronOp([(1.0, (Kx, My)), (cy, (Mx, Ky))], shape)
    M = KronOp([(1.0, (Mx, My))], shape)
    pre = TensorPrecond([(1.0, fx), (cy, fy)])
    sigma = 0.5 * pre.lam_min
    R = np.random.default_rng(7).standard_normal((shape[0] * shape[1], 3))
    Z = pre(R, sigma)
    assert np.allclose(A.matmat(Z) - sigma * M.matmat(Z), R,
                       rtol=1e-10, atol=1e-9)


def test_gemm_writes_column_major_targets_in_place():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
    work = np.zeros((6, 8), order="F")
    out = work[:, 2:5]   # a column block of a workspace: column-major
    assert eigcore._gemm(a, b[:4], out) is out
    assert np.allclose(work[:, 2:5], a @ b[:4])
    eigcore._gemm(a, b[:4], out, alpha=-1.0, beta=1.0)
    assert np.allclose(work, 0.0, atol=1e-12)
    assert np.allclose(eigcore._gemm(a, b, trans_a=True), a.T @ b)


@pytest.mark.parametrize("target", ["row_major", "row_slice", "read_only",
                                    "float32"])
def test_gemm_refuses_a_target_it_would_copy(target):
    # dgemm computes into a copy of such a target, leaving it unwritten
    # (or, read-only, writes it anyway)
    a, b = np.ones((6, 4)), np.ones((4, 3))
    out = {"row_major": lambda: np.zeros((6, 3)),
           "row_slice": lambda: np.zeros((12, 3), order="F")[::2],
           "read_only": lambda: np.zeros((6, 3), order="F"),
           "float32": lambda: np.zeros((6, 3), dtype=np.float32,
                                       order="F")}[target]()
    out.flags.writeable = target != "read_only"
    with pytest.raises(ValueError, match="column-major float64"):
        eigcore._gemm(a, b, out)
    assert not out.any()


def test_tensor_precond_clamps_shift_above_lam_min():
    f = FactorSpectral(lam=np.array([1.0, 4.0]), kind="dense", V=np.eye(2))
    pre = TensorPrecond([(1.0, f)])
    R = np.ones((2, 1))
    # shift beyond lam_min must not flip the sign of the inverse
    Z = pre(R, 100.0)
    assert np.all(Z > 0)


# ------------------------------------------------------------------ solver

def test_trivial_diagonal_identity():
    res = smallest_eigenpairs(np.diag([1.0, 2.0, 3.0]), None, EigOptions(k=2))
    assert res.ok
    assert np.allclose(res.theta, [1.0, 2.0], atol=1e-10)


def test_trivial_decoupled_ratios():
    res = smallest_eigenpairs(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]),
                              EigOptions(k=2))
    assert res.ok
    assert np.allclose(res.theta, [2.0, 4.0], atol=1e-10)


def test_fd_chain_closed_form_and_dense_oracle():
    n = 100
    A = fd_chain(n)
    res = smallest_eigenpairs(A, None, EigOptions(k=3, tol=1e-10))
    exact = fd_chain_eigs(n)[:3]
    assert res.ok
    assert np.allclose(res.theta, exact, rtol=1e-9)
    dense = sla.eigvalsh(A.toarray())[:3]
    assert np.allclose(res.theta, dense, rtol=1e-10)


def test_generalized_pencil_matches_dense_oracle():
    A, M = rand_spd_pencil(60, seed=21)
    res = smallest_eigenpairs(A, M, EigOptions(k=5, tol=1e-10, seed=1))
    dense = sla.eigh(A, M, eigvals_only=True)[:5]
    assert res.ok
    assert np.allclose(res.theta, dense, rtol=1e-10, atol=1e-10)
    # M-orthonormality of the returned block
    G = res.vectors.T @ (M @ res.vectors)
    assert np.allclose(G, np.eye(5), atol=1e-8)


def test_separable_2d_with_tensor_preconditioner():
    nx, ny = 40, 30
    Kx, Mx = p1_factors(nx, 1.0, "ND")
    Ky, My = p1_factors(ny, 1.0, "DD")
    shape = (Kx.shape[0], Ky.shape[0])
    A = KronOp([(1.0, (Kx, My)), (1.0, (Mx, Ky))], shape)
    M = MassKron((Mx, My), shape)
    pre = TensorPrecond([(1.0, closed_form_spectral(nx, 1.0, "ND")),
                         (1.0, closed_form_spectral(ny, 1.0, "DD"))])
    res = smallest_eigenpairs(A, M, EigOptions(k=4, tol=1e-9), pre)
    assert res.ok
    # exact shift-invert of the whole operator: fast even for 4 pairs
    assert res.iterations <= 20
    lam = np.add.outer(closed_form_spectral(nx, 1.0, "ND").lam,
                       closed_form_spectral(ny, 1.0, "DD").lam)
    assert np.allclose(res.theta, np.sort(lam.ravel())[:4], rtol=1e-9)


def test_determinism_bitwise_for_fixed_seed():
    A, M = rand_spd_pencil(40, seed=3)
    r1 = smallest_eigenpairs(A, M, EigOptions(k=3, seed=42))
    r2 = smallest_eigenpairs(A, M, EigOptions(k=3, seed=42))
    assert r1.theta.tobytes() == r2.theta.tobytes()
    assert r1.vectors.tobytes() == r2.vectors.tobytes()


def kato_temple(A, M, res, lam):
    """8 ||r_j||_D^2 / (|theta_j| (lam_{j+1} - theta_j)) of the returned
    pairs, on fresh residuals: the relative accuracy the stopping rule
    certifies, with the exact eigenvalues ``lam`` (at least k + 1 of
    them, no cluster among the first k + 1) in place of the block's
    next Ritz value."""
    V, theta = res.vectors, res.theta
    R = A @ V - (M @ V) * theta
    dn2 = np.einsum("ij,ij,i->j", R, R, 1.0 / M.diagonal())
    return 8.0 * dn2 / (np.abs(theta) * (lam[1:theta.size + 1] - theta))


def test_residual_invariant_of_converged_pairs():
    A, M = rand_spd_pencil(50, seed=9)
    # shift A positive so the relative accuracy bound is meaningful
    A = A @ A.T + np.eye(50)
    res = smallest_eigenpairs(A, M, EigOptions(k=3, tol=1e-8))
    assert res.ok
    lam = sla.eigh(A, M, eigvals_only=True)
    # the mass bound of the rule, ||r||_{M^-1}^2 <= 8 ||r||_D^2, holds
    # for this M, and converged pairs meet the Kato-Temple test
    R = A @ res.vectors - (M @ res.vectors) * res.theta
    mn2 = np.einsum("ij,ij->j", R, np.linalg.solve(M, R))
    dn2 = np.einsum("ij,ij,i->j", R, R, 1.0 / np.diag(M))
    assert np.all(mn2 <= 8.0 * dn2)
    assert np.all(kato_temple(A, M, res, lam) <= 1e-8)
    # so each value is an upper bound within tol |theta| of its eigenvalue
    assert np.all(res.theta - lam[:3] <= 1e-8 * np.abs(res.theta))
    assert np.all(res.theta >= lam[:3] - 1e-12 * np.abs(lam[:3]))


def test_courant_dof_deletion_monotonicity():
    A = fd_chain(30).toarray()
    lam_full = sla.eigvalsh(A)
    lam_del = sla.eigvalsh(A[:-1, :-1])
    assert np.all(lam_del[:10] >= lam_full[:10] - 1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        smallest_eigenpairs(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        EigOptions(k=0)
    with pytest.raises(ValueError):
        EigOptions(tol=0.0)
    with pytest.raises(ValueError):
        EigOptions(tol=float("nan"))
    # the residual test is relative to |theta|: at a tolerance of 1 or
    # more a random start block can pass as converged
    for tol in (1.0, 10.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            EigOptions(tol=tol)
    with pytest.raises(ValueError, match="maxit"):
        EigOptions(k=2, tol=1e-300, maxit=-1)
    with pytest.raises(ValueError, match="seed"):
        EigOptions(seed=-1)
    with pytest.raises(ValueError):
        smallest_eigenpairs(np.eye(3), None, EigOptions(k=5))
    with pytest.raises(ValueError, match="square"):
        smallest_eigenpairs(np.ones((3, 4)))


def test_indefinite_mass_detected():
    from shearspec.eigcore import SolverError
    with pytest.raises(SolverError):
        smallest_eigenpairs(np.eye(3), np.diag([1.0, -1.0, 1.0]),
                            EigOptions(k=1))


def test_nonconvergence_reports_flags():
    A, M = rand_spd_pencil(40, seed=13)
    res = smallest_eigenpairs(A, M, EigOptions(k=2, tol=1e-14, maxit=2))
    assert not res.ok
    assert res.iterations == 2


class CountingOp:
    """Wraps a pencil operand and counts its block applies."""

    def __init__(self, op):
        self.op = op
        self.shape = (op.n, op.n) if isinstance(op, KronOp) else op.shape
        self.calls = 0

    def __matmul__(self, X):
        self.calls += 1
        return self.op @ X

    def diagonal(self):
        return self.op.diagonal()


def shear_pencils():
    """Small transformed-waveguide pencils of every block-CG mode."""
    unit = Rect(0.0, 1.0, 0.0, 1.0)
    return {
        "reduced2d": assemble_reduced2d(1.0, unit, 3.0, (24, 12)),
        "half_DN": assemble_waveguide(1.0, unit, 3.0, (8, 6, 6)),
        "mask": assemble_waveguide(1.0, l_shaped_mask(8), 3.0, 8),
        "full_sign": assemble_waveguide(1.0, unit, 2.0, (4, 6, 6),
                                        "full_sign"),
    }


def test_lean_solver_applies_a_and_m_once_per_iteration():
    form = shear_pencils()["reduced2d"]
    A, M = CountingOp(form.A), CountingOp(form.M)
    res = smallest_eigenpairs(A, M, EigOptions(k=4, tol=1e-9),
                              form.preconditioner())
    assert res.ok and res.iterations > 5
    # the start block, one W block per iteration, one confirmation
    assert A.calls == M.calls == res.iterations + 2
    assert res.matmats == A.calls


def test_returned_residuals_are_true_residuals():
    form = shear_pencils()["half_DN"]
    tol = 1e-9
    res = smallest_eigenpairs(form.A, form.M, EigOptions(k=4, tol=tol),
                              form.preconditioner())
    assert res.ok
    V = res.vectors
    # the residuals stay 2-norms, of fresh products
    true = np.linalg.norm(form.A.matmat(V) - form.M.matmat(V) * res.theta,
                          axis=0)
    assert res.residuals == pytest.approx(true, rel=1e-5)
    # the rule stops on the eigenvalue: the Kato-Temple test holds on the
    # true residuals, and each value lies within tol |theta| of its own
    lam = sla.eigh(materialize(form.A), materialize(form.M),
                   eigvals_only=True)[:5]
    assert np.all(kato_temple(form.A, form.M, res, lam) <= tol)
    assert np.all(np.abs(res.theta - lam[:4]) <= tol * np.abs(res.theta))


@pytest.mark.parametrize("mode", ["reduced2d", "half_DN", "mask",
                                  "full_sign"])
def test_shear_pencils_match_dense_eigh(mode):
    form = shear_pencils()[mode]
    res = smallest_eigenpairs(form.A, form.M, EigOptions(k=4, tol=1e-9),
                              form.preconditioner())
    dense = sla.eigh(materialize(form.A), materialize(form.M),
                     eigvals_only=True)[:4]
    assert res.ok
    assert res.theta == pytest.approx(dense, rel=1e-10)


def wide_pencils():
    """3-D pencils whose sections are too wide to factor (half-bandwidth
    133 against a band limit of 18 (k + 3) = 108 at k = 3)."""
    unit = Rect(0.0, 1.0, 0.0, 1.0)
    return {
        "half_DN": assemble_waveguide(1.0, unit, 3.0, (8, 12, 12)),
        "full_sign": assemble_waveguide(1.0, unit, 2.0, (4, 12, 12),
                                        "full_sign"),
    }


@pytest.mark.parametrize("kind, iterative", [
    ("reduced2d", "shift_invert"), ("half_DN", "block_cg"),
    ("full_sign", "block_cg"), ("section", "shift_invert")])
def test_lowest_eigenpairs_branches_agree(monkeypatch, kind, iterative):
    if kind == "section":
        K1, K2, _, M = section_fem(l_shaped_mask(12))
        A, pre = (K1 + 2.0 * K2).tocsr(), None
    else:
        pencils = shear_pencils() if kind == "reduced2d" else wide_pencils()
        form = pencils[kind]
        A, M, pre = form.A, form.M, form.preconditioner()
    got = {}
    for dense_n, solver in ((10**9, "dense"), (0, iterative)):
        monkeypatch.setattr(eigcore, "DENSE_N", dense_n)
        res = lowest_eigenpairs(A, M, 3, EigOptions(tol=1e-10), pre)
        assert res.solver == solver
        assert res.ok
        if solver == "block_cg":
            # block CG stops on the Kato-Temple test in the diag(M)^-1
            # norm, direct solves leave small 2-norm residuals
            lam = sla.eigh(materialize(A), materialize(M), eigvals_only=True,
                           subset_by_index=[0, 3])
            assert np.all(kato_temple(A, M, res, lam) <= 1e-10)
        else:
            assert np.all(res.residuals <= 1e-8 * res.theta)
        assert (res.shift is None) == (solver != "shift_invert")
        got[solver] = res.theta
    assert got[iterative] == pytest.approx(got["dense"], rel=1e-10)


# ------------------------------------------------- the list-based loop

def _gram(S: list, T: list) -> np.ndarray:
    """[S_1 S_2 ...]^T [T_1 T_2 ...] without stacking the column blocks."""
    return np.block([[s.T @ t for t in T] for s in S])


def _combine(S: list, C: np.ndarray) -> np.ndarray:
    """[S_1 S_2 ...] @ C without stacking the column blocks."""
    out = S[0] @ C[:S[0].shape[1]]
    r = S[0].shape[1]
    for s in S[1:]:
        out += s @ C[r:r + s.shape[1]]
        r += s.shape[1]
    return out


def list_block_cg(A, M=None, opts=None, precond=None):
    """Block CG on [X W P] held as lists of separate n x bs arrays, with
    Gram matrices and basis changes block by block: the reference the
    workspace loop of ``smallest_eigenpairs`` must reproduce."""
    from shearspec.eigcore import (EigResult, SolverError, _dnorm, _order,
                                   _rayleigh_ritz, _settled, _whiten)
    opts = opts or EigOptions()
    n = _order(A)
    if M is None:
        M = sp.identity(n, format="csr")
    if _order(M) != n:
        raise ValueError(f"operator sizes differ: A is {n}, M is {_order(M)}")
    k = opts.k
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    bs = min(k + 3, n)
    if precond is None:
        try:
            precond = JacobiPrecond(A.diagonal())
        except ValueError:
            precond = lambda R, sigma: R
    dinv = 1.0 / M.diagonal()

    def ritz(X):
        """Fresh products of X and its Rayleigh-Ritz rotation."""
        AX, MX = A @ X, M @ X
        theta, C = _rayleigh_ritz(X.T @ AX, X.T @ MX, bs)
        C = C[:, :bs]
        return theta[:bs], X @ C, AX @ C, MX @ C

    rng = np.random.default_rng(opts.seed)
    theta, X, AX, MX = ritz(rng.standard_normal((n, bs)))
    nmat = 1
    P = AP = MP = None
    it = 0
    while True:
        R = AX - MX * theta
        ok = _settled(theta, _dnorm(R, dinv), k, opts.tol)
        if it == opts.maxit or ok.all():
            # the carried products drift by rounding; only fresh ones
            # may certify convergence
            theta, X, AX, MX = ritz(X)
            nmat += 1
            R = AX - MX * theta
            ok = _settled(theta, _dnorm(R, dinv), k, opts.tol)
            if it == opts.maxit or ok.all():
                return EigResult(theta[:k].copy(), X[:, :k].copy(), ok[:k],
                                 it, nmat, np.linalg.norm(R[:, :k], axis=0),
                                 "block_cg")
        W = precond(R, float(theta[0]))
        # M-orthogonal to X and P before the apply: the Gram matrix of
        # [X W P] stays near the identity, so the basis change below
        # amplifies no rounding in the carried products
        W -= X @ (MX.T @ W)
        if P is not None:
            W -= P @ (MP.T @ W)
        AW, MW = A @ W, M @ W
        nmat += 1
        S, AS, MS = [X, W], [AX, AW], [MX, MW]
        if P is not None:
            S, AS, MS = S + [P], AS + [AP], MS + [MP]
        GM = _gram(S, MS)
        ths, C = _rayleigh_ritz(_gram(S, AS), GM, bs)
        theta = ths[:bs]
        Cx = C[:, :bs]
        Cp = Cx.copy()
        Cp[:bs] = 0.0   # new directions only, M-orthogonal to the new X
        Cp -= Cx @ (Cx.T @ GM @ Cp)
        try:
            Cp = Cp @ _whiten(Cp.T @ GM @ Cp)
        except SolverError:
            Cp = Cp[:, :0]
        # one product per carried array gives both the new X and P
        Cxp = np.hstack([Cx, Cp])
        XP, AXP, MXP = _combine(S, Cxp), _combine(AS, Cxp), _combine(MS, Cxp)
        X, AX, MX = XP[:, :bs], AXP[:, :bs], MXP[:, :bs]
        if Cp.shape[1]:
            P, AP, MP = XP[:, bs:], AXP[:, bs:], MXP[:, bs:]
        else:
            P = AP = MP = None
        it += 1


@pytest.mark.parametrize("build", [
    lambda: lmask_pencil()[0],
    lambda: wide_pencils()["half_DN"],
], ids=["lmask", "rect3d"])
def test_workspace_loop_matches_the_list_loop(build):
    # the same iteration on one layout or the other: equal iteration and
    # apply counts, values equal to rounding
    form = build()
    opts = EigOptions(k=4, tol=1e-9)
    pre = form.preconditioner()
    new = smallest_eigenpairs(form.A, form.M, opts, pre)
    ref = list_block_cg(form.A, form.M, opts, pre)
    assert new.ok and ref.ok
    assert (new.iterations, new.matmats) == (ref.iterations, ref.matmats)
    assert new.theta == pytest.approx(ref.theta, rel=1e-10)


@pytest.mark.parametrize("n", [8, 12, 20])
def test_rank_deficient_blocks_match_dense_eigh(n):
    # bs = 7 and n < 3 bs: [X P W] has more columns than the space, so the
    # Rayleigh-Ritz step drops dependent directions
    A, M = rand_spd_pencil(n, seed=n)
    A = A @ A.T + np.eye(n)
    res = smallest_eigenpairs(A, M, EigOptions(k=4, tol=1e-10))
    assert res.ok
    assert res.theta == pytest.approx(sla.eigh(A, M, eigvals_only=True)[:4],
                                      rel=1e-10)
    G = res.vectors.T @ (M @ res.vectors)
    assert np.allclose(G, np.eye(4), atol=1e-8)


# -------------------------------------------------------- factored pencils

def test_fit_rule_sends_pencils_by_band_against_block_memory():
    unit = Rect(0.0, 1.0, 0.0, 1.0)
    narrow = assemble_reduced2d(1.0, unit, 3.0, (64, 16))
    wide = assemble_reduced2d(1.0, unit, 3.0, (8, 128))
    solid = wide_pencils()["half_DN"]
    # x-major half-guide forms: half-bandwidth n2 on reduced2d, the
    # section order plus n2 in 3-D
    assert eigcore._half_bandwidth(narrow.A) == 16
    assert eigcore._half_bandwidth(wide.A) == 128
    assert eigcore._half_bandwidth(solid.A) == 121 + 12
    # the mass band is read off its assembled CSR matrix
    assert eigcore._half_bandwidth(solid.M) == 133
    assert eigcore._half_bandwidth(solid.M.matrix) == 133
    opts = EigOptions(tol=1e-10)
    got = {}
    for name, form in (("narrow", narrow), ("wide", wide),
                       ("solid", solid)):
        assert form.n > eigcore.DENSE_N
        got[name] = lowest_eigenpairs(form.A, form.M, 4, opts,
                                      form.preconditioner()).solver
    assert got == {"narrow": "shift_invert", "wide": "block_cg",
                   "solid": "block_cg"}
    # the limit is 18 n x bs arrays: kd + 1 = 129 fits a block of 8
    assert eigcore._band_pencil(wide.A, wide.M, 7) is None
    assert eigcore._band_pencil(wide.A, wide.M, 8) is not None
    # a bare section pencil has no block-CG preconditioner: factored at
    # any bandwidth
    K1, K2, _, Msec = section_fem(l_shaped_mask(96))
    K = (K1 + 2.0 * K2).tocsr()
    assert eigcore._half_bandwidth(K) + 1 > 18 * 4
    res = lowest_eigenpairs(K, Msec, 1, opts)
    assert res.solver == "shift_invert"
    assert res.residuals[0] <= 1e-10 * res.theta[0]


@pytest.mark.parametrize("mode", ["reduced2d", "half_DN", "mask",
                                  "full_sign"])
def test_kron_half_bandwidth_from_factors_matches_the_scan(mode):
    form = shear_pencils()[mode]
    for op in (form.A, form.M):
        assert op.half_bandwidth == eigcore._csr_bandwidth(op.matrix)
        assert eigcore._half_bandwidth(op) == op.half_bandwidth


def dense_spectrum(form):
    return sla.eigh(materialize(form.A), materialize(form.M),
                    eigvals_only=True)


@pytest.mark.parametrize("mode", ["reduced2d", "half_DN", "mask",
                                  "full_sign"])
def test_inertia_counts_match_dense_counts(mode, monkeypatch):
    # a banded pencil is counted by inertia at any order, DENSE_N and below:
    # this one sits at DENSE_N
    form = shear_pencils()[mode]
    monkeypatch.setattr(eigcore, "DENSE_N", form.n)
    assert form.n <= eigcore.DENSE_N
    lam = dense_spectrum(form)
    low = lam[:41]
    shifts = np.concatenate([[0.5 * lam[0]], 0.5 * (low[1:] + low[:-1]),
                             low[:40] * (1.0 - 1e-9),
                             low[:40] * (1.0 + 1e-9)])
    for s in shifts:
        r = count_below(form.A, form.M, s, 0.0)
        assert r.result is None and r.reliable
        want = np.count_nonzero(lam < s)
        assert (r.count, r.inertia) == (want, (want, want)), s


def test_inertia_count_flags_the_band():
    form = shear_pencils()["reduced2d"]
    lam = dense_spectrum(form)
    r = count_below(form.A, form.M, lam[2], 1e-6 * lam[2])
    assert (r.count, r.inertia, r.boundary) == (2, (2, 3), True)
    assert not r.reliable
    clear = 0.5 * (lam[2] + lam[3])
    r = count_below(form.A, form.M, clear, 1e-6 * clear)
    assert (r.count, r.inertia, r.boundary) == (3, (3, 3), False)
    assert r.reliable and r.clearance == math.inf


def band_pencils():
    """Every kind of pencil the band builder serves: the Kronecker forms
    of the three modes on rectangles, a half_DN mask, and bare section
    and triangle pencils."""
    unit = Rect(0.0, 1.0, 0.0, 1.0)
    forms = {
        "reduced2d": assemble_reduced2d(1.0, unit, 3.0, (24, 12)),
        "half_DN": assemble_waveguide(1.0, unit, 3.0, (6, 5, 6)),
        "full_sign": assemble_waveguide(1.0, Rect(0.0, 1.0, 0.0, 2.0), 2.0,
                                        (4, 4, 5), "full_sign"),
        "mask": assemble_waveguide(1.0, l_shaped_mask(8), 3.0, 6),
    }
    out = {name: (form.A, form.M) for name, form in forms.items()}
    K1, K2, _, Msec = section_fem(l_shaped_mask(8))
    out["section"] = ((K1 + 2.0 * K2).tocsr(), Msec)
    Sxx, Syy, Mtri, _ = triangle_matrices(12, 1.0)
    out["triangle"] = ((Sxx + 2.0 * Syy).tocsr(), Mtri)
    return out


BAND_KINDS = ["reduced2d", "half_DN", "full_sign", "mask", "section",
              "triangle"]


def dense_lower_band(S, kd):
    """LAPACK lower band storage of the dense symmetric S."""
    n = S.shape[0]
    ab = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        ab[d, :n - d] = np.diagonal(S, -d)
    return ab


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["forward", "reversed"])
@pytest.mark.parametrize("kind", BAND_KINDS)
def test_band_from_the_factors_matches_the_dense_band(kind, reverse):
    A, M = band_pencils()[kind]
    band = eigcore._band_pencil(A, M, 10**6)
    sigma = 3.7
    S = materialize(A) - sigma * materialize(M)
    if reverse:
        S = S[::-1, ::-1]
    want = dense_lower_band(S, band.kd)
    assert band.kd == eigcore._csr_bandwidth(sp.csr_matrix(S))
    got = band.lower(sigma, reverse=reverse)
    assert got.flags.f_contiguous
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-14 * scale
    # the trailing block from an x node on, which a count restart reads
    nx, m = band.shape
    first = nx // 2
    tail = band.lower(sigma, reverse=reverse, first=first)
    assert np.abs(tail - dense_lower_band(S[first * m:, first * m:],
                                          band.kd)).max() <= 1e-14 * scale
    # and A applied from the band rows of A
    V = np.random.default_rng(0).standard_normal((band.n, 3))
    AV = materialize(A) @ V
    assert np.abs(band.apply_A(V) - AV).max() <= 1e-13 * np.abs(AV).max()


@pytest.mark.parametrize("below", [0, 1, 3, 8])
@pytest.mark.parametrize("kind", BAND_KINDS)
def test_reversed_inertia_counts_match_dense_counts(kind, below):
    A, M = band_pencils()[kind]
    lam = sla.eigh(materialize(A), materialize(M), eigvals_only=True)
    sigma = (0.5 * lam[0] if below == 0
             else 0.5 * (lam[below - 1] + lam[below]))
    band = eigcore._band_pencil(A, M, 10**6)
    built = []
    real = band.lower

    def spy(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    band.lower = spy
    assert eigcore._negative_count(band, sigma) == below
    # every factorization is of the reversed order; a pivot that is not
    # positive restarts the count from a rebuilt band
    assert all(kw["reverse"] for kw in built)
    assert (len(built) > 1) == (below > 0)


def test_factored_solve_holds_its_band_and_the_lanczos_basis():
    # tracemalloc over one factored solve: the band Cholesky, ARPACK's
    # n x (ncv + 1) basis and residual, and a stated slack: M's CSR
    # matrix (for the Lanczos products), the second n x ncv array of
    # ARPACK's eigenvector extraction, and 12 n-vectors (its work
    # vectors, the start vector and the solve's V and M V)
    form = assemble_reduced2d(1.0, Rect(0.0, 1.0, 0.0, 1.0), 6.0, (384, 64))
    n, k = form.n, 4
    kd = form.A.half_bandwidth
    ncv = max(2 * k + 1, 20)   # eigsh's default
    tracemalloc.start()
    try:
        res = lowest_eigenpairs(form.A, form.M, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.solver == "shift_invert"
    Mc = form.M.matrix
    csr = Mc.data.nbytes + Mc.indices.nbytes + Mc.indptr.nbytes
    limit = 8 * n * (kd + 1) + 8 * n * (ncv + 1) + csr + 8 * n * (ncv + 12)
    assert peak <= limit


def reduced_pencil(beta, rect, L, grid):
    """A reduced2d pencil with its planar count threshold."""
    return (assemble_reduced2d(beta, rect, L, grid),
            ess_threshold(beta, rect) - (math.pi / rect.width1)**2)


def lmask_pencil():
    """A half_DN L-mask pencil with its section ground value."""
    form = assemble_waveguide(1.0, l_shaped_mask(12), 4.0, 20)
    return form, float(form.section_pairs[0][0])


# the strip's top rung and the beta = 0.5 and 3 unit-square top rungs of
# the benchmark, and an L-mask pencil: each holds one bound state
@pytest.mark.parametrize("build", [
    lambda: reduced_pencil(1.0, Rect(0.0, 1.0, 0.0, math.pi * math.sqrt(2)),
                           42.4, (320, 32)),
    lambda: reduced_pencil(0.5, Rect(0.0, 1.0, 0.0, 1.0), 8.0, (64, 32)),
    lambda: reduced_pencil(3.0, Rect(0.0, 1.0, 0.0, 1.0), 8.0, (64, 32)),
    lmask_pencil,
], ids=["strip", "square_b0.5", "square_b3", "lmask"])
def test_inertia_counts_match_block_cg_counts(monkeypatch, build):
    # the same pencil counted both ways: exactly by inertia, and by the
    # block-CG growth loop once the fit rule sends no pencil to a factor
    form, T = build()
    assert form.n > eigcore.DENSE_N
    opts = EigOptions(k=4, tol=1e-9)
    exact = count_below(form.A, form.M, T, 1e-6 * T, opts)
    monkeypatch.setattr(eigcore, "_CG_ARRAYS", 0)
    cg = count_below(form.A, form.M, T, 1e-6 * T, opts, form.preconditioner())
    assert exact.result is None and exact.inertia == (1, 1)
    assert cg.result.solver == "block_cg"
    assert exact.reliable and cg.reliable
    assert cg.count == exact.count == 1


def test_factored_shift_above_the_spectrum_falls_back(monkeypatch):
    form = shear_pencils()["half_DN"]
    lam = dense_spectrum(form)[:4]
    monkeypatch.setattr(eigcore, "DENSE_N", 0)
    below = lowest_eigenpairs(form.A, form.M, 4, sigma=0.9 * lam[0])
    assert below.shift == 0.9 * lam[0]
    for sigma in (lam[1], 10.0 * lam[0]):
        res = lowest_eigenpairs(form.A, form.M, 4, sigma=sigma)
        assert res.solver == "shift_invert" and 0.0 <= res.shift < lam[0]
        assert res.theta == pytest.approx(lam, rel=1e-10)
        assert res.theta == pytest.approx(below.theta, rel=1e-12)
        assert np.all(res.residuals <= 1e-10 * res.theta)


def test_k_equal_to_the_order_is_the_dense_eigenbasis():
    # above DENSE_N, k = n asks for every pair: the dense branch, like
    # k=None, since Lanczos cannot return all n
    form = assemble_reduced2d(1.0, Rect(0.0, 1.0, 0.0, 1.0), 3.0, (24, 12))
    n = form.n
    assert n == 264 > eigcore.DENSE_N
    res = lowest_eigenpairs(form.A, form.M, n)
    lam = dense_spectrum(form)
    assert res.solver == "dense" and res.theta.size == n
    assert res.theta == pytest.approx(lam, rel=1e-12)
    assert np.all(res.residuals <= 1e-8 * np.abs(res.theta).max())


def test_indefinite_sparse_pencil_iterates():
    # no shift makes A - sigma I positive definite from sigma = 0: the
    # factored branch hands the pencil to block CG
    lam = np.linspace(-2.0, 10.0, 800)
    res = lowest_eigenpairs(sp.diags(lam).tocsr(), None, 3,
                            EigOptions(tol=1e-9))
    assert res.solver == "block_cg"
    assert res.theta == pytest.approx(lam[:3], rel=1e-8)


# ---------------------------------------------------------------- counting

def test_count_below_trivial_cases():
    A = np.diag([1.0, 2.0, 3.0])
    r = count_below(A, None, threshold=2.5, safety=0.0)
    assert r.count == 2 and not r.boundary
    r = count_below(A, None, threshold=2.0, safety=0.1)
    assert r.count == 1 and r.boundary


def test_count_below_fd_chain_midpoint():
    n = 100
    lam = fd_chain_eigs(n)
    thresh = 0.5 * (lam[3] + lam[4])  # midpoint above the 4th eigenvalue
    r = count_below(fd_chain(n), None, threshold=thresh, safety=0.0)
    assert r.count == 4
    assert not r.boundary
    assert r.reliable


def test_count_below_grows_block_for_clearance():
    # 12 eigenvalues below the threshold forces the block to grow past
    # its starting size
    lam = np.arange(1.0, 31.0)
    r = count_below(np.diag(lam), None, threshold=12.5, safety=0.25)
    assert r.count == 12
    assert r.reliable
    assert r.clearance == pytest.approx(0.5)


@pytest.mark.parametrize("dense_n", [10**9, 0], ids=["dense", "factored"])
def test_absent_mass_is_the_sparse_identity(monkeypatch, dense_n):
    monkeypatch.setattr(eigcore, "DENSE_N", dense_n)
    n = 40
    A = fd_chain(n)
    eye = sp.identity(n, format="csr")
    opts = EigOptions(k=3, tol=1e-10)
    for solve in (lambda M: smallest_eigenpairs(A, M, opts),
                  lambda M: lowest_eigenpairs(A, M, 3, opts)):
        a, b = solve(None), solve(eye)
        assert a.solver == b.solver
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()
    lam = fd_chain_eigs(n)
    T = 0.5 * (lam[2] + lam[3])
    a, b = (count_below(A, M, T, 1e-6 * T) for M in (None, eye))
    assert (a.count, a.inertia) == (b.count, b.inertia) == (3, (3, 3))


def test_count_below_sets_no_block_floor(monkeypatch):
    # the block is opts.k pairs as given; compute_spectrum passes the
    # ladder's max(k, 4)
    form = shear_pencils()["half_DN"]
    lam = dense_spectrum(form)
    monkeypatch.setattr(eigcore, "DENSE_N", 0)
    monkeypatch.setattr(eigcore, "_CG_ARRAYS", 0)
    asked = []
    solve = eigcore.lowest_eigenpairs

    def spy(A, M, k, *args, **kwargs):
        asked.append(k)
        return solve(A, M, k, *args, **kwargs)

    monkeypatch.setattr(eigcore, "lowest_eigenpairs", spy)
    T = 0.5 * (lam[0] + lam[1])
    r = count_below(form.A, form.M, T, 1e-6 * T, EigOptions(k=2),
                    form.preconditioner())
    assert asked[0] == 2
    assert r.result.solver == "block_cg"
    assert r.count == 1 and r.reliable


def test_count_below_rejects_negative_safety():
    with pytest.raises(ValueError):
        count_below(np.eye(2), None, threshold=1.0, safety=-0.1)


def test_splu_and_jacobi_preconditioners_run():
    A = fd_chain(50)
    pre = SpluPrecond(A)
    res = smallest_eigenpairs(A, None, EigOptions(k=2, tol=1e-9), pre)
    assert res.ok and res.iterations <= 8
    jac = JacobiPrecond(A.diagonal())
    res2 = smallest_eigenpairs(A, None, EigOptions(k=2, tol=1e-9), jac)
    assert res2.ok
    assert np.allclose(res.theta, res2.theta, rtol=1e-8)


# ------------------------------------------------------ one BLAS thread

@pytest.fixture
def blas_threads():
    """The thread count getter of scipy's OpenBLAS, with the pool set to
    2 threads for the test and the caller's count restored after it."""
    api = eigcore._openblas_threads()
    if api is None:
        pytest.skip("scipy's OpenBLAS thread API not found")
    get, put = api
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("scipy's OpenBLAS cannot run 2 threads here")
        yield get
    finally:
        put(before)


def _spy_threads(monkeypatch, get, names):
    """Wrap the eigcore functions ``names`` to record the thread count each
    call sees; returns the list they append to."""
    seen = []
    for name in names:
        def spy(*args, _f=getattr(eigcore, name), **kwargs):
            seen.append(get())
            return _f(*args, **kwargs)
        monkeypatch.setattr(eigcore, name, spy)
    return seen


@pytest.mark.parametrize("k, solver", [(None, "dense"), (4, "shift_invert")])
def test_direct_solves_run_on_one_blas_thread(monkeypatch, blas_threads,
                                             k, solver):
    form = shear_pencils()["reduced2d"]
    seen = _spy_threads(monkeypatch, blas_threads,
                        ["materialize", "_band_cholesky", "_band_solve",
                         "_direct_result"])
    res = lowest_eigenpairs(form.A, form.M, k)
    assert res.solver == solver
    assert seen and set(seen) == {1}
    assert blas_threads() == 2


def test_inertia_count_runs_on_one_blas_thread(monkeypatch, blas_threads):
    form = shear_pencils()["reduced2d"]
    lam = dense_spectrum(form)
    seen = _spy_threads(monkeypatch, blas_threads, ["_negative_count"])
    T = 0.5 * (lam[1] + lam[2])
    r = count_below(form.A, form.M, T, 1e-6 * T)
    assert r.result is None and r.count == 2
    assert seen == [1, 1]
    assert blas_threads() == 2


def test_one_blas_thread_scope_restores_the_count(blas_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with eigcore._ONE_BLAS_THREAD:
            with eigcore._ONE_BLAS_THREAD:
                assert blas_threads() == 1
            # the inner exit leaves the outer scope at one thread
            assert blas_threads() == 1
            raise RuntimeError("inside")
    assert blas_threads() == 2


@pytest.mark.parametrize("build", [
    lambda: (wide_pencils()["half_DN"].A, wide_pencils()["half_DN"].M),
    # no shift factors: the factored branch hands the pencil to block CG
    lambda: (sp.diags(np.linspace(-2.0, 10.0, 800)).tocsr(), None),
], ids=["wide", "fallback"])
def test_block_cg_keeps_the_callers_blas_pool(monkeypatch, blas_threads,
                                              build):
    A, M = build()
    seen = _spy_threads(monkeypatch, blas_threads, ["_gemm"])
    res = lowest_eigenpairs(A, M, 3, EigOptions(tol=1e-9))
    assert res.solver == "block_cg"
    assert seen and set(seen) == {2}


def test_factored_solve_is_bitwise_the_same_at_any_pool_size(blas_threads):
    # the demo square config's top rung, unshifted so that ARPACK
    # restarts: on a two-thread pool its products round otherwise, and
    # theta and the residuals differ in the last bits
    form = assemble_reduced2d(1.0, Rect(0.0, 1.0, 0.0, 1.0), 6.0, (384, 64))
    put = eigcore._openblas_threads()[1]
    got = []
    for threads in (1, 2):
        put(threads)
        res = lowest_eigenpairs(form.A, form.M, 4)
        assert res.solver == "shift_invert"
        got.append(res)
    assert got[0].theta.tobytes() == got[1].theta.tobytes()
    assert got[0].residuals.tobytes() == got[1].residuals.tobytes()


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_factored_solve_stops_at_the_tolerance(tol):
    # ARPACK's test on L^-1 M L^-T certifies the pencil residual
    # ||Ax - theta Mx|| <= tol |theta| of every returned pair
    form = shear_pencils()["reduced2d"]
    res = lowest_eigenpairs(form.A, form.M, 4, EigOptions(tol=tol))
    assert res.solver == "shift_invert" and res.ok
    V = res.vectors
    true = np.linalg.norm(form.A @ V - (form.M @ V) * res.theta, axis=0)
    assert np.all(true <= tol * np.abs(res.theta))
    assert res.theta == pytest.approx(dense_spectrum(form)[:4], rel=1e-10)
