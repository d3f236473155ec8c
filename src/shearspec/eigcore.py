"""Block eigensolver core: operators, preconditioners, LOBPCG, counting.

Everything downstream reduces to the generalized pencil (A, M) with A
symmetric and M symmetric positive definite; an absent M is the sparse
identity.  A pencil operand is a scipy sparse matrix, a ``KronOp`` or a
dense ndarray, applied with ``@``, with no wrapper around it.  A
waveguide form's A is a sum of Kronecker products of an x factor and a
section factor, and its M a single one (``MassKron``, a one-term
``KronOp``); each is assembled once into one CSR matrix, so that an
apply is a single sparse product.  The solver is a locally optimal block
preconditioned CG iteration with an [X P W] Rayleigh-Ritz space that
applies A and M once each per iteration and carries the products of X
and P.  The space and its products live in two alternating sets of
column-major n x 3 bs workspaces, so that each Gram matrix and each
basis change is one matrix product.  Preconditioning inverts the
separable part of A exactly through per-factor eigenbases, which for
uniform grids are plain sine/cosine transforms.

Dense kernels run on one BLAS pool, scipy's.  Every n-row product of
block CG and the dense section transform of the preconditioner are
``dgemm`` calls (``_gemm``), written in place where they fill a
workspace, and every dense factorization is scipy's LAPACK; numpy's
``@`` keeps only the block-sized coefficient algebra.  numpy bundles its
own OpenBLAS, whose threads busy-wait after a product, and a scipy LAPACK
call right after numpy GEMMs waits on them: the 385-order section
``eigh`` of the L-mask took 41-153 ms right after a block-CG solve on
numpy's GEMMs, and 23-31 ms alone or after one on scipy's (2 cores).
Dense and factored solves and inertia counts run that pool on one
thread (``_ONE_BLAS_THREAD``): band Cholesky, the band triangular
solves, ARPACK's products and dense ``eigh`` gain nothing from a second
thread, which is woken anyway and spins through the rest of the call.
On the strip benchmark, cpu time read 1.98 times wall time on the pool
and 1.00 on one thread, and fell from 0.24 to 0.11 s a call (median of
10, 2 cores).  Block CG keeps the caller's pool, because its GEMMs are
the only work a second thread speeds up: with the whole process on one
thread, the L-mask benchmark took 0.53-0.56 s against 0.50 s.

Every pencil solve goes through ``lowest_eigenpairs`` and one rule:
pencils of order up to DENSE_N, and requests for the full eigenbasis,
are solved by dense ``eigh``.  Above that order a KronOp form whose band
Cholesky fits in the memory block CG would hold, and every bare sparse
(section or triangle) pencil, is factored: with L L^T = A - sigma M,
standard-form Lanczos (``eigsh``) finds the largest eigenvalues
1 / (theta - sigma) of L^-1 M L^-T (Ericsson & Ruhe 1980), one M product
and two band triangular solves per step.  ``count_below``
counts every such pencil, at any order, by the inertia of a block LDL^T
(Sylvester's law with Haynsworth additivity).  Every other pencil goes to
block CG.  For x-major half-guide forms the half-bandwidth is about the
section order, so the planar (reduced2d) forms and small 3-D sections are
factored and large 3-D sections iterate.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.fft import dct, dst
from scipy.sparse.linalg import LinearOperator, eigsh, splu

__all__ = [
    "KronOp",
    "MassKron",
    "FactorSpectral",
    "TensorPrecond",
    "JacobiPrecond",
    "SpluPrecond",
    "SolverError",
    "EigOptions",
    "EigResult",
    "CountResult",
    "DENSE_N",
    "materialize",
    "smallest_eigenpairs",
    "lowest_eigenpairs",
    "count_below",
]

# pencils up to this order are solved by dense eigh, above it a banded
# pencil is factored: the crossover against the factored branch.  Lowest
# 4 pairs of reduced2d unit-square pencils at beta 0.5 and 3, median of 7
# (2 cores, OpenBLAS), dense against factored at a shift 3% below the
# spectrum: order 112, 1.4-1.6 against 2.7-3.1 ms; 168, 3.6-5.2 against
# 2.4-3.7 ms; 224, 8.2-12.9 against 3.3-4.8 ms; 480, 24-38 against
# 3.3-6.2 ms; 560 (the strip's r0s1, beta 1), 50 against 3.7 ms (7.4 ms
# at sigma = 0)
DENSE_N = 200

# the largest block the count's growth loop solves for
_KMAX = 48

# n x bs arrays block CG holds: two sets of [X P W] workspaces with their
# A and M products, 3 bs columns each.  A pencil is factored when its band
# Cholesky takes no more.  (tracemalloc reads a peak of 22, 19.0 MB, on
# the L-mask top rung at n 15400 and bs 7, with every workspace product
# written in place: inside the preconditioner, the residual and three
# transform buffers come on top of the workspaces.)
_CG_ARRAYS = 18


def _kron_terms(terms, shape):
    """Validated ``(shape, terms)`` with one square CSR factor in each of
    the two slots, x and section."""
    shape = tuple(int(s) for s in shape)
    out = [(float(c), tuple(sp.csr_matrix(m) for m in mats))
           for c, mats in terms]
    for _, mats in out:
        sizes = [m.shape for m in mats]
        if len(shape) != 2 or sizes != [(s, s) for s in shape]:
            raise ValueError(f"a KronOp has two slots, x and section: "
                             f"factor shapes {sizes} do not fit {shape}")
    return shape, out


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, *,
          trans_a: bool = False, alpha: float = 1.0,
          beta: float = 0.0) -> np.ndarray:
    """alpha op(a) b + beta out by scipy's BLAS, op(a) = a^T when
    ``trans_a``; written into ``out`` when given, else a new array.

    ``dgemm`` computes into a copy of a target that is not column-major
    float64, leaving the target unwritten, and writes through a read-only
    one; either ``out`` is refused here.  Column-major a and b are read in
    place, others are copied first.
    """
    if out is None:
        return sla.blas.dgemm(alpha, a, b, trans_a=trans_a)
    if not (out.dtype == np.float64 and out.flags.f_contiguous
            and out.flags.writeable):
        raise ValueError("an in-place GEMM target must be a writeable "
                         "column-major float64 array")
    sla.blas.dgemm(alpha, a, b, beta=beta, c=out, trans_a=trans_a,
                   overwrite_c=1)
    return out


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS that scipy
    bundles, or None when no such library is found.  Resolved on first
    use, not at import."""
    libdir = os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                          "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


class _OneBlasThread:
    """Re-entrant scope that runs scipy's OpenBLAS on one thread.

    The first entry saves the caller's thread count and sets 1, the last
    exit restores it, also when the scope is left by an exception; the
    entries are counted under a lock.  A no-op when the library is not
    found or its count is already 1.  The count is process-wide, so a
    block CG run by another thread while a scope is open runs on one
    thread too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None   # the caller's count, while it is lowered

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                api = _openblas_threads()
                count = api[0]() if api else 1
                if count > 1:
                    api[1](1)
                    self._restore = count
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                _openblas_threads()[1](self._restore)
                self._restore = None
        return False


_ONE_BLAS_THREAD = _OneBlasThread()


def _csr_bandwidth(m: sp.csr_matrix) -> int:
    """Largest |i - j| over the stored entries of a CSR matrix."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return int(np.abs(m.indices - rows).max(initial=0))


def _union(mats):
    """Shared sorted CSR pattern of ``mats`` and each one's values on it.

    Returns ``(indptr, indices, vals)`` with ``vals[t]`` the entries of
    ``mats[t]`` on the union pattern (zero where it has none).
    """
    n = mats[0].shape[0]
    coos = [m.tocoo() for m in mats]
    keys = np.concatenate([c.row.astype(np.int64) * n + c.col for c in coos])
    uniq, inv = np.unique(keys, return_inverse=True)
    vals = np.zeros((len(mats), uniq.size))
    start = 0
    for t, c in enumerate(coos):
        np.add.at(vals[t], inv[start:start + c.nnz], c.data)
        start += c.nnz
    indptr = np.searchsorted(uniq // n, np.arange(n + 1))
    return indptr, uniq % n, vals


def _assemble(terms, shape, n) -> sp.csr_matrix:
    """CSR matrix of sum_t c_t X_t (x) S_t, X_t the x factor and S_t the
    section factor of term t.

    The pattern is the Kronecker product of the per-slot union patterns.
    Block row i of the x slot is filled at once: its x-entries e combine
    the terms into p = nnz(row i) blocks V_e = sum_t c_t X_t[e] S_t on the
    union pattern of the S_t, which one precomputed gather per p
    interleaves into CSR row order.  No full-size temporary beyond the
    output arrays is made.
    """
    xptr, xcol, xval = _union([mats[0] for _, mats in terms])
    xval = xval * np.array([c for c, _ in terms])[:, None]
    uptr, ucol, uval = _union([mats[1] for _, mats in terms])
    m = shape[1]
    nnz_u = ucol.size
    ulen = np.diff(uptr)
    plen = np.diff(xptr)
    nnz = int(plen.sum()) * nnz_u
    itype = np.int32 if max(nnz, n) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.multiply.outer(plen, ulen).ravel(), out=indptr[1:])
    indices = np.empty(nnz, dtype=itype)
    data = np.empty(nnz)
    urow = np.repeat(np.arange(m), ulen)
    ucol = ucol.astype(itype)
    gathers = {}
    for i in range(shape[0]):
        e0, e1 = xptr[i], xptr[i + 1]
        p = e1 - e0
        if p == 0:
            continue
        g = gathers.get(p)
        if g is None:
            # flat (e, u) position ordered by (CSR row of u, e, u)
            key = (urow * p)[None, :] + np.arange(p)[:, None]
            g = gathers[p] = np.argsort(key.ravel(), kind="stable")
        o0 = indptr[i * m]
        o1 = o0 + p * nnz_u
        data[o0:o1] = (xval[:, e0:e1].T @ uval).ravel()[g]
        cols = xcol[e0:e1, None].astype(itype) * m + ucol
        indices[o0:o1] = cols.ravel()[g]
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    A.has_canonical_format = True
    return A


class KronOp:
    """Sum of x (x) section Kronecker terms, assembled once.

    ``terms`` is a list of ``(coeff, (X, S))`` with X the square factor of
    the x slot and S that of the section slot (row index runs over x
    slowest); ``shape`` is the slot pair and ``n`` the order.  The terms
    are kept as given; ``matrix`` is their sum as one CSR matrix, so an
    apply (``op @ X``) is a single sparse product.
    """

    def __init__(self, terms, shape):
        self.shape, self.terms = _kron_terms(terms, shape)
        self.n = int(np.prod(self.shape))

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The terms summed into one CSR matrix, built on first use."""
        return _assemble(self.terms, self.shape, self.n)

    @functools.cached_property
    def half_bandwidth(self) -> int:
        """Largest |i - j| over the stored entries of ``matrix``, read
        from the factors: an x offset moves the row index by the section
        order m, so the term X (x) S reaches bw(X) m + bw(S)."""
        m = self.shape[1]
        return max(_csr_bandwidth(X) * m + _csr_bandwidth(S)
                   for _, (X, S) in self.terms)

    def matmat(self, X):
        return self.matrix @ np.asarray(X, dtype=float)

    def __matmul__(self, X):
        return self.matmat(X)

    def diagonal(self):
        return self.matrix.diagonal()

    def toarray(self):
        return self.matrix.toarray()


class MassKron(KronOp):
    """Single Kronecker product of mass factors: a one-term KronOp,
    applied, densified and banded through the same assembled CSR matrix
    as the stiffness."""

    def __init__(self, mats, shape):
        super().__init__([(1.0, mats)], shape)


@dataclass(frozen=True)
class FactorSpectral:
    """Generalized eigenpairs of one 1-D factor pencil (K_f, M_f).

    ``lam`` are the eigenvalues; the M-orthonormal eigenvector matrix V
    is either stored densely or realized as a fast transform:

    * ``kind='dst'``: interior sine modes of a Dirichlet-Dirichlet chain,
      V[i, j] = sin(pi (i+1)(j+1) / n) / nrm_j  (symmetric up to scaling);
    * ``kind='dct'``: half-shift cosine modes of a Neumann-Dirichlet
      chain, V[i, j] = cos(pi (j+1/2) i / n) / nrm_j;
    * ``kind='dense'``: explicit V with V^T M V = I.
    """

    lam: np.ndarray
    kind: str
    nrm: np.ndarray | None = None
    V: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("dst", "dct", "dense"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "dense" and self.V is None:
            raise ValueError("dense factor needs its eigenvector matrix")
        if self.kind in ("dst", "dct") and self.nrm is None:
            raise ValueError("transform factor needs M-norm scalings")

    @property
    def m(self) -> int:
        return self.lam.shape[0]

    def apply_adjoint(self, T: np.ndarray, axis: int) -> np.ndarray:
        """V^T along ``axis`` (coefficient extraction)."""
        if self.kind == "dst":
            out = dst(T, type=1, axis=axis) * 0.5
        elif self.kind == "dct":
            first = np.take(T, [0], axis=axis)
            out = (dct(T, type=3, axis=axis) + first) * 0.5
        else:
            return self._dense(T, axis, trans=True)
        return out / _expand(self.nrm, T.ndim, axis)

    def apply(self, T: np.ndarray, axis: int) -> np.ndarray:
        """V along ``axis`` (synthesis from coefficients)."""
        if self.kind == "dense":
            return self._dense(T, axis, trans=False)
        T = T / _expand(self.nrm, T.ndim, axis)
        if self.kind == "dst":
            return dst(T, type=1, axis=axis) * 0.5
        return dct(T, type=2, axis=axis) * 0.5

    def _dense(self, T, axis, trans):
        """V (V^T when ``trans``) along ``axis`` as one GEMM on the
        (m, rows) column-major view of T with that axis last: a view when
        it is the last axis of a row-major T, a copy otherwise."""
        T = np.moveaxis(T, axis, -1)
        out = _gemm(self.V, T.reshape(-1, self.m).T, trans_a=trans)
        return np.moveaxis(out.T.reshape(T.shape), -1, axis)


def _expand(v: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = v.shape[0]
    return v.reshape(shape)


class TensorPrecond:
    """Exact inverse of the separable part sum_f c_f (I x K_f x I) - sigma M.

    ``factors`` pairs a coefficient with the FactorSpectral of each slot;
    the grid of separable eigenvalues is sum_f c_f lam_f broadcast over
    the tensor grid.  The shift is clamped strictly below the smallest
    separable eigenvalue so the inverse stays positive definite (shear
    binding always pulls the target below that minimum).
    """

    def __init__(self, factors):
        self.factors = [(float(c), f) for c, f in factors]
        self.shape = tuple(f.m for _, f in self.factors)
        lam = np.zeros(self.shape)
        for axis, (c, f) in enumerate(self.factors):
            lam = lam + c * _expand(f.lam, len(self.shape), axis)
        self.lam_grid = lam
        self.lam_min = float(lam.min())

    def __call__(self, R: np.ndarray, sigma: float) -> np.ndarray:
        # the grid is read through R^T, batch axis first: a view of block
        # CG's column-major blocks, on which every transform runs
        # row-major, a dense section factor (the last slot) as one GEMM,
        # and the result is column-major again.  The rectangle pencils'
        # DST/DCT run faster so too: the reduced2d 2448 x 255 apply took
        # 344-363 ms against 348-501 ms on the x-major grid (2 cores)
        b = R.shape[1]
        T = R.T.reshape(b, *self.shape)
        for axis, (_, f) in enumerate(self.factors, start=1):
            T = f.apply_adjoint(T, axis)
        sig = min(sigma, self.lam_min - max(1e-3 * abs(self.lam_min), 1e-12))
        T = T / (self.lam_grid - sig)
        for axis, (_, f) in enumerate(self.factors, start=1):
            T = f.apply(T, axis)
        return T.reshape(b, -1).T


class JacobiPrecond:
    """Shifted diagonal scaling; the fallback when no structure is known."""

    def __init__(self, diag: np.ndarray):
        self.diag = np.asarray(diag, dtype=float)
        if np.all(self.diag == 0.0):
            raise ValueError("zero diagonal cannot precondition")

    def __call__(self, R: np.ndarray, sigma: float) -> np.ndarray:
        d = self.diag - sigma
        floor = 1e-6 * np.abs(self.diag).max() + 1e-300
        d = np.where(d > floor, d, floor)
        return R / d[:, None]


class SpluPrecond:
    """Sparse LU of (A - shift M), for masks and other unstructured forms."""

    def __init__(self, A, M=None, shift: float = 0.0):
        A = sp.csc_matrix(A)
        if shift != 0.0:
            if M is None:
                M = sp.identity(A.shape[0], format="csc")
            A = (A - shift * sp.csc_matrix(M)).tocsc()
        self._lu = splu(A)

    def __call__(self, R: np.ndarray, sigma: float) -> np.ndarray:
        return self._lu.solve(R)


def _order(op) -> int:
    """Order of a square pencil operand: ``n`` of a KronOp, whose
    ``shape`` is its slot tuple; the row count of a matrix."""
    if isinstance(op, KronOp):
        return op.n
    if len(op.shape) != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    return op.shape[0]


def materialize(op) -> np.ndarray:
    """Dense matrix of a pencil operand; for tests and small direct solves."""
    return np.asarray(op) if isinstance(op, np.ndarray) else op.toarray()


@dataclass(frozen=True)
class EigOptions:
    k: int = 1
    tol: float = 1e-9
    maxit: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        # the residual test is relative to |theta|: a tolerance of 1 or
        # more can pass a random start block as converged
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.maxit < 0:
            raise ValueError(f"maxit must be nonnegative, got {self.maxit}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class EigResult:
    theta: np.ndarray          # k requested Ritz values, ascending
    vectors: np.ndarray        # (n, k), M-orthonormal
    converged: np.ndarray      # per-pair flags for the requested k
    # block-CG iterations; for a factored solve the Lanczos operator
    # applies, each one M product and two band triangular solves
    iterations: int
    # A block applies, each paired with one M apply: the start block,
    # one per iteration, one per convergence confirmation
    matmats: int
    residuals: np.ndarray      # ||A x - theta M x||_2 per requested pair,
                               # from freshly applied products
    solver: str                # "dense", "block_cg" or "shift_invert"
    shift: float | None = None  # sigma of a factored solve, certified
                                # below the spectrum by its Cholesky

    @property
    def ok(self) -> bool:
        return bool(self.converged.all())


class SolverError(RuntimeError):
    pass


def _syevd(H: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetric H, by
    scipy's LAPACK like every dense factorization here, on the one BLAS
    pool that ``_gemm`` uses too: numpy's bundles a second pool, and
    alternating the two costs ms per call on small blocks."""
    w, V, info = sla.lapack.dsyevd(H)
    if info:
        raise SolverError(f"dsyevd failed with info {info}")
    return w, V


def _whiten(G: np.ndarray) -> np.ndarray:
    """Coefficients T with T^T G T = I for the Gram matrix G of a block.

    Columns are scaled to unit diagonal first; directions whose scaled
    Gram eigenvalue falls below 1e-12 of the largest are dropped as
    dependent, so T may have fewer columns than G.
    """
    d = np.diag(G)
    if np.any(d < 0.0):
        raise SolverError("mass operator is not positive definite on the block")
    s = np.zeros_like(d)
    s[d > 0.0] = 1.0 / np.sqrt(d[d > 0.0])
    Gs = s[:, None] * G * s[None, :]
    w, Q = _syevd(0.5 * (Gs + Gs.T))
    if w.max() <= 0.0:
        raise SolverError("search block collapsed to the zero subspace")
    if w.min() < -1e-10 * w.max():
        # genuinely negative directions, not just dependent columns
        raise SolverError("mass operator is not positive definite on the block")
    keep = w > w.max() * 1e-12
    return s[:, None] * (Q[:, keep] / np.sqrt(w[keep]))


def _rayleigh_ritz(GA: np.ndarray, GM: np.ndarray, bs: int):
    """Ritz values and coefficients C (C^T GM C = I) of the small pencil."""
    T = _whiten(GM)
    if T.shape[1] < bs:
        raise SolverError("search block lost rank below the block size")
    H = T.T @ GA @ T
    theta, Z = _syevd(0.5 * (H + H.T))
    return theta, T @ Z


def _settled(theta: np.ndarray, rn: np.ndarray, k: int, tol: float) -> bool:
    """Whether the lowest k pairs meet ||Ax - theta Mx|| <= tol |theta|.

    Pairs beyond k that are nearly degenerate with theta[k-1] must
    settle too, or the requested values can still drift.
    """
    need = k
    while need < theta.size - 1 and theta[need] - theta[k - 1] <= \
            1e-6 * max(1.0, abs(theta[k - 1])):
        need += 1
    scale = np.maximum(np.abs(theta[:need]), 1e-300)
    return bool(np.all(rn[:need] <= tol * scale))


def smallest_eigenpairs(A, M=None, opts: EigOptions | None = None,
                        precond=None) -> EigResult:
    """Lowest-k generalized eigenpairs of (A, M) by preconditioned block CG.

    Each iteration applies A and M once, to the preconditioned residual
    block W only.  The products AX, MX, AP and MP are carried through
    every change of basis (Hetmaniuk & Lehoucq 2006; Duersch et al.
    2018), and the Rayleigh-Ritz problem on [X P W] is built from the
    Gram matrices against the carried products, so a rounding drift in
    them is seen by the next projection instead of accumulating in an
    assumed orthonormality.  Convergence is only ever certified on
    freshly applied AX and MX.

    [X P W] and its A and M products live in column-major n x 3 bs
    workspaces, X in the first bs columns, P (from 0 to bs columns) after
    it and W after P.  Each Gram matrix is then one product of contiguous
    column blocks, W is M-orthogonalized against [X P] in two, and the
    basis change writes the next X and P into the second set of
    workspaces; the two sets alternate.

    Deterministic for a fixed seed.  Ritz values are always upper bounds
    for the corresponding exact eigenvalues (min-max over the current
    subspace), converged or not; `converged` reports which pairs met the
    relative residual tolerance.
    """
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

    # two sets of [X P W], [AX AP AW], [MX MP MW]
    sets = [[np.empty((n, 3 * bs), order="F") for _ in range(3)]
            for _ in range(2)]

    def ritz(X, AX, MX):
        """Ritz values of X on fresh products; X and the products are
        overwritten with its Rayleigh-Ritz rotation, read from X and the
        products in the first bs columns of the other set."""
        T, AT, MT = (a[:, :bs] for a in sets[1])
        T[:] = X
        AT[:] = A @ X
        MT[:] = M @ X
        theta, C = _rayleigh_ritz(_gemm(T, AT, trans_a=True),
                                  _gemm(T, MT, trans_a=True), bs)
        C = C[:, :bs]
        for src, dst in ((T, X), (AT, AX), (MT, MX)):
            _gemm(src, C, out=dst)
        return theta[:bs]

    S, AS, MS = sets[0]
    S[:, :bs] = np.random.default_rng(opts.seed).standard_normal((n, bs))
    theta = ritz(S[:, :bs], AS[:, :bs], MS[:, :bs])
    nmat = 1
    p = 0   # the width of P
    it = 0
    while True:
        X, AX, MX = S[:, :bs], AS[:, :bs], MS[:, :bs]
        R = AX - MX * theta
        rn = np.linalg.norm(R, axis=0)
        if it == opts.maxit or _settled(theta, rn, k, opts.tol):
            # the carried products drift by rounding; only fresh ones
            # may certify convergence
            theta = ritz(X, AX, MX)
            nmat += 1
            R = AX - MX * theta
            rn = np.linalg.norm(R, axis=0)
            if it == opts.maxit or _settled(theta, rn, k, opts.tol):
                conv = rn[:k] <= opts.tol * np.maximum(np.abs(theta[:k]),
                                                       1e-300)
                return EigResult(theta[:k].copy(), X[:, :k].copy(), conv,
                                 it, nmat, rn[:k].copy(), "block_cg")
        xp, m = bs + p, 2 * bs + p
        W = S[:, xp:m]
        W[:] = precond(R, float(theta[0]))
        # M-orthogonal to [X P] before the apply: the Gram matrix of
        # [X P W] stays near the identity, so the basis change below
        # amplifies no rounding in the carried products
        _gemm(S[:, :xp], _gemm(MS[:, :xp], W, trans_a=True), out=W,
              alpha=-1.0, beta=1.0)
        AS[:, xp:m] = A @ W
        MS[:, xp:m] = M @ W
        nmat += 1
        GM = _gemm(S[:, :m], MS[:, :m], trans_a=True)
        ths, C = _rayleigh_ritz(_gemm(S[:, :m], AS[:, :m], trans_a=True),
                                GM, bs)
        theta = ths[:bs]
        Cx = C[:, :bs]
        Cp = Cx.copy()
        Cp[:bs] = 0.0   # new directions only, M-orthogonal to the new X
        Cp -= Cx @ (Cx.T @ GM @ Cp)
        try:
            Cp = Cp @ _whiten(Cp.T @ GM @ Cp)
        except SolverError:
            Cp = Cp[:, :0]
        # one product per carried array gives both the new X and P,
        # written into the other set
        Cxp = np.hstack([Cx, Cp])
        p = Cp.shape[1]
        for cur, nxt in zip(*sets):
            _gemm(cur[:, :m], Cxp, out=nxt[:, :bs + p])
        sets.reverse()
        S, AS, MS = sets[0]
        it += 1


def _csr(op) -> sp.csr_matrix:
    """The CSR matrix behind a sparse or KronOp pencil operand."""
    return op.matrix if isinstance(op, KronOp) else sp.csr_matrix(op)


def _half_bandwidth(op) -> int | None:
    """Largest |i - j| over the nonzeros of a pencil operand: a KronOp's
    from its factors, a bare sparse matrix's by a scan; None for an
    operand with no sparse matrix."""
    if isinstance(op, KronOp):
        return op.half_bandwidth
    if sp.issparse(op):
        return _csr_bandwidth(sp.csr_matrix(op))
    return None


def _band_pencil(A, M, bs: int):
    """``(A, M, kd)``, the operands as CSR matrices and their
    half-bandwidth, when the pencil is to be factored; None otherwise.

    An operator form is factored when its band Cholesky, n (kd + 1)
    doubles, is no larger than the _CG_ARRAYS n x bs arrays block CG
    would hold.  A bare sparse matrix (a section or triangle pencil) is
    factored at any bandwidth: block CG has no preconditioner for it but
    Jacobi, under which its iterations grow with the mesh.
    """
    kds = (_half_bandwidth(A), _half_bandwidth(M))
    if None in kds:
        return None
    if not sp.issparse(A) and max(kds) + 1 > _CG_ARRAYS * bs:
        return None
    return _csr(A), _csr(M), max(kds)


def _shifted(A, M, sigma: float) -> sp.csr_matrix:
    """A - sigma M as a canonical CSR matrix."""
    S = A - sigma * M
    S.sum_duplicates()
    return S


def _lower_band(S: sp.csr_matrix, kd: int) -> np.ndarray:
    """Symmetric S in LAPACK lower band storage, ab[i - j, j] = S[i, j];
    column-major, so LAPACK factors it in place."""
    n = S.shape[0]
    cols = S.indices
    # i - j of every stored entry, read from the CSR arrays in place
    off = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(S.indptr))
    off -= cols
    low = off >= 0
    ab = np.zeros((kd + 1, n), order="F")
    ab[off[low], cols[low]] = S.data[low]
    return ab


def _band_cholesky(A, M, kd: int, sigma: float) -> np.ndarray | None:
    """Band Cholesky factor of A - sigma M, or None when that matrix is not
    positive definite, i.e. sigma is not below every eigenvalue."""
    try:
        return sla.cholesky_banded(_lower_band(_shifted(A, M, sigma), kd),
                                   overwrite_ab=True, lower=True,
                                   check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _band_solve(chol: np.ndarray, B: np.ndarray, trans: str) -> np.ndarray:
    """L^-1 B (``trans='N'``) or L^-T B (``'T'``) for the lower band
    Cholesky factor L of ``_band_cholesky``."""
    X, info = sla.lapack.dtbtrs(chol, B, uplo="L", trans=trans)
    if info:
        raise SolverError(f"dtbtrs failed with info {info}")
    return X


def _negative_count(S: sp.csr_matrix, kd: int) -> int:
    """Negative eigenvalues of the symmetric S of half-bandwidth kd, by a
    block LDL^T whose positive definite stretches are band Cholesky.

    The inertia of S is that of a leading block plus that of its Schur
    complement (Sylvester, Haynsworth).  The band Cholesky (``pbtrf``)
    factors the leading positive definite stretch in one call.  Where it
    meets a pivot at row f that is not positive, eliminating the rows
    before f changes only the kd x kd block B at f, by X^T X with
    X = L_t^-1 C^T (L_t the last block of the factor, C the coupling of
    B's rows to the kd rows before f).  B holds the non-positive pivot, so
    its Cholesky would fail: it is decomposed densely, its negative
    eigenvalues are counted, and the block after it, corrected by
    C2 B^-1 C2^T, starts the next stretch.
    """
    n = S.shape[0]
    neg = 0
    start = 0
    E = np.zeros((0, 0))   # correction to the leading block of the stretch

    def block(r0, r1, c0, c1):
        """Rows r0:r1, columns c0:c1 of the corrected stretch, dense."""
        out = S[start + r0:start + r1, start + c0:start + c1].toarray()
        e = E.shape[0]
        out[:max(0, min(r1, e) - r0), :max(0, min(c1, e) - c0)] -= \
            E[r0:min(r1, e), c0:min(c1, e)]
        return out

    while True:
        L = _lower_band(S[start:, start:] if start else S, kd)
        i, j = np.tril_indices(E.shape[0])
        L[i - j, j] -= E[i, j]
        L, info = sla.lapack.dpbtrf(L, lower=1, overwrite_ab=1)
        if info == 0:
            return neg
        size = n - start
        f = info - 1
        m = min(kd, size - f)
        B = block(f, f + m, f, f + m)
        t = max(0, f - kd)
        if f > t:
            i, j = np.tril_indices(f - t)
            Lt = np.zeros((f - t, f - t))
            Lt[i, j] = L[i - j, t + j]
            X = sla.solve_triangular(Lt, block(f, f + m, t, f).T, lower=True)
            B -= X.T @ X
        del L   # the next stretch is factored in a fresh band
        w, V = _syevd(B)
        neg += int(np.count_nonzero(w < 0.0))
        nxt = f + m
        if nxt == size:
            return neg
        # B is a full kd block here (m = kd <= nxt), so the old correction
        # lies behind and the next stretch starts with the new one only
        Y = V.T @ block(nxt, nxt + min(kd, size - nxt), f, nxt).T
        E = Y.T @ (Y / w[:, None])
        start += nxt


def _shift_invert(A, M, band, k: int, opts: EigOptions,
                  sigma: float) -> EigResult | None:
    """The factored branch of ``lowest_eigenpairs`` on ``band``, the
    ``_band_pencil`` of (A, M); None when no shift of the back-off
    factors."""
    Ac, Mc, kd = band
    n = Ac.shape[0]
    # back off from a sigma that is not below the spectrum by
    # sigma (1 - 2^-j), j = 4, 3, 2, 1, down to 0 at j = 0
    for shift in dict.fromkeys([float(sigma)] + [
            sigma * (1.0 - 0.5 ** j) for j in (4, 3, 2, 1, 0)]):
        chol = _band_cholesky(Ac, Mc, kd, shift)
        if chol is not None:
            break
    else:
        return None
    applies = 0

    def op(y):
        """C y for C = L^-1 M L^-T, whose largest eigenvalues are
        1 / (theta - shift) for the lowest theta."""
        nonlocal applies
        applies += 1
        y = y.reshape(n, -1)
        return _band_solve(chol, Mc @ _band_solve(chol, y, "T"), "N")

    v0 = np.random.default_rng(opts.seed).standard_normal(n)
    mu, Y = eigsh(LinearOperator((n, n), matvec=op, dtype=float), k=k,
                  which="LA", v0=v0, tol=opts.tol)
    theta = shift + 1.0 / mu
    order = np.argsort(theta)
    theta = theta[order]
    V = _band_solve(chol, Y[:, order], "T")
    MV = M @ V
    norm = np.sqrt(np.einsum("ij,ij->j", V, MV))
    V /= norm
    MV /= norm
    return _direct_result(A, theta, V, MV, applies, "shift_invert", shift)


def _direct_result(A, theta, V, MV, applies, solver, shift) -> EigResult:
    """EigResult of a dense or factored solve, every pair converged, with
    residuals from fresh applies (MV = M V)."""
    res = np.linalg.norm(A @ V - MV * theta, axis=0)
    return EigResult(theta, V, np.ones(theta.size, dtype=bool), applies, 0,
                     res, solver, shift)


def lowest_eigenpairs(A, M, k: int | None, opts: EigOptions | None = None,
                      precond=None, *, sigma: float = 0.0) -> EigResult:
    """Lowest ``k`` generalized eigenpairs of (A, M), by the one rule.

    Order up to DENSE_N, or the full eigenbasis (``k`` None or the
    order): dense ``eigh``.  Above it, a pencil that ``_band_pencil``
    selects is factored at ``sigma``: a Cholesky L L^T = A - sigma M
    that succeeds proves sigma lies below the spectrum.  A sigma that is not below it
    backs off to sigma (1 - 2^-j), j = 4, 3, 2, 1, and then to 0, each
    step certified by its own factorization.  Lanczos in standard form
    on C = L^-1 M L^-T, from a start vector seeded by ``opts.seed``,
    returns the k largest eigenvalues mu of C, each stopped by ARPACK's
    test ||C y - mu y|| <= ``opts.tol`` |mu|, which certifies
    ``converged``: theta = shift + 1 / mu are the lowest k, and
    x = L^-T y, M-normalized, their vectors; ``iterations`` counts the
    applies of C.  Dense solves run to machine precision.  Both branches
    run on one BLAS thread (``_ONE_BLAS_THREAD``).  Any other pencil, or
    one whose A is not positive definite, goes to ``smallest_eigenpairs``
    with ``precond``, on the caller's BLAS pool.  Direct solves report
    residuals from fresh applies; ``solver`` records the branch taken and
    ``shift`` the certified sigma.
    """
    opts = opts or EigOptions()
    n = _order(A)
    if M is None:
        M = sp.identity(n, format="csr")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if k is None or k == n or n <= DENSE_N:
        with _ONE_BLAS_THREAD:
            theta, V = sla.eigh(materialize(A), materialize(M),
                                subset_by_index=None if k is None
                                else [0, k - 1])
            return _direct_result(A, theta, V, M @ V, 0, "dense", None)
    band = _band_pencil(A, M, min(k + 3, n))
    if band is not None:
        with _ONE_BLAS_THREAD:
            res = _shift_invert(A, M, band, k, opts, sigma)
        if res is not None:
            return res
    return smallest_eigenpairs(A, M, dataclasses.replace(opts, k=k), precond)


@dataclass
class CountResult:
    count: int
    boundary: bool             # some eigenvalue inside the safety band
    # smallest converged value above T, minus T; inf for an inertia
    # count, which sees every eigenvalue
    clearance: float
    result: EigResult | None   # the block solve; None for an inertia count
    # negative eigenvalues of A - (T -/+ safety) M, for an inertia count
    inertia: tuple[int, int] | None = None

    @property
    def reliable(self) -> bool:
        return ((not self.boundary) and self.clearance > 0
                and (self.result is None or self.result.ok))


def count_below(A, M, threshold: float, safety: float,
                opts: EigOptions | None = None, precond=None) -> CountResult:
    """Count eigenvalues certified below ``threshold - safety``.

    A pencil that ``_band_pencil`` selects, at any order, is counted
    exactly by the inertia of A - (T - s) M; ``boundary`` is set when the
    inertia at T + s differs.  Otherwise Ritz values bound eigenvalues
    from above, so a converged value under the band certifies one
    eigenvalue there.  From ``opts.k`` pairs (no floor: the ladder passes
    max(k, 4)) the block doubles, one ``lowest_eigenpairs`` solve a step,
    up to _KMAX pairs, until a converged value clears ``threshold +
    safety``, so the count cannot be truncated by a too-small search space.
    """
    if safety < 0:
        raise ValueError(f"safety band must be nonnegative, got {safety}")
    n = _order(A)
    if M is None:
        M = sp.identity(n, format="csr")
    base = opts or EigOptions()
    k = base.k
    band = _band_pencil(A, M, min(k + 3, n))
    if band is not None:
        Ac, Mc, kd = band
        with _ONE_BLAS_THREAD:
            below = _negative_count(_shifted(Ac, Mc, threshold - safety), kd)
            above = below if safety == 0 else _negative_count(
                _shifted(Ac, Mc, threshold + safety), kd)
        return CountResult(below, above != below, math.inf, None,
                           (below, above))
    while True:
        k = min(k, n)
        res = lowest_eigenpairs(A, M, k, base, precond)
        th = res.theta[res.converged]
        above = th[th >= threshold + safety]
        if above.size or k >= min(_KMAX, n):
            break
        k = min(2 * k, _KMAX, n)
    count = int(np.count_nonzero(th < threshold - safety))
    boundary = bool(np.any(np.abs(res.theta - threshold) <= safety)
                    or not res.ok)
    clearance = float(above.min() - threshold) if above.size else -np.inf
    return CountResult(count, boundary, clearance, res)
