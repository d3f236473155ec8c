"""Block eigensolver core: operators, preconditioners, LOBPCG, counting.

Everything downstream reduces to the generalized pencil (A, M) with A
symmetric and M symmetric positive definite; every solve and count is
given both.  A pencil operand is a scipy sparse matrix, a ``KronOp`` or a
dense ndarray, applied with ``@``, with no wrapper around it.  A
waveguide form's A is a sum of Kronecker products of an x factor and a
section factor, and its M a single one (``MassKron``, a one-term
``KronOp``); each is assembled once into one CSR matrix, so that an
apply is a single sparse product.  The solver is a locally optimal block
preconditioned CG iteration with an [X P W] Rayleigh-Ritz space that
applies A and M once each per iteration, carries the products of X and
P, and stops each pair when a Kato-Temple bound puts its value within
the tolerance (``_settled``).  The space and its products live in two
alternating sets of column-major n x 3 bs workspaces, so that each Gram
matrix and each basis change is one matrix product.  Preconditioning
inverts the separable part of A exactly through per-factor eigenbases,
which for uniform grids are plain sine/cosine transforms.

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
(Sylvester's law with Haynsworth additivity), and is the one place that
tells such a pencil from the others.  Every other pencil goes to block
CG.  For x-major half-guide forms the half-bandwidth is about the
section order, so the planar (reduced2d) forms and small 3-D sections are
factored and large 3-D sections iterate.

A factored pencil never has A or A - sigma M in CSR (``_BandPencil``):
the LAPACK band of A - sigma M is built straight from the Kronecker
factors, band row dx m + os of X (x) S being the outer product of X's
dx-th and S's os-th lower diagonal, and the residuals apply A term by
term from the same factors; only M is assembled, for the Lanczos
products.  A bare pencil is the one-node x slot.  (``dsbmv`` on the band
would read all kd + 1 rows where a reduced2d band holds 5: 1.0 ms per
vector at order 9920 and kd 257.)  The half-bandwidth kd is read off the
factors, so the band holds every entry, and a pencil bound for block CG
is never built.  The inertia count factors the band in reversed order,
so that its first non-positive pivot falls at the far end, away from
the bend at x = 0, and little is left to factor after it.  A count with a
safety band s factors once, at T + s, and stays open until
``CountResult.settle`` closes it at T - s: Ritz values bound eigenvalues
from above, so the caller's solved values usually settle it with no
second factorization (``waveguide`` settles its top rung so); when they
do not, the same band pencil is counted again.  On the strip
benchmark's top rung (n 9920, kd 32) the band took 0.6-0.7 ms from the
factors, 1.0-1.1 ms with the factors' patterns, against 3.4-3.9 ms from
the CSR matrices and 3.2-4.3 ms more to assemble A; M took 0.7-1.0 ms
to assemble against 2.7-2.9 ms (medians of 40 calls, three alternating
runs, 2 cores).
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

# entries of the temporaries that fill one chunk of x nodes, in
# ``_assemble`` and in the band builder: small enough to stay in cache
_CHUNK = 2 ** 15


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


def _union(mats):
    """Shared sorted CSR pattern of the CSR matrices ``mats`` and each
    one's values on it.

    Returns ``(indptr, indices, vals)`` with ``vals[t]`` the entries of
    ``mats[t]`` on the union pattern (zero where it has none).  The
    entry keys i n + j are read from the CSR arrays in place, with no
    sparse format conversion: one sort finds the union, and each
    matrix's values land on it by one ``bincount``.
    """
    n = mats[0].shape[0]
    keys = [np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr)) * n
            + m.indices[:m.indptr[-1]] for m in mats]
    uniq, at = np.unique(np.concatenate(keys), return_inverse=True)
    vals = np.empty((len(mats), uniq.size))
    start = 0
    for t, m in enumerate(mats):
        stop = start + m.indptr[-1]
        vals[t] = np.bincount(at[start:stop], weights=m.data[:m.indptr[-1]],
                              minlength=uniq.size)
        start = stop
    indptr = np.searchsorted(uniq, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, uniq % n, vals


def _assemble(terms, shape, n) -> sp.csr_matrix:
    """CSR matrix of sum_t c_t X_t (x) S_t, X_t the x factor and S_t the
    section factor of term t.

    The pattern is the Kronecker product of the per-slot union patterns.
    Block row i of the x slot holds p = nnz(row i) blocks V_e = sum_t
    c_t X_t[e] S_t on the union pattern of the S_t, which one
    precomputed gather interleaves into CSR row order.  Runs of block
    rows with the same p are filled together, in chunks of about _CHUNK
    entries: one GEMM over the terms and one gather per chunk.  (The
    L-mask benchmark's top-rung mass took 1.8-2.0 ms in chunks,
    2.8-4.6 ms one row at a time and 8.3-9.1 ms one run at a time;
    medians of 30 calls, two runs, 2 cores.)
    """
    xptr, xcol, xval = _union([mats[0] for _, mats in terms])
    xval = xval * np.array([c for c, _ in terms])[:, None]
    uptr, ucol, uval = _union([mats[1] for _, mats in terms])
    uval = np.asfortranarray(uval)
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
    runs = np.concatenate([[0], np.flatnonzero(np.diff(plen)) + 1,
                           [shape[0]]])
    gathers = {}
    for i0, i1 in zip(runs[:-1], runs[1:]):
        p = int(plen[i0])
        if p == 0:
            continue
        step = max(1, _CHUNK // (p * nnz_u))
        for c0 in range(i0, i1, step):
            c1 = min(c0 + step, i1)
            g = gathers.get((p, c1 - c0))
            if g is None:
                # flat (row, e, u) position ordered by (row, CSR row of
                # u, e, u)
                key = (urow * p)[None, :] + np.arange(p)[:, None]
                g = np.argsort(key.ravel(), kind="stable")
                g = gathers[p, c1 - c0] = (
                    g + p * nnz_u * np.arange(c1 - c0)[:, None]).ravel()
            e0, e1 = xptr[c0], xptr[c1]
            o0, o1 = indptr[c0 * m], indptr[c1 * m]
            # (nnz_u, rows p) column-major: in memory, the row-major
            # (rows p, nnz_u) blocks of the chunk
            vals = _gemm(uval, np.asfortranarray(xval[:, e0:e1]),
                         trans_a=True)
            np.take(vals.ravel(order="F"), g, out=data[o0:o1], mode="clip")
            cols = xcol[e0:e1, None].astype(itype) * m + ucol
            np.take(cols.ravel(), g, out=indices[o0:o1], mode="clip")
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
        # the stopping tests are relative to |theta|: a tolerance of 1 or
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
    # sqrt(8) ||A x - theta M x||_D per requested pair, of fresh
    # products: a bound on theta's distance to the spectrum at every
    # length scale (``_MASS_BOUND``); the CSV ``residual`` column
    residuals: np.ndarray
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


# 2^d for d <= 3: the eigenvalues of diag(M)^-1 M of a P1 or Q1 mass
# matrix lie in [2^-d, (3/2)^d] (Wathen 1987), and a mask's mass is a
# principal submatrix of its box's, so ||r||_{M^-1}^2 <= 8 ||r||_D^2 for
# ||r||_D^2 = sum_i r_i^2 / M_ii, at every mesh and length scale
_MASS_BOUND = 8.0


def _residual_bound(R: np.ndarray, dinv: np.ndarray) -> np.ndarray:
    """sqrt(8) ||r||_D per column r of R (``_MASS_BOUND``), for ``dinv``
    = 1 / diag(M).  numpy's own sum-of-products loop, with no temporary
    and no BLAS pool: numpy's ``@`` would wake its own."""
    return np.sqrt(_MASS_BOUND * np.einsum("ij,ij,i->j", R, R, dinv))


def _settled(theta: np.ndarray, res: np.ndarray, k: int,
             tol: float) -> np.ndarray:
    """Per pair, whether its Ritz value is accurate to tol |theta|, for
    the lowest k pairs and the pairs beyond k that are nearly degenerate
    with theta[k-1] (else the requested values can still drift).

    ``res`` holds the residual bounds (``_residual_bound``).  Pair j
    passes the Kato-Temple test res_j^2 <= tol |theta_j| delta_j,
    delta_j the distance from theta_j to the next Ritz value outside its
    cluster (consecutive values within 1e-6 |theta| of each other).  A
    pair whose cluster reaches the end of the block has no such gap and
    passes on res_j <= tol |theta_j|.
    """
    bs = theta.size
    # split[i]: a cluster ends at i, and theta[i + 1] opens the next
    split = np.diff(theta) > 1e-6 * np.abs(theta[:-1])
    need = k
    while need < bs - 1 and not split[need - 1]:
        need += 1
    above = np.full(bs, np.nan)   # the first value above each cluster
    for j in range(bs - 2, -1, -1):
        above[j] = theta[j + 1] if split[j] else above[j + 1]
    scale = tol * np.abs(theta[:need])
    bound = res[:need] ** 2
    gap = above[:need] - theta[:need]
    return np.where(np.isnan(gap), bound <= scale * scale,
                    bound <= scale * gap)


def smallest_eigenpairs(A, M, opts: EigOptions | None = None,
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
    subspace), converged or not; `converged` reports which pairs met
    ``_settled``'s test, a Kato-Temple bound of tol |theta| on the error
    of their value, on the fresh products.
    """
    opts = opts or EigOptions()
    n = _order(A)
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
    d = M.diagonal()
    if not np.all(d > 0.0):
        raise SolverError("mass operator is not positive definite")
    dinv = 1.0 / d

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
        ok = _settled(theta, _residual_bound(R, dinv), k, opts.tol)
        if it == opts.maxit or ok.all():
            # the carried products drift by rounding; only fresh ones
            # may certify convergence
            theta = ritz(X, AX, MX)
            nmat += 1
            R = AX - MX * theta
            ok = _settled(theta, _residual_bound(R, dinv), k, opts.tol)
            if it == opts.maxit or ok.all():
                return EigResult(theta[:k].copy(), X[:, :k].copy(), ok[:k],
                                 it, nmat, _residual_bound(R[:, :k], dinv),
                                 "block_cg")
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


def _half_bandwidth(terms, m: int) -> int:
    """max(i - j) m + max(a - b) over the stored entries of every x factor
    and every section factor of ``terms``, m the section order: the
    half-bandwidth of their sum."""
    def width(mats):
        # off the CSR arrays: COO conversions took 0.56 ms a pencil
        return max(int((np.repeat(np.arange(c.shape[0]), np.diff(c.indptr))
                        - c.indices[:c.indptr[-1]]).max(initial=0))
                   for c in mats)
    return (width([X for _, (X, _) in terms]) * m
            + width([S for _, (_, S) in terms]))


def _coo(mats):
    """Rows, columns and per-matrix values of the union pattern of the
    square sparse ``mats`` (``_union``)."""
    indptr, cols, vals = _union(mats)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return rows, cols, vals


class _BandPencil:
    """A factored pencil (A, M) held as the Kronecker factors of its
    terms; the LAPACK lower band of A - sigma M (``lower``) and the
    product A V (``apply_A``) are built from them, with neither A nor
    A - sigma M in CSR.

    A term c X (x) S puts c X[i, j] S[a, b] at band row
    d = (i - j) m + a - b, column j m + b (m the section order), for
    every lower entry i >= j of X and every entry of S that d keeps in
    the lower band (all of them when i > j): band row d read as an
    nx x m grid is the outer product of X's (i - j)-th and S's (a - b)-th
    lower diagonals.  The terms share one pattern per slot (``_union``),
    so the products of all terms are one GEMM over their coefficients
    and one scatter per chunk of x entries.  A bare sparse pencil (a
    section or triangle) is the one-node x slot, X = [1], and its band
    the scatter of its lower entries.  The half-bandwidth ``kd`` is the
    widest band row that writes (``_half_bandwidth``).  ``mass`` is M's
    CSR matrix, for the Lanczos products.
    """

    def __init__(self, A, M):
        if isinstance(A, KronOp):
            self.shape, terms = A.shape, A.terms + M.terms
            self._na = len(A.terms)
            self._x = _coo([X for _, (X, _) in terms])
        else:
            one = sp.identity(1, format="csr")
            A, M = sp.csr_matrix(A), sp.csr_matrix(M)
            self.shape, terms = (1, A.shape[0]), [(1.0, (one, A)),
                                                 (1.0, (one, M))]
            self._na = 1
            zero = np.zeros(1, dtype=np.int64)
            self._x = (zero, zero, np.ones((2, 1)))
        self._M = M
        self.n = self.shape[0] * self.shape[1]
        self._terms = terms
        self._coef = np.array([c for c, _ in terms])
        self._s = _coo([S for _, (_, S) in terms])
        self.kd = _half_bandwidth(terms, self.shape[1])

    @functools.cached_property
    def mass(self) -> sp.csr_matrix:
        return self._M.matrix if isinstance(self._M, KronOp) else self._M

    def lower(self, sigma: float, reverse: bool = False,
              first: int = 0) -> np.ndarray:
        """A - sigma M in LAPACK lower band storage, ab[i - j, j] =
        (A - sigma M)[i, j], column-major so that LAPACK factors it in
        place; in reversed order (P A P - sigma P M P, P the reversal of
        both slots) with ``reverse``, and from x node ``first`` on (the
        trailing block from row ``first`` m)."""
        nx, m = self.shape
        w = self.kd + 1
        coef = self._coef.copy()
        coef[self._na:] *= -sigma
        xi, xj, xv = self._x
        si, sj, sv = self._s
        if reverse:
            xi, xj, si, sj = nx - 1 - xi, nx - 1 - xj, m - 1 - si, m - 1 - sj
        ab = np.zeros((w, (nx - first) * m), order="F")
        flat = ab.ravel(order="F")
        # entry (row d, column j m + b) of ab sits at (j m + b) w + d
        spos = sj * w + si - sj
        for ex, es in (((xi == xj) & (xj >= first), si >= sj),
                       ((xi > xj) & (xj >= first), slice(None))):
            xpos = (xj[ex] - first) * (m * w) + (xi[ex] - xj[ex]) * m
            xc = coef[:, None] * xv[:, ex]
            sc = np.asfortranarray(sv[:, es])
            pos = spos[es]
            step = max(1, _CHUNK // max(1, pos.size))
            for e0 in range(0, xpos.size, step):
                e1 = min(e0 + step, xpos.size)
                # scipy's dgemm, called directly (``_gemm`` is block CG's
                # product): the x entries' products with every S entry.
                # Each band entry is one (X entry, S entry) pair, so it is
                # written once
                flat[xpos[e0:e1, None] + pos] = sla.blas.dgemm(
                    1.0, np.asfortranarray(xc[:, e0:e1]), sc, trans_a=True)
        return ab

    def apply_A(self, V: np.ndarray) -> np.ndarray:
        """A V, term by term from the Kronecker factors: S along the
        section axis of V read as an nx x m x k grid, then X along x."""
        nx, m = self.shape
        k = V.shape[1]
        grid = np.ascontiguousarray(V).reshape(nx, m, k)
        by_section = grid.transpose(1, 0, 2).reshape(m, nx * k)
        out = np.zeros((nx, m * k))
        for c, (X, S) in self._terms[:self._na]:
            Y = (S @ by_section).reshape(m, nx, k).transpose(1, 0, 2)
            out += c * (X @ Y.reshape(nx, m * k))
        return out.reshape(self.n, k)


def _band_pencil(A, M, bs: int) -> _BandPencil | None:
    """The pencil as a ``_BandPencil`` when it is to be factored; None
    otherwise.

    An operator form (A and M KronOps of one shape) is factored, and
    built, when its band Cholesky, n (kd + 1) doubles, is no larger than
    the _CG_ARRAYS n x bs arrays block CG would hold.  A bare sparse
    pencil (a section or triangle) is factored at any bandwidth: block
    CG has no preconditioner for it but Jacobi, under which its
    iterations grow with the mesh.
    """
    kron = isinstance(A, KronOp) and isinstance(M, KronOp)
    if not (kron and A.shape == M.shape
            or sp.issparse(A) and sp.issparse(M)):
        return None
    if kron and (_half_bandwidth(A.terms + M.terms, A.shape[1]) + 1
                 > _CG_ARRAYS * bs):
        return None
    return _BandPencil(A, M)


def _band_cholesky(band: _BandPencil, sigma: float) -> np.ndarray | None:
    """Band Cholesky factor of A - sigma M, or None when that matrix is not
    positive definite, i.e. sigma is not below every eigenvalue."""
    try:
        return sla.cholesky_banded(band.lower(sigma), overwrite_ab=True,
                                   lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _band_solve(chol: np.ndarray, B: np.ndarray, trans: str) -> np.ndarray:
    """L^-1 B (``trans='N'``) or L^-T B (``'T'``) for the lower band
    Cholesky factor L of ``_band_cholesky``."""
    X, info = sla.lapack.dtbtrs(chol, B, uplo="L", trans=trans)
    if info:
        raise SolverError(f"dtbtrs failed with info {info}")
    return X


def _band_block(ab: np.ndarray, r0: int, r1: int, c0: int,
                c1: int) -> np.ndarray:
    """Rows r0:r1, columns c0:c1 of the symmetric matrix whose lower band
    is ``ab``, dense."""
    i = np.arange(r0, r1)[:, None]
    j = np.arange(c0, c1)[None, :]
    lo = np.minimum(i, j)
    d = np.abs(i - j)
    inside = d < ab.shape[0]
    return np.where(inside, ab[np.minimum(d, ab.shape[0] - 1), lo], 0.0)


def _negative_count(band: _BandPencil, sigma: float) -> int:
    """Negative eigenvalues of S = A - sigma M, by a block LDL^T of S in
    reversed order whose positive definite stretches are band Cholesky.

    The inertia of S is that of P S P, P the reversal, and that of a
    leading block plus that of its Schur complement (Sylvester,
    Haynsworth).  The band Cholesky (``pbtrf``) factors the leading
    positive definite stretch in one call.  The bend sits at x = 0, the
    first x node, so in reversed order the first pivot that is not
    positive falls near the far end of the matrix, and little is left to
    factor after it.  Where it meets such a pivot at row f, eliminating
    the rows before f changes only the kd x kd block B at f, by X^T X
    with X = L_t^-1 C^T (L_t the last block of the factor, C the
    coupling of B's rows to the kd rows before f).  B holds the
    non-positive pivot, so its Cholesky would fail: it is decomposed
    densely, its negative eigenvalues are counted, and the block after
    it, corrected by C2 B^-1 C2^T, starts the next stretch.  ``pbtrf``
    has overwritten the band past f, so B, C and the next stretch are
    read from a band rebuilt from the x node of row f - kd on.
    """
    n, kd, m = band.n, band.kd, band.shape[1]
    neg = 0
    start = 0              # first row of the stretch
    base = 0               # first row held by ``ab``
    ab = band.lower(sigma, reverse=True)
    E = np.zeros((0, 0))   # correction to the leading block of the stretch

    def block(r0, r1, c0, c1):
        """Rows r0:r1, columns c0:c1 of the corrected stretch, dense."""
        out = _band_block(ab, start - base + r0, start - base + r1,
                          start - base + c0, start - base + c1)
        e = E.shape[0]
        out[:max(0, min(r1, e) - r0), :max(0, min(c1, e) - c0)] -= \
            E[r0:min(r1, e), c0:min(c1, e)]
        return out

    while True:
        L = ab[:, start - base:]
        i, j = np.tril_indices(E.shape[0])
        L[i - j, j] -= E[i, j]
        L, info = sla.lapack.dpbtrf(L, lower=1, overwrite_ab=1)
        if info == 0:
            return neg
        size = n - start
        f = info - 1
        t = max(0, f - kd)
        i, j = np.tril_indices(f - t)
        Lt = np.zeros((f - t, f - t))
        Lt[i, j] = L[i - j, t + j]
        del L, ab
        first = (start + t) // m
        ab, base = band.lower(sigma, reverse=True, first=first), first * m
        # at least the pivot row, also at kd = 0
        mm = min(max(kd, 1), size - f)
        B = block(f, f + mm, f, f + mm)
        if f > t:
            X = sla.solve_triangular(Lt, block(f, f + mm, t, f).T,
                                     lower=True)
            B -= X.T @ X
        w, V = _syevd(B)
        neg += int(np.count_nonzero(w < 0.0))
        nxt = f + mm
        if nxt == size:
            return neg
        # B is a full kd block here (mm = kd <= nxt), so the old
        # correction lies behind and the next stretch starts with the new
        # one only
        Y = V.T @ block(nxt, nxt + min(kd, size - nxt), f, nxt).T
        E = Y.T @ (Y / w[:, None])
        start += nxt


def _shift_invert(band: _BandPencil, k: int, opts: EigOptions,
                  sigma: float) -> EigResult | None:
    """The factored branch of ``lowest_eigenpairs`` on ``band``; None
    when no shift of the back-off factors."""
    n = band.n
    # back off from a sigma that is not below the spectrum by
    # sigma (1 - 2^-j), j = 4, 3, 2, 1, down to 0 at j = 0
    for shift in dict.fromkeys([float(sigma)] + [
            sigma * (1.0 - 0.5 ** j) for j in (4, 3, 2, 1, 0)]):
        chol = _band_cholesky(band, shift)
        if chol is not None:
            break
    else:
        return None
    applies = 0
    Mc = band.mass

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
    del chol, Y
    MV = Mc @ V
    norm = np.sqrt(np.einsum("ij,ij->j", V, MV))
    V /= norm
    MV /= norm
    return _direct_result(band.apply_A(V), Mc.diagonal(), theta, V, MV,
                          applies, "shift_invert", shift)


def _direct_result(AV, d, theta, V, MV, applies, solver,
                   shift) -> EigResult:
    """EigResult of a dense or factored solve, every pair converged; its
    residuals from fresh products AV = A V and MV = M V, d = diag(M)."""
    return EigResult(theta, V, np.ones(theta.size, dtype=bool), applies, 0,
                     _residual_bound(AV - MV * theta, 1.0 / d), solver, shift)


def lowest_eigenpairs(A, M, k: int | None, opts: EigOptions | None = None,
                      precond=None, *, sigma: float = 0.0) -> EigResult:
    """Lowest ``k`` generalized eigenpairs of (A, M), by the one rule.

    Order up to DENSE_N, or the full eigenbasis (``k`` None or the
    order): dense ``eigh``.  Above it, a pencil that ``_band_pencil``
    selects is factored at ``sigma``: a Cholesky L L^T = A - sigma M
    that succeeds proves sigma lies below the spectrum.  The band of
    A - sigma M is built straight from the Kronecker factors
    (``_BandPencil``), and only M is assembled in CSR, for the Lanczos
    products.  A sigma that is not below the spectrum backs off to
    sigma (1 - 2^-j), j = 4, 3, 2, 1, and then to 0, each step certified
    by its own factorization.  Lanczos in standard form on
    C = L^-1 M L^-T, from a start vector seeded by ``opts.seed``,
    returns the k largest eigenvalues mu of C, each stopped by ARPACK's
    test ||C y - mu y|| <= ``opts.tol`` |mu|, which certifies
    ``converged``: theta = shift + 1 / mu are the lowest k, and
    x = L^-T y, M-normalized, their vectors; ``iterations`` counts the
    applies of C.  Dense solves run to machine precision.  Both branches
    run on one BLAS thread (``_ONE_BLAS_THREAD``).  Any other pencil, or
    one whose A is not positive definite, goes to ``smallest_eigenpairs``
    with ``precond``, on the caller's BLAS pool.  Every branch reports
    the residual bounds of fresh products, a factored one applying A term
    by term from its Kronecker factors (``_BandPencil.apply_A``;
    ``dsbmv`` on the band was slower); ``solver`` records the branch
    taken and ``shift`` the certified sigma.
    """
    opts = opts or EigOptions()
    n = _order(A)
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if k is None or k == n or n <= DENSE_N:
        with _ONE_BLAS_THREAD:
            Md = materialize(M)
            theta, V = sla.eigh(materialize(A), Md,
                                subset_by_index=None if k is None
                                else [0, k - 1])
            return _direct_result(A @ V, np.diag(Md), theta, V, M @ V, 0,
                                  "dense", None)
    band = _band_pencil(A, M, min(k + 3, n))
    if band is not None:
        with _ONE_BLAS_THREAD:
            res = _shift_invert(band, k, opts, sigma)
        if res is not None:
            return res
    return smallest_eigenpairs(A, M, dataclasses.replace(opts, k=k), precond)


@dataclass
class CountResult:
    """Eigenvalues of a pencil counted below T - s, T the threshold and s
    the safety band.

    An inertia count with s > 0 is open until ``settle`` closes it:
    ``count`` then holds N(T + s), an upper bound for N(T - s), and
    ``pending`` the band pencil and T - s.  An open count is not
    ``reliable``.
    """

    count: int
    boundary: bool             # some eigenvalue inside the safety band
    # smallest converged value above T, minus T; inf for an inertia
    # count, which sees every eigenvalue
    clearance: float
    result: EigResult | None   # the block solve; None for an inertia count
    # negative eigenvalues of A - (T -/+ safety) M, for a settled inertia
    # count
    inertia: tuple[int, int] | None = None
    pending: tuple[_BandPencil, float] | None = field(default=None,
                                                      repr=False)

    @property
    def reliable(self) -> bool:
        return (self.pending is None and (not self.boundary)
                and self.clearance > 0
                and (self.result is None or self.result.ok))

    def settle(self, theta) -> CountResult:
        """The count closed at T - s, from Ritz values ``theta`` of the
        pencil; the result itself when nothing is open.

        Ritz values bound eigenvalues from above (Parlett 1998), so c
        values below T - s prove N(T - s) >= c, and N(T - s) <= N(T + s):
        when c reaches N(T + s), N(T - s) = N(T + s) with no second
        factorization.  Otherwise (a value in the band, or a solve that
        skipped one) the band pencil is counted again at T - s.
        """
        if self.pending is None:
            return self
        band, low = self.pending
        above = below = self.count
        if np.count_nonzero(np.asarray(theta, dtype=float) < low) != above:
            with _ONE_BLAS_THREAD:
                below = _negative_count(band, low)
        return dataclasses.replace(self, count=below, boundary=below != above,
                                   inertia=(below, above), pending=None)


def count_below(A, M, threshold: float, safety: float,
                opts: EigOptions | None = None, precond=None) -> CountResult:
    """Count eigenvalues certified below ``threshold - safety``.

    A pencil that ``_band_pencil`` selects is counted exactly, at any
    order, by inertia: the negative eigenvalues of A - (T + s) M, read
    from a block LDL^T of its band in reversed order
    (``_negative_count``).  It is counted once, at T + s.  With s = 0
    that is the count; with s > 0 the result is open, and
    ``CountResult.settle`` closes it at T - s from the caller's Ritz
    values of the pencil or by a second count on the same band
    (``compute_spectrum`` settles its top rung from that rung's solve).
    Otherwise Ritz values bound eigenvalues from above, so a converged
    value under the band certifies one eigenvalue there.  From
    ``opts.k`` pairs (no floor: the ladder passes max(k, 4)) the block
    doubles, one ``lowest_eigenpairs`` solve a step, up to _KMAX pairs,
    until a converged value clears ``threshold + safety``, so the count
    cannot be truncated by a too-small search space; such a count is
    settled as returned.
    """
    if safety < 0:
        raise ValueError(f"safety band must be nonnegative, got {safety}")
    n = _order(A)
    base = opts or EigOptions()
    k = base.k
    band = _band_pencil(A, M, min(k + 3, n))
    if band is not None:
        with _ONE_BLAS_THREAD:
            above = _negative_count(band, threshold + safety)
        if safety == 0:
            return CountResult(above, False, math.inf, None, (above, above))
        return CountResult(above, False, math.inf, None,
                           pending=(band, threshold - safety))
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
