"""Sparse symmetric spatial linear algebra and eigenvalue utilities.

Spatial vectors are 1-d numpy arrays of length ``dim``.  Block vectors over
the time index are 2-d arrays of shape ``(N, dim)``: row ``n`` holds the
spatial coefficient vector of time-step ``n+1``.  The solvers store them in
Fortran order, so that the transpose is a C-order ``(dim, N)`` block on
which ``SpatialMatrix.dot`` acts without a copy; any order is accepted.
Saddle vectors pair two block vectors ``(p, u)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .errors import DimensionMismatchError, InputError, NotSpdError

class SpatialMatrix:
    """Sparse symmetric operator on the spatial space.

    The full operator is stored once, as canonical CSR, for fast products;
    the constructor takes coordinates on either side of the diagonal, folds
    them into the upper triangle and mirrors the strict part.  A ``scaled``
    copy builds its CSR on first read.  Instances are immutable.
    """

    __slots__ = ("dim", "_csr", "_source", "_base", "_scale")

    def __init__(self, dim: int, rows, cols, vals):
        if dim <= 0:
            raise InputError("matrix dimension must be positive")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        # fold everything into the upper triangle, mirror the strict part;
        # the one conversion to CSR sums duplicates
        lower = rows > cols
        r = np.where(lower, cols, rows)
        c = np.where(lower, rows, cols)
        strict = r < c
        full = sp.coo_matrix(
            (
                np.concatenate([vals, vals[strict]]),
                (np.concatenate([r, c[strict]]), np.concatenate([c, r[strict]])),
            ),
            shape=(dim, dim),
        )
        self._init(full.tocsr())

    def _init(self, csr: sp.csr_matrix | None, dim: int | None = None) -> None:
        self.dim = int(csr.shape[0]) if dim is None else dim
        self._csr = csr
        # (matrix, c) with the CSR c * matrix, for a scaled copy
        self._source: tuple[SpatialMatrix, float] | None = None
        # scaling provenance (as_scaled), read by problems.group_steps
        self._base: SpatialMatrix | None = None
        self._scale = 1.0

    @classmethod
    def _from_csr(cls, csr: sp.csr_matrix) -> "SpatialMatrix":
        """Wrap a canonical, exactly symmetric CSR matrix without copying it."""
        out = cls.__new__(cls)
        out._init(csr)
        return out

    @classmethod
    def from_sparse(cls, m) -> "SpatialMatrix":
        coo = sp.coo_matrix(m)
        keep = coo.row <= coo.col
        return cls(coo.shape[0], coo.row[keep], coo.col[keep], coo.data[keep])

    @classmethod
    def from_dense(cls, m) -> "SpatialMatrix":
        m = np.asarray(m, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise InputError("matrix must be square")
        if not np.allclose(m, m.T, rtol=1e-12, atol=1e-14 * max(1.0, np.abs(m).max())):
            raise InputError("matrix must be symmetric")
        r, c = np.nonzero(np.triu(m))
        return cls(m.shape[0], r, c, m[r, c])

    @classmethod
    def identity(cls, dim: int) -> "SpatialMatrix":
        idx = np.arange(dim)
        return cls(dim, idx, idx, np.ones(dim))

    def tocsr(self) -> sp.csr_matrix:
        if self._csr is None:
            # _source stays set, so that a racing first read in another
            # thread builds the same product
            source, c = self._source
            self._csr = c * source.tocsr()
        return self._csr

    def todense(self) -> np.ndarray:
        return self.tocsr().toarray()

    def diagonal(self) -> np.ndarray:
        return self.tocsr().diagonal()

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self.tocsr().dot(x)

    def scaled(self, c: float) -> "SpatialMatrix":
        """c times self, its CSR fl(c * stored) built on first read: the
        step operators of a time-dependent coefficient are mostly read
        through their provenance (``as_scaled``) only."""
        out = SpatialMatrix.__new__(SpatialMatrix)
        out._init(None, self.dim)
        out._source = (self, c)
        out._base, scale = self.as_scaled()
        out._scale = c * scale
        return out

    def as_scaled(self) -> tuple["SpatialMatrix", float]:
        """(base, s) with self == s * base, base the operator it was scaled from."""
        return (self._base if self._base is not None else self), self._scale

    def proportionality(self, other: "SpatialMatrix") -> float | None:
        """Return s with self == s * other when known structurally, else None."""
        a_root, a_scale = self.as_scaled()
        b_root, b_scale = other.as_scaled()
        if a_root is b_root:
            return a_scale / b_scale
        return None


def add_matrices(a: float, x: SpatialMatrix, b: float, y: SpatialMatrix) -> SpatialMatrix:
    """Linear combination a*X + b*Y of two symmetric sparse operators.

    Entries that cancel exactly are dropped from the sparsity pattern.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError("operator dimensions differ")
    return SpatialMatrix._from_csr(a * x.tocsr() + b * y.tocsr())


class SpdFactor:
    """Cached factorization of an SPD sparse operator.

    Uses a symmetric-mode LU without off-diagonal pivoting so that a
    non-positive pivot reliably flags a non-SPD operator.
    """

    def __init__(self, mat: SpatialMatrix):
        self.dim = mat.dim
        csc = mat.tocsr().tocsc()
        try:
            self._lu = spla.splu(
                csc,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # singular factor
            raise NotSpdError(f"factorization failed: {exc}") from exc
        if np.any(self._lu.U.diagonal() <= 0.0):
            raise NotSpdError("non-positive pivot: operator is not SPD")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for a length-``dim`` vector or each column of a (dim, m) block."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"expected {self.dim} rows, got right-hand side of shape {b.shape}"
            )
        return self._lu.solve(b)


def _canonical_csr(m) -> sp.csr_matrix | None:
    """m as a canonical float64 CSR matrix, or None unless m is a square
    float64 array or sparse matrix."""
    if sp.issparse(m):
        csr = m.tocsr()
    elif isinstance(m, np.ndarray) and m.ndim == 2:
        csr = sp.csr_matrix(m)
    else:
        return None
    if csr.dtype != np.float64 or csr.shape[0] != csr.shape[1]:
        return None
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def _invariant(m: sp.csr_matrix, perm: np.ndarray | None) -> bool:
    """m equals, exactly, m[perm][:, perm] for an index involution perm, or
    its transpose for perm None; m is canonical, so its entries in row-major
    order are compared with the mapped ones sorted the same way."""
    dim = m.shape[0]
    rows = np.repeat(np.arange(dim), np.diff(m.indptr))
    key = m.indices * dim + rows if perm is None else perm[rows] * dim + perm[m.indices]
    order = np.argsort(key, kind="stable")
    return (np.array_equal(key[order], rows * dim + m.indices)
            and np.array_equal(m.data[order], m.data))


def _involutions(dim: int) -> dict[str, np.ndarray]:
    """The index involutions an assembled pencil commutes with: the reversal
    J for dim >= 4 (x -> 1 - x in 1d, the rotation by 180 degrees in 2d),
    and the grid transpose P, (i, j) -> (j, i), when dim = n^2 (x <-> y)."""
    if dim < 4:
        return {}
    out = {"J": np.arange(dim)[::-1].copy()}
    n = math.isqrt(dim)
    if n * n == dim:
        out["P"] = np.arange(dim).reshape(n, n).T.ravel()
    return out


@functools.lru_cache(maxsize=8)
def _symmetry_fold(dim: int, names: tuple[str, ...]) -> "_SymmetryFold":
    """The fold of the named involutions, built once per dim and names."""
    involutions = _involutions(dim)
    return _SymmetryFold(dim, [involutions[name] for name in names])


class _SymmetryFold:
    """The orthogonal change of basis Q that block-diagonalizes every
    symmetric matrix commuting with the given commuting index involutions.

    The involutions generate a group G of 2^m index maps.  Each sign
    pattern s in {+1, -1}^m is a character chi of G (the product of s_i
    over the generators in an element), and the symmetry-adapted vectors of
    class chi are q_r = (sqrt(o_r) / |G|) sum_g chi(g) e_g(r), one per orbit
    of G whose stabilizer chi is trivial on, r the orbit's smallest index
    and o_r its size (Fassler & Stiefel 1992).  They are orthonormal, and
    Q = [q_r] holds the classes one after the other, the patterns in
    lexicographic order with + first (for the reversal alone: the even
    vectors, then the odd ones).  Entries of a class block,
    q_r' A q_t = (sqrt(o_r o_t) / |G|) sum_g chi(g) A[r, g(t)], are formed
    from A's stored entries, summed in the order of G.
    """

    def __init__(self, dim: int, generators: list[np.ndarray]):
        elements = [np.arange(dim)]
        for g in generators:
            elements += [g[e] for e in elements]
        # element k holds generator i when bit i of k is set
        self.elements = np.stack(elements)
        index = np.arange(dim)
        reps = np.flatnonzero(self.elements.min(axis=0) == index)
        fixes = self.elements[:, reps] == reps  # (element, rep): g(r) == r
        order = len(elements)
        self.classes: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for signs in itertools.product((1.0, -1.0), repeat=len(generators)):
            chi = np.array([math.prod(s for i, s in enumerate(signs) if k >> i & 1)
                            for k in range(order)])
            # chi trivial on the stabilizer of r
            keep = np.all(fixes <= (chi[:, None] > 0), axis=0)
            if keep.any():
                sizes = order / fixes[:, keep].sum(axis=0)
                self.classes.append((reps[keep], chi, sizes))
        self.order = order
        self.dim = dim
        starts = np.cumsum([0] + [r.size for r, _, _ in self.classes])
        q = sp.coo_matrix(
            (np.concatenate([np.outer(chi, np.sqrt(sizes) / order).ravel()
                             for _, chi, sizes in self.classes]),
             (np.concatenate([self.elements[:, r].ravel() for r, _, _ in self.classes]),
              np.concatenate([np.tile(np.arange(lo, lo + r.size), order)
                              for lo, (r, _, _) in zip(starts, self.classes)]))),
            shape=(dim, dim),
        ).tocsr()  # sums the stabilizer's equal terms
        self.q = q
        self.qt = q.T.tocsr()

    def blocks(self, m: sp.csr_matrix) -> list[np.ndarray]:
        """The class blocks Q_b' m Q_b of a canonical CSR m that commutes
        with every element, as dense C-order arrays.  Each term is scaled
        before the sum.  With the reversal alone, every scale that is not a
        power of two multiplies a pair of equal terms, so that the blocks
        are exactly the sums and differences of m's mirrored entries."""
        rows = np.repeat(np.arange(self.dim), np.diff(m.indptr))
        out = []
        for reps, chi, sizes in self.classes:
            size = reps.size
            position = np.full(self.dim, -1)
            position[reps] = np.arange(size)
            row = position[rows]
            on = row >= 0
            row, col, data = row[on], m.indices[on], m.data[on]
            flat, terms = [], []
            for g, sign in zip(self.elements, chi):
                c = position[g[col]]
                hit = c >= 0
                r, c = row[hit], c[hit]
                flat.append(r * size + c)
                terms.append((sign / self.order) * np.sqrt(sizes[r] * sizes[c]) * data[hit])
            out.append(np.bincount(np.concatenate(flat), np.concatenate(terms),
                                   minlength=size * size).reshape(size, size))
        return out


def csr_matmul_into(a: sp.csr_matrix, x: np.ndarray, out: np.ndarray,
                    accumulate: bool = False) -> np.ndarray:
    """out = a @ x, or out += a @ x with ``accumulate``, for a float64 CSR
    matrix a (any other format raises) and C-contiguous float64 (n, m)
    blocks x and out that do not overlap; returns out.

    scipy has no output argument for a sparse product with a dense block,
    so this calls the kernel behind ``a @ x`` (``csr_matvecs``), which adds
    a @ x to its output row by row.  Overwriting zeroes out first, so the
    result is bit-identical to ``a @ x``.
    """
    rows, cols = a.shape
    # the kernel reads indptr unchecked, so its length must be rows + 1
    if getattr(a, "format", None) != "csr" or a.indptr.size != rows + 1:
        raise DimensionMismatchError("a must be a CSR matrix")
    if (x.ndim != 2 or out.ndim != 2 or x.shape[0] != cols
            or out.shape != (rows, x.shape[1])):
        raise DimensionMismatchError(
            f"cannot write {a.shape} @ {x.shape} into {out.shape}")
    if not all(m.dtype == np.float64 and m.flags.c_contiguous for m in (a.data, x, out)):
        raise DimensionMismatchError("x and out must be C-contiguous float64 blocks")
    if not accumulate:
        out.fill(0.0)
    _sparsetools.csr_matvecs(rows, cols, x.shape[1], a.indptr, a.indices, a.data,
                             x.ravel(), out.ravel())
    return out


def _sparse_matmul(q: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """q @ x along axis -2 of x, as matmul would, into one C-order result:
    a 3-D x takes one product per slice, each written in place."""
    if x.ndim <= 2:
        return q @ x
    out = np.empty(x.shape[:-2] + (q.shape[0], x.shape[-1]))
    for xi, yi in zip(x.reshape((-1,) + x.shape[-2:]), out.reshape((-1,) + out.shape[-2:])):
        csr_matmul_into(q, np.ascontiguousarray(xi), yi)
    return out


class BlockBasis:
    """The eigenbasis V of a symmetric-definite pencil (A, B), with
    A V = B V diag(lam) and V' B V = I, kept as one dense block per
    symmetry class: V = Q diag(V_1, ..., V_c), Q the orthogonal symmetry
    fold of the pencil (see ``eigh_blocks``), or V = V_1 when it has none.

    ``lam`` holds the eigenvalues class by class, ascending within each, in
    the order of V's columns; ``vectors`` the blocks V_b.  ``analysis`` and
    ``synthesis`` apply V' and V along axis -2 of an array of two or more
    dimensions, as matmul would: the fold (one sparse product) and one GEMM
    per block on its whole rows, so that no result depends on the thread
    count.  ``products`` writes the GEMMs alone into a given block, ``norm``
    takes ||V c||_2 from them, and ``fold`` finishes the synthesis from
    them.  Immutable.
    """

    __slots__ = ("lam", "vectors", "bounds", "_q", "_qt")

    def __init__(self, lam: np.ndarray, vectors: list[np.ndarray],
                 fold: _SymmetryFold | None = None):
        self.lam = lam
        self.vectors = vectors
        self.bounds = np.cumsum([0] + [v.shape[0] for v in vectors])
        self._q = None if fold is None else fold.q
        self._qt = None if fold is None else fold.qt

    def _blockwise(self, x: np.ndarray, transpose: bool,
                   out: np.ndarray | None = None) -> np.ndarray:
        if len(self.vectors) == 1:
            v = self.vectors[0]
            return np.matmul(v.T if transpose else v, x, out=out)
        if out is None:
            out = np.empty(x.shape)
        for v, lo, hi in zip(self.vectors, self.bounds[:-1], self.bounds[1:]):
            np.matmul(v.T if transpose else v, x[..., lo:hi, :], out=out[..., lo:hi, :])
        return out

    def analysis(self, x: np.ndarray) -> np.ndarray:
        """V' x: the coefficients of a dual vector, or of B x."""
        if self._qt is not None:
            x = _sparse_matmul(self._qt, x)
        return self._blockwise(x, transpose=True)

    def synthesis(self, c: np.ndarray) -> np.ndarray:
        """V c: the vector with coefficients c."""
        return self.fold(self._blockwise(c, transpose=False))

    def fold(self, x: np.ndarray) -> np.ndarray:
        """Q x, the vector whose class components are x (x itself without a
        fold): ``fold(products(c, work))`` is ``synthesis(c)``."""
        return x if self._q is None else _sparse_matmul(self._q, x)

    def products(self, c: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The class products V_b c_b, written into work, a C-order array
        of c's shape that does not overlap c, and returned."""
        return self._blockwise(c, transpose=False, out=work)

    def norm(self, c: np.ndarray, work: np.ndarray) -> float:
        """||V c||_2 = sqrt(sum_b ||V_b c_b||^2) over all of c: the fold is
        orthogonal, so it is skipped.  The class products go into work (see
        ``products``)."""
        self.products(c, work)
        return float(np.sqrt(np.vdot(work, work)))

    def dense(self) -> np.ndarray:
        """V as one (dim, dim) array, columns in the order of ``lam``."""
        blocks = scipy.linalg.block_diag(*self.vectors)
        return blocks if self._q is None else self._q @ blocks


def eigh_blocks(a, b=None, name: str = "B") -> BlockBasis:
    """The eigenbasis of the pencil (A, B), A symmetric and B SPD (None for
    the identity), each a float64 array or sparse matrix, as a BlockBasis.

    The pencil is split by the index involutions that A and B both commute
    with exactly (Fassler & Stiefel, Group Theoretical Methods and Their
    Applications, 1992): the reversal J for dim >= 4, and the grid
    transpose P when dim = n^2.  Every assembled mesh commutes with J (the
    reflection x -> 1 - x in 1d, the rotation by 180 degrees in 2d), and
    every 2d one with P too (the reflection x <-> y), so a 1d pencil splits
    into two half-size ones and a 2d pencil into four quarter-size ones,
    each one scipy eigh, and B has a Cholesky factor exactly when every
    block of it has.  The checks and the blocks read the stored entries of
    the sparse matrices; only the blocks are dense.  A pencil that commutes
    with neither, or whose A or B is not float64 and exactly symmetric,
    runs one scipy eigh, bit for bit, as one block.  The inputs are never
    overwritten.

    Raises NotSpdError, naming B, when any block of B has no Cholesky
    factor.
    """
    names = ()
    involutions = _involutions(np.shape(a)[0])
    if involutions:
        mats = [_canonical_csr(m) for m in ((a,) if b is None else (a, b))]
        if (all(m is not None and m.shape == mats[0].shape for m in mats)
                and all(_invariant(m, None) for m in mats)):
            names = tuple(name for name, g in involutions.items()
                          if all(_invariant(m, g) for m in mats))
    try:
        if not names:
            # densified sparse inputs are this call's own copies
            whole = [m.toarray() if sp.issparse(m) else m for m in (a, b)]
            lam, v = scipy.linalg.eigh(whole[0], whole[1], overwrite_a=sp.issparse(a),
                                       overwrite_b=sp.issparse(b))
            return BlockBasis(lam, [v])
        fold = _symmetry_fold(mats[0].shape[0], names)
        blocks = [fold.blocks(m) for m in mats]
        if b is None:
            blocks.append([None] * len(blocks[0]))
        # each block lives only through its own solve, which may overwrite it
        results = [scipy.linalg.eigh(x, y, overwrite_a=True, overwrite_b=True)
                   for x, y in zip(*blocks)]
    except scipy.linalg.LinAlgError as exc:
        raise NotSpdError(f"{name} is not SPD: {exc}") from exc
    return BlockBasis(np.concatenate([lam for lam, _ in results]),
                      [v for _, v in results], fold)


class LanczosResult(NamedTuple):
    """Extremal Ritz values and how the run ended (see lanczos_extremal_eig)."""

    lam_min: float
    lam_max: float
    breakdown: bool
    iterations: int
    converged: bool


def _tridiagonal_extremes(
    alphas: np.ndarray, betas: np.ndarray, steps: np.ndarray
) -> list[float]:
    """Lowest and highest Ritz values over all recurrences.

    Row c holds the tridiagonal of recurrence c, ``steps[c]`` entries long
    with its last coupling still zero, so the rows are laid side by side.
    Bisection solves the two end eigenvalues only, to full relative accuracy
    (its default tolerance, eps times the norm, would lose small extremes).
    """
    valid = np.arange(alphas.shape[1]) < steps[:, None]
    d, e = alphas[valid], betas[valid][:-1]
    return [
        scipy.linalg.eigvalsh_tridiagonal(
            d, e, select="i", select_range=(i, i), tol=2.0 * np.finfo(np.float64).tiny
        )[0]
        for i in (0, d.size - 1)
    ]


def lanczos_extremal_eig(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_b: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    iters: int,
) -> LanczosResult:
    """Extremal Ritz values of an operator self-adjoint in the B inner product.

    A 1-d start vector runs one B-orthogonal Lanczos recurrence.  An (n, m)
    start block runs m of them, one per column, all advancing on one
    application of each operator per step: the operators then take and return
    (n, m) blocks whose column c depends on column c of the input only.  The
    result is the extremes over all columns.

    Every recurrence is fully reorthogonalized, so it exhausts its Krylov
    space within n steps.  The run stops once both extremes have stagnated
    to 1e-11 (relative) over three consecutive steps, when every column has
    exhausted its Krylov space (``breakdown``), or after ``iters`` steps;
    ``converged`` is False when it took all ``iters`` steps without breaking
    down.  ``iterations`` counts the steps of the longest recurrence.
    """
    if iters < 2:
        raise InputError("lanczos needs at least 2 iterations")
    shape = np.shape(x0)
    n = shape[0]
    iters = min(iters, n)

    def call(op, rows: np.ndarray) -> np.ndarray:  # op on one row per recurrence
        return np.asarray(op(rows.T.reshape(shape)), dtype=np.float64).reshape(n, -1).T

    # operators may return their input array unchanged (identity weight),
    # so never modify operator outputs in place without copying first
    w = np.asarray(x0, dtype=np.float64).reshape(n, -1).T
    bw = call(apply_b, w)
    beta = np.sqrt(np.einsum("ij,ij->i", w, bw))[:, None]
    if np.any(beta == 0.0):
        raise InputError("zero start vector")
    m = w.shape[0]
    # the B-orthonormal bases and their B-images, (step, recurrence, entry):
    # each step is one contiguous slab, so np.empty commits memory only for
    # the steps that get written, also when numpy backs it with huge pages
    qs = np.empty((iters + 1, m, n))
    bqs = np.empty((iters + 1, m, n))
    alphas = np.zeros((m, iters))
    betas = np.zeros((m, iters))
    steps = np.zeros(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    hist = []  # (lowest, highest) Ritz value after each step
    for j in range(iters):
        qs[j] = w / beta
        bqs[j] = bw / beta
        w = call(apply_a, qs[j]).copy()
        alpha = np.einsum("ij,ij->i", w, bqs[j])
        # full reorthogonalization against all B-orthonormal vectors so far,
        # two classical Gram-Schmidt passes as stacked products; the first
        # subtracts the alpha and beta recurrence terms.  The B-image of w is
        # recomputed afterwards: updating it incrementally loses all accuracy
        # once the reorthogonalized w is orders of magnitude smaller than the
        # original (B may be ill-conditioned).
        q, bq = qs[: j + 1].transpose(1, 0, 2), bqs[: j + 1].transpose(1, 0, 2)
        for _ in range(2):
            coef = bq @ w[:, :, None]
            w -= (coef.transpose(0, 2, 1) @ q)[:, 0]
        bw = call(apply_b, w)
        beta = np.sqrt(np.maximum(np.einsum("ij,ij->i", w, bw), 0.0))
        alphas[active, j] = alpha[active]
        steps[active] += 1
        hist.append(_tridiagonal_extremes(alphas[:, : j + 1], betas[:, : j + 1], steps))
        active &= (beta > 1e-13 * np.maximum(1.0, np.abs(alpha))) & (steps < n)
        if not active.any():
            break
        if len(hist) >= 4:
            drift = np.abs(np.subtract(hist[-4:-1], hist[-1]))
            if np.all(drift <= 1e-11 * max(np.abs(hist[-1]).max(), 1e-30)):
                break
        betas[active, j] = beta[active]
        # a column that broke down continues as zeros (dividing by inf) and
        # records nothing more
        beta = np.where(active, beta, np.inf)[:, None]
    lo, hi = hist[-1]
    breakdown = not active.any()
    return LanczosResult(float(lo), float(hi), breakdown, int(steps.max()),
                         breakdown or len(hist) < iters)
