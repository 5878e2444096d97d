"""Sparse symmetric spatial linear algebra and eigenvalue utilities.

Spatial vectors are 1-d numpy arrays of length ``dim``.  Block vectors over
the time index are 2-d arrays of shape ``(N, dim)``: row ``n`` holds the
spatial coefficient vector of time-step ``n+1``.  The solvers store them in
Fortran order, so that the transpose is a C-order ``(dim, N)`` block on
which ``SpatialMatrix.dot`` acts without a copy; any order is accepted.
Saddle vectors pair two block vectors ``(p, u)``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatchError, InputError, NotSpdError

class SpatialMatrix:
    """Sparse symmetric operator on the spatial space.

    The full operator is stored once, as canonical CSR, for fast products;
    the upper-triangle coordinates ``rows``, ``cols`` and ``vals`` (used for
    serialization) are derived from it on access.  Instances are immutable.
    """

    __slots__ = ("dim", "_csr", "_base", "_scale")

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

    def _init(self, csr: sp.csr_matrix) -> None:
        self.dim = int(csr.shape[0])
        self._csr = csr
        # scaling provenance (as_scaled), read by problems.group_steps
        self._base: SpatialMatrix | None = None
        self._scale = 1.0

    @classmethod
    def _from_csr(cls, csr: sp.csr_matrix) -> "SpatialMatrix":
        """Wrap a canonical, exactly symmetric CSR matrix without copying it."""
        out = cls.__new__(cls)
        out._init(csr)
        return out

    @property
    def rows(self) -> np.ndarray:
        return sp.triu(self._csr, format="coo").row

    @property
    def cols(self) -> np.ndarray:
        return sp.triu(self._csr, format="coo").col

    @property
    def vals(self) -> np.ndarray:
        return sp.triu(self._csr, format="coo").data

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
        return self._csr

    def todense(self) -> np.ndarray:
        return self._csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self._csr.dot(x)

    def scaled(self, c: float) -> "SpatialMatrix":
        out = SpatialMatrix._from_csr(c * self._csr)
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

    def __matmul__(self, x):
        return self.dot(x)


def add_matrices(a: float, x: SpatialMatrix, b: float, y: SpatialMatrix) -> SpatialMatrix:
    """Linear combination a*X + b*Y of two symmetric sparse operators.

    Entries that cancel exactly are dropped from the sparsity pattern.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError("operator dimensions differ")
    return SpatialMatrix._from_csr(a * x._csr + b * y._csr)


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


# the keyword arguments of eigh_pencil that the split into half pencils keeps
_SPLIT_KWARGS = frozenset({"eigvals_only", "overwrite_a", "overwrite_b"})


def _centrosymmetric(m) -> bool:
    """m is a float64 matrix of dim >= 4 that equals, exactly, its transpose
    and its index-reversed self m[::-1, ::-1]."""
    return (
        isinstance(m, np.ndarray) and m.dtype == np.float64 and m.ndim == 2
        and m.shape[0] == m.shape[1] >= 4
        and np.array_equal(m, m[::-1, ::-1]) and np.array_equal(m, m.T)
    )


def _half(m: np.ndarray, even: bool) -> np.ndarray:
    """The block of a symmetric centrosymmetric m on its even or odd vectors.

    With h = dim // 2, the even vectors are (e_i + e_{dim-1-i}) / sqrt 2 for
    i < h, plus e_h for odd dim, the odd ones (e_i - e_{dim-1-i}) / sqrt 2:
    the block is L + R, bordered by sqrt 2 m[:h, h] and m[h, h] for odd dim,
    or L - R, with L = m[:h, :h] and R = m[:h, :-h-1:-1].  It is exactly
    symmetric, so its transpose is the same block in Fortran order.
    """
    dim = m.shape[0]
    h = dim // 2
    size = h + dim % 2 if even else h
    out = np.empty((size, size))
    (np.add if even else np.subtract)(m[:h, :h], m[:h, : -h - 1 : -1], out=out[:h, :h])
    if size > h:
        out[h, :h] = out[:h, h] = np.sqrt(2.0) * m[h, :h]
        out[h, h] = m[h, h]
    return out.T


def _eigh_split(a: np.ndarray, b: np.ndarray | None, eigvals_only: bool):
    """eigh of a symmetric centrosymmetric pencil as two half-size pencils."""
    # each half block lives only through its own solve, which may overwrite it
    halves = [
        scipy.linalg.eigh(
            _half(a, even), None if b is None else _half(b, even),
            eigvals_only=eigvals_only, overwrite_a=True, overwrite_b=True,
        )
        for even in (True, False)
    ]
    if eigvals_only:
        return np.sort(np.concatenate(halves))
    (lam_even, y_even), (lam_odd, y_odd) = halves
    lam = np.concatenate([lam_even, lam_odd])
    order = np.argsort(lam, kind="stable")
    dim = a.shape[0]
    h = dim // 2
    # column of V that each half eigenvector becomes
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    even_cols, odd_cols = column[: dim - h], column[dim - h :]
    v = np.empty((dim, dim), order="F")
    y_even[:h] *= np.sqrt(0.5)
    v[:h, even_cols] = y_even[:h]
    v[: -h - 1 : -1, even_cols] = y_even[:h]
    if dim % 2:
        v[h, even_cols] = y_even[h]
        v[h, odd_cols] = 0.0
    y_odd *= np.sqrt(0.5)
    v[:h, odd_cols] = y_odd
    v[: -h - 1 : -1, odd_cols] = np.negative(y_odd, out=y_odd)
    return lam[order], v


def eigh_pencil(a: np.ndarray, b: np.ndarray | None, name: str = "B", **kwargs):
    """``scipy.linalg.eigh(a, b, **kwargs)`` for A symmetric and B SPD.

    A pencil of centrosymmetric matrices, each equal to its index-reversed
    self, splits into two half-size pencils (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976): one on the even vectors (e_i + e_{dim-1-i}) /
    sqrt 2, plus e_h for odd dim, h = dim // 2, and one on the odd vectors
    (e_i - e_{dim-1-i}) / sqrt 2.  Every assembled mesh gives such a pencil.
    When A, and B unless it is None, are float64, of dim >= 4 and equal both
    their transposes and their index-reversed selves exactly (O(dim^2)
    comparisons), and ``kwargs`` holds at most ``eigvals_only``,
    ``overwrite_a`` and ``overwrite_b``, each half runs one scipy eigh, a
    quarter of the flops of the whole.  The eigenvalues come back merged in
    ascending order (a stable sort, even half first on ties) and V, in
    Fortran order as scipy returns it, has its columns in that order with
    V' B V = I; the inputs are never overwritten.  Any other pencil runs one
    scipy eigh, unchanged.

    Raises NotSpdError, naming B, when B has no Cholesky factor; a split B
    has one exactly when both its halves do.
    """
    try:
        if (_SPLIT_KWARGS.issuperset(kwargs) and _centrosymmetric(a)
                and (b is None or (_centrosymmetric(b) and b.shape == a.shape))):
            return _eigh_split(a, b, kwargs.get("eigvals_only", False))
        return scipy.linalg.eigh(a, b, **kwargs)
    except scipy.linalg.LinAlgError as exc:
        raise NotSpdError(f"{name} is not SPD: {exc}") from exc


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
