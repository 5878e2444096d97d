"""Linear SPD approximate inverses for the spatial operators.

Three kinds: exact direct solves, damped Jacobi sweeps, and symmetric
geometric multigrid V-cycles on the structured 1d/2d meshes.  Every kind
realizes one application of a fixed symmetric positive definite linear
operator (never a tolerance-driven iteration), so the induced block
preconditioners stay SPD.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import parallel
from .errors import DimensionMismatchError, InputError, NotSpdError
from .linalg import (
    LanczosResult,
    SpatialMatrix,
    SpdFactor,
    csr_matmul_into,
    eigh_blocks,
    lanczos_extremal_eig,
)

# Columns per block of the inexact kinds.  A V-cycle runs on per-thread
# work blocks and per-column tables of this width (see MgVCycleSolver), so
# the width sets how much of a level's working set stays in L2 and how much
# memory the solvers hold, while a block must stay wide enough to amortize
# the Python cost of each pass and sparse product over its columns.
# Set-up plus Uzawa solve of 2d heat with one V-cycle, N = 256, one thread
# of a 2-core host with 2 MiB L2, one process per run (solve seconds over
# three runs, peak RSS):
#   h=1/32 (dim 961): 16 columns 0.78-0.89 s, 95 MB; 32 0.69-0.83 s,
#     97 MB; 64 0.65-0.72 s, 99.5 MB; 128 0.67-0.78 s, 105 MB; whole
#     256-column blocks 0.62-0.96 s, 113 MB.
#   h=1/64 (dim 3969): 16 columns 3.3-3.6 s, 180 MB; 32 3.2-3.3 s, 186 MB;
#     64 3.0-3.2 s, 198 MB; 128 3.2-3.4 s, 223 MB; whole 3.3-3.6 s, 255 MB.
# The cycle that allocated its temporaries on every call took 0.82-0.90 s
# (96 MB) and 3.8-4.2 s (181 MB) at 64 columns.  Alternating 32 and 64
# columns in one process read medians 0.79 / 0.77 s at h=1/32 and
# 4.2 / 4.0 s at h=1/64.
BLOCK_COLUMNS = 64


class SpatialSolver:
    """Approximate inverse of an SPD spatial operator.

    ``apply`` takes a vector of length ``dim`` or a ``(dim, m)`` block whose
    columns are independent right-hand sides.  Given ``out``, an array of
    b's shape that does not overlap b, it writes the result there.
    ``block_columns`` is the largest m worth passing at once, None for no
    limit.
    """

    target: SpatialMatrix
    block_columns: int | None = None

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


class DirectSolver(SpatialSolver):
    def __init__(self, target: SpatialMatrix):
        self.target = target
        self._factor = SpdFactor(target)

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = self._factor.solve(b)
        if out is None:
            return x
        out[...] = x
        return out


class _Blend:
    """The operators base + shift_j * mass, one per column of a block.

    A single operator has no mass term; its one diagonal column then
    broadcasts over any number of right-hand sides.  ``stacked`` is the CSR
    [base | mass] (base alone without mass): one product of it with the
    (``rows``, m) block [x; shifts * x] applies every member to its column.
    """

    def __init__(self, base: sp.csr_matrix, mass: sp.csr_matrix | None):
        self.base = base
        self.mass = mass
        self.dim = base.shape[0]
        if mass is None:
            self.stacked, self.rows = base, self.dim
        else:
            self.stacked, self.rows = sp.hstack([base, mass], format="csr"), 2 * self.dim

    def diagonal(self, shifts: np.ndarray | None) -> np.ndarray:
        d = self.base.diagonal()[:, None]
        if self.mass is not None:
            d = d + self.mass.diagonal()[:, None] * shifts
        return d

    def coarsen(self, p: sp.csr_matrix) -> "_Blend":
        """Galerkin coarse pair; exact because coarsening is linear in the blend."""
        mass = None if self.mass is None else (p.T @ self.mass @ p).tocsr()
        return _Blend((p.T @ self.base @ p).tocsr(), mass)

    def residual(self, z: np.ndarray, b: np.ndarray, shifts: np.ndarray | None,
                 r: np.ndarray) -> np.ndarray:
        """r = (base + shifts * mass) x - b for x = z[:dim], a C-order
        (rows, m) block whose lower half it fills with shifts * x: one
        stacked product added onto -b.  shifts is a C-order block of at
        least dim rows, all equal."""
        if self.mass is not None:
            np.multiply(z[:self.dim], shifts[:self.dim], out=z[self.dim:])
        np.negative(b, out=r)
        return csr_matmul_into(self.stacked, z, r, accumulate=True)

    def smooth(self, z: np.ndarray, b: np.ndarray, shifts: np.ndarray | None,
               dinv: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One damped Jacobi step x - dinv (blend x - b) from x = z[:dim]
        into out (which may be x), with r as work."""
        self.residual(z, b, shifts, r)
        r *= dinv
        return np.subtract(z[:self.dim], r, out=out)


class _BlendSolver(SpatialSolver):
    """Solvers that can act on a whole family of shifted operators at once.

    With ``mass`` and ``shifts`` given, column j of a ``(dim, len(shifts))``
    right-hand side block is solved against shifts[j] * mass + target; without
    them every column is solved against target.  ``columns`` gives the same
    solver restricted to some of the shifts.

    The per-column arrays of a block of width m (the subclass's
    ``_scale_table``, and the shifts repeated down dim rows) are kept as
    C-order (dim_l, m) blocks, made on first use for each column range and
    width and shared by the column views, so that every elementwise pass
    runs on whole contiguous blocks.  One is kept for every range asked
    for: column blocks that split a family hold as many entries together
    as one table of all its columns.  Work arrays are kept per thread and
    per block width (``parallel.WorkBlocks``), made by the subclass's
    ``_new_work`` on first use and shared with the column views.  A call in
    steady state then allocates nothing but its result when no ``out`` is
    given, and the coarsest multigrid level's few (dim_c, m) products.
    """

    block_columns = BLOCK_COLUMNS

    def __init__(self, target: SpatialMatrix, mass: SpatialMatrix | None,
                 shifts: np.ndarray | None):
        if (mass is None) != (shifts is None):
            raise InputError("mass and shifts must be given together")
        self.target = target
        self._shifts = None
        # the columns of the family this object solves, None without shifts
        self._cols: range | None = None
        if mass is not None:
            if mass.dim != target.dim:
                raise DimensionMismatchError("mass and target dimensions differ")
            self._shifts = np.asarray(shifts, dtype=np.float64).reshape(1, -1)
            self._cols = range(self._shifts.shape[1])
            mass = mass.tocsr()
        self._op = _Blend(target.tocsr(), mass)
        self._tables: dict[tuple[range | None, int], tuple] = {}
        self._work = parallel.WorkBlocks()

    def columns(self, cols: slice) -> "_BlendSolver":
        """The same solver restricted to the shifts in cols; shares all arrays."""
        if self._shifts is None:
            return self
        view = copy.copy(self)
        view._shifts = self._shifts[:, cols]
        view._cols = self._cols[cols]
        return view

    def _scale_table(self, shifts: np.ndarray | None) -> list[np.ndarray]:
        """The per-column arrays for a (1, m) row of shifts, or for none."""
        raise NotImplementedError

    def _new_work(self, m: int):
        raise NotImplementedError

    def _table(self, m: int) -> tuple[list[np.ndarray], np.ndarray | None]:
        """The scale table and repeated shifts for width m, as C-order blocks."""
        key = (self._cols, m)
        table = self._tables.get(key)
        if table is None:
            def block(a: np.ndarray, rows: int) -> np.ndarray:
                return np.ascontiguousarray(np.broadcast_to(a, (rows, m)))

            shifts = None if self._shifts is None else block(self._shifts, self._op.dim)
            table = ([block(a, a.shape[0]) for a in self._scale_table(self._shifts)], shifts)
            self._tables[key] = table
        return table

    def _block(self, b: np.ndarray, out: np.ndarray | None):
        """b and the result block as (dim, m) arrays, the table and the
        work of width m."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.target.dim:
            raise DimensionMismatchError(
                f"expected {self.target.dim} rows, got shape {b.shape}"
            )
        x = b.reshape(b.shape[0], -1)
        m = x.shape[1]
        if self._shifts is not None and self._shifts.shape[1] not in (1, m):
            raise DimensionMismatchError(
                f"{self._shifts.shape[1]} shifts for {m} right-hand sides"
            )
        if out is None:
            out = np.empty(x.shape)
        elif out.shape != b.shape:
            raise DimensionMismatchError(f"output of shape {out.shape} for {b.shape}")
        return x, out.reshape(x.shape), self._table(m), self._work.get(m, self._new_work)


class JacobiSolver(_BlendSolver):
    """Fixed number of Jacobi sweeps, damped by 2/3, from a zero initial guess."""

    def __init__(self, target: SpatialMatrix, sweeps: int = 1,
                 mass: SpatialMatrix | None = None, shifts: np.ndarray | None = None):
        if sweeps < 1:
            raise InputError("need at least one sweep")
        super().__init__(target, mass, shifts)
        self.sweeps = sweeps

    def _scale_table(self, shifts: np.ndarray | None) -> list[np.ndarray]:
        # damped inverse diagonal, one column per shift
        return [(2.0 / 3.0) / self._op.diagonal(shifts)]

    def _new_work(self, m: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        # [x; shifts * x] and the residual; one sweep writes only its result
        if self.sweeps == 1:
            return None, None
        return np.empty((self._op.rows, m)), np.empty((self._op.dim, m))

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        rhs, y, ((dinv,), shifts), (z, r) = self._block(b, out)
        x = y if self.sweeps == 1 else z[:self._op.dim]
        np.multiply(dinv, rhs, out=x)
        for sweep in range(1, self.sweeps):
            self._op.smooth(z, rhs, shifts, dinv, r, y if sweep == self.sweeps - 1 else x)
        return y.reshape(np.shape(b))


def _prolongation_1d(coarse_cells: int) -> sp.csr_matrix:
    """Linear interpolation from (c-1) to (2c-1) interior nodes."""
    fine_dim = 2 * coarse_cells - 1
    coarse = np.arange(coarse_cells - 1)
    # coarse node j sits on fine node 2j+1 and is halved onto both neighbours
    rows = np.concatenate([2 * coarse + 1, 2 * coarse, 2 * coarse + 2])
    vals = np.repeat([1.0, 0.5, 0.5], coarse.size)
    return sp.csr_matrix(
        (vals, (rows, np.tile(coarse, 3))), shape=(fine_dim, coarse.size)
    )


@dataclass
class MgHierarchy:
    """Grid transfer operators shared by all operators on one mesh family."""

    space: str
    cells: list[int]  # fine to coarse
    prolongations: list[sp.csr_matrix]  # fine to coarse, len(cells) - 1


def build_mg_hierarchy(space: str, fine_cells: int) -> MgHierarchy:
    """Coarsen by factor two down to at most 3 cells (per side)."""
    if fine_cells < 4 or fine_cells & (fine_cells - 1):
        raise InputError("fine cell count must be a power of two, at least 4")
    cells = [fine_cells]
    while cells[-1] // 2 >= 2 and cells[-1] > 3:
        cells.append(cells[-1] // 2)
    prolongations = []
    for c in cells[1:]:
        p1 = _prolongation_1d(c)
        prolongations.append(p1 if space == "1d" else sp.kron(p1, p1).tocsr())
    if space not in ("1d", "2d"):
        raise InputError(f"unknown space {space!r}")
    return MgHierarchy(space=space, cells=cells, prolongations=prolongations)


class MgVCycleSolver(_BlendSolver):
    """Symmetric geometric multigrid V-cycles with damped Jacobi smoothing.

    Galerkin coarse operators; one pre- and one post-smoothing step, damped
    by 2/3 in 1d and 4/5 in 2d, so that the realized operator is symmetric
    positive definite.  For a family shifts[j] * mass + target one hierarchy
    of (mass, target) pairs serves every member: each residual on a level is
    one product of the stacked [target | mass] with [x; shifts * x], written
    over -b, the smoother uses a per-column diagonal, and the coarsest level
    solves every member from one eigenbasis of the pencil (target_c,
    mass_c), a ``linalg.BlockBasis`` V with target_c V = mass_c V diag(lam),
    as V diag(1 / (shifts[j] + lam)) V'.  The restriction is the precomputed
    -P' (the residual carries the opposite sign), and the prolongation adds
    straight into x.

    Each thread keeps, for each block width m it is called with, three work
    blocks per level l of dim_l unknowns: [x; shifts * x] (x alone without
    a mass, and on the coarsest level), the residual (unused on the
    coarsest level) and the right-hand side (on the finest level, the copy
    of a strided one).  That is 32 m dim_l bytes per level with a mass
    and 24 m dim_l without, and 24 m dim_c on the coarsest; cycles > 1 adds
    the outer iterate, residual and correction.  At 2d h=1/32 (dims 961,
    225, 49, 9, 1) and m = 64 a thread holds 2.5 MB with a mass and 1.9 MB
    without.  The tables (see ``_BlendSolver``) are shared by the threads:
    1.1 MB and 0.6 MB there for 64 columns.
    """

    def __init__(
        self,
        target: SpatialMatrix,
        hierarchy: MgHierarchy,
        cycles: int = 1,
        mass: SpatialMatrix | None = None,
        shifts: np.ndarray | None = None,
    ):
        if cycles < 1:
            raise InputError("need at least one V-cycle")
        super().__init__(target, mass, shifts)
        self.hierarchy = hierarchy
        self.cycles = cycles
        damping = 2.0 / 3.0 if hierarchy.space == "1d" else 4.0 / 5.0
        # CSR whatever format the hierarchy holds, for csr_matmul_into
        prolongations = [p.tocsr() for p in hierarchy.prolongations]
        self._prolongations = prolongations
        ops = [self._op]
        for p in prolongations:
            ops.append(ops[-1].coarsen(p))
        self._ops = ops
        # -P' as CSR once: the restricted residual A x - b becomes the
        # coarse right-hand side P' (b - A x)
        self._restrictions = [(-p.T).tocsr() for p in prolongations]
        self._damping = damping
        coarse = ops[-1]
        self._coarse_basis = eigh_blocks(coarse.base, coarse.mass, name="coarse mass")
        if np.any(self._coarse_denominator(self._shifts) <= 0.0):
            raise NotSpdError("coarse operator is not SPD")

    def _coarse_denominator(self, shifts: np.ndarray | None) -> np.ndarray:
        lam = self._coarse_basis.lam[:, None]
        return lam if shifts is None else lam + shifts

    def _scale_table(self, shifts: np.ndarray | None) -> list[np.ndarray]:
        # one column per shift and level: the damped inverse diagonal on the
        # smoothing levels, the inverse spectrum on the coarsest
        table = [self._damping / op.diagonal(shifts) for op in self._ops[:-1]]
        table.append(1.0 / self._coarse_denominator(shifts))
        return table

    def _new_work(self, m: int) -> list[tuple[np.ndarray, ...]]:
        """(z, r, b) per level, and the outer (z, r, dx) for cycles > 1."""
        last = len(self._ops) - 1
        work = [(np.empty((op.dim if level == last else op.rows, m)),
                 np.empty((op.dim, m)), np.empty((op.dim, m)))
                for level, op in enumerate(self._ops)]
        if self.cycles > 1:
            op = self._op
            work.append((np.empty((op.rows, m)), np.empty((op.dim, m)),
                         np.empty((op.dim, m))))
        return work

    def _vcycle(self, level: int, b: np.ndarray, out: np.ndarray, table,
                work: list[tuple[np.ndarray, ...]]) -> np.ndarray:
        scales, shifts = table
        if level == len(self._ops) - 1:
            # three fresh (dim_c, m) products; dim_c is at most 4 in 2d
            basis = self._coarse_basis
            out[...] = basis.synthesis(scales[level] * basis.analysis(b))
            return out
        z, r, _ = work[level]
        op = self._ops[level]
        dinv = scales[level]
        x = z[:op.dim]
        np.multiply(dinv, b, out=x)
        op.residual(z, b, shifts, r)
        coarse_z, _, coarse_b = work[level + 1]
        coarse = coarse_z[:coarse_b.shape[0]]
        csr_matmul_into(self._restrictions[level], r, coarse_b)
        self._vcycle(level + 1, coarse_b, coarse, table, work)
        csr_matmul_into(self._prolongations[level], coarse, x, accumulate=True)
        return op.smooth(z, b, shifts, dinv, r, out)

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        rhs, y, table, work = self._block(b, out)
        if not rhs.flags.c_contiguous:
            # a column block of a wider array: one copy, then every pass
            # over it runs on one contiguous block
            inner = work[0][2]
            np.copyto(inner, rhs)
            rhs = inner
        if self.cycles == 1:
            self._vcycle(0, rhs, y, table, work)
            return y.reshape(np.shape(b))
        # x += V(b - A x) as x -= V(A x - b): V is linear, so exactly equal
        z, r, dx = work[-1]
        x = z[:self._op.dim]
        self._vcycle(0, rhs, x, table, work)
        for cycle in range(1, self.cycles):
            self._op.residual(z, rhs, table[1], r)
            self._vcycle(0, r, dx, table, work)
            np.subtract(x, dx, out=y if cycle == self.cycles - 1 else x)
        return y.reshape(np.shape(b))


def make_solver(target: SpatialMatrix, kind: str, hierarchy: MgHierarchy | None = None,
                **opts) -> SpatialSolver:
    """Solver factory: kind in {direct, jacobi, mg}.

    The inexact kinds also take ``mass`` and ``shifts`` (see ``_BlendSolver``)
    to solve a whole family of shifted operators at once.
    """
    if kind == "direct":
        return DirectSolver(target)
    if kind == "jacobi":
        return JacobiSolver(target, **opts)
    if kind == "mg":
        if hierarchy is None:
            raise InputError("mg solver needs a grid hierarchy")
        return MgVCycleSolver(target, hierarchy, **opts)
    raise InputError(f"unknown solver kind {kind!r}")


def estimate_rho_A(a: SpatialMatrix, solver: SpatialSolver) -> float:
    """Contraction quality of the preconditioner in its own energy norm.

    Equals max |1 - lambda| over the spectrum of the preconditioned operator,
    which is self-adjoint in the target's inner product; estimated by 200
    Lanczos steps from a seeded random start, and therefore converging from
    below.
    """
    res = lanczos_extremal_eig(
        lambda x: solver.apply(a.dot(x)),
        lambda x: a.dot(x),
        np.random.default_rng(0).standard_normal(a.dim),
        200,
    )
    return max(abs(1.0 - res.lam_min), abs(1.0 - res.lam_max))


def estimate_gamma_Gamma(
    blend: Callable[[np.ndarray], np.ndarray],
    solver: SpatialSolver,
    a: SpatialMatrix,
    x0: np.ndarray,
    iters: int = 200,
) -> LanczosResult:
    """Extremal eigenvalues of the squared-preconditioner pencil.

    Returns the Lanczos run whose extremes compare H A^-1 H against its
    approximation built from the solver; (1, 1) for exact solves.
    ``blend`` applies H.  With a (dim, m) start block ``x0`` it applies one
    member H_j of a family per column, ``solver`` solves that family, and
    the result is the extremes over the whole family.
    """
    a_factor = SpdFactor(a)

    def weight(x: np.ndarray) -> np.ndarray:  # exact H A^-1 H
        return blend(a_factor.solve(blend(x)))

    def op(x: np.ndarray) -> np.ndarray:  # approx-inverse times exact
        return solver.apply(a.dot(solver.apply(weight(x))))

    return lanczos_extremal_eig(op, weight, x0, iters)


def materialize_inverse(solver: SpatialSolver, dim: int) -> np.ndarray:
    """Dense matrix of the solver operator (small-dimension test oracle)."""
    return np.column_stack([solver.apply(e) for e in np.eye(dim)])
