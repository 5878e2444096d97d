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

from .errors import DimensionMismatchError, InputError, NotSpdError
from .linalg import LanczosResult, SpatialMatrix, SpdFactor, eigh_pencil, lanczos_extremal_eig

# Columns per block of the inexact kinds.  The V-cycle (or Jacobi)
# temporaries made from a block are then small enough for the allocator to
# reuse their memory instead of returning it to the OS and faulting it back
# in, and a block is still wide enough to amortize the per-call cost of the
# sparse products on every level.  A width fixed in columns, not in bytes,
# because 256 KiB blocks (8 columns at dim 3969) lost to 32-64 columns.
# Set-up plus Uzawa solve of 2d heat with one V-cycle, one thread, 2 MiB L2
# (seconds, minor page faults):
#   h=1/32, N=256 (dim 961): whole 256-column blocks 2.7-3.1 s, 375k-445k;
#     64 columns 1.8-2.4 s, 20k-35k; 34 columns 1.6-2.3 s, 18k-36k;
#     8, 16 and 128 columns slower.
#   h=1/64, N=256 (dim 3969): whole 10.3-13.5 s, 490k-540k; 64 columns
#     8.7-10.9 s, 130k-200k; 32 columns 9.2-9.6 s; 8 columns 11.9-15.3 s;
#     128 columns 12.2-12.5 s.
#   h=1/64, N=1024: whole 49.5-57.7 s, 560k-690k; 64 columns 54.0-57.4 s,
#     290k-315k; 8 columns 57.8 s.
#   h=1/16, N=1024 (dim 225): whole 2.5-2.8 s, 340k-390k; 64 columns
#     2.2-2.3 s, 93k-99k; 145 columns 2.2-2.4 s; 16 and 32 columns slower.
#   h=1/32, N=256, Jacobi, 40 iterations: whole 4.4 s, 490k; 64 columns
#     3.2-3.4 s, 200k.
BLOCK_COLUMNS = 64


class SpatialSolver:
    """Approximate inverse of an SPD spatial operator.

    ``apply`` takes a vector of length ``dim`` or a ``(dim, m)`` block whose
    columns are independent right-hand sides.  ``block_columns`` is the
    largest m worth passing at once, None for no limit.
    """

    target: SpatialMatrix
    block_columns: int | None = None

    def apply(self, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward application of the implied preconditioner matrix.

        Only exact solvers expose this; it is needed by diagnostic norms.
        """
        raise InputError(f"{type(self).__name__} has no forward operator")


class DirectSolver(SpatialSolver):
    def __init__(self, target: SpatialMatrix):
        self.target = target
        self._factor = SpdFactor(target)

    def apply(self, b: np.ndarray) -> np.ndarray:
        return self._factor.solve(b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.target.dot(x)


class _Blend:
    """The operators shift_j * mass + base, one per column of a block.

    A single operator has no mass term; its one diagonal column then
    broadcasts over any number of right-hand sides.
    """

    def __init__(self, base: sp.csr_matrix, mass: sp.csr_matrix | None):
        self.base = base
        self.mass = mass

    def dot(self, x: np.ndarray, shifts: np.ndarray | None) -> np.ndarray:
        y = self.base @ x
        if self.mass is not None:
            y += (self.mass @ x) * shifts
        return y

    def diagonal(self, shifts: np.ndarray | None) -> np.ndarray:
        d = self.base.diagonal()[:, None]
        if self.mass is not None:
            d = d + self.mass.diagonal()[:, None] * shifts
        return d

    def coarsen(self, p: sp.csr_matrix) -> "_Blend":
        """Galerkin coarse pair; exact because coarsening is linear in the blend."""
        mass = None if self.mass is None else (p.T @ self.mass @ p).tocsr()
        return _Blend((p.T @ self.base @ p).tocsr(), mass)


class _BlendSolver(SpatialSolver):
    """Solvers that can act on a whole family of shifted operators at once.

    With ``mass`` and ``shifts`` given, column j of a ``(dim, len(shifts))``
    right-hand side block is solved against shifts[j] * mass + target; without
    them every column is solved against target.  Subclasses keep their
    per-column arrays in ``_scales``, which ``columns`` slices.
    """

    block_columns = BLOCK_COLUMNS

    def __init__(self, target: SpatialMatrix, mass: SpatialMatrix | None,
                 shifts: np.ndarray | None):
        if (mass is None) != (shifts is None):
            raise InputError("mass and shifts must be given together")
        self.target = target
        self._shifts = None
        if mass is not None:
            if mass.dim != target.dim:
                raise DimensionMismatchError("mass and target dimensions differ")
            self._shifts = np.asarray(shifts, dtype=np.float64).reshape(1, -1)
            mass = mass.tocsr()
        self._op = _Blend(target.tocsr(), mass)

    def columns(self, cols: slice) -> "_BlendSolver":
        """The same solver restricted to the shifts in cols; shares all arrays."""
        if self._shifts is None:
            return self
        view = copy.copy(self)
        view._shifts = self._shifts[:, cols]
        view._scales = [a[:, cols] for a in self._scales]
        return view

    def _block(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.target.dim:
            raise DimensionMismatchError(
                f"expected {self.target.dim} rows, got shape {b.shape}"
            )
        x = b.reshape(b.shape[0], -1)
        if self._shifts is not None and self._shifts.shape[1] not in (1, x.shape[1]):
            raise DimensionMismatchError(
                f"{self._shifts.shape[1]} shifts for {x.shape[1]} right-hand sides"
            )
        return x


class JacobiSolver(_BlendSolver):
    """Fixed number of Jacobi sweeps, damped by 2/3, from a zero initial guess."""

    def __init__(self, target: SpatialMatrix, sweeps: int = 1,
                 mass: SpatialMatrix | None = None, shifts: np.ndarray | None = None):
        if sweeps < 1:
            raise InputError("need at least one sweep")
        super().__init__(target, mass, shifts)
        self.sweeps = sweeps
        # damped inverse diagonal, one column per shift
        self._scales = [(2.0 / 3.0) / self._op.diagonal(self._shifts)]

    def apply(self, b: np.ndarray) -> np.ndarray:
        rhs = self._block(b)
        dinv = self._scales[0]
        x = dinv * rhs
        for _ in range(self.sweeps - 1):
            x += dinv * (rhs - self._op.dot(x, self._shifts))
        return x.reshape(np.shape(b))


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

    @property
    def levels(self) -> int:
        return len(self.cells)


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
    of (mass, target) pairs serves every member: each level costs two sparse
    products per block, the smoother uses a per-column diagonal, and the
    coarsest level solves every member from one dense generalized
    eigendecomposition target_c V = mass_c V diag(lam), as
    V diag(1 / (shifts[j] + lam)) V'.
    """

    def __init__(
        self,
        target: SpatialMatrix,
        hierarchy: MgHierarchy,
        cycles: int = 1,
        mass: SpatialMatrix | None = None,
        shifts: np.ndarray | None = None,
    ):
        super().__init__(target, mass, shifts)
        self.hierarchy = hierarchy
        self.cycles = cycles
        damping = 2.0 / 3.0 if hierarchy.space == "1d" else 4.0 / 5.0
        ops = [self._op]
        for p in hierarchy.prolongations:
            ops.append(ops[-1].coarsen(p))
        self._ops = ops
        # restrictions P' as CSR once, not a new CSC transpose per product
        self._restrictions = [p.T.tocsr() for p in hierarchy.prolongations]
        coarse = ops[-1]
        lam, self._coarse_v = eigh_pencil(
            coarse.base.toarray(),
            None if coarse.mass is None else coarse.mass.toarray(),
            name="coarse mass",
        )
        denom = lam[:, None] if self._shifts is None else lam[:, None] + self._shifts
        if np.any(denom <= 0.0):
            raise NotSpdError("coarse operator is not SPD")
        # one column per shift and level: the damped inverse diagonal on the
        # smoothing levels, the inverse spectrum on the coarsest
        self._scales = [damping / op.diagonal(self._shifts) for op in ops[:-1]]
        self._scales.append(1.0 / denom)

    def _vcycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self._ops) - 1:
            v = self._coarse_v
            return v @ (self._scales[level] * (v.T @ b))
        op = self._ops[level]
        shifts = self._shifts
        dinv = self._scales[level]
        x = dinv * b
        r = b - op.dot(x, shifts)
        coarse = self._vcycle(level + 1, self._restrictions[level] @ r)
        x += self.hierarchy.prolongations[level] @ coarse
        x += dinv * (b - op.dot(x, shifts))
        return x

    def apply(self, b: np.ndarray) -> np.ndarray:
        rhs = self._block(b)
        x = self._vcycle(0, rhs)
        for _ in range(self.cycles - 1):
            x += self._vcycle(0, rhs - self._op.dot(x, self._shifts))
        return x.reshape(np.shape(b))


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


def estimate_rho_A(
    a: SpatialMatrix, solver: SpatialSolver, iters: int = 200, seed: int = 0
) -> float:
    """Contraction quality of the preconditioner in its own energy norm.

    Equals max |1 - lambda| over the spectrum of the preconditioned operator,
    which is self-adjoint in the target's inner product; estimated by Lanczos
    and therefore converging from below.
    """
    rng = np.random.default_rng(seed)
    res = lanczos_extremal_eig(
        lambda x: solver.apply(a.dot(x)),
        lambda x: a.dot(x),
        rng.standard_normal(a.dim),
        iters,
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
