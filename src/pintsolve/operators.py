"""Matrix-free time-global operators and the discrete parabolic norms.

All operators act on block vectors of shape (N, dim).  The solvers hold
them in Fortran order, so that the transpose is a C-order (dim, N) block
whose columns are the time steps: the sparse spatial products, the sine
transforms and the batched spatial solvers all run on that view, and a
Fortran-order input gives a Fortran-order result.  C-order inputs give the
same values.  The coupling operator pairs the backward-difference stencil in
time with the mass operator, so K u and K' u are differences of M u along
the time axis; the block-diagonal part applies tau_n * A_n, one product per
step group.  Its exact inverse (needed by the left-preconditioned operator,
the optimal-test-function map, and the dual norms) is a diagnostic feature
built on demand: the direct ``BlockDiagSolver``.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import DiagnosticModeRequiredError, DimensionMismatchError
from .problems import ProblemSpec
from .spatial import MgHierarchy, SpatialSolver, make_solver
from . import parallel


def fold_rhs(spec: ProblemSpec) -> np.ndarray:
    """Time-global right-hand side: tau_n f_n, with M u_I added to block 1."""
    rhs = np.asfortranarray(spec.grid.steps[:, None] * spec.load)
    rhs[0] += spec.mass.dot(spec.u_init)
    return rhs


def time_difference(mx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """K x from the block M x: (M x)_n - (M x)_{n-1}, with (M x)_0 = 0.

    Written to out when given (not mx itself), else to a new Fortran-order
    block; one pass either way.
    """
    if out is None:
        out = np.empty(mx.shape, order="F")
    out[0] = mx[0]
    np.subtract(mx[1:], mx[:-1], out=out[1:])
    return out


def time_difference_t(mx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """K' x from the block M x: (M x)_n - (M x)_{n+1}, with (M x)_{N+1} = 0.

    Written to out when given (not mx itself), else to a new Fortran-order
    block; one pass either way.
    """
    if out is None:
        out = np.empty(mx.shape, order="F")
    out[-1] = mx[-1]
    np.subtract(mx[:-1], mx[1:], out=out[:-1])
    return out


def weighted_saddle_product(w: np.ndarray, p: np.ndarray, u: np.ndarray,
                            top: np.ndarray, bottom: np.ndarray) -> None:
    """``TimeGlobalSystem.apply_saddle`` with the identity mass and
    A_bd x = w * x (the operators in an eigenbasis), written into top and
    bottom, which overlap neither p nor u, in ten in-place passes and no
    temporary block.

    top = w p - K u, and since K u + K' u = 2 u_n - u_{n-1} - u_{n+1}
    (u_0 = u_{N+1} = 0), bottom = -(K' p + (2 + w) u - u_{n-1} - u_{n+1}).
    The sums are grouped differently from ``apply_saddle``'s, so the two
    agree to rounding.
    """
    np.multiply(w, p, out=top)
    np.subtract(top, u, out=top)
    np.add(top[1:], u[:-1], out=top[1:])
    np.add(w, 2.0, out=bottom)
    np.multiply(bottom, u, out=bottom)
    np.subtract(bottom[1:], u[:-1], out=bottom[1:])
    np.subtract(bottom[:-1], u[1:], out=bottom[:-1])
    np.add(bottom, p, out=bottom)
    np.subtract(bottom[:-1], p[1:], out=bottom[:-1])
    np.negative(bottom, out=bottom)


class BlockDiagSolver:
    """Preconditioner for the per-step block: tau_n times a spatial solver.

    One solver per group of ``spec.step_groups``, applied once per block to
    the columns of its steps; the scales fold into the per-step divisor.
    ``spatial_seconds`` accumulates the wall time of those solves: all of
    it outside a pool task, its share in one (``parallel.add_seconds``).
    ``setup_seconds`` is the wall time of the build.
    """

    def __init__(self, spec: ProblemSpec, kind: str = "direct",
                 hierarchy: MgHierarchy | None = None, **opts):
        start = time.perf_counter()
        self.kind = kind
        self._step_groups = spec.step_groups
        # (solver of the base, steps using it, tau_n * scale_n for those steps)
        self._groups: list[tuple[SpatialSolver, np.ndarray | slice, np.ndarray]] = [
            (make_solver(base, kind, hierarchy=hierarchy, **opts),
             steps, spec.grid.steps[steps] * scales)
            for base, steps, scales in spec.step_groups
        ]
        self.spatial_seconds = 0.0
        self.setup_seconds = time.perf_counter() - start

    def inverts(self, system: "TimeGlobalSystem") -> bool:
        """True when this solver is the exact inverse of system's A_bd: the
        direct kind, built on the very step groups of system's problem."""
        return self.kind == "direct" and self._step_groups is system.spec.step_groups

    def apply_inverse(self, b: np.ndarray, weights: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Solve every step, in column blocks of at most the solver's
        ``block_columns`` steps, spread over the threads.

        With ``weights``, b is a Fortran-order block held in a spatial basis
        in which A_bd multiplies by these weights, one column per spatial
        mode: the solve is b / weights, spread over the threads by mode.
        b may be a slab of the modes, with the same columns of the weights;
        in a pool task the division runs inline.

        The result is written to out when given (an array of b's shape that
        does not overlap b), else to a new Fortran-order block, and returned.
        """
        if weights is not None:
            if out is None:
                out = np.empty(b.shape, order="F")

            def modes(cols: slice) -> None:
                np.divide(b[:, cols], weights[:, cols], out=out[:, cols])

            start = time.perf_counter()
            parallel.chunk_map(modes, b.shape[1])
            parallel.add_seconds(self, "spatial_seconds", time.perf_counter() - start)
            return out
        bt = np.asarray(b, dtype=np.float64).T
        if out is None:
            out = np.empty(bt.shape).T
        # steps is slice(None) when one group holds every step: its column
        # blocks are views of bt, not copies
        tasks = [
            (solver, cols if isinstance(steps, slice) else steps[cols], divisor[cols])
            for solver, steps, divisor in self._groups
            for cols in parallel.chunks(len(divisor), solver.block_columns)
        ]

        def task(i: int) -> None:
            solver, steps, divisor = tasks[i]
            if isinstance(steps, slice):  # solve and divide in out's columns
                np.divide(solver.apply(bt[:, steps], out=out.T[:, steps]), divisor,
                          out=out.T[:, steps])
            else:
                out.T[:, steps] = solver.apply(bt[:, steps]) / divisor

        start = time.perf_counter()
        parallel.block_map(task, len(tasks))
        parallel.add_seconds(self, "spatial_seconds", time.perf_counter() - start)
        return out


class TimeGlobalSystem:
    """Bundles a problem with its time-global operator applications."""

    def __init__(self, spec: ProblemSpec, diagnostic: bool = False):
        self.spec = spec
        self.rhs = fold_rhs(spec)
        # (base operator, steps, tau_n * scale_n as a column)
        self._abd = [
            (base, steps, (spec.grid.steps[steps] * scales)[:, None])
            for base, steps, scales in spec.step_groups
        ]
        self._exact: BlockDiagSolver | None = None
        if diagnostic:
            self.build_exact_solvers()

    def build_exact_solvers(self) -> None:
        if self._exact is None:
            self._exact = BlockDiagSolver(self.spec, "direct")

    def _check(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.spec.N, self.spec.dim):
            raise DimensionMismatchError(
                f"expected block vector of shape {(self.spec.N, self.spec.dim)}, "
                f"got {u.shape}"
            )
        return u

    # --- first-order operators ------------------------------------------------

    def apply_M(self, u: np.ndarray) -> np.ndarray:
        """The mass operator on every step."""
        return self.spec.mass.dot(self._check(u).T).T

    def apply_K(self, u: np.ndarray) -> np.ndarray:
        return time_difference(self.apply_M(u))

    def apply_Kt(self, u: np.ndarray) -> np.ndarray:
        return time_difference_t(self.apply_M(u))

    def apply_Abd(self, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        out = None if len(self._abd) == 1 else np.empty_like(u)
        for base, steps, factor in self._abd:
            y = base.dot(u[steps].T).T
            y *= factor
            if out is None:  # one group holds every step
                return y
            out[steps] = y
        return out

    def apply_B(self, u: np.ndarray) -> np.ndarray:
        return self.apply_K(u) + self.apply_Abd(u)

    def apply_Bt(self, u: np.ndarray) -> np.ndarray:
        return self.apply_Kt(u) + self.apply_Abd(u)

    def apply_saddle(self, p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply the symmetric indefinite two-by-two block operator.

        Makes two mass products (M p, M u) and two of A_bd (p, u).
        """
        mu = self.apply_M(u)
        ku = time_difference(mu)
        top = self.apply_Abd(p) - ku
        bottom = -time_difference_t(self.apply_M(p)) - (
            ku + time_difference_t(mu) + self.apply_Abd(u))
        return top, bottom

    # --- diagnostic-mode operators ---------------------------------------------

    def apply_Abd_inv(self, b: np.ndarray) -> np.ndarray:
        b = self._check(b)
        if self._exact is None:
            raise DiagnosticModeRequiredError(
                "exact per-step factorizations not built; pass diagnostic=True"
            )
        return self._exact.apply_inverse(b)

    def apply_P(self, u: np.ndarray) -> np.ndarray:
        """Optimal-test-function map: per-step exact solve of the coupling."""
        return self.apply_Abd_inv(self.apply_K(u)) + u

    def apply_Pt(self, u: np.ndarray) -> np.ndarray:
        return self.apply_Kt(self.apply_Abd_inv(u)) + u

    def apply_S(self, u: np.ndarray) -> np.ndarray:
        """Left-preconditioned (Schur complement) operator."""
        mu = self.apply_M(u)
        ku = time_difference(mu)
        return (
            self.apply_Kt(self.apply_Abd_inv(ku))
            + ku
            + time_difference_t(mu)
            + self.apply_Abd(u)
        )

    # --- norms and bilinear forms ----------------------------------------------

    def a_norm(self, u: np.ndarray) -> float:
        u = self._check(u)
        return float(np.sqrt(max(np.sum(u * self.apply_Abd(u)), 0.0)))

    def jump_form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Final-value plus temporal-jump mass form (u_0 = v_0 = 0)."""
        u, v = self._check(u), self._check(v)
        du = np.diff(u, axis=0, prepend=0.0)
        dv = np.diff(v, axis=0, prepend=0.0)
        m = self.spec.mass
        return float(u[-1] @ m.dot(v[-1]) + np.sum(du * m.dot(dv.T).T))

    def _dual_term(self, u: np.ndarray, v: np.ndarray) -> float:
        """sum_n tau_n (d_t u, d_t v) in the per-step dual inner product,
        that is sum_n (M du_n)' (tau_n A_n)^-1 (M dv_n)."""
        m = self.spec.mass
        mdu = m.dot(np.diff(u, axis=0, prepend=0.0).T).T
        mdv = m.dot(np.diff(v, axis=0, prepend=0.0).T).T
        return float(np.sum(mdu * self.apply_Abd_inv(mdv)))

    def s_bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Symmetrized form: dual-derivative term + energy term + jump form."""
        u, v = self._check(u), self._check(v)
        energy = float(np.sum(u * self.apply_Abd(v)))
        return self._dual_term(u, v) + energy + self.jump_form(u, v)

    def s_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.s_bilinear(u, u), 0.0)))

    def sd_bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Jump-free weighted form (half weight on the final energy block)."""
        u, v = self._check(u), self._check(v)
        av = self.apply_Abd(v)
        energy = float(np.sum(u[:-1] * av[:-1]) + 0.5 * (u[-1] @ av[-1]))
        return self._dual_term(u, v) + energy

    def max_m_norm(self, u: np.ndarray) -> float:
        u = self._check(u)
        return float(np.sqrt(np.max(np.sum(u * self.spec.mass.dot(u.T).T, axis=1))))


def d_norm(u: np.ndarray, apply_htilde: "callable") -> float:
    """Solver-analysis norm of a principal error u: sqrt(u' Htilde u).

    The norm's auxiliary term omega rho_A ||p||^2_Atilde needs a forward
    Atilde, which only the exact block solves have, and there rho_A = 0, so
    the term is left out.  apply_htilde is the forward Htilde, which only
    direct spatial solves give (diagnostic mode).
    """
    return float(np.sqrt(np.sum(u * apply_htilde(u))))


def dense_operator(apply_fn, n_blocks: int, dim: int) -> np.ndarray:
    """Materialize a block-vector operator column by column (test oracle)."""
    size = n_blocks * dim
    out = np.empty((size, size))
    e = np.zeros((n_blocks, dim))
    for j in range(size):
        e.ravel()[j] = 1.0
        out[:, j] = apply_fn(e).ravel()
        e.ravel()[j] = 0.0
    return out
