"""DST-diagonalized Schur complement preconditioner.

After the sine-transform change of temporal basis, the preconditioner is
block-diagonal: mode k carries the SPD spatial blend H_k = mu_k M + tau A
with frequency weight mu_k = 2 sin((2k-1) pi / (4N)).  One inverse
application is transform, per-mode solve-multiply-solve, inverse transform.
The inexact kinds run the solves of all modes as one batched solver
application on the (dim, N) block of modes.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

import numpy as np

from .dst import DstPlan
from .errors import DimensionMismatchError, InputError
from .linalg import SpatialMatrix, SpdFactor, add_matrices
from .problems import ProblemSpec
from .spatial import MgHierarchy, SpatialSolver, build_mg_hierarchy, make_solver
from . import parallel, timing


def frequency_weights(N: int) -> np.ndarray:
    """mu_k = 2 sin((2k-1) pi / (4N)), strictly increasing and positive."""
    k = np.arange(1, N + 1)
    return 2.0 * np.sin((2 * k - 1) * np.pi / (4 * N))


class _Views(Sequence):
    """Read-only sequence whose items are built on access."""

    def __init__(self, count: int, build: Callable[[int], object]):
        self._count = count
        self._build = build

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int):
        return self._build(range(self._count)[operator.index(k)])


class SchurPreconditioner:
    """Holds the frequency-mode solvers; immutable after build.

    The direct kind factorizes each mode.  The inexact kinds (``mg`` and
    ``jacobi``) build one solver for the whole family mu_k M + tau A and
    apply it to all modes at once, as a (dim, N) block.  ``blocks[k]`` and
    ``solvers[k]`` give the per-mode operators and solvers; for the inexact
    kinds they are built on access, the solvers as column views of the
    batched one.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        solver_kind: str = "direct",
        hierarchy: MgHierarchy | None = None,
        **solver_opts,
    ):
        self.N = spec.N
        self.dim = spec.dim
        self.tau_ref = spec.tau_ref
        self.a_ref = spec.a_ref
        self.mass = spec.mass
        self.mu = frequency_weights(self.N)
        self.plan = DstPlan(self.N)
        self.solver_kind = solver_kind
        self._tau_a = spec.a_ref.scaled(spec.tau_ref)
        self._direct: list[SpatialSolver] | None = None
        # the one solver of the whole family (inexact kinds only)
        self.batched: SpatialSolver | None = None
        if solver_kind == "direct":
            self._direct = [make_solver(h_k, "direct") for h_k in self.blocks]
        else:
            self.batched = make_solver(
                self._tau_a, solver_kind, hierarchy=hierarchy,
                mass=spec.mass, shifts=self.mu, **solver_opts,
            )
        self._a_factor: SpdFactor | None = None  # built only for exact mode

    @property
    def blocks(self) -> Sequence[SpatialMatrix]:
        """Per-mode blends H_k = mu_k M + tau A."""
        return _Views(
            self.N, lambda k: add_matrices(self.mu[k], self.mass, 1.0, self._tau_a)
        )

    @property
    def solvers(self) -> Sequence[SpatialSolver]:
        """Per-mode approximate inverses of ``blocks[k]``."""
        if self._direct is not None:
            return self._direct
        return _Views(self.N, lambda k: self.batched.columns(slice(k, k + 1)))

    def _blend(self, x: np.ndarray) -> np.ndarray:
        """Column k of x times H_k, for a (dim, N) block x."""
        return self.mass.dot(x) * self.mu + self._tau_a.dot(x)

    def _check(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.N, self.dim):
            raise DimensionMismatchError(
                f"expected block vector of shape {(self.N, self.dim)}, got {r.shape}"
            )
        return r

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """Approximate Schur-complement inverse: one preconditioner action."""
        r = self._check(r)
        rhat = self.plan.inverse_transpose(r)
        scale = 2.0 * self.tau_ref / self.N
        out = np.empty_like(rhat)

        def columns(cols: slice) -> None:
            if self.batched is None:
                for k in range(self.N)[cols]:
                    s = self._direct[k]
                    out[k] = scale * s.apply(self.a_ref.dot(s.apply(rhat[k])))
                return
            s = self.batched.columns(cols)
            y = self.a_ref.dot(s.apply(rhat[cols].T))
            out[cols] = scale * s.apply(y).T

        parallel.chunk_map(columns, self.N)
        return self.plan.inverse(out)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Exact forward application; only meaningful with direct solvers."""
        if self.solver_kind != "direct":
            raise InputError("forward application requires direct (exact) solvers")
        u = self._check(u)
        uhat = self.plan.forward(u)
        with timing.timed("spatial"):
            if self._a_factor is None:
                self._a_factor = SpdFactor(self.a_ref)
            y = self._a_factor.solve(self._blend(uhat.T))
        out = (self.N / (2.0 * self.tau_ref)) * self._blend(y)
        return self.plan.forward_transpose(out.T)


def build_schur_preconditioner(
    spec: ProblemSpec,
    solver_kind: str = "direct",
    vcycles: int = 1,
    smooth_steps: int = 1,
    jacobi_sweeps: int = 2,
) -> SchurPreconditioner:
    """Convenience builder tying solver options to the problem's mesh."""
    if solver_kind == "mg":
        meta = spec.meta
        if "space" not in meta:
            raise InputError("mg solvers need mesh metadata on the problem")
        hierarchy = build_mg_hierarchy(meta["space"], meta["mesh"])
        return SchurPreconditioner(
            spec, "mg", hierarchy=hierarchy, cycles=vcycles, smooth_steps=smooth_steps
        )
    if solver_kind == "jacobi":
        return SchurPreconditioner(spec, "jacobi", sweeps=jacobi_sweeps)
    return SchurPreconditioner(spec, solver_kind)
