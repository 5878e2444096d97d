"""DST-diagonalized Schur complement preconditioner.

After the sine-transform change of temporal basis, the preconditioner is
block-diagonal: mode k carries the SPD spatial blend H_k = mu_k M + tau A
with frequency weight mu_k = 2 sin((2k-1) pi / (4N)).  One inverse
application is transform, per-mode solve-multiply-solve, inverse transform.
The inexact kinds run the solves of all modes as one batched solver
application on the (dim, N) block of modes.  The direct kind diagonalizes
the spatial pencil once (fast diagonalization): with tau A V = M V diag(lam)
and V' M V = I, every H_k^-1 A H_k^-1 is V diag(lam / (tau (mu_k + lam)^2)) V',
so one application is the two basis maps of V on the whole block, each a
sparse symmetry fold and one dense product per symmetry class.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Callable, Sequence

import numpy as np

from .dst import DstPlan
from .errors import DimensionMismatchError, InputError, NotSpdError
from .linalg import BlockBasis, SpatialMatrix, SpdFactor, add_matrices, eigh_blocks
from .problems import ProblemSpec
from .spatial import MgHierarchy, SpatialSolver, build_mg_hierarchy, make_solver
from . import parallel


# Largest spatial dimension for which the direct kind uses the dense
# eigendecomposition; above it, one sparse LU factorization per mode.  The
# eigenbasis costs O(dim^3) to set up and O(dim^2 N) per application,
# against sparse factors that grow almost linearly in dim.  It is kept as
# class blocks split by the mesh's mirror symmetries (see
# linalg.eigh_blocks): two half-size blocks in 1d, four quarter-size ones
# in 2d, so its set-up, its memory (8 dim^2 / 2 or / 4 bytes) and its
# per-application flops are those of the blocks.  Measured at N = 256 on
# one BLAS thread, 2-core host, eigenbasis / LU, set-up then one
# application: 0.03 / 0.22 s and 10 / 19 ms at 1d dim 511, 0.15 / 0.32 s
# and 20 / 31-35 ms at 1d dim 1023, 0.05 / 0.97 s and 12 / 48-85 ms at 2d
# dim 961, 0.28-0.29 / 2.2-2.4 s and 34-50 / 153-206 ms at 2d dim 2209.
# The eigenbasis is faster on both counts at every mesh measured.  This
# limit was set when the basis was one dense V and the per-application
# crossover lay near dim 800 in 1d and dim 2000 in 2d; it now leaves 1d
# dim 1023 on its slower side (2d dim 3969 was not measured).  Moving it
# is left to a measured rule that also weighs memory.
EIG_DIM_LIMIT = 1000


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
    """Holds the frequency-mode solvers; immutable after build apart from
    its two clocks.

    The direct kind diagonalizes the pencil (tau A, M) once when
    ``dim <= EIG_DIM_LIMIT`` and factorizes each mode otherwise.  Its
    eigenbasis is the only one it holds, as a ``linalg.BlockBasis``: the
    orthogonal symmetry fold of the pencil and one dense block of V per
    symmetry class (four quarter-size blocks on a 2d mesh, two half-size
    ones in 1d), so that it holds no (dim, dim) array unless the pencil has
    no symmetry.  Its modes, the eigenvalues lam and the weights D of the
    mode stage all run in the basis's class order.  The inexact
    kinds (``mg`` and ``jacobi``) build one solver for the whole family
    mu_k M + tau A and apply it to all modes at once, as a (dim, N) block.
    ``blocks[k]`` and ``solvers[k]`` give the per-mode operators and solvers;
    unless the direct kind factorized each mode they are built on access, the
    inexact solvers as column views of the batched one.  With the
    eigenbasis, ``apply_inverse`` also applies the same inverse to a slab of
    spatial modes of a block held as coefficients in that basis.

    ``fft_seconds`` and ``spatial_seconds`` accumulate the wall time that
    ``apply_inverse`` spends in its two DSTs and in its mode stage: all of
    it outside a pool task, its share in one (``parallel.add_seconds``).
    ``setup_seconds`` is the wall time of the build.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        solver_kind: str = "direct",
        hierarchy: MgHierarchy | None = None,
        **solver_opts,
    ):
        start = time.perf_counter()
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
        # the direct kind's eigenbasis, its modes in class order
        self._basis: BlockBasis | None = None
        # its per-mode spectral weights D, in Fortran order, the layout of
        # the DST output it multiplies (with a C-order D that product
        # measured 8x slower at N = 1024, dim = 127): row k of D is the
        # diagonal of V^-1 (tau / (2 N)) H_k^-1 A H_k^-1 V^-T, the mode
        # stage's 2 tau / N times the 1/4 of the two unscaled DSTs
        self._d_fortran: np.ndarray | None = None
        # the one solver of the whole family (inexact kinds only)
        self.batched: SpatialSolver | None = None
        if solver_kind == "direct" and self.dim <= EIG_DIM_LIMIT:
            self._basis, self._d_fortran = self._diagonalize()
        elif solver_kind == "direct":
            self._direct = [make_solver(h_k, "direct") for h_k in self.blocks]
        else:
            self.batched = make_solver(
                self._tau_a, solver_kind, hierarchy=hierarchy,
                mass=spec.mass, shifts=self.mu, **solver_opts,
            )
        self._a_factor: SpdFactor | None = None  # built only for exact mode
        self.fft_seconds = 0.0
        self.spatial_seconds = 0.0
        self.setup_seconds = time.perf_counter() - start

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
        if self.batched is None:
            return _Views(self.N, lambda k: make_solver(self.blocks[k], "direct"))
        return _Views(self.N, lambda k: self.batched.columns(slice(k, k + 1)))

    def _diagonalize(self) -> tuple[BlockBasis, np.ndarray]:
        basis = eigh_blocks(self._tau_a.tocsr(), self.mass.tocsr(), name="mass matrix")
        # (dim, N), the transpose of the Fortran-order (N, dim) D
        d = basis.lam[:, None] + self.mu
        if np.any(d <= 0.0):
            raise NotSpdError("frequency-mode blend is not SPD")
        # tau / (2 N) times lam / (tau (mu_k + lam)^2); tau cancels
        np.divide((0.5 / self.N) * basis.lam[:, None], np.square(d, out=d), out=d)
        return basis, d.T

    def eigenbasis(self, spec: ProblemSpec) -> BlockBasis | None:
        """The basis V, with tau_ref A_ref V = M V diag(lam) and V' M V = I,
        when this preconditioner holds the eigenbasis of spec's own pencil
        (the same M and A_ref objects, the same tau_ref and N); else None."""
        if (self._basis is None or self.mass is not spec.mass
                or self.a_ref is not spec.a_ref or self.tau_ref != spec.tau_ref
                or self.N != spec.N):
            return None
        return self._basis

    def mode_weights(self) -> np.ndarray | None:
        """D, the Fortran-order (N, dim) weights of the eigenbasis mode stage,
        or None without an eigenbasis: D[k, j] = lam_j / (2 N (mu_k + lam_j)^2).

        On coefficients r V with columns ``slab``, ``apply_inverse`` maps
        column j to 4 Q (D[:, j] * (Q' r_j)), Q the synthesis map
        ``plan.inverse``: in the DST basis of that map, Htilde^-1 multiplies
        mode (k, j) by 4 D[k, j].  The array is the one the mode stage reads;
        do not write to it."""
        return self._d_fortran

    def blend(self, x: np.ndarray) -> np.ndarray:
        """Column k of x times H_k, for a (dim, N) block x."""
        return self.mass.dot(x) * self.mu + self._tau_a.dot(x)

    def _check(self, r: np.ndarray, width: int | None = None) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        shape = (self.N, self.dim if width is None else width)
        if r.shape != shape:
            raise DimensionMismatchError(
                f"expected block vector of shape {shape}, got {r.shape}"
            )
        return r

    def apply_inverse(self, r: np.ndarray, slab: slice | None = None) -> np.ndarray:
        """Approximate Schur-complement inverse: one preconditioner action.

        With ``slab`` (direct kind with an eigenbasis only), r holds the
        columns ``slab`` of the coefficients r V of a residual, one column
        per spatial mode, and the result holds the same columns of the
        coefficients y_hat of y = y_hat V'.  The mode stage is diagonal in
        space there: one product with those columns of D between the two
        DSTs, which transform each mode on its own.  ``slice(None)`` takes
        every mode.

        Both DSTs run unscaled (``scale=1.0``), each twice its normalized
        map, and the mode stage carries their factor 1/4: in D, and in the
        scale of the per-mode and batched solves.  Scaling by a power of two
        is exact, so the result is bit-identical to normalized DSTs around
        the stage 2 tau / N H_k^-1 A_ref H_k^-1, with no scaling pass.
        """
        stage = self._solve_modes
        if slab is None:
            r = self._check(r)
        else:
            if self._d_fortran is None:
                raise InputError("no eigenbasis: direct kind with dim <= EIG_DIM_LIMIT only")
            d = self._d_fortran[:, slab]
            r = self._check(r, d.shape[1])

            def stage(rhat: np.ndarray) -> np.ndarray:
                return np.multiply(rhat, d, out=rhat)

        t0 = time.perf_counter()
        rhat = self.plan.inverse_transpose(r, scale=1.0)
        t1 = time.perf_counter()
        out = stage(rhat)
        t2 = time.perf_counter()
        u = self.plan.inverse(out, scale=1.0)
        parallel.add_seconds(self, "fft_seconds", (t1 - t0) + (time.perf_counter() - t2))
        parallel.add_seconds(self, "spatial_seconds", t2 - t1)
        return u

    def _solve_modes(self, rhat: np.ndarray) -> np.ndarray:
        """(tau / (2 N)) H_k^-1 A_ref H_k^-1 on mode k (row k) of rhat: the
        stage between the two unscaled DSTs of ``apply_inverse``.

        The inexact kinds run the whole solve, A_ref product, solve stage on
        column blocks of at most ``batched.block_columns`` modes.
        """
        if self._basis is not None:
            # each basis map on the whole block; chunking the columns would
            # not be bit-identical across thread counts
            c = self._basis.analysis(rhat.T)
            c *= self._d_fortran.T
            return self._basis.synthesis(c).T
        scale = 0.5 * self.tau_ref / self.N
        if self.batched is None:
            # one factorization per mode, each solving a contiguous row
            rhat = np.ascontiguousarray(rhat)
            out = np.empty_like(rhat)

            def modes(cols: slice) -> None:
                for k in range(self.N)[cols]:
                    s = self._direct[k]
                    out[k] = scale * s.apply(self.a_ref.dot(s.apply(rhat[k])))

            parallel.chunk_map(modes, self.N)
            return out
        # the (dim, N) views, one column per mode
        rhat = rhat.T
        out = np.empty_like(rhat, order="C")

        def columns(cols: slice) -> None:
            s = self.batched.columns(cols)
            y = self.a_ref.dot(s.apply(rhat[:, cols]))
            out[:, cols] = scale * s.apply(y)

        parallel.chunk_map(columns, self.N, self.batched.block_columns)
        return out.T

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Exact forward application; only meaningful with direct solvers."""
        if self.solver_kind != "direct":
            raise InputError("forward application requires direct (exact) solvers")
        u = self._check(u)
        uhat = self.plan.forward(u)
        if self._a_factor is None:
            self._a_factor = SpdFactor(self.a_ref)
        y = self._a_factor.solve(self.blend(uhat.T))
        out = (self.N / (2.0 * self.tau_ref)) * self.blend(y)
        return self.plan.forward_transpose(out.T)


def build_schur_preconditioner(
    spec: ProblemSpec,
    solver_kind: str = "direct",
    vcycles: int = 1,
) -> SchurPreconditioner:
    """Convenience builder tying solver options to the problem's mesh; the
    jacobi kind makes two sweeps."""
    if solver_kind == "mg":
        meta = spec.meta
        if "space" not in meta:
            raise InputError("mg solvers need mesh metadata on the problem")
        hierarchy = build_mg_hierarchy(meta["space"], meta["mesh"])
        return SchurPreconditioner(spec, "mg", hierarchy=hierarchy, cycles=vcycles)
    if solver_kind == "jacobi":
        return SchurPreconditioner(spec, "jacobi", sweeps=2)
    return SchurPreconditioner(spec, solver_kind)
