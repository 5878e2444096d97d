import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import pintsolve as ps
from pintsolve.errors import InputError
from pintsolve.spatial import _prolongation_1d, materialize_inverse

import conftest as oracle


def problem_matrices(space, cells):
    if space == "1d":
        return ps.assemble_mass_stiffness_1d(cells)
    return ps.assemble_mass_stiffness_2d(cells)


class TestDirectSolver:
    def test_exact(self):
        mass, stiff = problem_matrices("1d", 16)
        solver = ps.make_solver(stiff, "direct")
        rng = np.random.default_rng(0)
        b = rng.standard_normal(stiff.dim)
        assert np.allclose(stiff.dot(solver.apply(b)), b, atol=1e-12)


class TestJacobiSolver:
    def test_is_linear_and_symmetric(self):
        _, stiff = problem_matrices("1d", 16)
        solver = ps.make_solver(stiff, "jacobi", sweeps=3)
        op = materialize_inverse(solver, stiff.dim)
        assert np.allclose(op, op.T, atol=1e-13)

    def test_contracts_in_energy_norm(self):
        _, stiff = problem_matrices("1d", 16)
        solver = ps.make_solver(stiff, "jacobi", sweeps=2)
        rho = ps.estimate_rho_A(stiff, solver)
        assert rho < 1.0


class TestMultigrid:
    @pytest.mark.parametrize("space,cells", [("1d", 32), ("2d", 16)])
    def test_vcycle_is_symmetric(self, space, cells):
        _, stiff = problem_matrices(space, cells)
        hier = ps.build_mg_hierarchy(space, cells)
        solver = ps.make_solver(stiff, "mg", hierarchy=hier)
        op = materialize_inverse(solver, stiff.dim)
        assert np.allclose(op, op.T, atol=1e-11 * np.abs(op).max())

    @pytest.mark.parametrize("space,cells", [("1d", 32), ("1d", 64), ("2d", 16)])
    def test_rho_is_mesh_robust_and_small(self, space, cells):
        _, stiff = problem_matrices(space, cells)
        hier = ps.build_mg_hierarchy(space, cells)
        solver = ps.make_solver(stiff, "mg", hierarchy=hier)
        rho = ps.estimate_rho_A(stiff, solver)
        assert rho < 0.6

    def test_two_cycles_beat_one(self):
        _, stiff = problem_matrices("2d", 16)
        hier = ps.build_mg_hierarchy("2d", 16)
        rho1 = ps.estimate_rho_A(stiff, ps.make_solver(stiff, "mg", hierarchy=hier,
                                                       cycles=1))
        rho2 = ps.estimate_rho_A(stiff, ps.make_solver(stiff, "mg", hierarchy=hier,
                                                       cycles=2))
        assert rho2 < rho1**1.5

    def test_positive_definite(self):
        _, stiff = problem_matrices("2d", 8)
        hier = ps.build_mg_hierarchy("2d", 8)
        solver = ps.make_solver(stiff, "mg", hierarchy=hier)
        op = materialize_inverse(solver, stiff.dim)
        assert np.linalg.eigvalsh(0.5 * (op + op.T))[0] > 0

    @pytest.mark.parametrize("space,cells", [("1d", 8), ("2d", 4)])
    def test_coarsest_level_solves_family_exactly(self, eigh_sizes, space, cells):
        # on a one-level hierarchy the whole solve is the coarsest level: one
        # eigenbasis of (A, M), split by the mesh's mirror symmetries (dim 7
        # in two classes, dim 9 in four), serves every member s M + A
        mass, stiff = problem_matrices(space, cells)
        shifts = np.array([0.0, 0.5, 3.0, 40.0])
        solver = ps.MgVCycleSolver(stiff, ps.MgHierarchy(space, [cells], []),
                                   mass=mass, shifts=shifts)
        assert eigh_sizes == oracle.class_sizes(space, cells)
        b = np.random.default_rng(cells).standard_normal((stiff.dim, shifts.size))
        x = solver.apply(b)
        for j, s in enumerate(shifts):
            want = np.linalg.solve(s * mass.todense() + stiff.todense(), b[:, j])
            assert np.abs(x[:, j] - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("cycles", [0, -1])
    def test_rejects_fewer_than_one_cycle(self, cycles):
        _, stiff = problem_matrices("2d", 8)
        hier = ps.build_mg_hierarchy("2d", 8)
        with pytest.raises(InputError, match="V-cycle"):
            ps.MgVCycleSolver(stiff, hier, cycles=cycles)

    def test_hierarchy_rejects_odd_cells(self):
        with pytest.raises(InputError):
            ps.build_mg_hierarchy("1d", 12)

    def test_prolongation_reproduces_piecewise_linears(self):
        # a tent function with its kink on a coarse node is interpolated
        # exactly (it vanishes at both boundaries, matching zero extension)
        hier = ps.build_mg_hierarchy("1d", 16)
        p = hier.prolongations[0]
        x_coarse = np.arange(1, p.shape[1] + 1) / (p.shape[1] + 1)
        x_fine = np.arange(1, p.shape[0] + 1) / (p.shape[0] + 1)
        tent = lambda x: np.minimum(x, 1.0 - x)  # noqa: E731
        assert np.allclose(p @ tent(x_coarse), tent(x_fine), atol=1e-13)

    @pytest.mark.parametrize("coarse_cells", range(2, 33))
    def test_prolongation_matches_entrywise_build(self, coarse_cells):
        oracle.assert_same_csr(_prolongation_1d(coarse_cells),
                               oracle.loop_prolongation_1d(coarse_cells))

    @pytest.mark.parametrize("fmt", ["csc", "coo"])
    def test_hierarchy_of_any_sparse_format(self, fmt):
        # the cycle takes the prolongations as CSR whatever format they hold
        mass, stiff = problem_matrices("2d", 8)
        shifts = ps.frequency_weights(6)
        hier = ps.build_mg_hierarchy("2d", 8)
        other = ps.MgHierarchy(hier.space, hier.cells,
                               [p.asformat(fmt) for p in hier.prolongations])
        b = np.random.default_rng(8).standard_normal((stiff.dim, shifts.size))
        want = ps.make_solver(stiff, "mg", hierarchy=hier, mass=mass,
                              shifts=shifts).apply(b)
        got = ps.make_solver(stiff, "mg", hierarchy=other, mass=mass,
                             shifts=shifts).apply(b)
        assert np.array_equal(got, want)

    def test_2d_prolongations_match_entrywise_build(self):
        hier = ps.build_mg_hierarchy("2d", 16)
        assert hier.cells == [16, 8, 4, 2]
        for c, p in zip(hier.cells[1:], hier.prolongations):
            p1 = oracle.loop_prolongation_1d(c)
            oracle.assert_same_csr(p, sp.kron(p1, p1))


class TestWorkBlocks:
    """The inexact kinds run on per-thread work blocks that carry nothing
    from one call to the next."""

    N = 40

    @classmethod
    def family(cls, kind):
        mass, stiff = problem_matrices("2d", 8)
        shifts = ps.frequency_weights(cls.N)
        if kind == "mg":
            return ps.make_solver(stiff, "mg", hierarchy=ps.build_mg_hierarchy("2d", 8),
                                  mass=mass, shifts=shifts)
        return ps.make_solver(stiff, "jacobi", sweeps=3, mass=mass, shifts=shifts)

    @staticmethod
    def blocked(solver, b, threads, width):
        """Every column block of width at most width, spread over threads."""
        out = np.full_like(b, np.nan)
        ps.set_num_threads(threads)
        try:
            ps.parallel.chunk_map(
                lambda cols: solver.columns(cols).apply(b[:, cols], out=out[:, cols]),
                b.shape[1], width)
        finally:
            ps.set_num_threads(1)
        return out

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    def test_bit_identical_across_threads_widths_and_calls(self, kind):
        solver = self.family(kind)
        b = np.random.default_rng(3).standard_normal((solver.target.dim, self.N))
        want = solver.apply(b)
        for threads in (1, 2, 3):
            for width in (self.N, 7):
                for _ in range(2):
                    assert np.array_equal(self.blocked(solver, b, threads, width), want)
        assert np.array_equal(solver.apply(b), want)

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    def test_nothing_carries_over_between_calls(self, kind):
        solver = self.family(kind)
        b = np.random.default_rng(4).standard_normal((solver.target.dim, self.N))
        want = self.family(kind).apply(b)
        assert np.isnan(solver.apply(np.full_like(b, np.nan))).all()
        assert np.array_equal(solver.apply(b), want)

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    def test_out_matches_returned_result(self, kind):
        solver = self.family(kind)
        b = np.random.default_rng(5).standard_normal((solver.target.dim, self.N))
        want = solver.apply(b)
        # a strided column block of a wider array, as the callers pass
        wide = np.zeros((solver.target.dim, 2 * self.N))
        got = solver.apply(b, out=wide[:, ::2])
        assert np.shares_memory(got, wide)
        assert np.array_equal(wide[:, ::2], want)
        assert not wide[:, 1::2].any()
        with pytest.raises(ps.errors.DimensionMismatchError):
            solver.apply(b, out=np.empty((solver.target.dim, self.N + 1)))

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    def test_column_views_match_batched_columns(self, kind):
        solver = self.family(kind)
        b = np.random.default_rng(6).standard_normal((solver.target.dim, self.N))
        want = solver.apply(b)
        for k in (0, 17, self.N - 1):
            view = solver.columns(slice(k, k + 1))
            assert np.array_equal(view.apply(b[:, k]), want[:, k])
            out = np.empty(solver.target.dim)
            view.apply(b[:, k], out=out)
            assert np.array_equal(out, want[:, k])

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    def test_steady_state_allocates_nothing(self, kind):
        solver = self.family(kind)
        b = np.random.default_rng(7).standard_normal((solver.target.dim, self.N))
        out = np.empty_like(b)
        solver.apply(b, out=out)
        tracemalloc.start()
        try:
            solver.apply(b, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # small Python objects only: one column of the block is 392 bytes
        assert peak < b[:, 0].nbytes * 8


class TestPreconditionerQualityEstimates:
    def test_rho_matches_dense_oracle(self):
        _, stiff = problem_matrices("1d", 32)
        solver = ps.make_solver(stiff, "jacobi", sweeps=2)
        a = stiff.todense()
        c = materialize_inverse(solver, stiff.dim) @ a
        lam = np.linalg.eigvals(c).real
        ref = np.abs(1.0 - lam).max()
        got = ps.estimate_rho_A(stiff, solver)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_rho_zero_for_direct(self):
        _, stiff = problem_matrices("1d", 16)
        assert ps.estimate_rho_A(stiff, ps.make_solver(stiff, "direct")) < 1e-10

    def test_gamma_one_for_direct(self):
        mass, stiff = problem_matrices("1d", 16)
        h_k = ps.add_matrices(0.3, mass, 0.1, stiff)
        solver = ps.make_solver(h_k, "direct")
        x0 = np.random.default_rng(0).standard_normal(h_k.dim)
        res = ps.estimate_gamma_Gamma(h_k.dot, solver, stiff, x0)
        lo, hi = res.lam_min, res.lam_max
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_gamma_matches_dense_oracle(self):
        import scipy.linalg

        mass, stiff = problem_matrices("1d", 16)
        h_k = ps.add_matrices(0.5, mass, 0.05, stiff)
        hier = ps.build_mg_hierarchy("1d", 16)
        solver = ps.make_solver(h_k, "mg", hierarchy=hier)
        a = stiff.todense()
        hd = h_k.todense()
        exact = hd @ np.linalg.solve(a, hd)
        approx_inv = materialize_inverse(solver, h_k.dim)
        approx = approx_inv @ a @ approx_inv
        # pencil of the exact sandwich against the inverse of the approximate
        w = scipy.linalg.eigh(exact, np.linalg.inv(0.5 * (approx + approx.T)),
                              eigvals_only=True)
        x0 = np.random.default_rng(0).standard_normal(h_k.dim)
        res = ps.estimate_gamma_Gamma(h_k.dot, solver, stiff, x0, iters=100)
        lo, hi = res.lam_min, res.lam_max
        assert lo == pytest.approx(w[0], rel=1e-6)
        assert hi == pytest.approx(w[-1], rel=1e-6)
