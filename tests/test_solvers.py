import copy
import dataclasses
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import pintsolve as ps
from pintsolve.errors import InputError, NotSpdError, SolverDivergenceError

import conftest as oracle


def setup(spec, solver="direct"):
    system = ps.TimeGlobalSystem(spec, diagnostic=True)
    hier = None
    if solver == "mg":
        hier = ps.build_mg_hierarchy(spec.meta["space"], spec.meta["mesh"])
    at = ps.BlockDiagSolver(spec, solver, hierarchy=hier)
    ht = ps.build_schur_preconditioner(spec, solver)
    return system, at, ht


class TestRateReport:
    def test_exact_block_solves(self):
        # with rho = 0 the two branch values reduce to max(1 - w*lmin, 0)
        # and max(w*lmax - 1, 0)
        r = ps.compute_rate_report(0.0, 0.9, 0.5, 2.0)
        assert r.sigma_minus == pytest.approx(max(1 - 0.9 * 0.5, 0.0))
        assert r.sigma_plus == pytest.approx(max(0.9 * 2.0 - 1, 0.0))
        assert r.rho_u == pytest.approx(0.8)
        assert r.damping_ok  # 1.8 < 2

    def test_general_formula(self):
        rho, w, lmin, lmax = 0.2, 0.7, 0.6, 1.9
        r = ps.compute_rate_report(rho, w, lmin, lmax)
        tm = (1 - rho) * (1 - w * lmin)
        tp = (1 + rho) * (1 + w * lmax) - 2
        assert r.sigma_minus == pytest.approx(
            0.5 * (tm + np.sqrt(4 * rho + tm * tm))
        )
        assert r.sigma_plus == pytest.approx(
            0.5 * (tp + np.sqrt(4 * rho + tp * tp))
        )
        assert r.rho_u == max(r.sigma_minus, r.sigma_plus)
        assert r.damping_ok == (w * lmax < 2 * (1 - rho) / (1 + rho))

    def test_rate_below_one_iff_damping_ok(self):
        ok = ps.compute_rate_report(0.1, 0.8, 0.5, 2.0)
        assert ok.damping_ok and ok.rho_u < 1.0
        bad = ps.compute_rate_report(0.4, 1.1, 0.5, 2.0)
        assert not bad.damping_ok and bad.rho_u >= 1.0

    def test_validation(self):
        with pytest.raises(InputError):
            ps.compute_rate_report(1.0, 0.9, 0.5, 2.0)
        with pytest.raises(InputError):
            ps.compute_rate_report(0.1, -0.9, 0.5, 2.0)


class TestSequentialSolve:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        spec = oracle.random_spec(rng)
        u = ps.sequential_euler_solve(spec)
        b = oracle.dense_block_B(spec)
        ref = np.linalg.solve(b, ps.fold_rhs(spec).ravel())
        assert np.allclose(u.ravel(), ref, atol=1e-10 * max(1, np.abs(ref).max()))

    def test_decay_of_homogeneous_solution(self):
        grid = ps.build_time_grid("uniform", 32, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="sine")
        u = ps.sequential_euler_solve(spec)
        norms = np.linalg.norm(u, axis=1)
        assert np.all(np.diff(norms) < 0)


class TestUzawa:
    def test_converges_to_sequential_solution(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            spec = oracle.random_spec(rng)
            system, at, ht = setup(spec)
            cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha),
                                 tol=1e-12, max_iter=300)
            (p, u), hist = ps.uzawa_solve(system, at, ht, cfg)
            assert hist.converged
            u_star = ps.sequential_euler_solve(spec)
            system.build_exact_solvers()
            assert system.s_norm(u - u_star) <= 1e-9 * system.s_norm(u_star)
            # the auxiliary variable converges to minus the solution
            assert np.abs(p + u_star).max() < 1e-8 * max(1, np.abs(u_star).max())

    def test_residual_decreases_monotonically_on_uniform(self):
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="sine")
        system, at, ht = setup(spec)
        cfg = ps.UzawaConfig(tol=1e-10, max_iter=100)
        _, hist = ps.uzawa_solve(system, at, ht, cfg)
        r = np.array(hist.residual)
        assert np.all(r[5:] < r[4:-1])

    def test_s_norm_stopping(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)
        cfg = ps.UzawaConfig(tol=1e-7, stopping="s_norm_error", max_iter=100)
        (p, u), hist = ps.uzawa_solve(system, at, ht, cfg)
        assert hist.converged
        assert hist.s_norm_error[-1] < 1e-7

    def test_zero_data_returns_immediately(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="zero")
        system, at, ht = setup(spec)
        (p, u), hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig())
        assert hist.iterations == 0
        assert hist.converged
        assert not u.any()

    def test_divergence_raises(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)
        cfg = ps.UzawaConfig(omega=40.0, tol=1e-12, max_iter=500)
        with pytest.raises(SolverDivergenceError):
            ps.uzawa_solve(system, at, ht, cfg)

    def test_warm_start(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)
        cfg = ps.UzawaConfig(tol=1e-10, max_iter=200)
        (p, u), hist_cold = ps.uzawa_solve(system, at, ht, cfg)
        _, hist_warm = ps.uzawa_solve(system, at, ht, cfg, initial=(p, u))
        assert hist_warm.iterations < hist_cold.iterations

    def test_multigrid_blocks_converge(self):
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("2d", 8, grid, data="sine")
        system, at, ht = setup(spec, "mg")
        cfg = ps.UzawaConfig(tol=1e-9, max_iter=200)
        (p, u), hist = ps.uzawa_solve(system, at, ht, cfg)
        assert hist.converged
        u_star = ps.sequential_euler_solve(spec)
        system.build_exact_solvers()
        assert system.s_norm(u - u_star) < 1e-6 * system.s_norm(u_star)

    def test_config_validation(self):
        with pytest.raises(InputError):
            ps.UzawaConfig(omega=0.0)
        with pytest.raises(InputError):
            ps.UzawaConfig(tol=-1.0)
        with pytest.raises(InputError):
            ps.UzawaConfig(stopping="energy")
        with pytest.raises(InputError):
            ps.UzawaConfig(max_iter=0)

    @pytest.mark.parametrize("name", ["omega", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(InputError):
            ps.UzawaConfig(**{name: value})


class TestMinres:
    def test_matches_sequential_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            spec = oracle.random_spec(rng)
            system, at, ht = setup(spec)
            (p, u), hist = ps.minres_solve(system, at, ht, tol=1e-12)
            u_star = ps.sequential_euler_solve(spec)
            system.build_exact_solvers()
            assert system.s_norm(u - u_star) <= 1e-8 * system.s_norm(u_star)

    def test_history_recorded(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)
        _, hist = ps.minres_solve(system, at, ht, tol=1e-10)
        assert hist.iterations > 0
        assert hist.residual[-1] < 1e-8

    @staticmethod
    def saddle_setup(spec):
        """Saddle operator, block preconditioner and right-hand side on
        (2N, dim) blocks, rows [:N] for p and [N:] for u."""
        system, at, ht = setup(spec)
        N = spec.N

        def matvec(x):
            return np.concatenate(system.apply_saddle(x[:N], x[N:]))

        def precond(r):
            return np.concatenate([at.apply_inverse(r[:N]), ht.apply_inverse(r[N:])])

        g = -np.concatenate([system.rhs, system.rhs])
        return (system, at, ht), matvec, precond, g

    def test_matches_scipy_minres(self):
        # scipy's MINRES serves as the oracle: same recurrence, same tests
        rng = np.random.default_rng(11)
        for _ in range(4):
            spec = oracle.random_spec(rng)
            solvers, matvec, precond, g = self.saddle_setup(spec)
            shape, n = g.shape, g.size

            def op(fn):
                return spla.LinearOperator(
                    (n, n), matvec=lambda x: fn(x.reshape(shape)).ravel())

            iterates = []
            ref, info = spla.minres(op(matvec), g.ravel(), M=op(precond),
                                    rtol=1e-10, maxiter=500,
                                    callback=iterates.append)
            (p, u), hist = ps.minres_solve(*solvers, tol=1e-10)
            assert info == 0 and hist.converged
            assert hist.iterations == len(iterates)
            got = np.concatenate([p, u]).ravel()
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_logged_residual_is_preconditioned_residual(self):
        # the k-th iterate is what a run capped at k iterations returns
        rng = np.random.default_rng(12)
        spec = oracle.random_spec(rng)
        solvers, matvec, precond, g = self.saddle_setup(spec)
        _, hist = ps.minres_solve(*solvers, tol=1e-10)
        beta1 = np.sqrt(np.sum(g * precond(g)))
        for k in range(1, hist.iterations + 1):
            (p, u), capped = ps.minres_solve(*solvers, tol=1e-10, max_iter=k)
            r = g - matvec(np.concatenate([p, u]))
            explicit = np.sqrt(np.sum(r * precond(r))) / beta1
            assert capped.residual == hist.residual[:k]
            assert abs(hist.residual[k - 1] - explicit) <= 1e-5 * explicit

    def test_iteration_limit_is_not_converged(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        _, hist = ps.minres_solve(*setup(spec), tol=1e-10, max_iter=2)
        assert not hist.converged
        assert hist.iterations == 2
        assert len(hist.to_csv().strip().split("\n")) == 3

    def test_iteration_limit_must_be_positive(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        with pytest.raises(InputError):
            ps.minres_solve(*setup(spec), max_iter=0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        with pytest.raises(InputError):
            ps.minres_solve(*setup(spec), tol=tol)

    def test_sign_flipped_schur_preconditioner_raises(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)

        class Flipped:
            def apply_inverse(self, r):
                return -ht.apply_inverse(r)

        with pytest.raises(NotSpdError):
            ps.minres_solve(system, at, Flipped(), tol=1e-10)


class TestHistoryCsv:
    def test_format(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)
        cfg = ps.UzawaConfig(tol=1e-8, max_iter=50, diagnostics=True)
        _, hist = ps.uzawa_solve(system, at, ht, cfg)
        lines = hist.to_csv().strip().split("\n")
        assert lines[0] == ("iter,residual,s_norm_error,d_norm_error,"
                            "wall_seconds,fft_seconds,spatial_seconds")
        assert len(lines) == hist.iterations + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == hist.residual[0]
        # every recorded float survives the round trip exactly
        assert float(first[2]) == hist.s_norm_error[0]


class TestHistoryClocks:
    """fft_seconds and spatial_seconds are wall time on the calling thread:
    they never decrease and never add up to more than wall_seconds."""

    @staticmethod
    def check(hist):
        fft = np.array(hist.fft_seconds)
        spatial = np.array(hist.spatial_seconds)
        wall = np.array(hist.wall_seconds)
        assert hist.iterations > 1
        assert fft[0] >= 0.0 and spatial[0] > 0.0
        assert np.all(np.diff(fft) >= 0.0)
        assert np.all(np.diff(spatial) >= 0.0)
        assert np.all(fft + spatial <= wall)

    @staticmethod
    def check_flat(hist):
        """The loop in the DST basis applies neither preconditioner, so its
        clocks stay where the reference norm left them."""
        fft = np.array(hist.fft_seconds)
        spatial = np.array(hist.spatial_seconds)
        wall = np.array(hist.wall_seconds)
        assert hist.iterations > 1
        assert np.all(np.diff(fft) == 0.0) and np.all(np.diff(spatial) == 0.0)
        assert np.all(fft + spatial <= wall)

    # a perturbed grid keeps these two on Schur complement form in the
    # spatial eigenbasis, whose iterations apply both preconditioners
    def test_uzawa_direct_on_two_threads(self):
        grid = ps.build_time_grid("perturbed", 1024, 1.0, perturbation=0.3, seed=1)
        spec = ps.make_heat_problem("1d", 128, grid, data="sine")
        try:
            ps.set_num_threads(2)
            system, at, ht = setup(spec)
            _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-8))
        finally:
            ps.set_num_threads(1)
        assert hist.converged
        self.check(hist)

    def test_uzawa_eigenbasis_slabs_on_three_threads(self):
        # the slabs run on the pool's workers, which add their share of
        # each stage to the clocks
        grid = ps.build_time_grid("perturbed", 1024, 1.0, perturbation=0.3, seed=1)
        spec = ps.make_heat_problem("1d", 128, grid, data="sine")
        try:
            ps.set_num_threads(3)
            system, at, ht = setup(spec)
            ops = ps.solvers._modal_set(system, at, ht)
            assert len(ops.slabs) > 1 and ops.abd_modes is None
            _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-8))
        finally:
            ps.set_num_threads(1)
        assert hist.converged
        self.check(hist)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_uzawa_dst_basis_clocks_stay_flat(self, threads):
        grid = ps.build_time_grid("uniform", 1024, 1.0)
        spec = ps.make_heat_problem("1d", 128, grid, data="sine")
        try:
            ps.set_num_threads(threads)
            system, at, ht = setup(spec)
            ops = ps.solvers._modal_set(system, at, ht)
            assert len(ops.slabs) > 1 and ops.abd_modes is not None
            _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-8))
        finally:
            ps.set_num_threads(1)
        assert hist.converged
        self.check_flat(hist)

    def test_overlapping_pool_solves_count_once(self, monkeypatch):
        # a sleeping solve releases the GIL, so the two workers overlap
        # fully: their summed time would read about twice the wall time
        solve = ps.SpdFactor.solve

        def slow_solve(self, b):
            time.sleep(0.02)
            return solve(self, b)

        monkeypatch.setattr(ps.SpdFactor, "solve", slow_solve)
        # three step groups keep the block solves on nodal values, in the pool
        spec = oracle.per_step_spec()
        try:
            ps.set_num_threads(2)
            system, at, ht = setup(spec)
            _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(max_iter=3))
        finally:
            ps.set_num_threads(1)
        self.check(hist)

    def test_uzawa_mg(self):
        grid = ps.build_time_grid("uniform", 32, 1.0)
        spec = ps.make_heat_problem("2d", 16, grid, data="sine")
        system, at, ht = setup(spec, "mg")
        _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-8))
        assert hist.converged
        self.check(hist)

    def test_minres_direct(self):
        spec = oracle.random_spec(np.random.default_rng(5))
        _, hist = ps.minres_solve(*setup(spec), tol=1e-10)
        assert hist.converged
        self.check(hist)


class TestBlockDiagSolver:
    @pytest.mark.parametrize("kind", ["direct", "mg"])
    def test_proportional_steps_match_per_step_solvers(self, kind):
        # a time-dependent coefficient makes every step operator a different
        # multiple of one stiffness matrix; the shared solver must still
        # apply each step's own inverse
        grid = ps.build_time_grid("perturbed", 10, 1.0, perturbation=0.3, seed=5)
        spec = ps.make_heat_problem("2d", 8, grid, data="zero",
                                    coeff=lambda t: 1.0 + 0.5 * np.sin(3.0 * t))
        hier = ps.build_mg_hierarchy("2d", 8)
        at = ps.BlockDiagSolver(spec, kind, hierarchy=hier)
        b = np.random.default_rng(2).standard_normal((spec.N, spec.dim))
        ref = np.stack([
            ps.make_solver(a_n, kind, hierarchy=hier).apply(b_n) / tau
            for a_n, b_n, tau in zip(spec.stiffness, b, spec.grid.steps)
        ])
        got = at.apply_inverse(b)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["direct", "mg"])
    def test_per_step_operators_match_per_step_solvers(self, kind):
        # step operators from several base matrices, in interleaved groups
        spec = oracle.per_step_spec()
        assert len(spec.step_groups) == 3
        hier = ps.build_mg_hierarchy("1d", 8)
        at = ps.BlockDiagSolver(spec, kind, hierarchy=hier)
        b = np.random.default_rng(3).standard_normal((spec.N, spec.dim))
        ref = np.stack([
            ps.make_solver(a_n, kind, hierarchy=hier).apply(b_n) / tau
            for a_n, b_n, tau in zip(spec.stiffness, b, spec.grid.steps)
        ])
        got = at.apply_inverse(b)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


    @pytest.mark.parametrize("kind", ["direct", "mg", "jacobi"])
    @pytest.mark.parametrize("groups", ["one", "three"])
    def test_out_matches_returned_block(self, kind, groups):
        # one group solves in out's own columns; interleaved groups gather
        if groups == "one":
            grid = ps.build_time_grid("perturbed", 30, 1.0, perturbation=0.3, seed=5)
            spec = ps.make_heat_problem("1d", 8, grid, data="zero")
        else:
            spec = oracle.per_step_spec()
        at = ps.BlockDiagSolver(spec, kind, hierarchy=ps.build_mg_hierarchy("1d", 8))
        b = np.asfortranarray(np.random.default_rng(4).standard_normal((spec.N, spec.dim)))
        before = b.copy()
        want = at.apply_inverse(b)
        out = np.full((spec.N, spec.dim), np.nan, order="F")
        assert at.apply_inverse(b, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(at.apply_inverse(b), want)
        assert np.array_equal(b, before)


class TestNonFiniteData:
    @staticmethod
    def nan_load_problem():
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        spec.load[3, 2] = np.nan
        return spec

    def test_uzawa_raises_on_nan_residual(self):
        system, at, ht = setup(self.nan_load_problem())
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            ps.uzawa_solve(system, at, ht, ps.UzawaConfig(max_iter=50))

    def test_minres_raises_on_nan_residual(self):
        system, at, ht = setup(self.nan_load_problem())
        with pytest.raises(SolverDivergenceError, match="non-finite"):
            ps.minres_solve(system, at, ht, max_iter=50)


class TestThreadCountIndependence:
    @pytest.mark.parametrize("solver", ["mg", "direct"])
    def test_uzawa_iterates_bit_identical_on_one_and_two_threads(self, solver):
        grid = ps.build_time_grid("uniform", 12, 1.0)
        spec = ps.make_heat_problem("2d", 8, grid, data="sine")
        cfg = ps.UzawaConfig(tol=1e-10, max_iter=100)
        runs = []
        try:
            for threads in (1, 2):
                ps.set_num_threads(threads)
                system, at, ht = setup(spec, solver)
                runs.append(ps.uzawa_solve(system, at, ht, cfg))
        finally:
            ps.set_num_threads(1)
        ((p1, u1), h1), ((p2, u2), h2) = runs
        assert h1.converged
        assert h1.residual == h2.residual
        assert np.array_equal(p1, p2)
        assert np.array_equal(u1, u2)


class TestColumnBlocks:
    """Column blocks of the inexact kinds leave every iterate unchanged."""

    @staticmethod
    def solve(spec, kind, method, threads):
        ps.set_num_threads(threads)
        try:
            system, at, ht = setup(spec, kind)
            if method == "minres":
                return ps.minres_solve(system, at, ht, tol=1e-10, max_iter=60), ht
            cfg = ps.UzawaConfig(tol=1e-10, max_iter=40)
            return ps.uzawa_solve(system, at, ht, cfg), ht
        finally:
            ps.set_num_threads(1)

    @pytest.mark.parametrize("kind,method",
                             [("mg", "uzawa"), ("jacobi", "uzawa"), ("mg", "minres")])
    def test_blocked_iterates_match_one_block(self, kind, method, monkeypatch):
        # unequal steps, so that every column block has its own divisors
        grid = ps.build_time_grid("perturbed", 64, 1.0, perturbation=0.3, seed=3)
        spec = ps.make_heat_problem("2d", 8, grid, data="sine")
        monkeypatch.setattr(ps.spatial._BlendSolver, "block_columns", spec.N)
        ((p0, u0), h0), ht = self.solve(spec, kind, method, threads=1)
        assert ht.batched.block_columns == spec.N
        width = 20
        monkeypatch.setattr(ps.spatial._BlendSolver, "block_columns", width)
        assert len(ps.parallel.chunks(spec.N, width)) >= 3
        for threads in (1, 2):
            ((p, u), hist), ht = self.solve(spec, kind, method, threads)
            assert ht.batched.block_columns == width
            assert hist.iterations == h0.iterations
            assert np.array_equal(p, p0)
            assert np.array_equal(u, u0)


class TestProductCounts:
    """On nodal values one Uzawa iteration makes two mass products: K u,
    K' u and K' p are differences of M u and M p (of M u and M (p' + u) in
    Schur complement form).  It makes two products per step group with an
    inexact block solve, and one with the exact one (A_bd (p' + u)).  In
    the eigenbasis (direct kind, one step group) it makes none."""

    class Counting(ps.SpatialMatrix):
        calls = 0

        def dot(self, x):
            self.calls += 1
            return super().dot(x)

    @staticmethod
    def sine_spec():
        grid = ps.build_time_grid("uniform", 8, 1.0)
        return ps.make_heat_problem("1d", 8, grid, data="sine")

    @pytest.mark.parametrize("make_spec,solver,expected", [
        (sine_spec, "direct", (0, 0)),
        (sine_spec, "mg", (2, 2)),
        (oracle.per_step_spec, "direct", (2, 1)),
    ], ids=["one-group", "one-group-mg", "three-groups"])
    def test_products_per_uzawa_iteration(self, make_spec, solver, expected):
        spec = make_spec()
        counted = {}

        def counting(m):
            if m not in counted:
                counted[m] = self.Counting.from_sparse(m.tocsr())
            return counted[m]

        def counted_copy(a):
            # a plain matrix (its own products are not counted) that is a
            # multiple of a counted base
            base, scale = a.as_scaled()
            return counting(base).scaled(scale)

        mass = counting(spec.mass)
        stiffness = [counted_copy(a_n) for a_n in spec.stiffness]
        spec = dataclasses.replace(spec, mass=mass, stiffness=stiffness,
                                   a_ref=counted_copy(spec.a_ref))
        bases = [base for base, _, _ in spec.step_groups]
        assert len(bases) == len(counted) - 1
        assert all(isinstance(base, self.Counting) for base in bases)
        system, at, ht = setup(spec, solver)
        calls = []
        for max_iter in (1, 2):
            before = [m.calls for m in (mass, *bases)]
            ps.uzawa_solve(system, at, ht, ps.UzawaConfig(max_iter=max_iter))
            calls.append([m.calls - b for m, b in zip((mass, *bases), before)])
        per_iteration = np.subtract(calls[1], calls[0])
        mass_products, group_products = expected
        assert per_iteration.tolist() == [mass_products] + [group_products] * len(bases)


def modal_calls(ht):
    """Count the eigenbasis applications of ht from here on."""
    calls = []
    apply_inverse = ht.apply_inverse

    def counted(r, slab=None):
        if slab is not None:
            calls.append(1)
        return apply_inverse(r, slab=slab)

    ht.apply_inverse = counted
    return calls


def dst_runs(ht):
    """Count the Uzawa runs in the DST basis of ht from here on: each reads
    ht's mode weights once, and no other body reads them."""
    calls = []
    mode_weights = ht.mode_weights

    def counted():
        calls.append(1)
        return mode_weights()

    ht.mode_weights = counted
    return calls


def invariant_spec(rng, space):
    """A problem whose tau_n A_n is one matrix at every step: uniform steps
    of 1 / N with N = 2^k on (0, 1), no coefficient, random data."""
    N = int(2 ** rng.integers(2, 7))
    cells = int(rng.integers(4, 17)) if space == "1d" else int(2 ** rng.integers(2, 4))
    grid = ps.build_time_grid("uniform", N, 1.0)
    assert np.all(grid.steps == 1.0 / N)
    return ps.make_heat_problem(space, cells, grid, data="random",
                                seed=int(rng.integers(1 << 30)))


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestEigenbasisPath:
    """Without diagnostics, direct block solves on a problem with one step
    group run the Uzawa loop in the eigenbasis of (tau_ref A_ref, M); the
    diagnostics run stays on nodal values.  Both give the same iterates up
    to rounding; every other set-up stays nodal."""

    @staticmethod
    def both(spec, initial=None):
        """(modal run, nodal run, number of modal applications)."""
        system, at, ht = setup(spec)
        calls = modal_calls(ht)
        cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-12,
                             max_iter=800)
        modal = ps.uzawa_solve(system, at, ht, cfg, initial=initial)
        taken = len(calls)
        nodal = ps.uzawa_solve(system, at, ht,
                               dataclasses.replace(cfg, diagnostics=True),
                               initial=initial)
        assert len(calls) == taken
        return modal, nodal, taken

    @staticmethod
    def check_agree(spec, modal, nodal):
        ((p1, u1), h1), ((p2, u2), h2) = modal, nodal
        assert h1.converged and h2.converged
        assert h1.iterations == h2.iterations
        # the early residuals still sit far above rounding: the same
        # operators give the same values there
        assert np.allclose(h1.residual[:5], h2.residual[:5], rtol=1e-9, atol=0.0)
        assert relative(u1, u2) <= 1e-10 and relative(p1, p2) <= 1e-10
        assert u1.flags.f_contiguous and p1.flags.f_contiguous
        u_star = ps.sequential_euler_solve(spec)
        assert relative(u1, u_star) <= 1e-8 and relative(u2, u_star) <= 1e-8

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    def test_matches_nodal_and_sweep(self, seed, space):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        assert len(spec.step_groups) == 1
        modal, nodal, taken = self.both(spec)
        assert taken > 0
        self.check_agree(spec, modal, nodal)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_warm_start(self, seed):
        rng = np.random.default_rng(seed)
        spec = oracle.random_spec(rng)
        initial = (rng.standard_normal((spec.N, spec.dim)),
                   rng.standard_normal((spec.N, spec.dim)))
        modal, nodal, taken = self.both(spec, initial)
        assert taken > 0
        self.check_agree(spec, modal, nodal)

    @staticmethod
    def count_inverses(monkeypatch):
        """Counts of the applications of Atilde^-1 and Htilde^-1 from here on."""
        counts = {ps.BlockDiagSolver: 0, ps.SchurPreconditioner: 0}
        for cls in counts:
            def counted(self, *args, _cls=cls, _original=cls.apply_inverse, **kwargs):
                counts[_cls] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "apply_inverse", counted)
        return counts

    def test_one_application_of_each_inverse_per_iteration(self, monkeypatch):
        # the eigenbasis loop still goes through both apply_inverse methods,
        # so their clocks, and anything wrapping them, see every application
        counts = self.count_inverses(monkeypatch)
        # a perturbed grid keeps the loop in the spatial eigenbasis only
        grid = ps.build_time_grid("perturbed", 16, 1.0, perturbation=0.3, seed=1)
        spec = ps.make_heat_problem("1d", 16, grid, data="sine")
        system, at, ht = setup(spec)
        calls = modal_calls(ht)
        _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-10))
        assert hist.converged and calls
        # one of each for the reference norm, then one of each per iteration
        assert list(counts.values()) == [hist.iterations + 1] * 2
        assert at.spatial_seconds > 0.0 and ht.spatial_seconds > 0.0

    def test_dst_basis_applies_each_inverse_once(self, monkeypatch):
        # in the DST basis only the reference norm applies the two inverses
        counts = self.count_inverses(monkeypatch)
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="sine")
        system, at, ht = setup(spec)
        runs = dst_runs(ht)
        _, hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(tol=1e-10))
        assert hist.converged and hist.iterations > 1 and runs == [1]
        assert list(counts.values()) == [1, 1]

    def test_zero_data(self):
        grid = ps.build_time_grid("perturbed", 8, 1.0, perturbation=0.3, seed=1)
        spec = ps.make_heat_problem("1d", 8, grid, data="zero",
                                    coeff=lambda t: 1.0 + t)
        system, at, ht = setup(spec)
        initial = (np.ones((spec.N, spec.dim)), np.full((spec.N, spec.dim), 2.0))
        for start in (None, initial):
            (p, u), hist = ps.uzawa_solve(system, at, ht, ps.UzawaConfig(),
                                          initial=start)
            assert hist.converged and hist.iterations == 0
            expected = (np.zeros_like(p), np.zeros_like(u)) if start is None else start
            assert np.array_equal(p, expected[0]) and np.array_equal(u, expected[1])

    @staticmethod
    def other_pencil(spec):
        """A Schur preconditioner built on an equal problem assembled anew,
        so it holds equal matrices but not the problem's own objects."""
        twin = ps.make_heat_problem(spec.meta["space"], spec.meta["mesh"], spec.grid,
                                    data="zero")
        return ps.build_schur_preconditioner(twin, "direct")

    @pytest.mark.parametrize("case", ["per-step", "mg", "jacobi", "other-pencil"])
    def test_falls_back_to_nodal(self, case):
        if case == "per-step":
            spec = oracle.per_step_spec()
        else:
            grid = ps.build_time_grid("uniform", 8, 1.0)
            spec = ps.make_heat_problem("1d", 8, grid, data="random", seed=4)
        system, at, ht = setup(spec)
        if case in ("mg", "jacobi"):
            hier = ps.build_mg_hierarchy("1d", 8)
            at = ps.BlockDiagSolver(spec, case, hierarchy=hier)
        if case == "other-pencil":
            ht = self.other_pencil(spec)
        calls = modal_calls(ht)
        cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-10,
                             max_iter=40)
        (p1, u1), h1 = ps.uzawa_solve(system, at, ht, cfg)
        (p2, u2), h2 = ps.uzawa_solve(system, at, ht,
                                      dataclasses.replace(cfg, diagnostics=True))
        assert not calls
        assert h1.iterations > 5
        assert h1.residual == h2.residual
        assert np.array_equal(p1, p2) and np.array_equal(u1, u2)

    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_duck_typed_preconditioner_stays_nodal(self, monkeypatch, diagnostics):
        # an Htilde with apply_inverse only (no clocks, no solver_kind, no
        # eigenbasis) runs the loop on nodal values, as the real one does
        # when no eigenbasis set is offered, and records no D-norm error
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)

        class Plain:
            def apply_inverse(self, r):
                return ht.apply_inverse(r)

        cfg = ps.UzawaConfig(tol=1e-10, diagnostics=diagnostics)
        (p1, u1), h1 = ps.uzawa_solve(system, at, Plain(), cfg)
        monkeypatch.setattr(ps.solvers, "_modal_set", lambda *args: None)
        (p2, u2), h2 = ps.uzawa_solve(system, at, ht, cfg)
        assert h1.converged and h1.residual == h2.residual
        assert np.array_equal(p1, p2) and np.array_equal(u1, u2)
        assert h1.s_norm_error == h2.s_norm_error
        assert h1.d_norm_error == [None] * h1.iterations
        assert h1.fft_seconds == [0.0] * h1.iterations


class TestSchurComplementForm:
    """An exact block solve runs Uzawa in Schur complement form, in either
    basis.  Its iterates are those of the general two-stage body, which the
    same solver runs when it does not claim to invert A_bd."""

    @staticmethod
    def both(spec, warm, seed):
        """The runs of Schur complement form and of the general body on the
        same direct solve, and the eigenbasis applications of the first."""
        system, at, ht = setup(spec)
        general = copy.copy(at)
        general.inverts = lambda system: False
        initial = None
        if warm:
            rng = np.random.default_rng(seed)
            initial = (rng.standard_normal((spec.N, spec.dim)),
                       rng.standard_normal((spec.N, spec.dim)))
        cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-12,
                             max_iter=800)
        calls = modal_calls(ht)
        exact = ps.uzawa_solve(system, at, ht, cfg, initial=initial)
        taken = len(calls)
        runs = (exact, ps.uzawa_solve(system, general, ht, cfg, initial=initial))
        assert len(calls) == taken
        return runs, taken

    @staticmethod
    def check_agree(runs):
        ((p1, u1), h1), ((p2, u2), h2) = runs
        assert h1.converged and h2.converged
        assert h1.iterations == h2.iterations
        assert np.allclose(h1.residual[:5], h2.residual[:5], rtol=1e-9, atol=0.0)
        assert relative(u1, u2) <= 1e-10 and relative(p1, p2) <= 1e-10

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    def test_eigenbasis_matches_general_body(self, seed, space, warm):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        runs, taken = self.both(spec, warm, seed)
        assert taken > 0
        self.check_agree(runs)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_nodal_matches_general_body(self, seed, warm):
        spec = oracle.per_step_spec(seed)
        assert len(spec.step_groups) > 1
        runs, taken = self.both(spec, warm, seed)
        assert taken == 0
        self.check_agree(runs)


class TestDstBasis:
    """When tau_n A_n is one matrix at every step, the eigenbasis loop runs
    Schur complement form in the DST basis of Htilde as well, where the
    Schur complement of each spatial mode is diagonal plus rank one.  Its
    iterates are those of the nodal loop up to rounding; every other
    problem keeps its body."""

    @staticmethod
    def both(spec, initial=None):
        """(run in the DST basis, nodal diagnostics run)."""
        system, at, ht = setup(spec)
        calls, runs = modal_calls(ht), dst_runs(ht)
        cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-12,
                             max_iter=800)
        modal = ps.uzawa_solve(system, at, ht, cfg, initial=initial)
        nodal = ps.uzawa_solve(system, at, ht,
                               dataclasses.replace(cfg, diagnostics=True),
                               initial=initial)
        # one eigenbasis application of Htilde, for the reference norm
        assert runs == [1] and calls == [1]
        return modal, nodal

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    def test_matches_nodal_and_sweep(self, seed, space, warm):
        rng = np.random.default_rng(seed)
        spec = invariant_spec(rng, space)
        initial = None
        if warm:
            initial = (rng.standard_normal((spec.N, spec.dim)),
                       rng.standard_normal((spec.N, spec.dim)))
        modal, nodal = self.both(spec, initial)
        TestEigenbasisPath.check_agree(spec, modal, nodal)

    @pytest.mark.parametrize("space", ["1d", "2d"])
    def test_capped_runs_match_nodal(self, space):
        # far from convergence p = A_bd^-1 (K u_prev - f), with u_prev the
        # iterate before the last update, differs from the one formed from u
        spec = invariant_spec(np.random.default_rng(7), space)
        system, at, ht = setup(spec)
        rng = np.random.default_rng(8)
        initial = (rng.standard_normal((spec.N, spec.dim)),
                   rng.standard_normal((spec.N, spec.dim)))
        runs = dst_runs(ht)
        for start in (None, initial):
            for max_iter in (1, 2, 3):
                cfg = ps.UzawaConfig(max_iter=max_iter)
                (p1, u1), h1 = ps.uzawa_solve(system, at, ht, cfg, initial=start)
                (p2, u2), h2 = ps.uzawa_solve(
                    system, at, ht, dataclasses.replace(cfg, diagnostics=True),
                    initial=start)
                assert h1.iterations == h2.iterations == max_iter
                assert np.allclose(h1.residual, h2.residual, rtol=1e-9, atol=0.0)
                assert relative(u1, u2) <= 1e-10 and relative(p1, p2) <= 1e-10
        assert len(runs) == 6

    @pytest.mark.parametrize("case", ["invariant", "perturbed", "coefficient",
                                      "uniform-100", "per-step", "mg", "jacobi"])
    def test_selection(self, case):
        grid = ps.build_time_grid("uniform", 16, 1.0)
        coeff = None
        if case == "perturbed":
            grid = ps.build_time_grid("perturbed", 16, 1.0, perturbation=0.3, seed=1)
        elif case == "coefficient":
            coeff = lambda t: 1.0 + t  # noqa: E731
        elif case == "uniform-100":
            # equal steps in exact arithmetic, not in floating point
            grid = ps.build_time_grid("uniform", 100, 1.0)
            assert len(np.unique(grid.steps)) > 1
        if case == "per-step":
            spec = oracle.per_step_spec()
        else:
            spec = ps.make_heat_problem("1d", 8, grid, coeff=coeff, data="random",
                                        seed=4)
        system, at, ht = setup(spec)
        if case in ("mg", "jacobi"):
            at = ps.BlockDiagSolver(spec, case, hierarchy=ps.build_mg_hierarchy("1d", 8))
        calls, runs = modal_calls(ht), dst_runs(ht)
        cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-10,
                             max_iter=40)
        _, hist = ps.uzawa_solve(system, at, ht, cfg)
        assert hist.iterations > 5
        if case == "invariant":
            assert runs == [1] and calls == [1]
        elif case in ("perturbed", "coefficient", "uniform-100"):
            # Schur complement form in the spatial eigenbasis, one slab
            assert not runs and len(calls) == hist.iterations + 1
        else:
            assert not runs and not calls


class TestSlabs:
    """The eigenbasis Uzawa loop runs each iteration on slabs of spatial
    modes; neither the slabs nor the thread count change any result."""

    @staticmethod
    def run(spec, modes, threads, monkeypatch):
        monkeypatch.setattr(ps.solvers, "SLAB_BYTES", 8 * spec.N * modes)
        ps.set_num_threads(threads)
        try:
            system, at, ht = setup(spec)
            ops = ps.solvers._modal_set(system, at, ht)
            assert len(ops.slabs) == -(-spec.dim // modes)
            cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha), tol=1e-10,
                                 max_iter=300)
            calls = modal_calls(ht)
            result = ps.uzawa_solve(system, at, ht, cfg)
            assert calls
            return result
        finally:
            ps.set_num_threads(1)

    def check_identical_runs(self, spec, monkeypatch):
        assert spec.dim > 5
        (p0, u0), h0 = self.run(spec, spec.dim, 1, monkeypatch)
        assert h0.converged and h0.iterations > 5
        assert p0.flags.f_contiguous and u0.flags.f_contiguous
        for modes in (1, 5, spec.dim):
            for threads in (1, 2, 3):
                (p, u), hist = self.run(spec, modes, threads, monkeypatch)
                assert hist.iterations == h0.iterations
                assert hist.residual == h0.residual
                assert np.array_equal(p, p0) and np.array_equal(u, u0)

    @pytest.mark.parametrize("seed,space", [(3, "1d"), (8, "1d"), (5, "2d"), (6, "2d")])
    def test_slabs_and_threads_give_identical_runs(self, seed, space, monkeypatch):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        self.check_identical_runs(spec, monkeypatch)

    @pytest.mark.parametrize("seed,space", [(1, "1d"), (2, "1d"), (3, "2d"), (4, "2d")])
    def test_dst_basis_slabs_and_threads_give_identical_runs(self, seed, space,
                                                             monkeypatch):
        spec = invariant_spec(np.random.default_rng(seed), space)
        assert ps.solvers._modal_set(*setup(spec)).abd_modes is not None
        self.check_identical_runs(spec, monkeypatch)

    def test_slab_size(self):
        # 256 KiB blocks: 32 modes at N = 1024, every mode at once when small
        grid = ps.build_time_grid("uniform", 1024, 1.0)
        spec = ps.make_heat_problem("1d", 128, grid, data="sine")
        ops = ps.solvers._modal_set(*setup(spec))
        assert [cols.stop - cols.start for cols in ops.slabs] == [32, 32, 32, 31]
        small = ps.make_heat_problem("1d", 16, ps.build_time_grid("uniform", 16, 1.0))
        assert ps.solvers._modal_set(*setup(small)).slabs == (slice(0, 15),)

    def test_schur_inverse_on_slabs_matches_whole_block(self):
        spec = oracle.random_spec(np.random.default_rng(5), space="2d")
        ht = ps.build_schur_preconditioner(spec, "direct")
        r = np.asfortranarray(
            np.random.default_rng(0).standard_normal((spec.N, spec.dim)))
        whole = ht.apply_inverse(r, slab=slice(None))
        for width in (1, 3, spec.dim):
            for lo in range(0, spec.dim, width):
                cols = slice(lo, min(lo + width, spec.dim))
                assert np.array_equal(ht.apply_inverse(r[:, cols], slab=cols),
                                      whole[:, cols])
        with pytest.raises(ps.DimensionMismatchError):
            ht.apply_inverse(r, slab=slice(0, 2))


class TestMinresEigenbasisPath:
    """With direct block solves on a problem with one step group, MINRES runs
    its recurrence on the coefficients in the eigenbasis of (tau_ref A_ref, M)
    and keeps scipy's stopping rule: it tests a certified upper bound on
    ||x||_2 first and decides every stop on the exact norm."""

    @staticmethod
    def spy(monkeypatch):
        """Counts of saddle products, eigenbasis applications of any Htilde
        and maps back to nodal values (one per exact norm; p and u come from
        the last one when the stop was decided on it)."""
        counts = {"saddle": 0, "eigenbasis": 0, "from_basis": 0}
        apply_saddle = ps.TimeGlobalSystem.apply_saddle
        apply_inverse = ps.SchurPreconditioner.apply_inverse
        modal_set = ps.solvers._modal_set

        def saddle(self, p, u):
            counts["saddle"] += 1
            return apply_saddle(self, p, u)

        def inverse(self, r, slab=None):
            counts["eigenbasis"] += slab is not None
            return apply_inverse(self, r, slab=slab)

        def counted_set(*args):
            ops = modal_set(*args)
            if ops is None:
                return None
            from_basis = ops.from_basis

            def counted(x):
                counts["from_basis"] += 1
                return from_basis(x)

            return dataclasses.replace(ops, from_basis=counted)

        monkeypatch.setattr(ps.TimeGlobalSystem, "apply_saddle", saddle)
        monkeypatch.setattr(ps.SchurPreconditioner, "apply_inverse", inverse)
        monkeypatch.setattr(ps.solvers, "_modal_set", counted_set)
        return counts

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    # at tol 1e-12 this problem stops at its rounding floor, 33 iterations
    # in one basis and 34 in the other
    @example(seed=283, space="1d")
    def test_matches_nodal_and_sweep(self, seed, space):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        system, at, ht = setup(spec)
        calls = modal_calls(ht)
        (p1, u1), h1 = ps.minres_solve(system, at, ht, tol=1e-12)
        assert calls
        # an Htilde built on a copy of the problem holds no eigenbasis of it
        nodal = ps.build_schur_preconditioner(copy.deepcopy(spec), "direct")
        assert nodal.eigenbasis(spec) is None
        (p2, u2), h2 = ps.minres_solve(system, at, nodal, tol=1e-12)
        assert h1.converged and h2.converged
        assert relative(u1, u2) <= 1e-10 and relative(p1, p2) <= 1e-10
        assert u1.flags.f_contiguous and p1.flags.f_contiguous
        u_star = ps.sequential_euler_solve(spec)
        assert relative(u1, u_star) <= 1e-8 and relative(u2, u_star) <= 1e-8
        # near the rounding floor of tol 1e-12 the two bases may stop one
        # iteration apart; above it they take the same steps
        _, h1 = ps.minres_solve(system, at, ht, tol=1e-10)
        _, h2 = ps.minres_solve(system, at, nodal, tol=1e-10)
        assert h1.iterations == h2.iterations
        assert np.allclose(h1.residual[:5], h2.residual[:5], rtol=1e-9, atol=0.0)

    def test_no_saddle_product_and_few_exact_norms(self, monkeypatch):
        rng = np.random.default_rng(21)
        spec = oracle.random_spec(rng, space="2d")
        system, at, ht = setup(spec)
        counts = self.spy(monkeypatch)
        _, hist = ps.minres_solve(system, at, ht, tol=1e-12)
        assert hist.converged and hist.iterations > 10
        assert counts["saddle"] == 0
        # beta_1, then one application per iteration: the positivity check
        # in the eigenbasis is exact and applies nothing
        assert counts["eigenbasis"] == hist.iterations + 1
        exact_norms = counts["from_basis"]
        assert 1 <= exact_norms <= hist.iterations // 3

    def test_nodal_products_go_through_apply_saddle(self, monkeypatch):
        # multigrid block solves keep the recurrence on nodal values, where
        # each iteration makes one saddle product of the system
        system, at, ht = setup(TestMinresWorkBlocks.spec(), "mg")
        counts = self.spy(monkeypatch)
        _, hist = ps.minres_solve(system, at, ht, tol=1e-10)
        assert hist.converged and hist.iterations > 5
        assert counts["saddle"] == hist.iterations
        assert counts["eigenbasis"] == 0

    def test_uncertified_floor_gives_the_same_stop(self, monkeypatch):
        spec = oracle.random_spec(np.random.default_rng(22), space="2d")
        system, at, ht = setup(spec)
        counts = self.spy(monkeypatch)
        (p1, u1), h1 = ps.minres_solve(system, at, ht, tol=1e-12)
        certified = counts["from_basis"]

        class Uncertified:
            def __init__(self, mat):
                raise NotSpdError("forced")

        monkeypatch.setattr(ps.solvers, "SpdFactor", Uncertified)
        counts["from_basis"] = 0
        (p2, u2), h2 = ps.minres_solve(system, at, ht, tol=1e-12)
        # without a floor the exact norm is taken at every iteration
        assert counts["from_basis"] == h2.iterations > certified
        assert h1.converged and h2.converged
        assert h1.iterations == h2.iterations
        assert h1.residual == h2.residual
        assert np.array_equal(p1, p2) and np.array_equal(u1, u2)

    @pytest.mark.parametrize("seed,problems", [(11, 4), (12, 1)])
    def test_scipy_comparisons_run_in_the_eigenbasis(self, seed, problems,
                                                     monkeypatch):
        # the problems of TestMinres.test_matches_scipy_minres (seed 11) and
        # test_logged_residual_is_preconditioned_residual (seed 12)
        counts = self.spy(monkeypatch)
        rng = np.random.default_rng(seed)
        for _ in range(problems):
            spec = oracle.random_spec(rng)
            before = counts["eigenbasis"]
            _, hist = ps.minres_solve(*setup(spec), tol=1e-10)
            assert counts["eigenbasis"] - before == hist.iterations + 1
        assert counts["saddle"] == 0

    @pytest.mark.parametrize("entry", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("weights", ["mode", "block"])
    def test_bad_weight_raises_before_iterating(self, weights, entry, monkeypatch):
        # P^-1 is diag(1/w) and 4 S diag(D[:, j]) S' on spatial mode j: one
        # entry of w or D that is not finite and > 0 leaves it not SPD, which
        # a random probe finds only by chance.  An assembled problem has
        # w > 0 (its base operator is SPD), so w takes the entry through one
        # eigenvalue lam_j of the basis, while D, built before, stays positive
        spec = oracle.random_spec(np.random.default_rng(23), space="2d")
        system, at, ht = setup(spec)
        bad = copy.copy(ht)
        if weights == "mode":
            bad._d_fortran = ht.mode_weights().copy(order="F")
            bad._d_fortran[1, 2] = entry
        else:
            bad._basis = copy.copy(ht.eigenbasis(spec))
            bad._basis.lam = bad._basis.lam.copy()
            bad._basis.lam[3] = entry
            assert np.all(bad.mode_weights() > 0.0)
        assert ps.solvers._modal_set(system, at, bad) is not None
        counts = self.spy(monkeypatch)
        with pytest.raises(NotSpdError):
            ps.minres_solve(system, at, bad, tol=1e-10)
        assert counts == {"saddle": 0, "eigenbasis": 0, "from_basis": 0}

    def test_duck_typed_preconditioner_stays_nodal(self, monkeypatch):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="sine")
        system, at, ht = setup(spec)

        class Plain:
            def apply_inverse(self, r):
                return ht.apply_inverse(r)

        counts = self.spy(monkeypatch)
        (p1, u1), h1 = ps.minres_solve(system, at, Plain(), tol=1e-10)
        assert counts["eigenbasis"] == counts["from_basis"] == 0
        (p2, u2), h2 = ps.minres_solve(system, at, ht, tol=1e-10)
        assert h1.iterations == h2.iterations
        assert relative(u2, u1) <= 1e-10


class TestMinresWorkBlocks:
    """MINRES rotates its Krylov vectors through work blocks that it takes
    for one solve only: back-to-back solves agree exactly, and no result
    shares memory with another."""

    @staticmethod
    def spec():
        grid = ps.build_time_grid("perturbed", 12, 1.0, perturbation=0.3, seed=3)
        return ps.make_heat_problem("2d", 8, grid, coeff=lambda t: 1.0 + t,
                                    data="random", seed=3)

    @pytest.mark.parametrize("solver", ["mg", "direct"])
    def test_back_to_back_solves_agree(self, solver):
        system, at, ht = setup(self.spec(), solver)
        # mg block solves run on nodal values, direct ones in the eigenbasis
        assert (ps.solvers._modal_set(system, at, ht) is None) == (solver == "mg")
        (p1, u1), h1 = ps.minres_solve(system, at, ht, tol=1e-10)
        (p2, u2), h2 = ps.minres_solve(system, at, ht, tol=1e-10)
        assert h1.converged and h1.iterations > 5
        assert h1.residual == h2.residual
        assert np.array_equal(p1, p2) and np.array_equal(u1, u2)
        kept = p2.copy(), u2.copy()
        p1[...] = np.nan
        u1[...] = np.nan
        assert np.array_equal(p2, kept[0]) and np.array_equal(u2, kept[1])
        (p3, u3), h3 = ps.minres_solve(system, at, ht, tol=1e-10)
        assert h3.residual == h2.residual
        assert np.array_equal(p3, kept[0]) and np.array_equal(u3, kept[1])

    def test_eigenbasis_runs_agree_on_one_and_two_threads(self):
        spec = self.spec()
        runs = []
        try:
            for threads in (1, 2):
                ps.set_num_threads(threads)
                system, at, ht = setup(spec)
                assert ps.solvers._modal_set(system, at, ht) is not None
                runs.append(ps.minres_solve(system, at, ht, tol=1e-10))
        finally:
            ps.set_num_threads(1)
        ((p1, u1), h1), ((p2, u2), h2) = runs
        assert h1.converged
        assert h1.residual == h2.residual
        assert np.array_equal(p1, p2) and np.array_equal(u1, u2)


class TestRenumberedUnknowns:
    """Renumbering the unknowns takes the mirror symmetries from the pencil,
    so the direct Htilde's eigenbasis is one whole scipy eigh; the
    eigenbasis bodies of Uzawa and MINRES run on it and agree with the
    nodal bodies and with the sweep."""

    @pytest.mark.parametrize("space", ["1d", "2d"])
    @pytest.mark.parametrize("seed", range(3))
    def test_uzawa_and_minres_in_the_unsplit_eigenbasis(self, eigh_sizes, space, seed):
        spec = oracle.renumbered_spec(
            oracle.random_spec(np.random.default_rng(seed), space=space), seed)
        assert len(spec.step_groups) == 1
        modal, nodal, taken = TestEigenbasisPath.both(spec)
        assert eigh_sizes == [spec.dim]
        assert taken > 0
        TestEigenbasisPath.check_agree(spec, modal, nodal)
        system, at, ht = setup(spec)
        calls = modal_calls(ht)
        (p1, u1), h1 = ps.minres_solve(system, at, ht, tol=1e-12)
        assert calls
        nodal = ps.build_schur_preconditioner(copy.deepcopy(spec), "direct")
        (p2, u2), h2 = ps.minres_solve(system, at, nodal, tol=1e-12)
        assert h1.converged and h2.converged
        assert relative(u1, u2) <= 1e-10 and relative(p1, p2) <= 1e-10
        assert relative(u1, ps.sequential_euler_solve(spec)) <= 1e-8

    def test_renumbered_problem_is_the_same_problem(self):
        spec = oracle.random_spec(np.random.default_rng(5), space="2d")
        renumbered = oracle.renumbered_spec(spec, seed=5)
        perm = np.random.default_rng(5).permutation(spec.dim)
        u = ps.sequential_euler_solve(spec)
        assert relative(ps.sequential_euler_solve(renumbered), u[:, perm]) <= 1e-13
