import time

import numpy as np
import pytest
import scipy.linalg

import pintsolve as ps
from pintsolve.errors import InputError
from pintsolve.operators import dense_operator

import conftest as oracle


class TestFrequencyWeights:
    def test_values(self):
        # mu_k = 2 sin((2k-1) pi / (4N))
        got = ps.frequency_weights(4)
        ref = 2.0 * np.sin(np.array([1, 3, 5, 7]) * np.pi / 16.0)
        assert np.allclose(got, ref, atol=1e-15)

    def test_monotone_in_unit_range(self):
        mu = ps.frequency_weights(64)
        assert np.all(np.diff(mu) > 0)
        assert mu[0] > 0
        assert mu[-1] < 2.0


@pytest.fixture(scope="module")
def spec():
    rng = np.random.default_rng(21)
    return oracle.random_spec(rng, max_cells=10, max_n=8)


class TestPreconditionerOperator:
    def test_forward_matches_dense_oracle(self, spec):
        ht = ps.SchurPreconditioner(spec, solver_kind="direct")
        h_ref = oracle.dense_preconditioner(spec)
        got = dense_operator(ht.apply, spec.N, spec.dim)
        assert np.allclose(got, h_ref, atol=1e-9 * np.abs(h_ref).max())

    def test_inverse_matches_dense_oracle(self, spec):
        ht = ps.SchurPreconditioner(spec, solver_kind="direct")
        h_ref = oracle.dense_preconditioner(spec)
        got = dense_operator(ht.apply_inverse, spec.N, spec.dim)
        assert np.allclose(got, np.linalg.inv(h_ref),
                           atol=1e-9 * np.abs(np.linalg.inv(h_ref)).max())

    def test_symmetric_positive_definite(self, spec):
        h = dense_operator(
            ps.SchurPreconditioner(spec, solver_kind="direct").apply,
            spec.N, spec.dim,
        )
        assert np.allclose(h, h.T, atol=1e-9 * np.abs(h).max())
        assert np.linalg.eigvalsh(0.5 * (h + h.T))[0] > 0

    def test_forward_requires_exact_solvers(self, spec):
        ht = ps.SchurPreconditioner(spec, solver_kind="jacobi", sweeps=2)
        with pytest.raises(InputError):
            ht.apply(np.zeros((spec.N, spec.dim)))


class TestSpectralEquivalence:
    def test_exact_bounds_random_instances(self):
        # the Schur complement lies between 1/(2 alpha) and 3 alpha times the
        # preconditioner on every instance, including nonuniform ones
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = oracle.random_spec(rng, max_cells=8, max_n=8)
            s_ref = oracle.dense_schur(spec)
            h_ref = oracle.dense_preconditioner(spec)
            w = scipy.linalg.eigh(s_ref, h_ref, eigvals_only=True)
            a = spec.alpha
            assert w[0] >= 1.0 / (2.0 * a) - 1e-10
            assert w[-1] <= 3.0 * a + 1e-10

    def test_empirical_upper_edge_below_two_for_uniform(self):
        # on uniform grids with constant coefficients the observed spectrum
        # stays below 2, much better than the proven factor 3
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="zero")
        w = scipy.linalg.eigh(oracle.dense_schur(spec),
                              oracle.dense_preconditioner(spec),
                              eigvals_only=True)
        assert w[-1] < 2.0
        assert w[0] > 0.5


class TestBlendSolveIdentity:
    def test_blend_sandwich_bound(self):
        # For SPD M, A and any weight t >= 0, the blend form
        # v' (M A^{-1} M + t A) v is equivalent to
        # v' (M + sqrt(t) A) A^{-1} (M + sqrt(t) A) v with constants [1/2, 1].
        rng = np.random.default_rng(7)
        mass, stiff = ps.assemble_mass_stiffness_1d(12)
        m, a = mass.todense(), stiff.todense()
        for t in (0.0, 0.1, 1.0, 10.0):
            blend = m + np.sqrt(t) * a
            sandwich = blend @ np.linalg.solve(a, blend)
            exact = m @ np.linalg.solve(a, m) + t * a
            for _ in range(20):
                v = rng.standard_normal(mass.dim)
                ratio = (v @ exact @ v) / (v @ sandwich @ v)
                assert 0.5 - 1e-12 <= ratio <= 1.0 + 1e-12


class TestBuilder:
    def test_mg_builder_uses_problem_mesh(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("2d", 8, grid)
        ht = ps.build_schur_preconditioner(spec, "mg", vcycles=1)
        r = np.random.default_rng(0).standard_normal((8, spec.dim))
        out = ht.apply_inverse(r)
        assert out.shape == r.shape

    def test_mg_builder_requires_mesh_metadata(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid)
        spec.meta.clear()
        with pytest.raises(InputError):
            ps.build_schur_preconditioner(spec, "mg")


class TestBatchedModes:
    """The batched preconditioners against one solver per mode."""

    @staticmethod
    def per_mode_reference(ht, spec, kind, hierarchy):
        if kind == "mg":
            solvers = [ps.MgVCycleSolver(h_k, hierarchy) for h_k in ht.blocks]
        elif kind == "direct":  # one sparse factorization per mode
            solvers = [ps.DirectSolver(h_k) for h_k in ht.blocks]
        else:
            solvers = [ps.JacobiSolver(h_k, sweeps=2) for h_k in ht.blocks]

        def apply_inverse(r):
            rhat = ht.plan.inverse_transpose(r)
            out = np.empty_like(rhat)
            for k, s in enumerate(solvers):
                out[k] = s.apply(spec.a_ref.dot(s.apply(rhat[k])))
            return ht.plan.inverse((2.0 * spec.tau_ref / spec.N) * out)

        return apply_inverse

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    @pytest.mark.parametrize("space,cells", [("1d", 16), ("2d", 8)])
    @pytest.mark.parametrize("N", [8, 12, 64])
    def test_matches_per_mode_solvers(self, kind, space, cells, N):
        grid = ps.build_time_grid("uniform", N, 1.0)
        spec = ps.make_heat_problem(space, cells, grid, data="zero")
        hierarchy = ps.build_mg_hierarchy(space, cells)
        ht = ps.build_schur_preconditioner(spec, kind)
        reference = self.per_mode_reference(ht, spec, kind, hierarchy)
        rng = np.random.default_rng(N)
        r = rng.standard_normal((N, spec.dim))
        got, ref = ht.apply_inverse(r), reference(r)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

        # the per-mode views are columns of the batched solver
        b = rng.standard_normal((spec.dim, N))
        batched = ht.batched.apply(b)
        assert len(ht.solvers) == len(ht.blocks) == N
        for k in range(N):
            col = ht.solvers[k].apply(b[:, k])
            assert np.linalg.norm(col - batched[:, k]) <= 1e-12 * np.linalg.norm(
                batched[:, k]
            )

    @pytest.mark.parametrize("space,cells", [("1d", 16), ("2d", 8)])
    @pytest.mark.parametrize("N", [8, 12, 64])
    @pytest.mark.parametrize("eig_limit", [ps.schur.EIG_DIM_LIMIT, 0])
    def test_direct_matches_per_mode_factors(self, space, cells, N, eig_limit,
                                             monkeypatch):
        # both sides of the dimension cutoff: the eigendecomposition path by
        # default, the per-mode LU path when the cutoff is forced below dim
        monkeypatch.setattr(ps.schur, "EIG_DIM_LIMIT", eig_limit)
        grid = ps.build_time_grid("uniform", N, 1.0)
        spec = ps.make_heat_problem(space, cells, grid, data="zero")
        ht = ps.build_schur_preconditioner(spec, "direct")
        assert (ht.eigenbasis(spec) is not None) == (spec.dim <= eig_limit)
        assert ht.batched is None
        reference = self.per_mode_reference(ht, spec, "direct", None)
        r = np.random.default_rng(N).standard_normal((N, spec.dim))
        got, ref = ht.apply_inverse(r), reference(r)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_direct_kind_keeps_per_mode_solvers(self, spec):
        ht = ps.SchurPreconditioner(spec, solver_kind="direct")
        assert ht.batched is None
        for k in (0, spec.N - 1):
            h_k = ht.blocks[k]
            b = np.arange(1.0, spec.dim + 1.0)
            assert np.allclose(h_k.dot(ht.solvers[k].apply(b)), b, atol=1e-10)


class TestStorageOrder:
    """C-order and Fortran-order copies of one block give identical results."""

    @staticmethod
    def specs():
        grid = ps.build_time_grid("perturbed", 10, 1.0, perturbation=0.3, seed=5)
        varcoef = ps.make_heat_problem("2d", 8, grid, data="zero",
                                       coeff=lambda t: 1.0 + 0.5 * np.sin(3.0 * t))
        return [varcoef, oracle.per_step_spec()]

    @pytest.mark.parametrize("which", [0, 1], ids=["varcoef-2d", "per-step-1d"])
    @pytest.mark.parametrize("kind,eig_limit", [
        ("direct", ps.schur.EIG_DIM_LIMIT), ("direct", 0), ("mg", None),
        ("jacobi", None),
    ])
    def test_preconditioners(self, which, kind, eig_limit, monkeypatch):
        if eig_limit is not None:
            monkeypatch.setattr(ps.schur, "EIG_DIM_LIMIT", eig_limit)
        spec = self.specs()[which]
        hier = ps.build_mg_hierarchy(spec.meta["space"], spec.meta["mesh"])
        at = ps.BlockDiagSolver(spec, kind, hierarchy=hier)
        ht = ps.build_schur_preconditioner(spec, kind)
        r = np.random.default_rng(which).standard_normal((spec.N, spec.dim))
        rf = np.asfortranarray(r)
        for apply_inverse in (at.apply_inverse, ht.apply_inverse):
            c, f = apply_inverse(r), apply_inverse(rf)
            assert c.shape == (spec.N, spec.dim)
            assert np.array_equal(c, f)



class TestUnscaledTransforms:
    """apply_inverse runs both DSTs unscaled and lets the mode stage carry
    their factor 1/4; its results are bit-identical to normalized DSTs
    around the stage 2 tau / N H_k^-1 A_ref H_k^-1."""

    @staticmethod
    def reference(ht, spec, r, slab=None):
        rhat = ht.plan.inverse_transpose(r)
        scale = 2.0 * ht.tau_ref / ht.N
        basis = ht.eigenbasis(spec)
        if basis is not None:
            lam = basis.lam
            d = (2.0 / ht.N) * lam / (ht.mu[:, None] + lam) ** 2
            if slab is not None:
                return ht.plan.inverse(rhat * d[:, slab])
            return ht.plan.inverse(basis.synthesis(basis.analysis(rhat.T) * d.T).T)
        if ht.batched is None:
            rows = np.ascontiguousarray(rhat)
            out = np.empty_like(rows)
            for k, s in enumerate(ht.solvers):
                out[k] = scale * s.apply(spec.a_ref.dot(s.apply(rows[k])))
            return ht.plan.inverse(out)
        modes = rhat.T
        out = np.empty_like(modes, order="C")
        for cols in ps.parallel.chunks(ht.N, ht.batched.block_columns):
            s = ht.batched.columns(cols)
            out[:, cols] = scale * s.apply(spec.a_ref.dot(s.apply(modes[:, cols])))
        return ht.plan.inverse(out.T)

    @pytest.mark.parametrize("kind,eig_limit", [
        ("direct", ps.schur.EIG_DIM_LIMIT), ("direct", 0), ("mg", None),
        ("jacobi", None),
    ], ids=["eigenbasis", "per-mode-lu", "mg", "jacobi"])
    @pytest.mark.parametrize("space,cells,N", [("1d", 16, 64), ("2d", 8, 24)])
    def test_bit_identical_to_normalized_transforms(self, kind, eig_limit, space,
                                                    cells, N, monkeypatch):
        if eig_limit is not None:
            monkeypatch.setattr(ps.schur, "EIG_DIM_LIMIT", eig_limit)
        # several column blocks for the inexact kinds
        monkeypatch.setattr(ps.spatial._BlendSolver, "block_columns", 10)
        grid = ps.build_time_grid("perturbed", N, 1.0, perturbation=0.3, seed=2)
        spec = ps.make_heat_problem(space, cells, grid, data="zero",
                                    coeff=lambda t: 1.0 + t)
        ht = ps.build_schur_preconditioner(spec, kind)
        eigenbasis = ht.eigenbasis(spec) is not None
        assert eigenbasis == (kind == "direct" and bool(eig_limit))
        r = np.asfortranarray(
            np.random.default_rng(N).standard_normal((spec.N, spec.dim)))
        assert np.array_equal(ht.apply_inverse(r), self.reference(ht, spec, r))
        if eigenbasis:
            for cols in (slice(None), slice(0, 3), slice(3, spec.dim)):
                assert np.array_equal(ht.apply_inverse(r[:, cols], slab=cols),
                                      self.reference(ht, spec, r[:, cols], cols))


class TestSymmetrySplit:
    """The direct kind's eigensolve splits by the mirror symmetries of the
    pencil, and the preconditioner keeps the eigenbasis as class blocks."""

    @staticmethod
    def specs():
        rng = np.random.default_rng(8)
        grid = ps.build_time_grid("uniform", 6, 1.0)
        return {
            "2d": oracle.random_spec(rng, space="2d"),
            "1d": oracle.random_spec(rng, space="1d"),
            # dim 9 is a perfect square, but a 1d pencil is not symmetric
            # under the transpose of a 3 x 3 grid
            "1d-h10": ps.make_heat_problem("1d", 10, grid, data="zero"),
            "renumbered-2d": oracle.renumbered_spec(oracle.random_spec(rng, space="2d")),
            "renumbered-1d": oracle.renumbered_spec(oracle.random_spec(rng, space="1d")),
        }

    @pytest.mark.parametrize("case", ["2d", "1d", "1d-h10", "renumbered-2d",
                                      "renumbered-1d"])
    def test_split_per_spec(self, eigh_sizes, case):
        spec = self.specs()[case]
        eigh_sizes.clear()
        ht = ps.SchurPreconditioner(spec, "direct")
        basis = ht.eigenbasis(spec)
        assert [v.shape[0] for v in basis.vectors] == eigh_sizes
        if case.startswith("renumbered"):
            assert eigh_sizes == [spec.dim]
        else:
            # four classes in 2d, two in 1d: [5, 4] at h = 1/10
            assert eigh_sizes == oracle.class_sizes(case[:2], spec.meta["mesh"])

    def test_holds_no_dense_basis(self):
        grid = ps.build_time_grid("perturbed", 8, 1.0, perturbation=0.3, seed=3)
        spec = ps.make_heat_problem("2d", 16, grid, coeff=lambda t: 1.0 + t, data="zero")
        ht = ps.SchurPreconditioner(spec, "direct")
        basis = ht.eigenbasis(spec)
        arrays = [x for x in vars(ht).values() if isinstance(x, np.ndarray)]
        arrays += [basis.lam, *basis.vectors]
        assert all(x.shape != (spec.dim, spec.dim) for x in arrays)
        # four quarter-size blocks: 64, 56, 49 and 56 of dim 225
        assert sum(v.size for v in basis.vectors) <= 0.26 * spec.dim**2

    @pytest.mark.parametrize("kind,eig_limit", [
        ("direct", ps.schur.EIG_DIM_LIMIT), ("direct", 0), ("mg", None), ("jacobi", None),
    ], ids=["eigenbasis", "per-mode-lu", "mg", "jacobi"])
    def test_setup_seconds(self, kind, eig_limit, monkeypatch):
        if eig_limit is not None:
            monkeypatch.setattr(ps.schur, "EIG_DIM_LIMIT", eig_limit)
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("2d", 8, grid, data="zero")
        opts = {}
        if kind == "mg":
            opts["hierarchy"] = ps.build_mg_hierarchy("2d", 8)
        start = time.perf_counter()
        ht = ps.SchurPreconditioner(spec, kind, **opts)
        wall = time.perf_counter() - start
        assert 0.0 < ht.setup_seconds <= wall
        start = time.perf_counter()
        at = ps.BlockDiagSolver(spec, kind, **opts)
        wall = time.perf_counter() - start
        assert 0.0 < at.setup_seconds <= wall
