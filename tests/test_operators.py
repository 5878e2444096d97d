import numpy as np
import pytest

import pintsolve as ps
from pintsolve.errors import DiagnosticModeRequiredError, DimensionMismatchError
from pintsolve.operators import dense_operator

import conftest as oracle


def specs():
    rng = np.random.default_rng(42)
    return [oracle.random_spec(rng) for _ in range(6)] + [oracle.per_step_spec()]


@pytest.fixture(scope="module", params=range(7))
def spec(request):
    return specs()[request.param]


@pytest.fixture(scope="module")
def system(spec):
    sys_ = ps.TimeGlobalSystem(spec, diagnostic=True)
    sys_.build_exact_solvers()
    return sys_


def rand_u(spec, seed=0):
    return np.random.default_rng(seed).standard_normal((spec.N, spec.dim))


class TestBlockOperators:
    def test_K_matches_kron_oracle(self, spec, system):
        k = oracle.dense_block_K(spec)
        got = dense_operator(system.apply_K, spec.N, spec.dim)
        assert np.allclose(got, k, atol=1e-12)

    def test_Kt_is_transpose(self, spec, system):
        k = dense_operator(system.apply_K, spec.N, spec.dim)
        kt = dense_operator(system.apply_Kt, spec.N, spec.dim)
        assert np.allclose(kt, k.T, atol=1e-13)

    def test_Abd_matches_block_diag_oracle(self, spec, system):
        a = oracle.dense_block_Abd(spec)
        got = dense_operator(system.apply_Abd, spec.N, spec.dim)
        assert np.allclose(got, a, atol=1e-12)

    def test_B_is_K_plus_Abd(self, spec, system):
        b = oracle.dense_block_B(spec)
        got = dense_operator(system.apply_B, spec.N, spec.dim)
        assert np.allclose(got, b, atol=1e-12)
        bt = dense_operator(system.apply_Bt, spec.N, spec.dim)
        assert np.allclose(bt, b.T, atol=1e-12)

    def test_Abd_inv(self, spec, system):
        u = rand_u(spec, 1)
        got = system.apply_Abd_inv(system.apply_Abd(u))
        assert np.allclose(got, u, atol=1e-9)

    def test_Abd_inv_needs_diagnostic_mode(self, spec):
        plain = ps.TimeGlobalSystem(spec)
        with pytest.raises(DiagnosticModeRequiredError):
            plain.apply_Abd_inv(rand_u(spec, 2))

    def test_saddle_operator(self, spec, system):
        sad = oracle.dense_saddle(spec)
        p, u = rand_u(spec, 3), rand_u(spec, 4)
        top, bottom = system.apply_saddle(p, u)
        w = np.concatenate([p.ravel(), u.ravel()])
        ref = sad @ w
        nd = spec.N * spec.dim
        assert np.allclose(top.ravel(), ref[:nd], atol=1e-10)
        assert np.allclose(bottom.ravel(), ref[nd:], atol=1e-10)

    def test_storage_order_does_not_change_results(self, spec, system):
        p, u = rand_u(spec, 5), rand_u(spec, 6)
        pf, uf = np.asfortranarray(p), np.asfortranarray(u)
        assert p.flags.c_contiguous and pf.flags.f_contiguous
        for op in (system.apply_M, system.apply_K, system.apply_Kt,
                   system.apply_Abd):
            assert np.array_equal(op(u), op(uf))
        for c, f in zip(system.apply_saddle(p, u), system.apply_saddle(pf, uf)):
            assert np.array_equal(c, f)

    def test_M_matches_kron_oracle(self, spec, system):
        u = rand_u(spec, 7)
        ref = np.kron(np.eye(spec.N), oracle.dense_M(spec)) @ u.ravel()
        assert np.allclose(system.apply_M(u).ravel(), ref, atol=1e-12)

    def test_shape_validation(self, system, spec):
        with pytest.raises(DimensionMismatchError):
            system.apply_K(np.zeros((spec.N + 1, spec.dim)))


class TestSchurAndNorms:
    def test_S_matches_dense_oracle(self, spec, system):
        s_ref = oracle.dense_schur(spec)
        got = dense_operator(system.apply_S, spec.N, spec.dim)
        assert np.allclose(got, s_ref, atol=1e-9 * np.abs(s_ref).max())

    def test_s_norm_is_S_quadratic_form(self, spec, system):
        s_ref = oracle.dense_schur(spec)
        for seed in range(5):
            u = rand_u(spec, seed)
            ref = np.sqrt(u.ravel() @ s_ref @ u.ravel())
            assert system.s_norm(u) == pytest.approx(ref, rel=1e-9)

    def test_s_bilinear_symmetry(self, spec, system):
        u, v = rand_u(spec, 5), rand_u(spec, 6)
        assert system.s_bilinear(u, v) == pytest.approx(
            system.s_bilinear(v, u), rel=1e-10
        )

    def test_jump_form(self, spec, system):
        u, v = rand_u(spec, 7), rand_u(spec, 8)
        m = oracle.dense_M(spec)
        du = np.diff(np.vstack([np.zeros(spec.dim), u]), axis=0)
        dv = np.diff(np.vstack([np.zeros(spec.dim), v]), axis=0)
        ref = u[-1] @ m @ v[-1] + np.sum(du * (dv @ m))
        assert system.jump_form(u, v) == pytest.approx(ref, rel=1e-10)

    def test_half_weighted_form_bounds(self, spec, system):
        # the half-final-weight variant is equivalent with constants [1, 3]
        for seed in range(10):
            u = rand_u(spec, seed + 20)
            s2 = system.s_bilinear(u, u)
            sd2 = system.sd_bilinear(u, u)
            assert sd2 <= s2 * (1 + 1e-10)
            assert s2 <= 3.0 * sd2 * (1 + 1e-10)

    def test_max_m_norm(self, spec, system):
        u = rand_u(spec, 9)
        m = oracle.dense_M(spec)
        ref = max(np.sqrt(un @ m @ un) for un in u)
        assert system.max_m_norm(u) == pytest.approx(ref, rel=1e-12)


class TestExtensionOperator:
    def test_P_matches_dense_oracle(self, spec, system):
        p_ref = oracle.dense_P(spec)
        got = dense_operator(system.apply_P, spec.N, spec.dim)
        assert np.allclose(got, p_ref, atol=1e-9 * np.abs(p_ref).max())

    def test_Pt_is_adjoint(self, spec, system):
        u, v = rand_u(spec, 10), rand_u(spec, 11)
        lhs = np.sum(system.apply_P(u) * v)
        rhs = np.sum(u * system.apply_Pt(v))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_energy_identity(self, spec, system):
        # the energy norm of the extension equals the full norm of the input
        for seed in range(5):
            u = rand_u(spec, seed + 40)
            assert system.a_norm(system.apply_P(u)) == pytest.approx(
                system.s_norm(u), rel=1e-9
            )


class TestRhs:
    def test_fold_rhs(self, spec):
        rhs = ps.fold_rhs(spec)
        ref = spec.grid.steps[:, None] * spec.load
        ref[0] += spec.mass.dot(spec.u_init)
        assert np.allclose(rhs, ref)

    def test_sequential_solution_satisfies_global_system(self, spec, system):
        u = ps.sequential_euler_solve(spec)
        b = oracle.dense_block_B(spec)
        ref = np.linalg.solve(b, system.rhs.ravel()).reshape(spec.N, spec.dim)
        assert np.allclose(u, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))


class TestDNorm:
    def test_reduces_to_energy_norms(self, spec, system):
        # with exact block solves (rho = 0) the norm is the H-norm of the
        # principal component only
        ht = ps.SchurPreconditioner(spec, solver_kind="direct")
        u = rand_u(spec, 13)
        got = ps.d_norm(u, ht.apply)
        ref = np.sqrt(np.sum(u * ht.apply(u)))
        assert got == pytest.approx(ref, rel=1e-12)


def in_layout(a, layout):
    """A copy of the (N, dim) block a: Fortran or C order, a column slab of
    a wider Fortran-order block (Fortran-contiguous, not at offset 0), or
    every other column of one (contiguous in neither order)."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "C":
        return np.ascontiguousarray(a)
    n, dim = a.shape
    wide = np.full((n, 2 * dim + 3), np.nan, order="F")
    view = wide[:, 2:2 + dim] if layout == "slab" else wide[:, 1::2][:, :dim]
    view[...] = a
    return view


LAYOUTS = ["F", "C", "slab", "every-other"]


class TestTimeShifts:
    """The time differences and the eigenbasis saddle product run each
    shift along time as one pass over the flat buffer of a Fortran-order
    block; every layout gives the strided oracles' values bit for bit."""

    DIM = 7

    @staticmethod
    def blocks(N, count, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((N, TestTimeShifts.DIM)) for _ in range(count)]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("N", [1, 2, 3, 200])
    def test_time_differences_match_strided(self, N, layout):
        (mx,) = self.blocks(N, 1, N)
        x = in_layout(mx, layout)
        before = x.copy()
        for flat, strided in [(ps.operators.time_difference, oracle.strided_time_difference),
                              (ps.operators.time_difference_t,
                               oracle.strided_time_difference_t)]:
            want = strided(mx, np.empty_like(mx))
            out = in_layout(np.full_like(mx, np.nan), layout)
            assert flat(x, out=out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(flat(x), want)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("layout", LAYOUTS + ["mixed"])
    @pytest.mark.parametrize("N", [1, 2, 3, 200])
    def test_saddle_product_matches_strided(self, N, layout):
        p, u, w = self.blocks(N, 3, N)
        w = np.abs(w) + 0.1
        top, bottom = np.empty_like(p), np.empty_like(p)
        oracle.strided_weighted_saddle_product(w, p, u, top, bottom)
        # "mixed": Fortran-order operands and C-order outputs
        inputs = "F" if layout == "mixed" else layout
        outputs = "C" if layout == "mixed" else layout
        d = in_layout(-(w + 2.0), inputs)
        args = [in_layout(a, inputs) for a in (w, p, u)]
        kept = [a.copy() for a in args]
        out = [in_layout(np.full_like(p, np.nan), outputs) for _ in range(2)]
        ps.operators.weighted_saddle_product(args[0], d, args[1], args[2], *out)
        assert np.array_equal(out[0], top) and np.array_equal(out[1], bottom)
        assert all(np.array_equal(a, b) for a, b in zip(args, kept))
