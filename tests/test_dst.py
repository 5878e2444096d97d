import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pintsolve as ps
from pintsolve.errors import InputError

SIZES = list(range(1, 17)) + [24, 31, 32, 64, 100, 128, 200, 1000]


def naive_kernel(N):
    n = np.arange(1, N + 1)[:, None]
    k = np.arange(1, N + 1)[None, :]
    return np.sin((2 * k - 1) * n * np.pi / (2 * N))


def naive_forward(u):
    # basis coefficients with half weight on the final sample
    N = len(u)
    w = np.ones(N)
    w[-1] = 0.5
    return (2.0 / N) * naive_kernel(N).T @ (w * u)


def naive_inverse(uhat):
    return naive_kernel(len(uhat)) @ uhat


class TestAgainstNaiveFormulas:
    @pytest.mark.parametrize("N", SIZES)
    def test_forward(self, N):
        rng = np.random.default_rng(N)
        u = rng.standard_normal(N)
        got = ps.DstPlan(N).forward(u)
        assert np.allclose(got, naive_forward(u), atol=1e-13)

    @pytest.mark.parametrize("N", SIZES)
    def test_inverse(self, N):
        rng = np.random.default_rng(N + 1)
        uhat = rng.standard_normal(N)
        got = ps.DstPlan(N).inverse(uhat)
        assert np.allclose(got, naive_inverse(uhat), atol=1e-13)


class TestInverseAndTransposeIdentities:
    @pytest.mark.parametrize("N", SIZES)
    def test_round_trip(self, N):
        rng = np.random.default_rng(N + 2)
        plan = ps.DstPlan(N)
        u = rng.standard_normal(N)
        assert np.allclose(plan.inverse(plan.forward(u)), u, atol=1e-12)
        assert np.allclose(plan.forward(plan.inverse(u)), u, atol=1e-12)

    @pytest.mark.parametrize("N", SIZES)
    def test_transpose_is_adjoint(self, N):
        rng = np.random.default_rng(N + 3)
        plan = ps.DstPlan(N)
        u, v = rng.standard_normal(N), rng.standard_normal(N)
        assert plan.forward(u) @ v == pytest.approx(
            u @ plan.forward_transpose(v), abs=1e-12
        )
        assert plan.inverse(u) @ v == pytest.approx(
            u @ plan.inverse_transpose(v), abs=1e-12
        )

    @pytest.mark.parametrize("N", SIZES)
    def test_transpose_round_trip(self, N):
        rng = np.random.default_rng(N + 4)
        plan = ps.DstPlan(N)
        u = rng.standard_normal(N)
        assert np.allclose(
            plan.inverse_transpose(plan.forward_transpose(u)), u, atol=1e-12
        )

    @pytest.mark.parametrize("N", SIZES)
    def test_dense_matrices_consistent(self, N):
        plan = ps.DstPlan(N)
        fwd, inv = plan.forward_matrix(), plan.inverse_matrix()
        assert np.allclose(fwd @ inv, np.eye(N), atol=1e-12)
        for u in np.eye(N):
            assert np.allclose(plan.forward(u), fwd @ u, atol=1e-13)


class TestIdentityProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N=st.integers(1, 512), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, N, seed):
        plan = ps.DstPlan(N)
        u = np.random.default_rng(seed).standard_normal(N)
        assert np.max(np.abs(plan.inverse(plan.forward(u)) - u)) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N=st.integers(1, 512), seed=st.integers(0, 2**32 - 1))
    def test_transpose_pairs_are_adjoint(self, N, seed):
        rng = np.random.default_rng(seed)
        plan = ps.DstPlan(N)
        u, v = rng.standard_normal(N), rng.standard_normal(N)
        for op, op_t in ((plan.forward, plan.forward_transpose),
                         (plan.inverse, plan.inverse_transpose)):
            image = op(u)
            gap = abs(image @ v - u @ op_t(v))
            assert gap <= 1e-12 * np.linalg.norm(image) * np.linalg.norm(v)


class TestBasisOrthogonality:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12, 17, 64, 200])
    def test_weighted_orthogonality(self, N):
        # sum_n (1 + [n == N])^{-1} phi_k(n) phi_j(n) = (N/2) delta_kj
        phi = naive_kernel(N)
        w = np.ones(N)
        w[-1] = 0.5
        gram = phi.T @ (w[:, None] * phi)
        assert np.allclose(gram, (N / 2.0) * np.eye(N), atol=1e-10)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12, 17, 64, 200])
    def test_jump_orthogonality(self, N):
        # sum_n (phi_k(n) - phi_k(n-1))(phi_j(n) - phi_j(n-1)) = (N/2) mu_k^2 d_kj
        phi = np.vstack([np.zeros(N), naive_kernel(N)])
        jumps = np.diff(phi, axis=0)
        gram = jumps.T @ jumps
        mu = ps.frequency_weights(N)
        assert np.allclose(gram, (N / 2.0) * np.diag(mu**2), atol=1e-10)


class TestBlockTransforms:
    def test_applies_along_first_axis(self):
        rng = np.random.default_rng(0)
        plan = ps.DstPlan(8)
        u = rng.standard_normal((8, 5))
        got = plan.forward(u)
        for j in range(5):
            assert np.allclose(got[:, j], plan.forward(u[:, j]))

    @pytest.mark.parametrize("N", [3, 12, 200])
    def test_blocks_match_naive_formulas(self, N):
        rng = np.random.default_rng(N + 5)
        plan = ps.DstPlan(N)
        u = rng.standard_normal((N, 4))
        fwd = np.column_stack([naive_forward(c) for c in u.T])
        inv = np.column_stack([naive_inverse(c) for c in u.T])
        assert np.allclose(plan.forward(u), fwd, atol=1e-13)
        assert np.allclose(plan.inverse(u), inv, atol=1e-12)


class TestValidation:
    def test_rejects_bad_size(self):
        with pytest.raises(InputError):
            ps.DstPlan(0)

    def test_rejects_length_mismatch(self):
        plan = ps.DstPlan(4)
        with pytest.raises(InputError):
            plan.forward(np.ones(5))
