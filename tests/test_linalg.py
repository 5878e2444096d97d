import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import conftest as oracle
import pintsolve as ps
from pintsolve.errors import DimensionMismatchError, InputError, NotSpdError
from pintsolve.linalg import _sparse_matmul, csr_matmul_into, eigh_blocks


def spd_matrix(rng, dim):
    q = rng.standard_normal((dim, dim))
    return ps.SpatialMatrix.from_dense(q @ q.T + dim * np.eye(dim))


class TestSpatialMatrix:
    def test_identity_entries(self):
        m = ps.SpatialMatrix.identity(3)
        assert np.array_equal(m.todense(), np.eye(3))

    def test_duplicate_entries_are_summed(self):
        m = ps.SpatialMatrix(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
        assert np.array_equal(m.todense(), [[0.0, 7.0], [7.0, 0.0]])

    def test_lower_triangle_input_is_folded(self):
        m = ps.SpatialMatrix(2, [1], [0], [5.0])
        assert np.array_equal(m.todense(), [[0.0, 5.0], [5.0, 0.0]])

    @staticmethod
    def two_pass_csr(dim, rows, cols, vals):
        """Reference build: fold to the upper triangle, sum duplicates in
        CSR, back to COO, append the mirrored strict part, CSR again."""
        lower = rows > cols
        r, c = np.where(lower, cols, rows), np.where(lower, rows, cols)
        upper = sp.coo_matrix((vals, (r, c)), shape=(dim, dim)).tocsr()
        upper.sum_duplicates()
        upper = upper.tocoo()
        strict = upper.row < upper.col
        return sp.coo_matrix(
            (np.concatenate([upper.data, upper.data[strict]]),
             (np.concatenate([upper.row, upper.col[strict]]),
              np.concatenate([upper.col, upper.row[strict]]))),
            shape=(dim, dim),
        ).tocsr()

    @staticmethod
    def assert_same_csr(got, ref):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    @pytest.mark.parametrize("cells", [8, 16, 32, 64])
    @pytest.mark.parametrize("space", ["1d", "2d"])
    def test_assemblies_match_two_pass_build(self, space, cells):
        assemble = {"1d": ps.assemble_mass_stiffness_1d,
                    "2d": ps.assemble_mass_stiffness_2d}[space]
        for m in assemble(cells):
            upper = sp.triu(m.tocsr(), format="coo")
            ref = self.two_pass_csr(m.dim, upper.row, upper.col, upper.data)
            self.assert_same_csr(m.tocsr(), ref)

    def test_folded_duplicate_pairs_match_two_pass_build(self):
        # every entry split into two parts, one of them given below the
        # diagonal, in shuffled order
        d = ps.assemble_mass_stiffness_2d(8)[1]
        upper = sp.triu(d.tocsr(), format="coo")
        rng = np.random.default_rng(6)
        part = rng.uniform(0.2, 0.8, upper.nnz) * upper.data
        rows = np.concatenate([upper.row, upper.col])
        cols = np.concatenate([upper.col, upper.row])
        vals = np.concatenate([part, upper.data - part])
        order = rng.permutation(rows.size)
        rows, cols, vals = rows[order], cols[order], vals[order]
        ref = self.two_pass_csr(d.dim, rows, cols, vals)
        self.assert_same_csr(ps.SpatialMatrix(d.dim, rows, cols, vals).tocsr(), ref)

    def test_from_dense_rejects_nonsymmetric(self):
        with pytest.raises(InputError):
            ps.SpatialMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]])

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((5, 5))
        d = d + d.T
        assert np.allclose(ps.SpatialMatrix.from_dense(d).todense(), d)

    def test_dot_matches_dense(self):
        rng = np.random.default_rng(0)
        m = spd_matrix(rng, 6)
        x = rng.standard_normal(6)
        assert np.allclose(m.dot(x), m.todense() @ x)

    def test_scaled(self):
        m = ps.SpatialMatrix.identity(4)
        assert np.allclose(m.scaled(2.5).todense(), 2.5 * np.eye(4))

    def test_scaled_copy_builds_its_csr_on_first_read(self):
        # fl(c * stored) of the matrix it was scaled from, as an eager
        # product rounds, for a root and for a scaled copy of a scaled copy
        mass, stiff = ps.assemble_mass_stiffness_2d(6)
        once = stiff.scaled(0.7)
        twice = once.scaled(1.3)
        assert once._csr is None and twice._csr is None
        assert twice.dim == stiff.dim and twice.as_scaled() == (stiff, 0.7 * 1.3)
        oracle.assert_same_csr(twice.tocsr(), 1.3 * (0.7 * stiff.tocsr()))
        assert twice.tocsr() is twice.tocsr()
        oracle.assert_same_csr(once.tocsr(), 0.7 * stiff.tocsr())

    def test_make_heat_problem_builds_no_step_csr(self):
        grid = ps.build_time_grid("perturbed", 12, 1.0, perturbation=0.3, seed=4)
        spec = ps.make_heat_problem("2d", 8, grid, coeff=lambda t: 1.0 + t, data="zero")
        assert all(a._csr is None for a in spec.stiffness)
        (base, _, scales), = spec.step_groups
        for a, c in zip(spec.stiffness, scales):
            oracle.assert_same_csr(a.tocsr(), c * base.tocsr())

    def test_proportionality_tracked_through_scaling(self):
        rng = np.random.default_rng(1)
        m = spd_matrix(rng, 4)
        a = m.scaled(3.0)
        b = m.scaled(0.5)
        assert a.proportionality(b) == pytest.approx(6.0)
        assert a.proportionality(m) == pytest.approx(3.0)

    def test_proportionality_unknown_for_unrelated(self):
        rng = np.random.default_rng(2)
        assert spd_matrix(rng, 4).proportionality(spd_matrix(rng, 4)) is None

    def test_invalid_dim(self):
        with pytest.raises(InputError):
            ps.SpatialMatrix(0, [], [], [])


class TestCsrMatmulInto:
    """Sparse products written into existing blocks."""

    @staticmethod
    def matrix(index_dtype):
        a = sp.random(40, 30, density=0.2, format="csr",
                      random_state=np.random.default_rng(1))
        a.indptr = a.indptr.astype(index_dtype)
        a.indices = a.indices.astype(index_dtype)
        return a

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_matches_product(self, index_dtype, m, accumulate):
        a = self.matrix(index_dtype)
        rng = np.random.default_rng(m)
        x = rng.standard_normal((30, m))
        start = rng.standard_normal((40, m))
        out = start.copy()
        assert csr_matmul_into(a, x, out, accumulate=accumulate) is out
        if accumulate:
            assert np.allclose(out, start + a @ x, rtol=1e-14, atol=1e-14)
        else:
            assert np.array_equal(out, a @ x)

    @pytest.mark.parametrize("x_shape,out_shape", [
        ((29, 3), (40, 3)), ((30, 3), (39, 3)), ((30, 3), (40, 4)), ((30,), (40,)),
    ])
    def test_rejects_shapes(self, x_shape, out_shape):
        with pytest.raises(DimensionMismatchError):
            csr_matmul_into(self.matrix(np.int32), np.zeros(x_shape), np.zeros(out_shape))

    @pytest.mark.parametrize("which", ["x", "out"])
    @pytest.mark.parametrize("bad", ["fortran", "strided", "float32"])
    def test_rejects_layouts(self, which, bad):
        blocks = {"x": np.zeros((30, 4)), "out": np.zeros((40, 4))}
        rows = blocks[which].shape[0]
        blocks[which] = {
            "fortran": np.zeros((rows, 4), order="F"),
            "strided": np.zeros((rows, 8))[:, ::2],
            "float32": np.zeros((rows, 4), dtype=np.float32),
        }[bad]
        with pytest.raises(DimensionMismatchError):
            csr_matmul_into(self.matrix(np.int32), blocks["x"], blocks["out"])

    @pytest.mark.parametrize("bad", ["csc", "coo", "short indptr"])
    def test_rejects_other_formats(self, bad):
        # the kernel reads indptr unchecked: a CSC indptr of a matrix with
        # more rows than columns would be read past its end
        a = self.matrix(np.int32)
        if bad == "short indptr":
            a.indptr = a.indptr[:-1]
        else:
            a = a.asformat(bad)
        with pytest.raises(DimensionMismatchError):
            csr_matmul_into(a, np.zeros((30, 3)), np.zeros((40, 3)))

    def test_fold_of_stacked_slices_is_one_result(self):
        # a 3-D block takes the product of every slice, bit for bit, into
        # one C-order array
        a = self.matrix(np.int32)[:, :30]
        x = np.random.default_rng(2).standard_normal((3, 30, 5))
        got = _sparse_matmul(a, x)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.stack([a @ xi for xi in x]))
        strided = np.random.default_rng(3).standard_normal((2, 30, 10))[:, :, ::2]
        assert np.array_equal(_sparse_matmul(a, strided),
                              np.stack([a @ xi for xi in strided]))


class TestAddAndNorm:
    def test_add_matrices_matches_dense(self):
        rng = np.random.default_rng(4)
        x, y = spd_matrix(rng, 5), spd_matrix(rng, 5)
        got = ps.add_matrices(2.0, x, -0.5, y).todense()
        assert np.allclose(got, 2.0 * x.todense() - 0.5 * y.todense())

    def test_add_matrices_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ps.add_matrices(1.0, ps.SpatialMatrix.identity(2), 1.0,
                            ps.SpatialMatrix.identity(3))


class TestSpdFactor:
    def test_solve_matches_dense(self):
        rng = np.random.default_rng(5)
        m = spd_matrix(rng, 8)
        b = rng.standard_normal(8)
        assert np.allclose(ps.SpdFactor(m).solve(b), np.linalg.solve(m.todense(), b))

    def test_multi_rhs(self):
        rng = np.random.default_rng(6)
        m = spd_matrix(rng, 7)
        b = rng.standard_normal((7, 4))
        got = ps.SpdFactor(m).solve(b)
        assert got.shape == (7, 4)
        assert np.allclose(got, np.linalg.solve(m.todense(), b))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 3, 1)])
    def test_rejects_rows_and_wrong_lengths(self, shape):
        # right-hand sides are columns only: a (2, 3) block against a 3x3
        # factor is not two row right-hand sides
        m = spd_matrix(np.random.default_rng(13), 3)
        with pytest.raises(DimensionMismatchError):
            ps.SpdFactor(m).solve(np.ones(shape))

    def test_rejects_indefinite(self):
        m = ps.SpatialMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotSpdError):
            ps.SpdFactor(m)


def assembled_pencils():
    """Dense (A, M) pencils of the assembled meshes at odd and even dim, with
    A plain, tau-scaled and coefficient-scaled, and the sizes of their
    symmetry classes, as named pytest params."""
    out = []
    for space, cells in [("1d", 8), ("1d", 9), ("2d", 6), ("2d", 5), ("2d", 7),
                         ("2d", 8), ("2d", 9)]:
        assemble = (ps.assemble_mass_stiffness_1d if space == "1d"
                    else ps.assemble_mass_stiffness_2d)
        mass, stiff = assemble(cells)
        for label, a in [("A", stiff), ("tauA", stiff.scaled(1.0 / 37.0)),
                         ("cA", stiff.scaled(0.7).scaled(1.3))]:
            out.append(pytest.param(a.todense(), mass.todense(), oracle.class_sizes(space, cells),
                                    id=f"{space}-{cells}-{label}"))
    return out


def assert_pencil_eigenpairs(a, b, basis):
    """The eigenvalues ascending within each class block and, once sorted,
    within 1e-14 lam_max of scipy's; with V = ``basis.dense()``, V'BV = I
    and AV = BV diag(lam) to 1e-13 (relative)."""
    dim = a.shape[0]
    b = np.eye(dim) if b is None else b
    lam, v = basis.lam, basis.dense()
    for lo, hi in zip(basis.bounds[:-1], basis.bounds[1:]):
        assert np.all(np.diff(lam[lo:hi]) >= 0.0)
    want = scipy.linalg.eigvalsh(a, b)
    assert np.abs(np.sort(lam) - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(v.T @ b @ v - np.eye(dim)).max() <= 1e-13
    scale = np.linalg.norm(a, 2) * np.linalg.norm(v, 2)
    assert np.linalg.norm(a @ v - b @ v * lam, 2) <= 1e-13 * scale


def group_permutations(n):
    """The index maps J, P and JP of an n x n grid, as permutation matrices."""
    dim = n * n
    j = np.arange(dim)[::-1]
    p = np.arange(dim).reshape(n, n).T.ravel()
    return [np.eye(dim)[g] for g in (j, p, j[p])]


class TestEighPencil:
    """A symmetric pencil that commutes with the reversal J splits into two
    half-size pencils, and one that also commutes with the grid transpose P
    into four quarter-size ones; any other pencil runs one scipy eigh."""

    @pytest.mark.parametrize("a,b,sizes", assembled_pencils())
    def test_assembled_pencil_splits(self, eigh_sizes, a, b, sizes):
        a0, b0 = a.copy(), b.copy()
        basis = eigh_blocks(a, b)
        assert eigh_sizes == sizes == [v.shape[0] for v in basis.vectors]
        # the split reads its dense inputs only
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
        assert_pencil_eigenpairs(a, b, basis)

    @pytest.mark.parametrize("a,b,sizes", assembled_pencils())
    def test_block_basis_of_sparse_pencil(self, eigh_sizes, a, b, sizes):
        basis = eigh_blocks(sp.csr_matrix(a), sp.csr_matrix(b))
        assert eigh_sizes == sizes == [v.shape[0] for v in basis.vectors]
        assert_pencil_eigenpairs(a, b, basis)

    @pytest.mark.parametrize("a,b,sizes", assembled_pencils()[::3])
    def test_block_maps_match_dense_products(self, a, b, sizes):
        basis = eigh_blocks(sp.csr_matrix(a), sp.csr_matrix(b))
        v = basis.dense()
        rng = np.random.default_rng(a.shape[0])
        for shape in [(a.shape[0], 5), (2, a.shape[0], 3)]:
            x = rng.standard_normal(shape)
            for got, want in [(basis.analysis(x), v.T @ x), (basis.synthesis(x), v @ x)]:
                assert got.shape == want.shape
                scale = np.abs(v).max() * np.abs(x).sum(axis=-2).max()
                assert np.abs(got - want).max() <= 1e-14 * scale
        # V V' B is the identity
        x = rng.standard_normal((a.shape[0], 4))
        assert np.allclose(basis.synthesis(basis.analysis(b @ x)), x, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_spec_pencil_splits(self, eigh_sizes, seed):
        # every assembled mesh commutes with J, and every 2d one with P too,
        # whatever the time data
        space = "2d" if seed % 2 else "1d"
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        a, m = spec.a_ref.scaled(spec.tau_ref), spec.mass
        basis = eigh_blocks(a.tocsr(), m.tocsr())
        assert len(eigh_sizes) == (4 if space == "2d" else 2)
        assert_pencil_eigenpairs(a.todense(), m.todense(), basis)

    @pytest.mark.parametrize("a,b,sizes", assembled_pencils()[::3])
    def test_standard_problem_splits(self, eigh_sizes, a, b, sizes):
        basis = eigh_blocks(sp.csr_matrix(a))
        assert eigh_sizes == sizes
        assert_pencil_eigenpairs(a, None, basis)

    def test_repeated_eigenvalues_keep_orthonormal_basis(self):
        # the 2d stiffness is the 5-point Laplacian: its modes (k, l) and
        # (l, k) share one eigenvalue, and lie in the even and odd classes
        # of the transpose
        a = ps.assemble_mass_stiffness_2d(6)[1].todense()
        basis = eigh_blocks(a)
        lam = np.sort(basis.lam)
        assert np.sum(np.diff(lam) <= 1e-12 * lam[-1]) >= 10
        assert_pencil_eigenpairs(a, None, basis)

    @pytest.mark.parametrize("keep", ["J", "P"])
    def test_one_symmetry_splits_two_ways(self, eigh_sizes, keep):
        # two entries moved together with their images under the kept
        # involution only
        mass, stiff = ps.assemble_mass_stiffness_2d(6)
        a, b = stiff.todense(), mass.todense()
        image = {"J": lambda i: 24 - i, "P": lambda i: 5 * (i % 5) + i // 5}[keep]
        for i, j in [(0, 1), (image(0), image(1))]:
            a[i, j] = a[j, i] = a[i, j] + 0.25
        basis = eigh_blocks(a, b)
        # the classes of J: 13 even, 12 odd; of P: 15 even, 10 odd
        assert eigh_sizes == ([13, 12] if keep == "J" else [15, 10])
        assert_pencil_eigenpairs(a, b, basis)

    def test_random_pencil_runs_scipy(self, eigh_sizes):
        rng = np.random.default_rng(21)
        a, b = spd_matrix(rng, 9).todense(), spd_matrix(rng, 9).todense()
        basis = eigh_blocks(a, b)
        want_lam, want_v = scipy.linalg.eigh(a, b)
        assert eigh_sizes == [9, 9]  # the pencil's and the reference's
        assert len(basis.vectors) == 1
        assert np.array_equal(basis.lam, want_lam)
        assert np.array_equal(basis.dense(), want_v)

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_one_ulp_off_runs_scipy(self, eigh_sizes, which):
        mass, stiff = ps.assemble_mass_stiffness_2d(5)
        a, b = stiff.todense(), mass.todense()
        moved = a if which == "A" else b
        moved[1, 2] = moved[2, 1] = np.nextafter(moved[1, 2], np.inf)
        basis = eigh_blocks(a, b)
        want_lam, want_v = scipy.linalg.eigh(a, b)
        assert eigh_sizes == [16, 16]
        assert len(basis.vectors) == 1
        assert np.array_equal(basis.lam, want_lam)
        assert np.array_equal(basis.dense(), want_v)

    def test_renumbered_sparse_pencil_runs_scipy(self, eigh_sizes):
        spec = oracle.renumbered_spec(oracle.random_spec(np.random.default_rng(3), "2d"))
        a, m = spec.a_ref.tocsr(), spec.mass.tocsr()
        basis = eigh_blocks(a, m)
        want_lam, want_v = scipy.linalg.eigh(a.toarray(), m.toarray())
        assert eigh_sizes == [spec.dim, spec.dim]
        assert len(basis.vectors) == 1
        assert np.array_equal(basis.lam, want_lam)
        assert np.array_equal(basis.vectors[0], want_v)
        x = np.random.default_rng(0).standard_normal((spec.dim, 3))
        assert np.array_equal(basis.analysis(x), want_v.T @ x)
        assert np.array_equal(basis.synthesis(x), want_v @ x)

    @pytest.mark.parametrize("coupling", [2.0, -2.0], ids=["odd-half", "even-half"])
    def test_indefinite_b_names_b(self, eigh_sizes, coupling):
        # B = I with its corner couplings c: the half blocks hold 1 + c and
        # 1 - c, so one half is indefinite and the other SPD
        stiff = ps.assemble_mass_stiffness_1d(8)[1]
        b = np.eye(7)
        b[0, -1] = b[-1, 0] = coupling
        with pytest.raises(NotSpdError, match="mass matrix is not SPD"):
            eigh_blocks(stiff.todense(), b, name="mass matrix")
        assert eigh_sizes == ([4, 3] if coupling > 0 else [4])

    @pytest.mark.parametrize("cls", range(4))
    def test_indefinite_class_of_b_names_b(self, eigh_sizes, cls):
        # B = I - 2 P_c, with P_c = (1/4) sum_g chi_c(g) g the projector on
        # class c: -1 on that class and 1 on the others
        stiff = ps.assemble_mass_stiffness_2d(6)[1]
        sj, sp_ = [(1, 1), (1, -1), (-1, 1), (-1, -1)][cls]
        chi = [sj, sp_, sj * sp_]
        b = 0.5 * np.eye(25) - 0.5 * sum(c * g for c, g in zip(chi, group_permutations(5)))
        with pytest.raises(NotSpdError, match="mass matrix is not SPD"):
            eigh_blocks(stiff.tocsr(), sp.csr_matrix(b), name="mass matrix")
        assert eigh_sizes == oracle.class_sizes("2d", 6)[: cls + 1]


class TestBlockBasisNorm:
    """BlockBasis.norm takes ||V c||_2 from the class products alone, and
    folding the products it leaves gives synthesis(c) bit for bit."""

    @staticmethod
    def bases():
        rng = np.random.default_rng(9)
        specs = {"split-1d": oracle.random_spec(rng, "1d"),
                 "split-2d": oracle.random_spec(rng, "2d")}
        specs["unsplit"] = oracle.renumbered_spec(specs["split-2d"])
        return {name: eigh_blocks(spec.a_ref.tocsr(), spec.mass.tocsr())
                for name, spec in specs.items()}

    @pytest.mark.parametrize("case", ["split-1d", "split-2d", "unsplit"])
    def test_matches_norm_of_synthesis(self, case):
        basis = self.bases()[case]
        assert (len(basis.vectors) == 1) == (case == "unsplit")
        dim = basis.lam.size
        rng = np.random.default_rng(dim)
        for shape in [(dim, 6), (2, dim, 5)]:
            c = rng.standard_normal(shape)
            before = c.copy()
            work = np.full(shape, np.nan)
            want = basis.synthesis(c)
            got = basis.norm(c, work)
            assert got == pytest.approx(np.linalg.norm(want), rel=1e-13, abs=0.0)
            assert np.array_equal(basis.fold(work), want)
            assert np.array_equal(c, before)


class TestLanczos:
    def test_matches_dense_on_random_pencil(self):
        rng = np.random.default_rng(9)
        dim = 40
        a = spd_matrix(rng, dim).todense()
        b = spd_matrix(rng, dim).todense()
        ref = scipy.linalg.eigh(a, b, eigvals_only=True)
        binv = np.linalg.inv(b)
        res = ps.lanczos_extremal_eig(
            lambda x: binv @ (a @ x),
            lambda x: b @ x,
            rng.standard_normal(dim),
            iters=60,
        )
        assert res.lam_min == pytest.approx(ref[0], abs=1e-9)
        assert res.lam_max == pytest.approx(ref[-1], abs=1e-9)

    def test_euclidean_inner_product(self):
        rng = np.random.default_rng(10)
        a = spd_matrix(rng, 30).todense()
        ref = np.linalg.eigvalsh(a)
        res = ps.lanczos_extremal_eig(
            lambda x: a @ x, lambda x: x, rng.standard_normal(30), iters=40
        )
        assert res.lam_min == pytest.approx(ref[0], abs=1e-10)
        assert res.lam_max == pytest.approx(ref[-1], abs=1e-10)

    def test_ill_conditioned_weight(self):
        # the weight spans 8 orders of magnitude; extremal values must
        # still come out to full working accuracy
        rng = np.random.default_rng(11)
        dim = 25
        b = np.diag(np.logspace(-4, 4, dim))
        a = spd_matrix(rng, dim).todense()
        ref = scipy.linalg.eigh(a, b, eigvals_only=True)
        binv = np.diag(1.0 / np.diag(b))
        res = ps.lanczos_extremal_eig(
            lambda x: binv @ (a @ x), lambda x: b @ x,
            rng.standard_normal(dim), iters=60,
        )
        assert res.lam_min == pytest.approx(ref[0], rel=1e-8)
        assert res.lam_max == pytest.approx(ref[-1], rel=1e-8)

    def test_zero_start_vector_rejected(self):
        with pytest.raises(InputError):
            ps.lanczos_extremal_eig(lambda x: x, lambda x: x, np.zeros(4), iters=5)

    def test_breakdown_on_exact_invariant_subspace(self):
        a = np.diag([1.0, 2.0, 3.0])
        res = ps.lanczos_extremal_eig(
            lambda x: a @ x, lambda x: x, np.array([1.0, 0.0, 0.0]), iters=10
        )
        assert res.breakdown
        assert res.lam_min == pytest.approx(1.0)

    @pytest.mark.parametrize("case", ["cap", "stagnation", "breakdown"])
    def test_converged_says_how_the_run_ended(self, case):
        # a clustered spectrum needs many steps, isolated extremes few, and
        # a start vector in a 3-dimensional invariant subspace breaks down
        ev = {
            "cap": np.linspace(1.0, 2.0, 200),
            "stagnation": np.concatenate([[0.01], np.linspace(1.0, 2.0, 198), [100.0]]),
            "breakdown": np.arange(1.0, 201.0),
        }[case]
        x0 = np.random.default_rng(16).standard_normal(200)
        if case == "breakdown":
            x0[3:] = 0.0
        res = ps.lanczos_extremal_eig(lambda x: ev * x, lambda x: x, x0, iters=40)
        assert res.converged == (case != "cap")
        assert res.breakdown == (case == "breakdown")
        assert (res.iterations == 40) == (case == "cap")
        if case == "stagnation":
            assert res.lam_min == pytest.approx(0.01, rel=1e-10)
            assert res.lam_max == pytest.approx(100.0, rel=1e-10)

    def test_run_ends_when_krylov_space_is_exhausted(self):
        # n steps span the whole space: a cap above n is never reached, and
        # the basis is sized for n steps (the cap's would take 192 MB)
        rng = np.random.default_rng(17)
        a = spd_matrix(rng, 12).todense()
        ref = np.linalg.eigvalsh(a)
        tracemalloc.start()
        try:
            res = ps.lanczos_extremal_eig(lambda x: a @ x, lambda x: x,
                                          rng.standard_normal(12), iters=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert res.converged
        assert res.iterations <= 12
        assert res.lam_min == pytest.approx(ref[0], abs=1e-12)
        assert res.lam_max == pytest.approx(ref[-1], abs=1e-12)

    def test_block_start_matches_dense_union(self):
        # one recurrence per column, each column its own pencil; the result
        # is the extremes over every pencil
        rng = np.random.default_rng(14)
        dim, m = 30, 4
        a = [spd_matrix(rng, dim).todense() for _ in range(m)]
        b = [spd_matrix(rng, dim).todense() for _ in range(m)]
        binv = [np.linalg.inv(bc) for bc in b]
        ref = np.concatenate([scipy.linalg.eigh(ac, bc, eigvals_only=True)
                              for ac, bc in zip(a, b)])

        def per_column(mats):
            return lambda x: np.column_stack([mc @ x[:, c] for c, mc in enumerate(mats)])

        res = ps.lanczos_extremal_eig(
            per_column([bi @ ac for bi, ac in zip(binv, a)]), per_column(b),
            rng.standard_normal((dim, m)), iters=60,
        )
        assert res.lam_min == pytest.approx(ref.min(), abs=1e-9)
        assert res.lam_max == pytest.approx(ref.max(), abs=1e-9)

    def test_single_column_block_matches_vector_start(self):
        rng = np.random.default_rng(15)
        a = spd_matrix(rng, 20).todense()
        x0 = rng.standard_normal(20)
        vec = ps.lanczos_extremal_eig(lambda x: a @ x, lambda x: x, x0, iters=30)
        blk = ps.lanczos_extremal_eig(lambda x: a @ x, lambda x: x, x0[:, None],
                                      iters=30)
        assert blk.iterations == vec.iterations
        assert blk.lam_min == pytest.approx(vec.lam_min, rel=1e-13)
        assert blk.lam_max == pytest.approx(vec.lam_max, rel=1e-13)

    def test_columns_break_down_at_different_steps(self):
        # column 0 spans two eigenvectors, column 1 four: the first stops
        # recording after two steps, the run ends with the second
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        x0 = np.zeros((6, 2))
        x0[[1, 2], 0] = 1.0
        x0[[0, 2, 3, 4], 1] = 1.0
        res = ps.lanczos_extremal_eig(lambda x: a @ x, lambda x: x, x0, iters=10)
        assert res.breakdown
        assert res.iterations == 4
        assert res.lam_min == pytest.approx(1.0, abs=1e-12)
        assert res.lam_max == pytest.approx(5.0, abs=1e-12)

    def test_zero_column_rejected(self):
        x0 = np.ones((4, 2))
        x0[:, 1] = 0.0
        with pytest.raises(InputError):
            ps.lanczos_extremal_eig(lambda x: x, lambda x: x, x0, iters=5)
