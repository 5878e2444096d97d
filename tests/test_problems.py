import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pintsolve as ps
from pintsolve.errors import InputError, NotSpdError

import conftest as oracle


class TestTimeGrid:
    def test_uniform(self):
        g = ps.build_time_grid("uniform", 4, 2.0)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(g.steps, 0.5)
        assert g.N == 4
        assert g.T == pytest.approx(2.0)

    def test_perturbed_stays_positive_and_sums_to_T(self):
        g = ps.build_time_grid("perturbed", 50, 3.0, perturbation=0.4, seed=2)
        assert np.all(g.steps > 0)
        assert g.steps.sum() == pytest.approx(3.0)
        assert not np.allclose(g.steps, g.steps[0])

    def test_perturbed_is_seeded(self):
        a = ps.build_time_grid("perturbed", 10, 1.0, seed=5)
        b = ps.build_time_grid("perturbed", 10, 1.0, seed=5)
        assert np.array_equal(a.nodes, b.nodes)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            ps.build_time_grid("uniform", 0, 1.0)
        with pytest.raises(InputError):
            ps.build_time_grid("uniform", 4, -1.0)
        with pytest.raises(InputError):
            ps.build_time_grid("nope", 4, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_nodes(self, bad):
        with pytest.raises(InputError):
            ps.TimeGrid(np.array([0.0, 0.5, bad, 1.0]))
        with pytest.raises(InputError):
            ps.TimeGrid(np.array([0.0, 0.5, 1.0, bad]))


class TestAssembly1d:
    def test_two_cells(self):
        # one interior node: M = h*2/3 ... with h = 1/2: M = [[1/3]], A = [[4]]
        mass, stiff = ps.assemble_mass_stiffness_1d(2)
        assert mass.dim == 1
        assert mass.todense() == pytest.approx(np.array([[1.0 / 3.0]]))
        assert stiff.todense() == pytest.approx(np.array([[4.0]]))

    def test_four_cells(self):
        h = 0.25
        mass, stiff = ps.assemble_mass_stiffness_1d(4)
        m_ref = (h / 6.0) * np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]])
        a_ref = (1.0 / h) * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert np.allclose(mass.todense(), m_ref)
        assert np.allclose(stiff.todense(), a_ref)

    def test_quadrature_exactness(self):
        # integral of the hat-function interpolant of x(1-x) under M-weighting
        # against itself equals the exact piecewise-linear L2 norm
        cells = 16
        mass, _ = ps.assemble_mass_stiffness_1d(cells)
        x = np.arange(1, cells) / cells
        u = x * (1 - x)
        # independent oracle: Simpson-exact integration of the P1 interpolant
        nodes = np.arange(cells + 1) / cells
        vals = np.concatenate([[0.0], u, [0.0]])
        total = 0.0
        for i in range(cells):
            a, b = vals[i], vals[i + 1]
            total += (a * a + a * b + b * b) / 3.0 / cells
        assert u @ mass.dot(u) == pytest.approx(total, rel=1e-13)

    @pytest.mark.parametrize("cells", list(range(2, 65)) + [128, 1024, 4096])
    def test_matches_fold_and_mirror_build(self, cells):
        # the element sums 2h/6 + 2h/6 and 1/h + 1/h round as 4h/6 and 2/h
        for got, want in zip(ps.assemble_mass_stiffness_1d(cells),
                             oracle.fold_mirror_assembly_1d(cells)):
            oracle.assert_same_csr(got, want)


class TestAssembly2d:
    def test_smallest_mesh(self):
        # 2x2 cells, one interior node; five-point stencil gives A = [[4]]
        mass, stiff = ps.assemble_mass_stiffness_2d(2)
        assert mass.dim == 1
        h = 0.5
        assert mass.todense() == pytest.approx(np.array([[h * h / 2.0]]))
        assert stiff.todense() == pytest.approx(np.array([[4.0]]))

    def test_stiffness_is_five_point_stencil(self):
        cells = 4
        _, stiff = ps.assemble_mass_stiffness_2d(cells)
        dim = (cells - 1) ** 2
        a = stiff.todense()
        ref = np.zeros((dim, dim))
        n = cells - 1
        for j in range(n):
            for i in range(n):
                row = j * n + i
                ref[row, row] = 4.0
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        ref[row, jj * n + ii] = -1.0
        assert np.allclose(a, ref)

    @pytest.mark.parametrize("cells", [3, 8, 32])
    def test_stiffness_stores_no_zeros(self, cells):
        # the ll-ur couplings of the stiffness element are exact zeros: the
        # stored pattern is the five-point stencil's
        stiff = ps.assemble_mass_stiffness_2d(cells)[1].tocsr()
        n = cells - 1
        assert np.all(stiff.data != 0.0)
        assert stiff.nnz == n * n + 4 * n * (n - 1)

    def test_mass_row_sums(self):
        # interior rows of M sum to h^2 (the nodal cell area), boundary-adjacent
        # rows to less; total is bounded by the domain area
        cells = 8
        mass, _ = ps.assemble_mass_stiffness_2d(cells)
        h = 1.0 / cells
        sums = mass.todense().sum(axis=1)
        n = cells - 1
        interior = [j * n + i for j in range(1, n - 1) for i in range(1, n - 1)]
        assert np.allclose(sums[interior], h * h)
        assert mass.todense().sum() < 1.0

    def test_spd(self):
        mass, stiff = ps.assemble_mass_stiffness_2d(8)
        assert np.linalg.eigvalsh(mass.todense())[0] > 0
        assert np.linalg.eigvalsh(stiff.todense())[0] > 0

    @pytest.mark.parametrize("cells", list(range(2, 21)) + [32])
    def test_matches_element_loop(self, cells):
        # same entries in the same order, so every duplicate sums alike
        for got, want in zip(ps.assemble_mass_stiffness_2d(cells),
                             oracle.loop_assembly_2d(cells)):
            oracle.assert_same_csr(got, want)


class TestAlpha:
    def test_uniform_constant_coefficient_gives_one(self):
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid)
        assert spec.alpha == pytest.approx(1.0)

    def test_matches_dense_oracle(self):
        grid = ps.build_time_grid("perturbed", 6, 1.0, perturbation=0.3, seed=3)
        proportional = ps.make_heat_problem("1d", 8, grid, coeff=lambda t: 1.0 + t)
        # oracle: alpha = max over n of max(lam_max, 1/lam_min) of the pencil
        # (tau_n A_n, tau_ref A_ref)
        import scipy.linalg

        for spec in (proportional, oracle.per_step_spec()):
            worst = 1.0
            ref = spec.tau_ref * spec.a_ref.todense()
            for tau, a_n in zip(spec.grid.steps, spec.stiffness):
                w = scipy.linalg.eigh(tau * a_n.todense(), ref, eigvals_only=True)
                worst = max(worst, w[-1], 1.0 / w[0])
            assert spec.alpha == pytest.approx(worst, rel=1e-10)

    def test_quasi_uniformity_bound_holds(self):
        grid = ps.build_time_grid("perturbed", 5, 1.0, perturbation=0.4, seed=9)
        spec = ps.make_heat_problem("1d", 6, grid, coeff=lambda t: 2.0 - t)
        ref = spec.tau_ref * spec.a_ref.todense()
        alpha = spec.alpha
        rng = np.random.default_rng(0)
        for tau, a_n in zip(spec.grid.steps, spec.stiffness):
            for _ in range(20):
                v = rng.standard_normal(spec.dim)
                q = (tau * (v @ a_n.dot(v))) / (v @ ref @ v)
                assert 1.0 / alpha - 1e-12 <= q <= alpha + 1e-12


class TestGroupSteps:
    def test_one_group_covers_every_step_with_a_slice(self):
        grid = ps.build_time_grid("uniform", 5, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, coeff=lambda t: 1.0 + t)
        (base, steps, scales), = spec.step_groups
        assert steps == slice(None)
        for a_n, s in zip(spec.stiffness, scales):
            assert np.array_equal(a_n.todense(), s * base.todense())

    def test_groups_reassemble_every_step(self):
        spec = oracle.per_step_spec()
        seen = []
        for base, steps, scales in spec.step_groups:
            assert isinstance(steps, np.ndarray)
            for n, s in zip(steps, scales):
                assert np.array_equal(spec.stiffness[n].todense(),
                                      s * base.todense())
            seen += list(steps)
        assert sorted(seen) == list(range(spec.N))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_rejects_non_positive_scale(self, bad):
        _, stiff = ps.assemble_mass_stiffness_1d(4)
        with pytest.raises(NotSpdError, match="step 2"):
            ps.group_steps([stiff, stiff.scaled(bad)])


class TestMakeHeatProblem:
    def test_manufactured_load_solves_to_decaying_sine(self):
        # time refinement must converge to w(t)*sine at first order
        errs = []
        for N in (16, 32):
            grid = ps.build_time_grid("uniform", N, 1.0)
            spec = ps.make_heat_problem("1d", 128, grid, data="manufactured")
            u = ps.sequential_euler_solve(spec)
            x = np.arange(1, 128) / 128
            exact = np.exp(-grid.nodes[-1]) * np.sin(np.pi * x)
            # the spatial part is not an exact eigenvector of the discrete
            # pencil, so compare at a fine mesh and coarse tolerance
            errs.append(np.abs(u[-1] - exact).max())
        assert errs[1] < 0.7 * errs[0]

    @pytest.mark.parametrize("space,cells",
                             [("1d", c) for c in list(range(2, 40)) + [256, 1024]]
                             + [("2d", c) for c in list(range(2, 20)) + [32, 64]])
    def test_sine_data_matches_nodal_formula(self, space, cells):
        grid = ps.build_time_grid("uniform", 1, 1.0)
        spec = ps.make_heat_problem(space, cells, grid, data="sine")
        sine = oracle.nodal_sine_data(space, cells)
        assert spec.u_init.tobytes() == sine.tobytes()

    def test_zero_data(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("2d", 4, grid, data="zero")
        assert not spec.load.any()
        assert not spec.u_init.any()

    def test_rejects_nonpositive_coefficient(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        with pytest.raises(InputError):
            ps.make_heat_problem("1d", 8, grid, coeff=lambda t: t - 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        with pytest.raises(InputError):
            ps.make_heat_problem("1d", 8, grid, coeff=lambda t: bad if t > 0.6 else 1.0)

    def test_rejects_unknown_space_and_data(self):
        grid = ps.build_time_grid("uniform", 4, 1.0)
        with pytest.raises(InputError):
            ps.make_heat_problem("3d", 8, grid)
        with pytest.raises(InputError):
            ps.make_heat_problem("1d", 8, grid, data="nonsense")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        grid = ps.build_time_grid("perturbed", 6, 1.5, perturbation=0.2, seed=4)
        spec = ps.make_heat_problem("1d", 8, grid, coeff=lambda t: 1.0 + 0.5 * t,
                                    data="random", seed=12)
        path = tmp_path / "problem.txt"
        ps.save_problem(spec, str(path))
        back = ps.load_problem(str(path))
        assert np.array_equal(back.grid.nodes, spec.grid.nodes)
        assert np.array_equal(back.load, spec.load)
        assert np.array_equal(back.u_init, spec.u_init)
        assert back.tau_ref == spec.tau_ref
        assert back.alpha == spec.alpha
        assert np.array_equal(back.mass.todense(), spec.mass.todense())
        for a, b in zip(back.stiffness, spec.stiffness):
            assert np.array_equal(a.todense(), b.todense())
        assert np.array_equal(back.a_ref.todense(), spec.a_ref.todense())

    @staticmethod
    def check_listed_zero_entries(tmp_path, save, section):
        # a file that lists the ll-ur couplings of a 2d stiffness as zeros
        cells = 8
        grid = ps.build_time_grid("uniform", 4, 1.0)
        spec = ps.make_heat_problem("2d", cells, grid, data="random", seed=5)
        path = tmp_path / "p.txt"
        save(spec, str(path))
        lines = path.read_text().splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith(f"matrix {section} "))
        _, name, dim, nnz = lines[head].split()
        n = cells - 1
        zeros = [f"{j * n + i} {(j + 1) * n + i + 1} 0.0"
                 for j in range(n - 1) for i in range(n - 1)]
        lines[head] = f"matrix {name} {dim} {int(nnz) + len(zeros)}"
        lines[head + 1:head + 1] = zeros
        path.write_text("\n".join(lines) + "\n")
        back = ps.load_problem(str(path))
        assert back.a_ref.tocsr().nnz == spec.a_ref.tocsr().nnz + 2 * len(zeros)
        x = np.random.default_rng(2).standard_normal((back.dim, 3))
        assert np.array_equal(back.a_ref.dot(x), spec.a_ref.dot(x))
        for a, b in zip(back.stiffness, spec.stiffness):
            assert np.array_equal(a.dot(x), b.dot(x))

    def test_listed_zero_entries_load_to_same_products(self, tmp_path):
        self.check_listed_zero_entries(tmp_path, oracle.save_problem_v1, "A_ref")

    def test_listed_zero_entries_load_to_same_products_v2(self, tmp_path):
        self.check_listed_zero_entries(tmp_path, ps.save_problem, "B_1")

    def test_solutions_agree_after_round_trip(self, tmp_path):
        grid = ps.build_time_grid("uniform", 5, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="random", seed=3)
        path = tmp_path / "p.txt"
        ps.save_problem(spec, str(path))
        back = ps.load_problem(str(path))
        assert np.array_equal(
            ps.sequential_euler_solve(spec), ps.sequential_euler_solve(back)
        )

    def test_round_trip_per_step_operators(self, tmp_path):
        spec = oracle.per_step_spec()
        path = tmp_path / "per_step.txt"
        oracle.save_problem_v1(spec, str(path))
        text = path.read_text()
        assert "stepscales" not in text
        assert f"matrix A_{spec.N} " in text
        back = ps.load_problem(str(path))
        for a, b in zip(back.stiffness, spec.stiffness):
            assert np.array_equal(a.todense(), b.todense())
        assert back.alpha == spec.alpha
        assert np.array_equal(
            ps.sequential_euler_solve(spec), ps.sequential_euler_solve(back)
        )

    def test_per_step_operators_keep_their_step_groups(self, tmp_path):
        # three distinct operators, one step a scaled copy of another: each
        # base is written once, and the file loads with the same three groups
        spec = oracle.per_step_spec()
        path = tmp_path / "per_step.txt"
        ps.save_problem(spec, str(path))
        text = path.read_text()
        assert "matrix B_3 " in text and "matrix B_4 " not in text
        back = ps.load_problem(str(path))
        assert len(spec.step_groups) == len(back.step_groups) == 3
        for (_, steps, scales), (_, back_steps, back_scales) in zip(
                spec.step_groups, back.step_groups):
            assert np.array_equal(back_steps, steps)
            assert np.array_equal(back_scales, scales)
        self.check_round_trip(spec, back)
        for a, b in zip(back.stiffness, spec.stiffness):
            oracle.assert_same_csr(a, b)
        assert np.array_equal(
            ps.sequential_euler_solve(spec), ps.sequential_euler_solve(back)
        )

    @staticmethod
    def check_round_trip(spec, back):
        """Every number of the file comes back bit for bit."""
        assert np.array_equal(back.grid.nodes, spec.grid.nodes)
        assert back.tau_ref == spec.tau_ref and back.alpha == spec.alpha
        assert np.array_equal(back.u_init, spec.u_init)
        assert np.array_equal(back.load, spec.load)
        oracle.assert_same_csr(back.mass, spec.mass)
        oracle.assert_same_csr(back.a_ref, spec.a_ref)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    def test_round_trip_property(self, tmp_path_factory, seed, space):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        path = tmp_path_factory.mktemp("rt") / "problem.txt"
        ps.save_problem(spec, str(path))
        back = ps.load_problem(str(path))
        self.check_round_trip(spec, back)
        for a, b in zip(back.stiffness, spec.stiffness):
            oracle.assert_same_csr(a, b)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(["1d", "2d"]))
    def test_round_trip_property_v1(self, tmp_path_factory, seed, space):
        spec = oracle.random_spec(np.random.default_rng(seed), space=space)
        path = tmp_path_factory.mktemp("rt") / "problem.txt"
        oracle.save_problem_v1(spec, str(path))
        back = ps.load_problem(str(path))
        self.check_round_trip(spec, back)
        # a version-1 file holds A_n as a multiple of A_ref, and s * (c * A)
        # may differ from (s c) * A in the last bit
        for a, b in zip(back.stiffness, spec.stiffness):
            assert np.allclose(a.todense(), b.todense(), rtol=1e-15, atol=0.0)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property_per_step(self, tmp_path_factory, seed):
        spec = oracle.per_step_spec(seed)
        path = tmp_path_factory.mktemp("rt") / "per_step.txt"
        oracle.save_problem_v1(spec, str(path))
        assert f"matrix A_{spec.N} " in path.read_text()
        back = ps.load_problem(str(path))
        self.check_round_trip(spec, back)
        for a, b in zip(back.stiffness, spec.stiffness):
            oracle.assert_same_csr(a, b)

    @pytest.mark.parametrize("seed,size,digest", [
        (0, 3612, "fd51ee32a41549c5fe5b353fb963851495b7f3faec927721fb243b9436446e29"),
        (1, 3619, "5e6546d2f2b6dcc5b9a7aa805b7d72d46b9d8165dd8cacc50d30bcc6e9c9635f"),
    ])
    def test_per_step_file_bytes_are_pinned(self, tmp_path, seed, size, digest):
        path = tmp_path / "per_step.txt"
        oracle.save_problem_v1(oracle.per_step_spec(seed), str(path))
        text = path.read_bytes()
        assert len(text) == size
        assert hashlib.sha256(text).hexdigest() == digest

    @pytest.mark.parametrize("seed,size,digest", [
        (0, 2582, "d92ccdb438c68b4d5a6e769b8e9a9f541a9d2c0447b202731145dcff1dc9bf73"),
        (1, 2589, "2be986e7d89f68ff95e1693972c57125fd5a442e450af536035e5c1f2089311e"),
    ])
    def test_per_step_file_bytes_are_pinned_v2(self, tmp_path, seed, size, digest):
        path = tmp_path / "per_step.txt"
        ps.save_problem(oracle.per_step_spec(seed), str(path))
        text = path.read_bytes()
        assert len(text) == size
        assert hashlib.sha256(text).hexdigest() == digest

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-problem\n")
        with pytest.raises(InputError):
            ps.load_problem(str(path))

    @staticmethod
    def saved_lines(tmp_path, save=ps.save_problem) -> list[str]:
        grid = ps.build_time_grid("uniform", 3, 1.0)
        spec = ps.make_heat_problem("1d", 4, grid, data="random", seed=1)
        path = tmp_path / "good.txt"
        save(spec, str(path))
        return path.read_text().splitlines()

    @pytest.mark.parametrize("keep", [1, 2, 4, 7, 20])
    def test_rejects_truncated_file(self, tmp_path, keep):
        lines = self.saved_lines(tmp_path)
        path = tmp_path / "short.txt"
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(InputError, match=f"line {keep + 1}"):
            ps.load_problem(str(path))

    @pytest.mark.parametrize("index,keyword", [(1, "grid"), (6, "scalars")])
    def test_rejects_wrong_section_keyword(self, tmp_path, index, keyword):
        lines = self.saved_lines(tmp_path)
        assert lines[index].split()[0] == keyword
        lines[index] = "bogus" + lines[index][len(keyword):]
        path = tmp_path / "renamed.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"line {index + 1}.*{keyword}"):
            ps.load_problem(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section", ["grid", "scalars", "matrix", "stepscales", "vector", "operators"]
    )
    def test_rejects_non_finite_number(self, tmp_path, section, bad):
        lines = self.saved_lines(
            tmp_path, oracle.save_problem_v1 if section == "stepscales" else ps.save_problem)
        index = next(i for i, line in enumerate(lines) if line.split()[0] == section)
        if section != "scalars":
            index += 1  # the first value line of the section
        tok = lines[index].split()
        tok[1 if section == "scalars" else -1] = bad
        lines[index] = " ".join(tok)
        path = tmp_path / "non_finite.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"line {index + 1}: non-finite"):
            ps.load_problem(str(path))
