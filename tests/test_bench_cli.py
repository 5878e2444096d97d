import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pintsolve
import pintsolve.bench as bench
from pintsolve.cli import main
from pintsolve.operators import dense_operator
from pintsolve.spatial import materialize_inverse

import conftest as oracle


class TestBenchDrivers:
    def test_table1_small_grid(self):
        rows = bench.run_table1([16], [4, 8])
        assert [r["N"] for r in rows] == [4, 8]
        assert all(r["h"] == "1/16" for r in rows)
        for r in rows:
            assert 0.5 < r["lambda_min"] < 1.0
            assert 1.0 < r["lambda_max"] < 2.0
            assert r["kappa"] == pytest.approx(r["lambda_max"] / r["lambda_min"])
            assert r["converged"]
        # conditioning degrades monotonically with more time steps
        assert rows[1]["kappa"] > rows[0]["kappa"]

    def test_table2_small_grid(self):
        rows = bench.run_table2([8], [16, 32], tol=1e-6)
        assert len(rows) == 2
        for r in rows:
            assert 5 < r["iterations"] < 40
            assert r["converged"]

    def test_table2_flags_iteration_limit(self):
        # a tiny damping stalls the iteration at max_iter (200)
        rows = bench.run_table2([8], [16], omega=0.01)
        assert rows[0]["iterations"] == 200
        assert not rows[0]["converged"]

    def test_history_has_three_solver_variants(self):
        rows = bench.run_history(N=16, cells=8, space="1d", max_iter=10, tol=1e-9)
        labels = {r["solver"] for r in rows}
        assert labels == {"direct", "mg1", "mg2"}
        for label in labels:
            errs = [r["s_norm_error"] for r in rows if r["solver"] == label]
            assert errs[-1] < errs[0]

    def test_history_flags_iteration_limit(self):
        # a tiny damping stalls every variant at max_iter
        rows = bench.run_history(N=16, cells=8, space="1d", omega=0.01, max_iter=5)
        assert len(rows) == 15
        assert not any(r["converged"] for r in rows)

    def test_history_rows_carry_convergence(self):
        rows = bench.run_history(N=16, cells=8, space="1d", tol=1e-6)
        assert {r["solver"] for r in rows} == {"direct", "mg1", "mg2"}
        assert all(r["converged"] for r in rows)

    def test_spectral_check_direct(self):
        rows = bench.run_spectral_check(N=16, cells=8, space="1d",
                                        solver_kind="direct")
        row = rows[0]
        assert row["pass"] == 1
        assert row["gamma"] == 1.0
        assert row["bound_lo"] == pytest.approx(0.5)
        assert row["bound_hi"] == pytest.approx(3.0)
        assert row["bound_lo"] <= row["lam_lo"] <= row["lam_hi"] <= row["bound_hi"]

    @pytest.mark.parametrize("space,cells,N", [("1d", 8, 16), ("2d", 4, 24)])
    def test_spectral_check_direct_matches_dense_pencil(self, space, cells, N):
        row = bench.run_spectral_check(N=N, cells=cells, space=space,
                                       solver_kind="direct")[0]
        grid = pintsolve.build_time_grid("uniform", N, 1.0)
        spec = pintsolve.make_heat_problem(space, cells, grid, data="zero")
        w = scipy.linalg.eigh(oracle.dense_schur(spec),
                              oracle.dense_preconditioner(spec),
                              eigvals_only=True)
        assert row["pass"] == 1
        assert row["lam_lo"] == pytest.approx(w[0], abs=1e-10)
        assert row["lam_hi"] == pytest.approx(w[-1], abs=1e-10)

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    @pytest.mark.parametrize("space,cells,N", [("2d", 8, 16), ("1d", 16, 12)])
    def test_spectral_check_gamma_matches_dense_modes(self, space, cells, N, kind):
        rows = bench.run_spectral_check(N=N, cells=cells, space=space,
                                        solver_kind=kind)
        # per-mode solver quality by dense eigensolves, as criterion 5b
        grid = pintsolve.build_time_grid("uniform", N, 1.0)
        spec = pintsolve.make_heat_problem(space, cells, grid, data="zero")
        ht = pintsolve.build_schur_preconditioner(spec, kind)
        a = spec.a_ref.todense()
        gamma, big_gamma = 1.0, 1.0
        for k in range(N):
            hd = ht.blocks[k].todense()
            exact = hd @ np.linalg.solve(a, hd)
            inv = materialize_inverse(ht.solvers[k], spec.dim)
            approx = inv @ a @ inv
            w = scipy.linalg.eigh(exact, np.linalg.inv(0.5 * (approx + approx.T)),
                                  eigvals_only=True)
            gamma, big_gamma = min(gamma, w[0]), max(big_gamma, w[-1])
        assert rows[0]["pass"] == 1
        assert rows[0]["gamma"] == pytest.approx(gamma, rel=1e-6)
        assert rows[0]["Gamma"] == pytest.approx(big_gamma, rel=1e-6)

    @pytest.mark.parametrize("kind", ["mg", "jacobi"])
    @pytest.mark.parametrize("space,cells,N", [("2d", 8, 16), ("1d", 16, 12)])
    def test_spectral_check_inexact_matches_dense_pencil(self, space, cells, N,
                                                         kind):
        row = bench.run_spectral_check(N=N, cells=cells, space=space,
                                       solver_kind=kind)[0]
        grid = pintsolve.build_time_grid("uniform", N, 1.0)
        spec = pintsolve.make_heat_problem(space, cells, grid, data="zero")
        ht = pintsolve.build_schur_preconditioner(spec, kind)
        h_mat = dense_operator(ht.apply_inverse, N, spec.dim)
        w = scipy.linalg.eigh(oracle.dense_schur(spec),
                              np.linalg.inv(0.5 * (h_mat + h_mat.T)),
                              eigvals_only=True)
        assert row["pass"] == 1
        assert row["converged"]
        assert row["lam_lo"] == pytest.approx(w[0], abs=1e-9)
        assert row["lam_hi"] == pytest.approx(w[-1], abs=1e-9)

    @pytest.mark.parametrize("cells", [8, 16])
    def test_table1_matches_dense_pencil(self, cells):
        n_list = [4, 8, 16]
        rows = bench.run_table1([cells], n_list)
        for N, row in zip(n_list, rows):
            grid = pintsolve.build_time_grid("uniform", N, 1.0)
            spec = pintsolve.make_heat_problem("1d", cells, grid, data="zero")
            w = scipy.linalg.eigh(oracle.dense_schur(spec),
                                  oracle.dense_preconditioner(spec),
                                  eigvals_only=True)
            assert row["N"] == N
            assert row["lambda_min"] == pytest.approx(w[0], abs=1e-10)
            assert row["lambda_max"] == pytest.approx(w[-1], abs=1e-10)

    def test_scaling_reports_shares(self):
        rows = bench.run_scaling([1], N=16, cells=8, iters=2, repeats=1)
        r = rows[0]
        assert r["threads"] == 1
        assert r["total_time"] > 0
        assert r["fft_share"] >= 0
        assert r["spatial_share"] > 0
        assert r["fft_share"] + r["spatial_share"] <= 1

    @pytest.mark.parametrize("fail", [False, True])
    def test_scaling_restores_thread_count(self, fail, monkeypatch):
        if fail:
            def broken(*args, **kwargs):
                raise RuntimeError("solve failed")

            monkeypatch.setattr(bench, "uzawa_solve", broken)
        caller, used = (1, 2) if fail else (2, 1)
        try:
            pintsolve.set_num_threads(caller)
            if fail:
                with pytest.raises(RuntimeError):
                    bench.run_scaling([used], N=8, cells=4, iters=1, repeats=1)
            else:
                bench.run_scaling([used], N=8, cells=4, iters=1, repeats=1)
            assert pintsolve.get_num_threads() == caller
        finally:
            pintsolve.set_num_threads(1)

    def test_csv_round_trip_precision(self):
        rows = [{"h": "1/8", "N": 4, "lambda_min": 1 / 3, "lambda_max": 2 / 3,
                 "kappa": 2.0}]
        text = bench.rows_to_csv(bench.TABLE1_CSV_HEADER, rows)
        value = text.strip().split("\n")[1].split(",")[2]
        assert float(value) == 1 / 3


class TestCli:
    def test_table1_to_stdout(self, capsys):
        assert main(["table1", "--h", "16", "--N", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "h,N,lambda_min,lambda_max,kappa"
        assert lines[1].startswith("1/16,4,")

    def test_solve_writes_file(self, tmp_path):
        out = tmp_path / "history.csv"
        rc = main(["solve", "--space", "1d", "--h", "8", "--N", "8",
                   "--tol", "1e-9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("iter,residual")
        assert float(lines[-1].split(",")[1]) < 1e-9

    def test_module_entry_point(self):
        src = str(Path(pintsolve.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pintsolve", "solve", "--space", "1d",
             "--h", "8", "--N", "8", "--tol", "1e-9"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("iter,residual,")

    def test_solve_sequential_method(self, capsys):
        assert main(["solve", "--method", "sequential", "--h", "8",
                     "--N", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("step,node")
        assert len(out.strip().split("\n")) == 5

    def test_solve_minres_method(self, capsys):
        assert main(["solve", "--method", "minres", "--h", "8", "--N", "8",
                     "--tol", "1e-9"]) == 0
        assert "iter,residual" in capsys.readouterr().out

    def test_problem_file_round_trip(self, tmp_path, capsys):
        import pintsolve as ps

        grid = ps.build_time_grid("uniform", 6, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="random", seed=5)
        path = tmp_path / "prob.txt"
        ps.save_problem(spec, str(path))
        assert main(["solve", "--problem-file", str(path), "--tol", "1e-9"]) == 0
        assert "iter,residual" in capsys.readouterr().out

    def test_problem_file_with_multigrid_exit_one(self, tmp_path, capsys):
        # problem files carry no mesh, which the multigrid hierarchy needs
        import pintsolve as ps

        grid = ps.build_time_grid("uniform", 6, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, data="random", seed=5)
        path = tmp_path / "prob.txt"
        ps.save_problem(spec, str(path))
        rc = main(["solve", "--problem-file", str(path), "--solver", "mg"])
        assert rc == 1
        assert "mg" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["uzawa", "minres"])
    def test_not_converged_exit_four(self, tmp_path, capsys, method):
        out = tmp_path / "history.csv"
        rc = main(["solve", "--method", method, "--space", "1d", "--h", "8",
                   "--N", "8", "--max-iter", "2", "--out", str(out)])
        assert rc == 4
        # the history is still written
        assert len(out.read_text().strip().split("\n")) == 3
        assert "not converged" in capsys.readouterr().err

    def test_table2_not_converged_exit_four(self, tmp_path, capsys):
        out = tmp_path / "table2.csv"
        rc = main(["table2", "--h", "8", "--N", "16", "--omega", "0.01",
                   "--out", str(out)])
        assert rc == 4
        # the table is still written, with the columns of the header only
        assert out.read_text() == "h,N,iterations\n1/8,16,200\n"
        assert "not converged" in capsys.readouterr().err

    def test_history_not_converged_exit_four(self, tmp_path, capsys):
        out = tmp_path / "history.csv"
        rc = main(["history", "--h", "8", "--N", "16", "--omega", "0.01",
                   "--max-iter", "5", "--out", str(out)])
        assert rc == 4
        # the history is still written, with the columns of the header only
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,solver,s_norm_error,residual"
        assert len(lines) == 16
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 3
        assert all("not converged" in line for line in err)

    @pytest.mark.parametrize("command", ["table1", "spectral-check"])
    def test_lanczos_cap_exit_four(self, tmp_path, capsys, monkeypatch, command):
        # a basis budget of three steps stops every Lanczos run at its cap;
        # the direct kind's bounds hold for any Ritz values
        monkeypatch.setattr(bench, "LANCZOS_BASIS_BYTES", 3 * 16 * 16 * 7)
        out = tmp_path / "rows.csv"
        args = {"table1": ["table1", "--h", "8", "--N", "16"],
                "spectral-check": ["spectral-check", "--space", "1d", "--h", "8",
                                   "--N", "16", "--solver", "direct"]}[command]
        rc = main(args + ["--out", str(out)])
        assert rc == 4
        # the CSV is still written, with the columns of the header only
        lines = out.read_text().strip().split("\n")
        assert lines[0] in (bench.TABLE1_CSV_HEADER, bench.SPECTRAL_CSV_HEADER)
        assert len(lines) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert err[0].startswith("not converged: ")

    @staticmethod
    def varcoef_problem_lines(tmp_path, save=pintsolve.save_problem) -> list[str]:
        import pintsolve as ps

        grid = ps.build_time_grid("uniform", 6, 1.0)
        spec = ps.make_heat_problem("1d", 8, grid, coeff=lambda t: 1.0 + t,
                                    data="random", seed=5)
        path = tmp_path / "prob.txt"
        save(spec, str(path))
        return path.read_text().splitlines()

    @staticmethod
    def replace_first_value(lines: list[str], section: str, value: str,
                            skip: int = 0) -> int:
        """Put value into the first value slot of a section, or of its value
        line skip + 1; its line number."""
        index = next(i for i, line in enumerate(lines)
                     if line.startswith(section + " "))
        if section == "scalars":
            tok = lines[index].split()
            lines[index] = " ".join([tok[0], value, tok[2]])
        else:
            index += 1 + skip
            tok = lines[index].split()
            lines[index] = " ".join(tok[:-1] + [value])
        return index + 1

    @pytest.mark.parametrize("method", ["sequential", "uzawa", "minres"])
    @pytest.mark.parametrize("section",
                             ["vector u_init", "stepscales", "scalars", "operators"])
    def test_non_finite_problem_file_exit_one(self, tmp_path, capsys, method,
                                              section):
        lines = self.varcoef_problem_lines(
            tmp_path,
            oracle.save_problem_v1 if section == "stepscales" else pintsolve.save_problem)
        number = self.replace_first_value(lines, section, "nan")
        path = tmp_path / "nan.txt"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--problem-file", str(path), "--method", method])
        assert rc == 1
        assert f"line {number}: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sequential", "uzawa", "minres"])
    def test_zero_step_scale_exit_one(self, tmp_path, capsys, method):
        lines = self.varcoef_problem_lines(tmp_path, oracle.save_problem_v1)
        self.replace_first_value(lines, "stepscales", "0.0")
        path = tmp_path / "zero.txt"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--problem-file", str(path), "--method", method])
        assert rc == 1
        assert "step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["sequential", "uzawa", "minres"])
    @pytest.mark.parametrize("skip,operator", [(0, "A_ref"), (1, "step 1")])
    def test_zero_operator_scale_exit_one(self, tmp_path, capsys, method, skip,
                                           operator):
        lines = self.varcoef_problem_lines(tmp_path)
        # the first operators line is A_ref's, the second step 1's
        self.replace_first_value(lines, "operators", "0.0", skip=skip)
        path = tmp_path / "zero.txt"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--problem-file", str(path), "--method", method])
        assert rc == 1
        assert operator in capsys.readouterr().err

    @pytest.mark.parametrize("method", [["minres"], ["uzawa", "--omega", "0.2"]],
                             ids=["minres", "uzawa"])
    def test_zero_reference_matrix_exit_one(self, tmp_path, capsys, method):
        # a version-1 file whose matrix A_ref holds zeros only, with one
        # matrix per step, so that the block solves still factorize
        path = tmp_path / "prob.txt"
        oracle.save_problem_v1(oracle.per_step_spec(), str(path))
        lines = path.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("matrix A_ref "))
        for i in range(start + 1, start + 1 + int(lines[start].split()[-1])):
            row, col, _ = lines[i].split()
            lines[i] = f"{row} {col} 0.0"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--problem-file", str(path), "--solver", "direct",
                   "--method", *method])
        assert rc == 1
        assert "A_ref is not SPD" in capsys.readouterr().err

    def test_spectral_check_exit_zero(self, capsys):
        rc = main(["spectral-check", "--space", "1d", "--h", "8", "--N", "16",
                   "--solver", "direct"])
        assert rc == 0
        assert capsys.readouterr().out.strip().split("\n")[1].endswith(",1")

    def test_bad_input_exit_one(self, capsys):
        assert main(["solve", "--h", "-3"]) == 1
        assert main(["table1", "--h", "xyz"]) == 1

    @pytest.mark.parametrize("method,flag,value", [
        ("uzawa", "--tol", "nan"), ("uzawa", "--omega", "nan"), ("uzawa", "--omega", "inf"),
        ("minres", "--tol", "-1"), ("minres", "--tol", "nan"),
    ])
    def test_bad_tolerance_or_damping_exit_one(self, capsys, method, flag, value):
        rc = main(["solve", "--h", "8", "--N", "8", "--method", method, flag, value,
                   "--max-iter", "50"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flag,value", [
        ("uzawa", "--tol", "nan"), ("uzawa", "--omega", "inf"), ("uzawa", "--max-iter", "0"),
        ("minres", "--tol", "nan"), ("minres", "--tol", "0"), ("minres", "--max-iter", "0"),
        ("uzawa", "--vcycles", "0"),
    ])
    def test_bad_solver_options_fail_before_setup(self, capsys, monkeypatch,
                                                  method, flag, value):
        def build(*args, **kwargs):
            raise AssertionError("preconditioner built before the options were checked")

        monkeypatch.setattr(pintsolve.cli, "build_schur_preconditioner", build)
        monkeypatch.setattr(pintsolve.cli, "BlockDiagSolver", build)
        monkeypatch.setattr(pintsolve.cli, "make_heat_problem", build)
        for solver in ("mg", "direct", "jacobi"):
            rc = main(["solve", "--space", "2d", "--h", "64", "--N", "256",
                       "--solver", solver, "--method", method, flag, value])
            assert rc == 1
            assert "error:" in capsys.readouterr().err

    def test_divergence_exit_three(self, capsys):
        rc = main(["solve", "--h", "8", "--N", "8", "--omega", "40.0",
                   "--max-iter", "300"])
        assert rc == 3

    def test_config_file_defaults(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("h = 16\nN = 4\n# comment\n")
        assert main(["--config", str(conf), "table1"]) == 0
        out = capsys.readouterr().out
        assert "1/16,4," in out
        assert out.count("\n") == 2  # header plus a single row

    def test_cli_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("h = 16\nN = 4\n")
        assert main(["--config", str(conf), "table1", "--N", "8"]) == 0
        assert "1/16,8," in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--N=4"], ["--N", "4"]])
    @pytest.mark.parametrize("config", ["--config {}", "--config={}", "--conf {}"])
    def test_explicit_flag_overrides_config_in_either_spelling(self, tmp_path,
                                                                capsys, config, flag):
        conf = tmp_path / "run.conf"
        conf.write_text("N = 8\n")
        rc = main([*config.format(conf).split(), "solve", "--method", "sequential",
                   *flag])
        assert rc == 0
        assert capsys.readouterr().out.count("\n") == 5  # header plus N = 4 rows

    def test_unknown_config_key_exit_one(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("N = 4\nno-such-option = 1\n")
        assert main(["--config", str(conf), "solve", "--method", "sequential"]) == 1

    @pytest.mark.parametrize("command", [
        ["solve", "--space", "2d", "--h", "8", "--N", "8", "--solver", "mg"],
        ["table2", "--h", "8", "--N", "16"],
        ["spectral-check", "--h", "8", "--N", "8"],
    ])
    @pytest.mark.parametrize("cycles", ["0", "-1"])
    def test_vcycles_below_one_exit_one(self, capsys, command, cycles):
        assert main([*command, "--vcycles", cycles]) == 1
        assert "V-cycle" in capsys.readouterr().err

    def test_missing_config_exit_one(self, capsys):
        assert main(["--config", "/nonexistent/x.conf", "table1"]) == 1

    def test_scaling_csv(self, capsys):
        rc = main(["scaling", "--h", "8", "--N", "16", "--iters", "2",
                   "--repeats", "1", "--thread-list", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "threads,time_per_iter,total_time,fft_share,spatial_share"
        assert len(lines) == 2
