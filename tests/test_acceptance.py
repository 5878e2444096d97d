"""Acceptance suite: one test per end-to-end criterion, each printing a
single PASS/FAIL line.  Reference eigenvalue tables and iteration counts
are published four-digit values; everything else is checked against
independent dense oracles built in conftest."""

import time

import numpy as np
import pytest
import scipy.linalg

import pintsolve as ps
import pintsolve.bench as bench
from pintsolve.operators import dense_operator

import conftest as oracle


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# four-digit reference values for the preconditioned Schur spectrum on the
# 1d problem with T = 1 (rows: N = 4, 8, ..., 1024)
TABLE1_N = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
TABLE1_REF = {
    64: {
        "lambda_min": [0.8099, 0.7080, 0.6270, 0.5728, 0.5402,
                       0.5223, 0.5129, 0.5081, 0.5056],
        "lambda_max": [1.9999, 1.9998, 1.9996, 1.9993, 1.9986,
                       1.9972, 1.9944, 1.9888, 1.9780],
        "kappa": [2.4693, 2.8248, 3.1893, 3.4906, 3.6994,
                  3.8237, 3.8885, 3.9145, 3.9122],
    },
    128: {
        "lambda_min": [0.8099, 0.7079, 0.6270, 0.5728, 0.5402,
                       0.5223, 0.5129, 0.5081, 0.5056],
        "lambda_max": [2.0000, 2.0000, 1.9999, 1.9998, 1.9996,
                       1.9993, 1.9986, 1.9972, 1.9944],
        "kappa": [2.4694, 2.8250, 3.1897, 3.4916, 3.7014,
                  3.8278, 3.8967, 3.9310, 3.9445],
    },
}

# reference iteration counts on the 2d heat problem (omega = 0.9, one
# multigrid V-cycle, energy-norm error tolerance 1e-6); columns h = 1/8,
# 1/16, 1/32, 1/64, rows N = 128, 256, 512, 1024
TABLE2_REF = {
    (128, 8): 20, (128, 16): 21, (128, 32): 21, (128, 64): 21,
    (256, 8): 21, (256, 16): 22, (256, 32): 22, (256, 64): 22,
    (512, 8): 22, (512, 16): 22, (512, 32): 22, (512, 64): 22,
    (1024, 8): 22, (1024, 16): 22, (1024, 32): 22, (1024, 64): 22,
}


class TestEigenvalueTable:
    def test_criterion_1_table1_reproduction(self):
        t0 = time.perf_counter()
        rows = bench.run_table1([64, 128], TABLE1_N)
        elapsed = time.perf_counter() - t0
        worst = 0.0
        ok = True
        for row in rows:
            cells = int(row["h"].split("/")[1])
            i = TABLE1_N.index(row["N"])
            for key in ("lambda_min", "lambda_max", "kappa"):
                err = abs(row[key] - TABLE1_REF[cells][key][i])
                worst = max(worst, err)
                if err > 1e-3:
                    ok = False
        ok = ok and elapsed < 600.0
        report("1-eigenvalue-table", ok,
               f"(max deviation {worst:.2e}, {elapsed:.0f}s)")


class TestIterationCounts:
    def test_criterion_2_iteration_counts_reduced_grid(self):
        t0 = time.perf_counter()
        h_list, n_list = [8, 16, 32], [128, 256]
        rows = bench.run_table2(h_list, n_list, tol=1e-6)
        elapsed = time.perf_counter() - t0
        devs = []
        for row in rows:
            cells = int(row["h"].split("/")[1])
            devs.append(row["iterations"] - TABLE2_REF[(row["N"], cells)])
        counts = [r["iterations"] for r in rows]
        ok = (max(abs(d) for d in devs) <= 3
              and max(counts) - min(counts) <= 4
              and elapsed < 300.0)
        report("2-iteration-counts", ok,
               f"(counts {counts}, deviations {devs}, {elapsed:.0f}s)")

    @pytest.mark.slow
    def test_criterion_2_iteration_counts_full_grid(self):
        rows = bench.run_table2()
        devs = [
            r["iterations"] - TABLE2_REF[(r["N"], int(r["h"].split("/")[1]))]
            for r in rows
        ]
        counts = [r["iterations"] for r in rows]
        ok = max(abs(d) for d in devs) <= 3 and max(counts) - min(counts) <= 4
        report("2b-iteration-counts-full", ok, f"(deviations {devs})")


class TestSolverEquivalence:
    def test_criterion_3_iterative_solvers_match_time_stepping(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for i in range(20):
            spec = oracle.random_spec(rng, space="2d" if i % 4 == 0 else "1d")
            system = ps.TimeGlobalSystem(spec, diagnostic=True)
            system.build_exact_solvers()
            at = ps.BlockDiagSolver(spec, "direct")
            ht = ps.build_schur_preconditioner(spec, "direct")
            u_star = ps.sequential_euler_solve(spec)
            ref = system.s_norm(u_star)
            cfg = ps.UzawaConfig(omega=ps.safe_damping(spec.alpha),
                                 tol=1e-12, max_iter=800)
            (_, u1), hist = ps.uzawa_solve(system, at, ht, cfg)
            (_, u2), _ = ps.minres_solve(system, at, ht, tol=1e-13,
                                         max_iter=2000)
            worst = max(worst, system.s_norm(u1 - u_star) / ref,
                        system.s_norm(u2 - u_star) / ref)
        ok = worst <= 1e-8
        report("3-solver-equivalence", ok, f"(worst relative error {worst:.2e})")


class TestEnergyIdentity:
    def test_criterion_4_extension_energy_identity(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(10):
            spec = oracle.random_spec(rng)
            system = ps.TimeGlobalSystem(spec, diagnostic=True)
            system.build_exact_solvers()
            for _ in range(100):
                u = rng.standard_normal((spec.N, spec.dim))
                lhs = system.a_norm(system.apply_P(u))
                rhs = system.s_norm(u)
                worst = max(worst, abs(lhs - rhs) / rhs)
        ok = worst <= 1e-10
        report("4-energy-identity", ok,
               f"(worst relative deviation {worst:.2e}, 1000 vectors)")


class TestSpectralBounds:
    def test_criterion_5_exact_solver_bounds(self):
        rng = np.random.default_rng(99)
        slack = 1e-8
        ok = True
        margins = []
        for _ in range(5):
            spec = oracle.random_spec(rng, max_cells=10, max_n=8)
            w = scipy.linalg.eigh(oracle.dense_schur(spec),
                                  oracle.dense_preconditioner(spec),
                                  eigvals_only=True)
            lo_bound, hi_bound = 1.0 / (2 * spec.alpha), 3.0 * spec.alpha
            margins.append((w[0] - lo_bound, hi_bound - w[-1]))
            if w[0] < lo_bound - slack or w[-1] > hi_bound + slack:
                ok = False
        report("5a-spectral-bounds-exact", ok,
               f"(min margins {min(m[0] for m in margins):.3f}, "
               f"{min(m[1] for m in margins):.3f})")

    def test_criterion_5_inexact_solver_bounds(self):
        slack = 1e-8
        grid = ps.build_time_grid("uniform", 8, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="zero")
        ht = ps.build_schur_preconditioner(spec, "mg", vcycles=1)
        system = ps.TimeGlobalSystem(spec, diagnostic=True)
        system.build_exact_solvers()
        # exact per-mode solver quality by dense eigensolves
        from pintsolve.spatial import materialize_inverse

        a = spec.a_ref.todense()
        gamma, big_gamma = np.inf, 0.0
        for k in range(spec.N):
            hd = ht.blocks[k].todense()
            exact = hd @ np.linalg.solve(a, hd)
            inv = materialize_inverse(ht.solvers[k], spec.dim)
            approx = inv @ a @ inv
            w = scipy.linalg.eigh(exact, np.linalg.inv(0.5 * (approx + approx.T)),
                                  eigvals_only=True)
            gamma, big_gamma = min(gamma, w[0]), max(big_gamma, w[-1])
        s_mat = oracle.dense_schur(spec)
        h_mat = dense_operator(ht.apply_inverse, spec.N, spec.dim)
        w = scipy.linalg.eigh(s_mat, np.linalg.inv(0.5 * (h_mat + h_mat.T)),
                              eigvals_only=True)
        lo_bound = gamma / (2.0 * spec.alpha)
        hi_bound = 3.0 * spec.alpha * big_gamma
        ok = w[0] >= lo_bound - slack and w[-1] <= hi_bound + slack
        report("5b-spectral-bounds-inexact", ok,
               f"(spectrum [{w[0]:.4f}, {w[-1]:.4f}] in "
               f"[{lo_bound:.4f}, {hi_bound:.4f}], gamma={gamma:.4f}, "
               f"Gamma={big_gamma:.4f})")


class TestContractionRate:
    def test_criterion_6_iteration_contracts_at_proven_rate(self):
        grid = ps.build_time_grid("uniform", 16, 1.0)
        spec = ps.make_heat_problem("1d", 16, grid, data="sine")
        system = ps.TimeGlobalSystem(spec, diagnostic=True)
        system.build_exact_solvers()
        at = ps.BlockDiagSolver(spec, "direct")
        ht = ps.build_schur_preconditioner(spec, "direct")
        w = scipy.linalg.eigh(oracle.dense_schur(spec),
                              oracle.dense_preconditioner(spec),
                              eigvals_only=True)
        omega = 0.9
        rate = ps.compute_rate_report(0.0, omega, float(w[0]), float(w[-1]))
        assert rate.damping_ok
        cfg = ps.UzawaConfig(omega=omega, tol=1e-30, max_iter=60,
                             diagnostics=True)
        _, hist = ps.uzawa_solve(system, at, ht, cfg)
        errs = [e for e in hist.d_norm_error if e is not None]
        floor = errs[0] * 1e-10
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > floor]
        worst = max(ratios)
        ok = worst <= rate.rho_u * (1.0 + 1e-8)
        report("6-contraction-rate", ok,
               f"(worst ratio {worst:.6f} vs proven {rate.rho_u:.6f})")


class TestTransformIdentities:
    def test_criterion_7_transform_identities(self):
        sizes = list(range(1, 65)) + [128, 256, 1024]
        worst_identity, worst_fast = 0.0, 0.0
        for N in sizes:
            rng = np.random.default_rng(N)
            plan = ps.DstPlan(N)
            u, v = rng.standard_normal(N), rng.standard_normal(N)
            scale = max(1.0, np.abs(u).max())
            worst_identity = max(
                worst_identity,
                np.abs(plan.inverse(plan.forward(u)) - u).max() / scale,
                np.abs(plan.inverse_transpose(plan.forward_transpose(u)) - u).max()
                / scale,
                abs(plan.forward(u) @ v - u @ plan.forward_transpose(v))
                / (np.linalg.norm(u) * np.linalg.norm(v)),
            )
            # weighted basis orthogonality; the plan's table is (mode, sample),
            # the basis matrix phi is its transpose
            phi = plan.kernel().T
            wts = np.ones(N)
            wts[-1] = 0.5
            gram = phi.T @ (wts[:, None] * phi)
            worst_identity = max(
                worst_identity,
                np.abs(gram - (N / 2.0) * np.eye(N)).max() / (N / 2.0),
            )
            # fast path against the naive basis formula
            naive_f = (2.0 / N) * phi.T @ (wts * u)
            naive_i = phi @ u
            worst_fast = max(
                worst_fast,
                np.abs(plan.forward(u) - naive_f).max() / scale,
                np.abs(plan.inverse(u) - naive_i).max() / (scale * N),
            )
        ok = worst_identity <= 1e-12 and worst_fast <= 1e-13
        report("7-transform-identities", ok,
               f"(identities {worst_identity:.2e}, fast-vs-naive {worst_fast:.2e})")


class TestBlendBound:
    def test_criterion_8_blend_sandwich_bound(self):
        rng = np.random.default_rng(123)
        slack = 1e-10
        lo_seen, hi_seen = np.inf, 0.0
        ok = True
        for _ in range(100):
            dim = int(rng.integers(3, 25))
            qm = rng.standard_normal((dim, dim))
            qa = rng.standard_normal((dim, dim))
            m = qm @ qm.T + dim * np.eye(dim)
            a = qa @ qa.T + dim * np.eye(dim)
            exact0 = m @ np.linalg.solve(a, m)
            for lam in (0.0, 0.1, 1.0, 10.0):
                blend = m + np.sqrt(lam) * a
                sandwich = blend @ np.linalg.solve(a, blend)
                exact = exact0 + lam * a
                v = rng.standard_normal(dim)
                ratio = (v @ exact @ v) / (v @ sandwich @ v)
                lo_seen, hi_seen = min(lo_seen, ratio), max(hi_seen, ratio)
                if not (0.5 - slack <= ratio <= 1.0 + slack):
                    ok = False
        report("8-blend-bound", ok,
               f"(observed ratios in [{lo_seen:.4f}, {hi_seen:.4f}])")


class TestSaddleInfSup:
    def test_criterion_9_saddle_singular_values(self):
        rng = np.random.default_rng(321)
        golden_hi = (np.sqrt(5.0) + 1.0) / 2.0
        golden_lo = (np.sqrt(5.0) - 1.0) / 2.0
        ok = True
        seen_lo, seen_hi = np.inf, 0.0
        for _ in range(5):
            spec = oracle.random_spec(rng, max_cells=8, max_n=7)
            sad = oracle.dense_saddle(spec)
            d = scipy.linalg.block_diag(oracle.dense_block_Abd(spec),
                                        oracle.dense_schur(spec))
            w = np.abs(scipy.linalg.eigh(sad, d, eigvals_only=True))
            seen_lo, seen_hi = min(seen_lo, w.min()), max(seen_hi, w.max())
            if w.min() < golden_lo - 1e-8 or w.max() > golden_hi + 1e-8:
                ok = False
        report("9-saddle-inf-sup", ok,
               f"(singular values in [{seen_lo:.9f}, {seen_hi:.9f}] vs "
               f"[{golden_lo:.9f}, {golden_hi:.9f}])")


class TestMaxNormBound:
    def test_criterion_10_max_norm_dominated_by_energy(self):
        rng = np.random.default_rng(555)
        worst = 0.0
        for _ in range(10):
            spec = oracle.random_spec(rng)
            system = ps.TimeGlobalSystem(spec, diagnostic=True)
            system.build_exact_solvers()
            for _ in range(100):
                u = rng.standard_normal((spec.N, spec.dim))
                worst = max(worst, system.max_m_norm(u) / system.s_norm(u))
        ok = worst <= 1.0 + 1e-8
        report("10-max-norm-bound", ok,
               f"(worst ratio {worst:.6f}, 1000 vectors)")


class TestScalingReport:
    def test_criterion_11_scaling_reported(self):
        rows = bench.run_scaling([1, 2], N=64, cells=16, iters=5, repeats=3)
        t1 = rows[0]["time_per_iter"]
        t2 = rows[1]["time_per_iter"]
        # soft criterion: reported, not gated
        report("11-thread-scaling", True,
               f"(time/iter 1 thread {t1 * 1e3:.1f}ms, "
               f"2 threads {t2 * 1e3:.1f}ms, speedup {t1 / t2:.2f}x, "
               f"fft share {rows[0]['fft_share']:.2f}, "
               f"spatial share {rows[0]['spatial_share']:.2f})")
