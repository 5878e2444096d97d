"""Benchmark drivers: eigenvalue tables, iteration-count tables, convergence
histories, spectral-bound checks, and thread-scaling runs.

Every driver returns a list of row dicts and has a matching CSV schema
(see the ``*_CSV_HEADER`` constants).  Floats are written with 17 significant
digits so the CSV round-trips exactly.
"""

from __future__ import annotations

import statistics

import numpy as np

from .errors import BoundViolationError
from .linalg import LanczosResult, eigh_blocks, lanczos_extremal_eig
from .operators import BlockDiagSolver, TimeGlobalSystem
from .problems import ProblemSpec, build_time_grid, make_heat_problem
from .schur import SchurPreconditioner, build_schur_preconditioner
from .solvers import UzawaConfig, sequential_euler_solve, uzawa_solve
from .spatial import build_mg_hierarchy, estimate_gamma_Gamma
from . import parallel

TABLE1_CSV_HEADER = "h,N,lambda_min,lambda_max,kappa"
TABLE2_CSV_HEADER = "h,N,iterations"
HISTORY_CSV_HEADER = "iter,solver,s_norm_error,residual"
SPECTRAL_CSV_HEADER = "alpha,gamma,Gamma,lam_lo,lam_hi,bound_lo,bound_hi,pass"
SCALING_CSV_HEADER = "threads,time_per_iter,total_time,fft_share,spatial_share"

# Byte budget of the basis and its B-image in every Lanczos run here, at
# 16 N dim bytes per step.  Whole-pencil mg runs, seed 7, one BLAS thread:
#   2d h=1/16, N=64 (CLI default), 14 400 unknowns: cap 4660, stagnates
#     after 419 steps (422 with seed 11), check 5.7 s, 164 MB peak.
#   2d h=1/32, N=64, 61 504 unknowns: cap 1091, 851 steps, 105 s, 880 MB.
#   2d h=1/32, N=256, 246 016 unknowns: cap 272 reached, 76 s, 1117 MB.
LANCZOS_BASIS_BYTES = 1 << 30

# Rounding allowance of the spectral check: the Ritz values may leave the
# proven bounds by this much before the check fails.
SPECTRAL_SLACK = 1e-8


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def rows_to_csv(header: str, rows: list[dict]) -> str:
    cols = header.split(",")
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _schur_spectrum(spec: ProblemSpec, seed: int) -> LanczosResult:
    """Lanczos run for the extremal eigenvalues of the Schur complement
    preconditioned by the transform-diagonalized surrogate (exact spatial
    solves), for a problem whose step operators are all multiples of A_ref.

    With A_ref V = M V diag(lam) and V' M V = I, S and H~ both split into one
    N x N pencil per spatial mode: one Lanczos recurrence runs on each column
    j of X, mode j of u = X V', through X -> H~^-1 S(X V') M V weighted by
    X -> H~(X V') V.  V is the preconditioner's own eigenbasis of
    (tau_ref A_ref, M) when it holds one, and every product with V or V'
    is a map of its ``linalg.BlockBasis``."""
    system = TimeGlobalSystem(spec, diagnostic=True)
    ht = SchurPreconditioner(spec, solver_kind="direct")
    basis = ht.eigenbasis(spec)
    if basis is None:
        basis = eigh_blocks(spec.a_ref.tocsr(), spec.mass.tocsr(), name="mass matrix")

    def nodal(x: np.ndarray) -> np.ndarray:  # X V'
        return basis.synthesis(x.T).T

    x0 = np.random.default_rng(seed).standard_normal((spec.N, spec.dim))
    return lanczos_extremal_eig(
        lambda x: basis.analysis(
            spec.mass.dot(ht.apply_inverse(system.apply_S(nodal(x))).T)).T,
        lambda x: basis.analysis(ht.apply(nodal(x)).T).T,
        x0,
        LANCZOS_BASIS_BYTES // (16 * x0.size),
    )


def run_table1(
    h_list: list[int] | None = None,
    n_list: list[int] | None = None,
    T: float = 1.0,
    seed: int = 7,
) -> list[dict]:
    """Condition of the preconditioned Schur complement on the 1d problem.

    ``h_list`` holds mesh cell counts (h = 1/cells); columns are numbers of
    time steps.  A row's ``converged`` (not in the CSV) is False when the
    cell's Lanczos run hit its cap.
    """
    h_list = h_list or [64, 128]
    n_list = n_list or [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    rows = []
    for cells in h_list:
        for N in n_list:
            grid = build_time_grid("uniform", N, T)
            spec = make_heat_problem("1d", cells, grid, data="zero")
            res = _schur_spectrum(spec, seed)
            rows.append(
                {
                    "h": f"1/{cells}",
                    "N": N,
                    "lambda_min": res.lam_min,
                    "lambda_max": res.lam_max,
                    "kappa": res.lam_max / res.lam_min,
                    "converged": res.converged,
                }
            )
    return rows


def run_table2(
    h_list: list[int] | None = None,
    n_list: list[int] | None = None,
    T: float = 1.0,
    omega: float = 0.9,
    tol: float = 1e-6,
    vcycles: int = 1,
) -> list[dict]:
    """Iteration counts of the two-stage iteration on the 2d heat problem
    with one-V-cycle multigrid spatial solvers, stopped on the relative
    discrete energy norm of the error against the time-stepping oracle.

    Each row also carries ``converged``, False for a cell that stopped at the
    iteration limit (200); the CSV schema leaves it out."""
    h_list = h_list or [8, 16, 32, 64]
    n_list = n_list or [128, 256, 512, 1024]
    rows = []
    for cells in h_list:
        hier = build_mg_hierarchy("2d", cells)
        for N in n_list:
            grid = build_time_grid("uniform", N, T)
            spec = make_heat_problem("2d", cells, grid, data="sine")
            system = TimeGlobalSystem(spec, diagnostic=True)
            u_star = sequential_euler_solve(spec)
            at = BlockDiagSolver(spec, "mg", hierarchy=hier, cycles=vcycles)
            ht = build_schur_preconditioner(spec, "mg", vcycles=vcycles)
            cfg = UzawaConfig(
                omega=omega, tol=tol, stopping="s_norm_error", max_iter=200
            )
            _, hist = uzawa_solve(system, at, ht, cfg, u_oracle=u_star)
            rows.append({"h": f"1/{cells}", "N": N, "iterations": hist.iterations,
                         "converged": hist.converged})
    return rows


def run_history(
    N: int = 512,
    cells: int = 64,
    space: str = "1d",
    T: float = 1.0,
    omega: float = 0.9,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> list[dict]:
    """Error decay of the two-stage iteration for exact spatial solves and
    for one and two multigrid V-cycles, on one problem instance.

    Each row also carries ``converged``, False for every row of a variant
    that stopped at max_iter; the CSV schema leaves it out."""
    grid = build_time_grid("uniform", N, T)
    spec = make_heat_problem(space, cells, grid, data="sine")
    system = TimeGlobalSystem(spec, diagnostic=True)
    u_star = sequential_euler_solve(spec)
    hier = build_mg_hierarchy(space, cells)
    variants = [
        ("direct", {"kind": "direct"}),
        ("mg1", {"kind": "mg", "cycles": 1}),
        ("mg2", {"kind": "mg", "cycles": 2}),
    ]
    rows = []
    for label, opts in variants:
        kind = opts["kind"]
        cycles = opts.get("cycles", 1)
        at = BlockDiagSolver(spec, kind, hierarchy=hier, cycles=cycles)
        ht = build_schur_preconditioner(spec, kind, vcycles=cycles)
        cfg = UzawaConfig(
            omega=omega, tol=tol, stopping="s_norm_error",
            max_iter=max_iter, diagnostics=True,
        )
        _, hist = uzawa_solve(system, at, ht, cfg, u_oracle=u_star)
        for i in range(hist.iterations):
            rows.append(
                {
                    "iter": i + 1,
                    "solver": label,
                    "s_norm_error": hist.s_norm_error[i],
                    "residual": hist.residual[i],
                    "converged": hist.converged,
                }
            )
    return rows


def run_spectral_check(
    N: int = 64,
    cells: int = 16,
    space: str = "2d",
    T: float = 1.0,
    solver_kind: str = "mg",
    vcycles: int = 1,
    seed: int = 7,
) -> list[dict]:
    """Verify the proven two-sided spectral bounds on one problem instance.

    With exact spatial solves the preconditioned Schur spectrum must lie in
    [1/(2 alpha), 3 alpha]; with inexact solves of block quality (gamma,
    Gamma) it must lie in [gamma/(2 alpha), 3 alpha Gamma].  The row's
    ``converged`` (not in the CSV) is False when a Lanczos run hit its cap.
    Raises BoundViolationError when the check fails.
    """
    grid = build_time_grid("uniform", N, T)
    spec = make_heat_problem(space, cells, grid, data="zero")
    alpha = spec.alpha
    dim = spec.dim
    cap = LANCZOS_BASIS_BYTES // (16 * N * dim)

    if solver_kind == "direct":
        # the direct Htilde is exactly diagonal in the A_ref eigenbasis, as
        # for Table 1: one recurrence per spatial mode
        res = _schur_spectrum(spec, seed)
        gamma = big_gamma = 1.0
        converged = res.converged
    else:
        ht = build_schur_preconditioner(spec, solver_kind, vcycles=vcycles)
        # one recurrence per frequency mode, all on the (dim, N) family
        x0 = np.random.default_rng(seed).standard_normal((dim, N))
        quality = estimate_gamma_Gamma(ht.blend, ht.batched, spec.a_ref, x0, cap)
        gamma, big_gamma = min(1.0, quality.lam_min), max(1.0, quality.lam_max)
        system = TimeGlobalSystem(spec, diagnostic=True)
        # the inexact Htilde is not diagonal in the A_ref eigenbasis: one
        # recurrence on the pencil (S, Htilde), weighted by S
        res = lanczos_extremal_eig(
            lambda v: ht.apply_inverse(system.apply_S(v.reshape(N, dim))).ravel(),
            lambda v: system.apply_S(v.reshape(N, dim)).ravel(),
            np.random.default_rng(seed).standard_normal(N * dim),
            cap,
        )
        converged = quality.converged and res.converged
    lo, hi = res.lam_min, res.lam_max

    bound_lo = gamma / (2.0 * alpha)
    bound_hi = 3.0 * alpha * big_gamma
    ok = (lo >= bound_lo - SPECTRAL_SLACK) and (hi <= bound_hi + SPECTRAL_SLACK)
    row = {
        "alpha": alpha,
        "gamma": gamma,
        "Gamma": big_gamma,
        "lam_lo": lo,
        "lam_hi": hi,
        "bound_lo": bound_lo,
        "bound_hi": bound_hi,
        "pass": int(ok),
        "converged": converged,
    }
    if not ok:
        raise BoundViolationError(
            f"spectrum [{lo:.9g}, {hi:.9g}] leaves "
            f"[{bound_lo:.9g}, {bound_hi:.9g}] by more than {SPECTRAL_SLACK:g}"
            + ("" if converged else " (Lanczos runs not converged)")
        )
    return [row]


def run_scaling(
    thread_list: list[int] | None = None,
    N: int = 256,
    cells: int = 32,
    space: str = "2d",
    T: float = 1.0,
    omega: float = 0.9,
    iters: int = 10,
    repeats: int = 5,
) -> list[dict]:
    """Wall time per iteration of the two-stage iteration versus the number
    of threads, with the transform/spatial share of the total.

    Times and shares come from the solves' histories: the total covers the
    iteration loop, and the shares are those of the last repeat.  The
    caller's thread count is restored on return.
    """
    thread_list = thread_list or [1, 2, 4]
    grid = build_time_grid("uniform", N, T)
    spec = make_heat_problem(space, cells, grid, data="sine")
    system = TimeGlobalSystem(spec)
    hier = build_mg_hierarchy(space, cells)
    rows = []
    caller_threads = parallel.get_num_threads()
    try:
        for threads in thread_list:
            parallel.set_num_threads(threads)
            at = BlockDiagSolver(spec, "mg", hierarchy=hier, cycles=1)
            ht = build_schur_preconditioner(spec, "mg", vcycles=1)
            cfg = UzawaConfig(omega=omega, tol=1e-30, max_iter=iters)
            uzawa_solve(system, at, ht, cfg)  # warm-up
            times = []
            for _ in range(repeats):
                _, hist = uzawa_solve(system, at, ht, cfg)
                times.append(hist.wall_seconds[-1])
            total = statistics.median(times)
            rows.append(
                {
                    "threads": threads,
                    "time_per_iter": total / hist.iterations,
                    "total_time": total,
                    "fft_share": hist.fft_seconds[-1] / hist.wall_seconds[-1],
                    "spatial_share": hist.spatial_seconds[-1] / hist.wall_seconds[-1],
                }
            )
    finally:
        parallel.set_num_threads(caller_threads)
    return rows
