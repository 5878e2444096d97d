"""Command-line entry point.

Subcommands: solve, table1, table2, history, spectral-check, scaling.
All tabular output is CSV, written to --out or stdout.  Exit codes:
0 success, 1 bad input, 2 spectral bound violation, 3 solver divergence,
4 a solve or Lanczos run stopped at its cap without converging (the CSV is
still written, with one stderr line per such run).
"""

from __future__ import annotations

import argparse
import sys

from . import bench, parallel
from .errors import BoundViolationError, InputError, SolverDivergenceError
from .operators import BlockDiagSolver, TimeGlobalSystem
from .problems import build_time_grid, load_problem, make_heat_problem
from .schur import build_schur_preconditioner
from .solvers import (
    UzawaConfig,
    check_minres_options,
    minres_solve,
    sequential_euler_solve,
    uzawa_solve,
)
from .spatial import build_mg_hierarchy


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"bad config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _subcommand_index(argv: list[str]) -> int:
    """Index of the subcommand in argv: the first token that is neither an
    option nor the value of --config (or of an abbreviation of it)."""
    i = 0
    while argv[i].startswith("-"):
        opt = argv[i]
        takes_value = "=" not in opt and len(opt) > 2 and "--config".startswith(opt)
        i += 2 if takes_value else 1
    return i


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pintsolve",
        description="Time-parallel solvers for implicit-Euler parabolic problems",
    )
    parser.add_argument("--config", help="key=value file; command line overrides it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--T", type=float, default=1.0, help="final time")

    p = sub.add_parser("solve", help="solve one heat problem and report convergence")
    common(p)
    p.add_argument("--space", choices=["1d", "2d"], default="1d")
    p.add_argument("--h", type=int, default=64, help="mesh cells per side (h=1/cells)")
    p.add_argument("--N", type=int, default=64, help="number of time steps")
    p.add_argument("--data", default="sine",
                   choices=["sine", "zero", "manufactured", "random"])
    p.add_argument("--problem-file", help="load the problem from a file instead")
    p.add_argument("--method", choices=["uzawa", "minres", "sequential"],
                   default="uzawa")
    p.add_argument("--solver", choices=["direct", "mg", "jacobi"], default="direct")
    p.add_argument("--vcycles", type=int, default=1)
    p.add_argument("--omega", type=float, default=0.9)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--diagnostics", action="store_true",
                   help="record exact error norms against the sequential sweep")

    p = sub.add_parser("table1", help="preconditioned Schur spectrum table")
    common(p)
    p.add_argument("--h", type=_int_list, default=[64, 128],
                   help="comma-separated mesh cell counts")
    p.add_argument("--N", type=_int_list,
                   default=[4, 8, 16, 32, 64, 128, 256, 512, 1024],
                   help="comma-separated time-step counts")

    p = sub.add_parser("table2", help="iteration-count table (2d, multigrid)")
    common(p)
    p.add_argument("--h", type=_int_list, default=[8, 16, 32, 64])
    p.add_argument("--N", type=_int_list, default=[128, 256, 512, 1024])
    p.add_argument("--omega", type=float, default=0.9)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--vcycles", type=int, default=1)

    p = sub.add_parser("history", help="error decay for exact and multigrid solves")
    common(p)
    p.add_argument("--space", choices=["1d", "2d"], default="1d")
    p.add_argument("--h", type=int, default=64)
    p.add_argument("--N", type=int, default=512)
    p.add_argument("--omega", type=float, default=0.9)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)

    p = sub.add_parser("spectral-check", help="verify the proven spectral bounds")
    common(p)
    p.add_argument("--space", choices=["1d", "2d"], default="2d")
    p.add_argument("--h", type=int, default=16)
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--solver", choices=["direct", "mg", "jacobi"], default="mg")
    p.add_argument("--vcycles", type=int, default=1)

    p = sub.add_parser("scaling", help="wall time per iteration versus threads")
    common(p)
    p.add_argument("--space", choices=["1d", "2d"], default="2d")
    p.add_argument("--h", type=int, default=32)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--omega", type=float, default=0.9)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--thread-list", type=_int_list, default=[1, 2, 4])
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the columns that name one run of a row driver; a run's rows share `converged`
_RUN_COLUMNS = {"table1": ("h", "N"), "table2": ("h", "N", "iterations"),
                "history": ("solver",), "spectral-check": ("lam_lo", "lam_hi")}


def _cmd_solve(args) -> tuple[str, bool]:
    """The solve output and whether the solve converged."""
    # the solvers' own checks, before the set-up they would otherwise follow
    if args.vcycles < 1:
        raise InputError("need at least one V-cycle")
    if args.method == "minres":
        check_minres_options(args.tol, args.max_iter)
    elif args.method == "uzawa":
        cfg = UzawaConfig(omega=args.omega, tol=args.tol, max_iter=args.max_iter,
                          diagnostics=args.diagnostics)
    if args.problem_file:
        spec = load_problem(args.problem_file)
    else:
        grid = build_time_grid("uniform", args.N, args.T)
        spec = make_heat_problem(args.space, args.h, grid, data=args.data,
                                 seed=args.seed)
    if args.method == "sequential":
        u = sequential_euler_solve(spec)
        lines = ["step,node"] + [f"{n + 1},{u[n, 0]:.17g}" for n in range(spec.N)]
        return "\n".join(lines) + "\n", True
    system = TimeGlobalSystem(spec, diagnostic=args.diagnostics)
    # built first: it raises InputError for mg when the problem carries no
    # mesh metadata, as problems loaded from files do
    ht = build_schur_preconditioner(spec, args.solver, vcycles=args.vcycles)
    hier = None
    if args.solver == "mg":
        hier = build_mg_hierarchy(spec.meta["space"], spec.meta["mesh"])
    at = BlockDiagSolver(spec, args.solver, hierarchy=hier, cycles=args.vcycles) \
        if args.solver == "mg" else BlockDiagSolver(spec, args.solver)
    if args.method == "minres":
        _, hist = minres_solve(system, at, ht, tol=args.tol, max_iter=args.max_iter)
    else:
        _, hist = uzawa_solve(system, at, ht, cfg)
    if not hist.converged:
        sys.stderr.write(f"not converged after {hist.iterations} iterations\n")
    return hist.to_csv(), hist.converged


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config FILE provides defaults; explicit command-line flags override
    try:
        probe, _ = parser.parse_known_args(argv)
    except SystemExit:
        return 1
    if probe.config:
        try:
            conf = _read_config(probe.config)
        except OSError as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return 1
        except InputError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        # right after the subcommand, so that the command line's own flags
        # come later and win
        idx = _subcommand_index(argv) + 1
        extra = [tok for key, val in conf.items() for tok in (f"--{key}", val)]
        argv = argv[:idx] + extra + argv[idx:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    converged = True
    try:
        parallel.set_num_threads(args.threads)
        if args.command == "solve":
            text, converged = _cmd_solve(args)
        elif args.command == "table1":
            rows = bench.run_table1(args.h, args.N, T=args.T, seed=args.seed)
            text = bench.rows_to_csv(bench.TABLE1_CSV_HEADER, rows)
        elif args.command == "table2":
            rows = bench.run_table2(args.h, args.N, T=args.T, omega=args.omega,
                                    tol=args.tol, vcycles=args.vcycles)
            text = bench.rows_to_csv(bench.TABLE2_CSV_HEADER, rows)
        elif args.command == "history":
            rows = bench.run_history(N=args.N, cells=args.h, space=args.space,
                                     T=args.T, omega=args.omega, tol=args.tol,
                                     max_iter=args.max_iter)
            text = bench.rows_to_csv(bench.HISTORY_CSV_HEADER, rows)
        elif args.command == "spectral-check":
            rows = bench.run_spectral_check(N=args.N, cells=args.h,
                                            space=args.space, T=args.T,
                                            solver_kind=args.solver,
                                            vcycles=args.vcycles, seed=args.seed)
            text = bench.rows_to_csv(bench.SPECTRAL_CSV_HEADER, rows)
        elif args.command == "scaling":
            rows = bench.run_scaling(args.thread_list, N=args.N, cells=args.h,
                                     space=args.space, T=args.T, omega=args.omega,
                                     iters=args.iters, repeats=args.repeats)
            text = bench.rows_to_csv(bench.SCALING_CSV_HEADER, rows)
        else:  # pragma: no cover
            raise InputError(f"unknown command {args.command!r}")
        if args.command in _RUN_COLUMNS:  # one stderr line per unconverged run
            stalled = dict.fromkeys(
                " ".join(f"{c}={row[c]}" for c in _RUN_COLUMNS[args.command])
                for row in rows if not row["converged"])
            for run in stalled:
                sys.stderr.write(f"not converged: {run}\n")
            converged = not stalled
    except (InputError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BoundViolationError as exc:
        sys.stderr.write(f"bound violation: {exc}\n")
        return 2
    except SolverDivergenceError as exc:
        sys.stderr.write(f"divergence: {exc}\n")
        return 3
    finally:
        parallel.set_num_threads(1)
    _emit(text, args.out)
    return 0 if converged else 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
