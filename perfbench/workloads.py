"""The benchmark's workloads and one timed repetition of each.

A repetition builds the problem from the seeded inputs, sets up both
preconditioners, runs the iterative solver to the workload's tolerance and
then the sequential implicit-Euler sweep on the same problem, which is both
the baseline time and the reference answer.  All calls go through the public
``pintsolve`` namespace at call time, so a tracer that patches it sees them.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass

import numpy as np

import pintsolve as ps


@dataclass(frozen=True)
class Workload:
    name: str
    space: str  # "1d" or "2d"
    cells: int  # mesh cells per side, h = 1/cells
    N: int  # time steps on (0, 1)
    perturbation: float  # 0 gives a uniform time grid
    varcoef: bool  # diffusion coefficient 1 + 0.5 sin(3t) instead of 1
    data: str  # "sine" (deterministic, ignores the seed) or "random"
    method: str  # "uzawa" or "minres"
    spatial: str  # "mg" (one V-cycle) or "direct"
    tol: float
    threads: int
    # correctness gate: largest accepted ||u - u_seq|| / ||u_seq||
    rel_error_bound: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heat2d-mg", "2d", 32, 256, 0.0, False, "sine", "uzawa", "mg",
                 1e-8, 1, rel_error_bound=1e-6),
        Workload("heat1d-direct-2t", "1d", 128, 1024, 0.0, False, "random", "uzawa",
                 "direct", 1e-8, 2, rel_error_bound=1e-6),
        # MINRES stops on scipy's backward-error test and lands near 1e-5
        # against the sweep, three orders above Uzawa at the same tol: a known
        # gap that this bound records as it stands.
        Workload("heat2d-varcoef-minres", "2d", 32, 200, 0.3, True, "random",
                 "minres", "direct", 1e-8, 1, rel_error_bound=1e-4),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to 1d, h = 1/8, N = 8 (for tests and warm-up)."""
    return dataclasses.replace(w, space="1d", cells=8, N=8)


@dataclass
class Inputs:
    """Everything the seed decides; the program only ever sees these arrays."""

    nodes: np.ndarray
    u_init: np.ndarray | None  # None for the deterministic sine data
    load: np.ndarray | None


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    raw = np.ones(w.N)
    if w.perturbation:
        raw = 1.0 + w.perturbation * rng.uniform(-1.0, 1.0, w.N)
    nodes = np.concatenate([[0.0], np.cumsum(raw / raw.sum())])
    nodes[-1] = 1.0
    if w.data == "sine":
        return Inputs(nodes, None, None)
    dim = w.cells - 1 if w.space == "1d" else (w.cells - 1) ** 2
    return Inputs(nodes, rng.standard_normal(dim), rng.standard_normal((w.N, dim)))


def _coefficient(t: float) -> float:
    return 1.0 + 0.5 * np.sin(3.0 * t)


@dataclass
class Prepared:
    spec: ps.ProblemSpec
    system: ps.TimeGlobalSystem
    atilde: ps.BlockDiagSolver
    htilde: ps.SchurPreconditioner


def setup(w: Workload, inputs: Inputs) -> Prepared:
    """Time grid and problem construction up to ready-to-iterate."""
    grid = ps.TimeGrid(inputs.nodes)
    coeff = _coefficient if w.varcoef else None
    if w.data == "sine":
        spec = ps.make_heat_problem(w.space, w.cells, grid, coeff=coeff, data="sine")
    else:
        spec = ps.make_heat_problem(w.space, w.cells, grid, coeff=coeff, data="zero")
        spec = dataclasses.replace(spec, u_init=inputs.u_init, load=inputs.load)
    system = ps.TimeGlobalSystem(spec)
    hierarchy = ps.build_mg_hierarchy(w.space, w.cells) if w.spatial == "mg" else None
    atilde = ps.BlockDiagSolver(spec, w.spatial, hierarchy=hierarchy)
    htilde = ps.build_schur_preconditioner(spec, w.spatial)
    return Prepared(spec, system, atilde, htilde)


def solve(w: Workload, prep: Prepared) -> tuple[np.ndarray, ps.ConvergenceHistory]:
    if w.method == "minres":
        (_, u), hist = ps.minres_solve(prep.system, prep.atilde, prep.htilde, tol=w.tol)
    else:
        cfg = ps.UzawaConfig(tol=w.tol)
        (_, u), hist = ps.uzawa_solve(prep.system, prep.atilde, prep.htilde, cfg)
    return u, hist


# the sweep is repeated within one repetition until this much time has
# passed, so that its short runs (30-45 ms on two workloads) give many samples
SWEEP_MIN_SECONDS = 1.0


@dataclass
class Rep:
    """Outcome of one repetition; u is kept for bit-for-bit comparisons."""

    setup_s: float
    solve_s: float
    sequential_s: list[float]
    iterations: int
    iter_s: list[float]
    rel_error: float
    converged: bool
    u: np.ndarray
    # process peak up to the end of the solve; the sweep's factorizations
    # would otherwise add allocator growth that depends on how many ran
    peak_rss_mb: float

    @property
    def total_s(self) -> float:
        return self.setup_s + self.solve_s

    def failure(self, w: Workload) -> str | None:
        """Why this solve fails the correctness gate, or None if it passes."""
        if not self.converged:
            return f"not converged after {self.iterations} iterations"
        if not np.all(np.isfinite(self.u)):
            return "non-finite output"
        if not self.rel_error <= w.rel_error_bound:
            return f"rel_error {self.rel_error:.3e} above {w.rel_error_bound:.0e}"
        return None


def run_rep(w: Workload, inputs: Inputs, on_phase=None) -> Rep:
    """One setup + solve, then the sweep on the same problem.

    ``on_phase(name)`` is called at the start of "setup" and "solve" and at
    "end" (after the solve), inside the timed boundaries.
    """
    mark = on_phase or (lambda name: None)
    t0 = time.perf_counter()
    mark("setup")
    prep = setup(w, inputs)
    t1 = time.perf_counter()
    mark("solve")
    u, hist = solve(w, prep)
    mark("end")
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sequential = []
    while not sequential or sum(sequential) < SWEEP_MIN_SECONDS:
        s0 = time.perf_counter()
        u_seq = ps.sequential_euler_solve(prep.spec)
        sequential.append(time.perf_counter() - s0)
    rel_error = float(np.linalg.norm(u - u_seq) / np.linalg.norm(u_seq))
    return Rep(
        setup_s=t1 - t0,
        solve_s=t2 - t1,
        sequential_s=sequential,
        iterations=hist.iterations,
        iter_s=list(np.diff(hist.wall_seconds, prepend=0.0)),
        rel_error=rel_error,
        converged=hist.converged,
        u=u,
        peak_rss_mb=peak_rss_mb,
    )
