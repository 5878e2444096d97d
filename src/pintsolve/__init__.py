"""Time-parallel iterative solvers for implicit-Euler parabolic problems.

The package assembles the block lower-bidiagonal time-global system of the
implicit Euler method, reformulates it as a symmetric saddle-point problem,
and solves it with a damped two-stage iteration (or preconditioned MINRES)
whose Schur-complement preconditioner is diagonalized by a fast sine
transform in time, so that every frequency block is an independent spatial
solve.
"""

from .errors import (
    BoundViolationError,
    DiagnosticModeRequiredError,
    DimensionMismatchError,
    InputError,
    NotSpdError,
    SolverDivergenceError,
)
from .linalg import (
    LanczosResult,
    SpatialMatrix,
    SpdFactor,
    add_matrices,
    lanczos_extremal_eig,
)
from .problems import (
    ProblemSpec,
    TimeGrid,
    assemble_mass_stiffness_1d,
    assemble_mass_stiffness_2d,
    build_time_grid,
    compute_alpha,
    group_steps,
    load_problem,
    make_heat_problem,
    save_problem,
)
from .dst import DstPlan
from .operators import (
    BlockDiagSolver,
    TimeGlobalSystem,
    d_norm,
    dense_operator,
    fold_rhs,
)
from .spatial import (
    DirectSolver,
    JacobiSolver,
    MgHierarchy,
    MgVCycleSolver,
    SpatialSolver,
    build_mg_hierarchy,
    estimate_gamma_Gamma,
    estimate_rho_A,
    make_solver,
    materialize_inverse,
)
from .schur import SchurPreconditioner, build_schur_preconditioner, frequency_weights
from .solvers import (
    ConvergenceHistory,
    RateReport,
    UzawaConfig,
    compute_rate_report,
    minres_solve,
    safe_damping,
    sequential_euler_solve,
    uzawa_solve,
)
from .parallel import get_num_threads, set_num_threads

__version__ = "0.1.0"
