"""Inexact Uzawa iteration, rate theory, MINRES alternative, and the
sequential implicit-Euler oracle."""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

from .dst import copy_back
from .errors import InputError, NotSpdError, SolverDivergenceError
from .linalg import BlockBasis, SpatialMatrix, SpdFactor, add_matrices
from .operators import (
    BlockDiagSolver,
    TimeGlobalSystem,
    d_norm,
    time_difference,
    time_difference_t,
    weighted_saddle_product,
)
from .problems import ProblemSpec
from .schur import SchurPreconditioner
from . import parallel


# Largest (N, width) block of one slab of spatial modes in the eigenbasis
# Uzawa loop: 32 modes at N = 1024, one slab for small problems.  Each slab
# is one task per iteration, taken in turn by the calling thread and the
# pool's workers, so smaller slabs cost more calls, and larger ones leave a
# late worker's whole share to wait for; four slabs bound that wait to a
# quarter of the iteration.  Measured against one slab (median solve time,
# one BLAS thread, 2-core host, random data, slabs 1 / 2 threads, then one
# slab 1 / 2 threads):
#   Schur complement form, perturbed steps and c(t):
#     1d h=1/128, N=1024: 263 / 218 ms, one slab 269 / 249 ms.
#     2d h=1/32, N=200: 137 / 146 ms, one slab 156 / 156 ms.
#     1d h=1/512, N=2048: 2.99 / 1.78 s, one slab 2.99 / 2.98 s.
#   DST basis, 1d h=1/128, N=1024: 60 / 75 ms, one slab 70 / 69 ms.
# At the smaller sizes the differences lie mostly within the quartiles;
# at dim 511, N = 2048 only the slabs let the second thread pay.
SLAB_BYTES = 256 * 1024


@dataclass
class UzawaConfig:
    omega: float = 0.9
    max_iter: int = 200
    tol: float = 1e-8
    stopping: str = "preconditioned_residual"  # or "s_norm_error"
    diagnostics: bool = False  # record exact error norms against the oracle

    def __post_init__(self):
        if not _positive(self.omega):
            raise InputError("damping parameter must be positive and finite")
        if not _positive(self.tol):
            raise InputError("tolerance must be positive and finite")
        if self.max_iter < 1:
            raise InputError("iteration limit must be at least one")
        if self.stopping not in ("preconditioned_residual", "s_norm_error"):
            raise InputError(f"unknown stopping rule {self.stopping!r}")


@dataclass
class ConvergenceHistory:
    """Per-iteration record of residuals, error norms, and timings.

    ``wall_seconds`` is the time since the iteration loop started;
    ``fft_seconds`` and ``spatial_seconds`` are the parts of it that the
    preconditioners spent in their DSTs and in their spatial solve stages.
    A stage outside a pool task counts in full; a stage in one counts
    duration / get_num_threads() (``parallel.add_seconds``), so their sum
    never exceeds the wall time on any thread count.
    """

    residual: list[float] = field(default_factory=list)
    s_norm_error: list[float | None] = field(default_factory=list)
    d_norm_error: list[float | None] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    fft_seconds: list[float] = field(default_factory=list)
    spatial_seconds: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residual)

    def append(self, residual, s_err, d_err, wall, fft, spatial) -> None:
        self.residual.append(residual)
        self.s_norm_error.append(s_err)
        self.d_norm_error.append(d_err)
        self.wall_seconds.append(wall)
        self.fft_seconds.append(fft)
        self.spatial_seconds.append(spatial)

    def to_csv(self) -> str:
        lines = ["iter,residual,s_norm_error,d_norm_error,wall_seconds,"
                 "fft_seconds,spatial_seconds"]
        for i in range(self.iterations):
            s = "" if self.s_norm_error[i] is None else f"{self.s_norm_error[i]:.17g}"
            d = "" if self.d_norm_error[i] is None else f"{self.d_norm_error[i]:.17g}"
            lines.append(
                f"{i + 1},{self.residual[i]:.17g},{s},{d},"
                f"{self.wall_seconds[i]:.17g},{self.fft_seconds[i]:.17g},"
                f"{self.spatial_seconds[i]:.17g}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RateReport:
    """Proven contraction quantities of the damped two-stage iteration."""

    rho_a: float
    omega: float
    lam_min: float
    lam_max: float
    sigma_minus: float
    sigma_plus: float
    rho_u: float
    damping_ok: bool


def safe_damping(alpha: float) -> float:
    """Damping parameter that provably contracts with exact block solves.

    The preconditioned spectrum is bounded by 3*alpha, so any omega with
    omega * 3 * alpha < 2 converges; the returned value is 0.9 of that edge.
    """
    if alpha < 1.0:
        raise InputError("quasi-uniformity constant is at least one")
    return 0.9 * 2.0 / (3.0 * alpha)


def compute_rate_report(
    rho_a: float, omega: float, lam_min: float, lam_max: float
) -> RateReport:
    if not 0.0 <= rho_a < 1.0:
        raise InputError("preconditioner quality must lie in [0, 1)")
    if omega <= 0.0 or lam_min <= 0.0 or lam_max <= 0.0:
        raise InputError("damping and eigenvalue bounds must be positive")
    t_minus = (1.0 - rho_a) * (1.0 - omega * lam_min)
    sigma_minus = 0.5 * (t_minus + np.sqrt(4.0 * rho_a + t_minus**2))
    t_plus = (1.0 + rho_a) * (1.0 + omega * lam_max) - 2.0
    sigma_plus = 0.5 * (t_plus + np.sqrt(4.0 * rho_a + t_plus**2))
    damping_ok = omega * lam_max < 2.0 * (1.0 - rho_a) / (1.0 + rho_a)
    return RateReport(
        rho_a=rho_a,
        omega=omega,
        lam_min=lam_min,
        lam_max=lam_max,
        sigma_minus=float(sigma_minus),
        sigma_plus=float(sigma_plus),
        rho_u=float(max(sigma_minus, sigma_plus)),
        damping_ok=bool(damping_ok),
    )


def sequential_euler_solve(spec: ProblemSpec) -> np.ndarray:
    """Forward time-stepping sweep with exact per-step solves (the oracle)."""
    factors: dict[tuple[int, float], SpdFactor] = {}
    u = np.empty((spec.N, spec.dim))
    prev = spec.u_init
    for n, tau in enumerate(spec.grid.steps):
        key = (id(spec.stiffness[n]), tau)
        if key not in factors:
            factors[key] = SpdFactor(add_matrices(1.0, spec.mass, tau, spec.stiffness[n]))
        u[n] = factors[key].solve(spec.mass.dot(prev) + tau * spec.load[n])
        prev = u[n]
    return u


def _clocks(atilde: BlockDiagSolver, htilde: SchurPreconditioner) -> tuple[float, float]:
    """(fft, spatial) seconds the two preconditioners have clocked so far; a
    custom htilde without clocks counts 0."""
    return (getattr(htilde, "fft_seconds", 0.0),
            atilde.spatial_seconds + getattr(htilde, "spatial_seconds", 0.0))


def _identity(x: np.ndarray) -> np.ndarray:
    return x


_ALL = slice(None)


@dataclass(frozen=True)
class _OperatorSet:
    """What one iteration of Uzawa or MINRES applies, all in one basis: the
    mass and block-diagonal operators and the two preconditioner inverses.
    to_basis maps a nodal iterate into the basis and from_basis maps it
    back; dual_to_basis maps a nodal right-hand side into the basis.

    slabs split the spatial columns into the slices that one Uzawa
    iteration runs on, one task each, and each of the four operators takes
    a slab of a block with its columns (every column by default).  Uzawa
    sums its residuals over each slab per column when the columns are
    independent modes (the eigenbasis set, the one with weights), so that
    the sums do not depend on the slabs, else over the whole block.  The
    two-stage Uzawa body and Schur complement form run on any set; the
    eigenbasis set needs an exact block solve, so it only meets the second.

    atilde and htilde also take out=, a block to write their result into;
    the eigenbasis htilde runs in it, the nodal one copies its result there.
    weights holds the (N, dim) weights w of A_bd in the eigenbasis set
    (A_bd x = w * x), None on nodal values, and basis the eigenbasis (a
    ``linalg.BlockBasis``).  abd_modes holds the (dim,) weights lam_j
    when A_bd is lam_j times the identity in time on every spatial mode j:
    the eigenbasis set of a problem whose tau_n A_n is one matrix at every
    step.  Then the third Uzawa body runs the Schur complement form in the
    DST basis of Htilde as well (see ``uzawa_solve``)."""

    mass: Callable[..., np.ndarray]
    abd: Callable[..., np.ndarray]
    atilde: Callable[..., np.ndarray]
    htilde: Callable[..., np.ndarray]
    to_basis: Callable[[np.ndarray], np.ndarray] = _identity
    from_basis: Callable[[np.ndarray], np.ndarray] = _identity
    dual_to_basis: Callable[[np.ndarray], np.ndarray] = _identity
    slabs: tuple[slice, ...] = (_ALL,)
    weights: np.ndarray | None = None
    basis: BlockBasis | None = None
    abd_modes: np.ndarray | None = None


def _nodal_set(system: TimeGlobalSystem, atilde: BlockDiagSolver,
               htilde: SchurPreconditioner) -> _OperatorSet:
    """The nodal operators: one slab, the whole block."""
    return _OperatorSet(
        mass=lambda x, cols=_ALL: system.apply_M(x),
        abd=lambda x, cols=_ALL: system.apply_Abd(x),
        atilde=lambda r, cols=_ALL, out=None: atilde.apply_inverse(r, out=out),
        htilde=lambda r, cols=_ALL, out=None: copy_back(htilde.apply_inverse(r), out),
    )


def _modal_set(system: TimeGlobalSystem, atilde: BlockDiagSolver,
               htilde: SchurPreconditioner) -> _OperatorSet | None:
    """The operators in the eigenbasis V of (tau_ref A_ref, M), or None
    unless every one of them is diagonal in space there.  The basis maps
    are those of htilde's ``linalg.BlockBasis``, and its modes run in their
    class order.

    That holds when atilde is the exact A_bd^-1, htilde holds this pencil's
    eigenbasis, and every step operator is a multiple of A_ref: one step
    group, A_n = s_n base, with A_ref = s_ref base.  Then M is the identity,
    tau_n A_n is the (N, dim) weight w_nj = tau_n s_n / (tau_ref s_ref) lam_j,
    and a block x = x_hat V' has coefficients x_hat = x M V (primal: p, u)
    or x V (dual: f and the residuals).  A preconditioner without an
    ``eigenbasis`` method gives None too.  Every spatial mode j is then
    independent but for the residual norm, so the slabs are fixed runs of
    modes whose (N, width) blocks take at most ``SLAB_BYTES``.  When
    tau_n s_n takes one value at every step, w_nj = w_1j, and the set holds
    that row as ``abd_modes``.
    """
    spec = system.spec
    eigenbasis = getattr(htilde, "eigenbasis", None)
    basis = None if eigenbasis is None else eigenbasis(spec)
    if basis is None or len(spec.step_groups) != 1 or not atilde.inverts(system):
        return None
    ((base, _, scales),) = spec.step_groups
    s_ref = spec.a_ref.proportionality(base)
    if s_ref is None:
        return None
    tau_s = spec.grid.steps * scales
    # the transpose of a C-order (dim, N) product is the Fortran-order w
    w = (basis.lam[:, None] * (tau_s / (spec.tau_ref * s_ref))).T
    width = max(1, SLAB_BYTES // (8 * spec.N))
    # each map acts on the (dim, N) view of a Fortran-order block, and
    # returns a Fortran-order block
    return _OperatorSet(
        mass=lambda x, cols=_ALL: x,
        abd=lambda x, cols=_ALL: w[:, cols] * x,
        atilde=lambda r, cols=_ALL, out=None: atilde.apply_inverse(
            r, weights=w[:, cols], out=out),
        htilde=lambda r, cols=_ALL, out=None: htilde.apply_inverse(r, slab=cols, out=out),
        to_basis=lambda x: basis.analysis(spec.mass.dot(x.T)).T,
        from_basis=lambda x: basis.synthesis(x.T).T,
        dual_to_basis=lambda x: basis.analysis(x.T).T,
        slabs=tuple(slice(lo, min(lo + width, spec.dim))
                    for lo in range(0, spec.dim, width)),
        weights=w,
        basis=basis,
        abd_modes=w[0] if np.all(tau_s == tau_s[0]) else None,
    )


def _mass_floor(mass: SpatialMatrix) -> float:
    """sigma <= lambda_min(M), or 0 where that cannot be certified.

    sigma is a quarter of M's smallest diagonal entry, certified by a
    factorization of M - sigma I.  The eigenbasis V of a pencil with mass M
    has V V' = M^-1, so ||x_hat V'|| <= ||x_hat|| / sqrt(sigma).
    """
    sigma = float(mass.diagonal().min()) / 4.0
    try:
        SpdFactor(add_matrices(1.0, mass, -sigma, SpatialMatrix.identity(mass.dim)))
    except NotSpdError:
        return 0.0
    return sigma


def _mass_ceiling(mass: SpatialMatrix) -> float:
    """tau >= lambda_max(M): M's largest absolute row sum (Gershgorin).  The
    eigenbasis V of a pencil with mass M has V V' = M^-1, so
    ||x_hat V'|| >= ||x_hat|| / sqrt(tau)."""
    return float(abs(mass.tocsr()).sum(axis=1).max())


class _NormBracket:
    """Certified bounds lo <= ||x||_2 <= hi on the nodal norm of the MINRES
    iterate x = x_hat V' in the eigenbasis V of a pencil with mass M, and
    scipy's stop decided from them (see ``minres_solve``).

    Before any exact norm, the bracket is ||x_hat|| / sqrt(tau) and
    ||x_hat|| / sqrt(sigma), tau from ``_mass_ceiling`` and sigma from
    ``_mass_floor``.  After an exact norm E, it is E -+ rho, where rho sums
    |phi_k| ||w_k|| / sqrt(sigma) over the updates x_hat += phi_k w_k since
    E, because ||V w|| <= ||w|| / sqrt(sigma).  Each end is padded by the
    relative size * eps, for the rounding of the computed norms.

    test1 falls and the eps-accuracy test rises as ynorm grows, and no other
    test reads it.  With tol >= eps, test1 + 1 <= 1 implies test1 <= tol,
    so as ynorm grows istop reads a value of the other tests (0, 2, 4 or 6),
    then 3, then 1, each over one interval; or 2, then 1.  A stop that is
    the same at both ends is then the same for every ynorm between them.
    Below tol = eps, and when M has no certified floor (sigma = 0), every
    stop is decided on the exact norm.
    """

    def __init__(self, basis: BlockBasis, mass: SpatialMatrix, size: int, tol: float):
        eps = np.finfo(np.float64).eps
        sigma = _mass_floor(mass) if tol >= eps else 0.0
        self.basis = basis
        # ||V c|| <= ||c|| * scale; 0 takes the exact norm at every stop
        self.scale = 1.0 / np.sqrt(sigma) if sigma > 0.0 else 0.0
        self.lower = 1.0 / np.sqrt(_mass_ceiling(mass))
        self.pad = size * eps
        self.exact = None
        self.radius = 0.0

    def advance(self, phi: float, w: np.ndarray) -> None:
        """Widen the bracket around the last exact norm for x_hat += phi w."""
        if self.scale and self.exact is not None:
            self.radius += abs(phi) * float(np.linalg.norm(w)) * self.scale

    def decide(self, itn: int, x: np.ndarray, stop: Callable[[int, float], int],
               block: Callable[[], np.ndarray]) -> tuple[int, np.ndarray | None]:
        """stop(itn, ||x||_2) for the coefficients x, and the work block (from
        block()) holding the class products of the exact norm when one was
        taken, else None."""
        if self.scale:
            if self.exact is None:
                norm = float(np.linalg.norm(x))
                lo, hi = norm * self.lower, norm * self.scale
            else:
                lo, hi = self.exact - self.radius, self.exact + self.radius
            istop = stop(itn, max(lo * (1.0 - self.pad), 0.0))
            if stop(itn, hi * (1.0 + self.pad)) == istop:
                return istop, None
        products = block()
        self.exact = self.basis.norm(x, products)
        self.radius = 0.0
        return stop(itn, self.exact), products


def uzawa_solve(
    system: TimeGlobalSystem,
    atilde: BlockDiagSolver,
    htilde: SchurPreconditioner,
    cfg: UzawaConfig,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
    u_oracle: np.ndarray | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray], ConvergenceHistory]:
    """Damped two-stage iteration on the saddle-point system.

    The default stopping rule uses the preconditioned residual of the saddle
    system, evaluated with the auxiliary residual at the old iterate and the
    principal residual after the auxiliary update (both quadratic forms are
    by-products of the updates, so the rule costs no extra solves).

    When atilde is the exact A_bd^-1 (``atilde.inverts(system)``), the
    iteration is preconditioned Richardson on the Schur complement
    S = K' A_bd^-1 K + K + K' + A_bd, and it runs in that form: with
    t = K u - f, p' = A_bd^-1 t, and the Schur residual
    b_S - S u = -(A_bd + K')(p' + u).  The two residual sums are formed
    from t, the previous t and p' (see ``schur_steps``), so an iteration makes
    one A_bd product instead of two.  These are the general body's iterates
    in exact arithmetic; an inexact atilde (mg, jacobi) runs the general
    body.

    Without diagnostics, and when both block solves are exact in the
    eigenbasis of htilde (see ``_modal_set``), the iteration runs on the
    basis coefficients: each iteration is then elementwise products and
    the two DSTs of htilde, with no spatial product or solve.  The spatial
    modes are independent there, so each iteration runs whole on cache-sized
    slabs of them, spread over the pool; the calling thread adds their
    residual sums mode by mode, so the results depend neither on the
    thread count nor on the slabs.  Otherwise it runs on nodal values, as
    one slab on the calling thread, and each iteration makes two mass
    products (M u and M p, or M (p' + u)) and two of A_bd (p, u), or one
    (p' + u) in Schur complement form.  Both bases give the same iterates
    up to rounding.  The iterates are Fortran-order (N, dim) blocks.

    When, in the eigenbasis, tau_n A_n is one matrix at every step
    (``abd_modes``; uniform steps equal in floating point and no
    time-dependent coefficient), A_bd is lam_j I in time on spatial mode j,
    and Schur complement form runs in the DST basis of htilde as well, where
    the Schur complement of each mode is diagonal plus rank one (see
    ``dst_steps``): elementwise passes and per-mode sums only, with no DST,
    no A_bd product and no division in the loop, and no application of
    either preconditioner but the two of the reference norm, so the clocks
    stay flat.  Its iterates are those of the other bodies up to rounding.
    """
    spec = system.spec
    hist = ConvergenceHistory()
    if initial is not None:
        p, u = initial[0].copy(order="F"), initial[1].copy(order="F")
    else:
        p = np.zeros((spec.N, spec.dim), order="F")
        u = np.zeros((spec.N, spec.dim), order="F")

    diagnostics = cfg.diagnostics or cfg.stopping == "s_norm_error"
    u_star = None
    s_norm_ref = None
    if diagnostics:
        if u_oracle is None:
            u_oracle = sequential_euler_solve(spec)
        u_star = u_oracle
        system.build_exact_solvers()
        s_norm_ref = system.s_norm(u_star)
    ops = None if diagnostics else _modal_set(system, atilde, htilde)
    if ops is None:
        ops = _nodal_set(system, atilde, htilde)
    record_d = (diagnostics and atilde.kind == "direct"
                and getattr(htilde, "solver_kind", None) == "direct")

    f = ops.dual_to_basis(system.rhs)
    ref = np.sqrt(
        max(np.sum(f * ops.atilde(f)) + np.sum(f * ops.htilde(f)), 0.0)
    )
    if ref == 0.0:
        hist.converged = True
        return (p, u), hist
    if initial is not None:
        p, u = ops.to_basis(p), ops.to_basis(u)

    slabs = ops.slabs
    # the two residual sums of each slab: per mode in the eigenbasis, or one
    # for the block
    sum_axis = None if ops.weights is None else 0
    sums = np.empty((2, 1 if sum_axis is None else spec.dim))

    def steps(k: int) -> Iterator[None]:
        """The two-stage iteration on the columns slabs[k] of every block,
        one iteration per next().  Each slab of p and u is a Fortran-order
        view, updated in place; the three work blocks are the slab's own,
        allocated once and reused by every iteration."""
        cols = slabs[k]
        pk, uk, fk = p[:, cols], u[:, cols], f[:, cols]
        ku, r1, z = (np.empty(fk.shape, order="F") for _ in range(3))
        while True:
            # K u, K' u and K' p are differences of M u and M p along time;
            # every in-place step below rounds as the expressions
            # r1 = K u - A_bd p - f and z = f - K' p - (K u + K' u + A_bd u) do
            mu = ops.mass(uk, cols)
            time_difference(mu, out=ku)
            np.subtract(ku, ops.abd(pk, cols), out=r1)
            r1 -= fk
            dp = ops.atilde(r1, cols)
            pk += dp
            sums[0, cols] = np.sum(np.multiply(r1, dp, out=r1), axis=sum_axis)
            # r1 is free from here on: it holds K u + K' u + A_bd u, then
            # omega y
            np.subtract(fk, time_difference_t(ops.mass(pk, cols), out=z), out=z)
            time_difference_t(mu, out=r1)
            r1 += ku
            r1 += ops.abd(uk, cols)
            z -= r1
            y = ops.htilde(z, cols)
            uk += np.multiply(y, cfg.omega, out=r1)
            sums[1, cols] = np.sum(np.multiply(z, y, out=z), axis=sum_axis)
            yield

    def schur_steps(k: int) -> Iterator[None]:
        """The same iteration with the exact Atilde = A_bd^-1, in Schur
        complement form, on the columns slabs[k]; as ``steps``.

        With t = K u - f, the block solve gives p' = A_bd^-1 t whatever p
        was, so the auxiliary residual K u - A_bd p - f is t - t_old, where
        t_old = A_bd p is the previous t (A_bd p0 before the first
        iteration, so that warm starts hold), and the principal residual is
        f - K' p' - (K u + K' u + A_bd u) = -(A_bd + K')(p' + u): one A_bd
        product per iteration instead of two.  z holds its negative
        S u - b_S, so y is the negative of Htilde^-1 applied to the
        residual, and u -= omega y; both sums are the same.  Both inverses
        write into the slab's own blocks, Htilde^-1 in the eigenbasis only
        (the nodal one would copy its result there)."""
        cols = slabs[k]
        pk, uk, fk = p[:, cols], u[:, cols], f[:, cols]
        t, z, p_work = (np.empty(fk.shape, order="F") for _ in range(3))
        y_work = None if ops.weights is None else np.empty(fk.shape, order="F")
        t_old = ops.abd(pk, cols)
        while True:
            time_difference(ops.mass(uk, cols), out=t)
            t -= fk
            p_new = ops.atilde(t, cols, out=p_work)
            # (t - t_old) . (p' - p), then p = p' and t_old = t
            np.subtract(t, t_old, out=t_old)
            np.subtract(p_new, pk, out=pk)
            sums[0, cols] = np.sum(np.multiply(t_old, pk, out=t_old),
                                   axis=sum_axis)
            np.copyto(pk, p_new)
            t, t_old = t_old, t
            # p_new is free from here on: it holds p' + u
            s = np.add(p_new, uk, out=p_new)
            time_difference_t(ops.mass(s, cols), out=z)
            z += ops.abd(s, cols)
            y = ops.htilde(z, cols, out=y_work)
            sums[1, cols] = np.sum(np.multiply(z, y, out=z), axis=sum_axis)
            uk -= np.multiply(y, cfg.omega, out=y)
            yield

    def dst_steps(k: int) -> Iterator[None]:
        """Schur complement form in the DST basis of Htilde, on the columns
        slabs[k]; as ``steps``.

        Here A_bd = lam_j I in time on spatial mode j, and K' K = W T, with
        T the matrix that the synthesis map Q diagonalizes (T Q = Q diag(Lam),
        Lam = mu^2) and W the half weight on the last step, so that
        Q' W Q = (N / 2) I and, per mode,
        Q' S Q = (N / 2) (Lam / lam + Lam + lam) + (1 + lam / 2) c c'
        with c_k = (-1)^(k+1).  The loop holds v = C Q^-1 u, C = diag(c),
        in which the rank-one term adds (1 + lam / 2) sum(v) to every row.
        z holds 4 omega C Q' (S u - b_S), and y = D z is omega C y_hat, with
        y_hat = Q^-1 Htilde^-1 (S u - b_S).  The auxiliary sum of the next
        iteration is omega^2 (N / 2) sum (Lam / lam) y_hat^2, because
        t - t_old = -omega K Q y_hat.  Each iteration updates v by the y of
        the iteration before, so that after the last one v is the iterate
        that p is formed from, and u = Q C (v - y)."""
        cols = slabs[k]
        lam = ops.abd_modes[cols]
        vk, bk, dk, yk = v[:, cols], b_hat[:, cols], d[:, cols], y[:, cols]
        # 4 omega times the diagonal and the rank-one weight of Q' S Q
        diag = np.empty(vk.shape, order="F")
        np.multiply(mu2[:, None], 1.0 + 1.0 / lam, out=diag)
        diag += lam
        diag *= 2.0 * cfg.omega * spec.N
        rank_one = 2.0 * cfg.omega * (2.0 + lam)
        aux = 0.5 * spec.N / lam
        z = np.empty(vk.shape, order="F")
        while True:
            s = rank_one * vk.sum(axis=0)
            np.multiply(diag, vk, out=z)
            z -= bk
            z += s
            np.multiply(dk, z, out=yk)
            # einsum reduces each column in one read, the same way on any slab
            sums[1, cols] = np.einsum("nj,nj->j", z, yk) * z_scale
            yield
            vk -= yk
            sums[0, cols] = aux * np.einsum("nj,nj,n->j", yk, yk, mu2)

    d = None if ops.abd_modes is None else htilde.mode_weights()
    if d is not None:
        body = dst_steps
        plan = htilde.plan
        mu2 = htilde.mu ** 2
        z_scale = 0.25 / cfg.omega**2  # z . y is 4 omega^2 times the sum
        lam = ops.abd_modes
        # the first auxiliary sum as in schur_steps, from t = K u0 - f and p0
        t = time_difference(u)
        t -= f
        sums[0] = np.sum((t - lam * p) * (t / lam - p), axis=0)
        del t
        # 4 omega C Q' b_S with b_S = f + K' A_bd^-1 f, and v = C Q^-1 u0
        b_hat = plan.inverse_transpose(f + time_difference_t(f / lam),
                                       scale=2.0 * cfg.omega)
        b_hat[1::2] *= -1.0
        v = plan.forward(u)
        v[1::2] *= -1.0
        y = np.empty(v.shape, order="F")
    else:
        body = schur_steps if atilde.inverts(system) else steps
    stepper = [body(k) for k in range(len(slabs))]

    fft0, spatial0 = _clocks(atilde, htilde)
    t0 = time.perf_counter()
    first_res = None
    for _ in range(cfg.max_iter):
        if len(slabs) == 1:
            # on the calling thread, so that its own block maps use the pool
            next(stepper[0])
        else:
            parallel.block_map(lambda k: next(stepper[k]), len(slabs))
        sum_r1, sum_z = sums.sum(axis=1)
        res = float(np.sqrt(max(sum_r1 + sum_z, 0.0))) / ref
        if first_res is None:
            first_res = max(res, 1e-300)
        s_err = None
        d_err = None
        if diagnostics:
            s_err = system.s_norm(u - u_star) / s_norm_ref
            if record_d:
                d_err = d_norm(u - u_star, htilde.apply)
        fft, spatial = _clocks(atilde, htilde)
        hist.append(res, s_err, d_err, time.perf_counter() - t0,
                    fft - fft0, spatial - spatial0)
        if not np.isfinite(res):
            raise SolverDivergenceError(
                f"non-finite residual at iteration {hist.iterations}"
            )
        if res > 1e6 * first_res:
            raise SolverDivergenceError(
                f"residual grew to {res:.3e} from {first_res:.3e}"
            )
        if cfg.stopping == "preconditioned_residual" and res < cfg.tol:
            hist.converged = True
            break
        if cfg.stopping == "s_norm_error" and s_err is not None and s_err < cfg.tol:
            hist.converged = True
            break
    if d is not None:
        # u and the iterate before it, in one DST; p = A_bd^-1 (K u_prev - f)
        both = np.empty((spec.N, 2 * spec.dim), order="F")
        np.subtract(v, y, out=both[:, :spec.dim])
        both[:, spec.dim:] = v
        both[1::2] *= -1.0
        both = plan.inverse(both)
        u = both[:, :spec.dim]
        p = time_difference(both[:, spec.dim:])
        p -= f
        p /= lam
    return (ops.from_basis(p), ops.from_basis(u)), hist


def _preconditioned_norm(r: np.ndarray, z: np.ndarray) -> float:
    """sqrt(r' z) for z = P^-1 r, checked for a finite, non-negative square."""
    beta2 = float(np.vdot(r, z))
    if not np.isfinite(beta2):
        raise SolverDivergenceError(f"non-finite preconditioned norm {beta2}")
    if beta2 < 0.0:
        raise NotSpdError("block preconditioner is not positive definite")
    return float(np.sqrt(beta2))


def _axpy(a: float, x: np.ndarray, y: np.ndarray) -> None:
    """y += a x in one pass, for C-contiguous float64 blocks of one shape."""
    blas.daxpy(x.reshape(-1), y.reshape(-1), a=a)


def _positive(a: np.ndarray) -> bool:
    """True when every entry of a is finite and > 0 (NaN fails both tests)."""
    return bool(np.all(a > 0.0) and np.all(a < np.inf))


def check_minres_options(tol: float, max_iter: int) -> None:
    """Raise InputError unless tol is positive and finite and max_iter >= 1:
    the checks ``minres_solve`` makes before any work."""
    if not _positive(tol):
        raise InputError("tolerance must be positive and finite")
    if max_iter < 1:
        raise InputError("iteration limit must be at least one")


def minres_solve(
    system: TimeGlobalSystem,
    atilde: BlockDiagSolver,
    htilde: SchurPreconditioner,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[tuple[np.ndarray, np.ndarray], ConvergenceHistory]:
    """Block-diagonally preconditioned MINRES on the saddle-point system.

    Paige & Saunders' recurrence and the stopping tests of
    ``scipy.sparse.linalg.minres``, on (2, dim, N) arrays whose [0].T and
    [1].T are the Fortran-order (N, dim) blocks p and u.  The Krylov blocks
    (v, y, r1, r2, w and the two before it, x) rotate through seven such
    arrays, taken in the first three iterations and reused after, and each
    vector update is one in-place pass (``blas.daxpy`` on the flat arrays),
    so that an iteration allocates no block outside the two preconditioners.
    daxpy may fuse a multiply and an add, so the iterates match scipy's to
    rounding, with the same iteration count.  Each iteration makes one
    saddle product and one preconditioner application.  The recorded
    residual is the recurrence's preconditioned residual norm phibar over
    beta1 = sqrt(g' P^-1 g), so it costs nothing extra.

    MINRES needs an SPD block preconditioner P.  On nodal values three
    seeded random probes r' P^-1 r > 0 check it; every negative r' P^-1 r
    met later raises ``NotSpdError`` too.

    When both block solves are exact in the eigenbasis of htilde (see
    ``_modal_set``), the recurrence runs on the basis coefficients, and p and
    u are mapped back once at the end, together, by folding class products
    (``BlockBasis.fold``): those of the exact norm when the last stop was
    decided on it, else those of x written into a spare work block.  The
    saddle product there is ``weighted_saddle_product``
    into the work block, Htilde^-1 runs in its work block, and P
    is diag(1/w) and, per spatial mode j, 4 S diag(D[:, j]) S' with S the
    DST synthesis map and D ``htilde.mode_weights()``: it is SPD exactly when
    every entry of w and D is finite and > 0, which replaces the probes.
    The scalars of the recurrence pair a primal block with a dual one and do
    not depend on the basis; scipy's tests also read ynorm = ||x||_2 of the
    nodal iterate, which the basis does not preserve.  Each iteration
    therefore decides its stop from certified bounds lo <= ||x||_2 <= hi
    (``_NormBracket``), and only when the two ends stop differently takes
    the exact ||x_hat V'||_2 and decides on that: ``BlockBasis.norm``, one
    dense product per symmetry class into a spare work block and no fold,
    which is orthogonal.  Every ynorm between two ends that stop alike
    stops alike, so the stops and iterates are those of the exact norm at
    every iteration, and the stops are scipy's.  Without a certified floor
    of M's spectrum, or below tol = eps, the exact norm is taken at every
    iteration.  Otherwise
    the recurrence runs on nodal values, and each saddle product is one
    ``system.apply_saddle``.  Both give the same iterates up to rounding.
    """
    check_minres_options(tol, max_iter)
    ops = _modal_set(system, atilde, htilde)
    modal = ops is not None
    if not modal:
        ops = _nodal_set(system, atilde, htilde)
    shape = (2, system.spec.dim, system.spec.N)
    # work blocks the recurrence has let go of, taken before any new one
    spare: list[np.ndarray] = []

    def block() -> np.ndarray:
        return spare.pop() if spare else np.empty(shape)

    def precond(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        ops.atilde(r[0].T, out=out[0].T)
        ops.htilde(r[1].T, out=out[1].T)
        return out

    if modal:
        # the diagonal -(2 + w) of the saddle product, once per solve
        saddle_diagonal = ops.weights + 2.0
        np.negative(saddle_diagonal, out=saddle_diagonal)

        def matvec(v: np.ndarray, out: np.ndarray) -> np.ndarray:
            weighted_saddle_product(ops.weights, saddle_diagonal,
                                    v[0].T, v[1].T, out[0].T, out[1].T)
            return out

        # P = diag(1/w) (+) 4 S diag(D) S': SPD exactly when w and D are > 0
        if not (_positive(ops.weights) and _positive(htilde.mode_weights())):
            raise NotSpdError("block preconditioner is not positive definite")
    else:
        def matvec(v: np.ndarray, out: np.ndarray) -> np.ndarray:
            top, bottom = system.apply_saddle(v[0].T, v[1].T)
            out[0], out[1] = top.T, bottom.T
            return out

        # cheap positivity probe of the preconditioner
        rng = np.random.default_rng(1234)
        probe, z = block(), block()
        for _ in range(3):
            rng.standard_normal(out=probe)
            if np.vdot(probe, precond(probe, z)) <= 0.0:
                raise NotSpdError("block preconditioner is not positive definite")
        spare += [probe, z]

    # g = (-f, -f); the coefficients of f are not kept
    g = np.empty(shape)
    g[0] = -ops.dual_to_basis(system.rhs).T
    g[1] = g[0]
    eps = np.finfo(np.float64).eps

    hist = ConvergenceHistory()
    fft0, spatial0 = _clocks(atilde, htilde)
    t0 = time.perf_counter()
    x = np.zeros(shape)
    y = precond(g, block())
    beta1 = _preconditioned_norm(g, y)
    if beta1 == 0.0:
        hist.converged = True
        return (x[0].T, x[1].T), hist
    bracket = _NormBracket(ops.basis, system.spec.mass, x.size, tol) if modal else None

    istop = 0
    oldb = 0.0
    beta = beta1
    dbar = epsln = 0.0
    phibar = beta1
    tnorm2 = 0.0
    gmax = 0.0
    gmin = np.finfo(np.float64).max
    cs, sn = -1.0, 0.0

    def stop(itn: int, ynorm: float) -> int:
        """scipy's istop after iteration itn with ||x||_2 = ynorm: 1 or 2
        tolerance met, 3 eps accuracy, 4 condition estimate above 0.1/eps,
        6 iteration limit, 0 to go on.  Every test but 1 and 3 ignores
        ynorm; test1 falls and test 3 rises as ynorm grows."""
        anorm = np.sqrt(tnorm2)
        test1 = np.inf if ynorm == 0.0 or anorm == 0.0 else phibar / (anorm * ynorm)
        test2 = np.inf if anorm == 0.0 else root / anorm
        istop = 0
        if test2 + 1.0 <= 1.0:
            istop = 2
        if test1 + 1.0 <= 1.0:
            istop = 1
        if itn >= max_iter:
            istop = 6
        if gmax / gmin >= 0.1 / eps:
            istop = 4
        if anorm * ynorm * eps >= beta1:
            istop = 3
        if test2 <= tol:
            istop = 2
        if test1 <= tol:
            istop = 1
        return istop

    # w1, w2 = w_{k-2}, w_{k-1} of the search directions, w_{-1} = w_0 = 0
    w1, w2 = np.zeros(shape), np.zeros(shape)
    r1 = r2 = g
    # the work block holding the class products of the last exact norm
    products = None
    for itn in range(1, max_iter + 1):
        if products is not None:
            spare.append(products)
            products = None
        v = y
        v *= 1.0 / beta
        y = matvec(v, block())
        if itn >= 2:
            _axpy(-(beta / oldb), r1, y)
        alfa = float(np.vdot(v, y))
        _axpy(-(alfa / beta), r2, y)
        if r1 is not r2:  # both are g in the first iteration
            spare.append(r1)
        r1, r2 = r2, y
        y = precond(r2, block())
        oldb = beta
        beta = _preconditioned_norm(r2, y)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # the preconditioned operator is a multiple of I

        # apply the previous rotation, then compute the next one (norm, not
        # hypot, as scipy does)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm((gbar, dbar))
        gamma = max(np.linalg.norm((gbar, beta)), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w_k = (v - oldeps w1 - delta w2) / gamma, written over v
        _axpy(-oldeps, w1, v)
        _axpy(-delta, w2, v)
        v *= 1.0 / gamma
        spare.append(w1)
        w1, w2 = w2, v
        _axpy(phi, w2, x)
        if bracket is not None:
            bracket.advance(phi, w2)

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        if istop == 0:
            if bracket is None:
                istop = stop(itn, np.linalg.norm(x))
            else:
                istop, products = bracket.decide(itn, x, stop, block)

        fft, spatial = _clocks(atilde, htilde)
        hist.append(float(phibar / beta1), None, None, time.perf_counter() - t0,
                    fft - fft0, spatial - spatial0)
        if istop != 0:
            break
    hist.converged = istop != 6
    # p and u in one map, which folds the class products of the last exact
    # norm when it decided the stop, else of x in a spare work block
    nodal = x
    if modal:
        if products is None:
            products = ops.basis.products(x, block())
        nodal = ops.basis.fold(products)
    return (nodal[0].T, nodal[1].T), hist
