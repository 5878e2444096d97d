"""Inexact Uzawa iteration, rate theory, MINRES alternative, and the
sequential implicit-Euler oracle."""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotSpdError, SolverDivergenceError
from .linalg import SpatialMatrix, SpdFactor, add_matrices
from .operators import (
    BlockDiagSolver,
    TimeGlobalSystem,
    d_norm,
    saddle_product,
    time_difference,
    time_difference_t,
)
from .problems import ProblemSpec
from .schur import SchurPreconditioner
from . import parallel


# Largest (N, width) block of one slab of spatial modes in the eigenbasis
# Uzawa loop: 32 modes at N = 1024, one slab for small problems.  Each slab
# is one task per iteration, taken in turn by the calling thread and the
# pool's workers, so smaller slabs cost more calls, and larger ones leave a
# late worker's whole share to wait for.  Measured (median solve time, one
# BLAS thread, 2-core host, 2 threads / 1 thread):
#   1d h=1/128, N=1024: 16 modes 224 / 222 ms, 32 modes 179 / 221, 48 modes
#     180 / 209, 64 modes 165 / 221, one slab of all 127 modes 317 / 220.
#   2d h=1/32, N=200: 80 modes 426 / 400 ms, 160 modes 339 / 348, 320 modes
#     323 / 359, one slab of all 961 modes 471 / 381.
# 64 modes win back to back on free cores; four slabs bound the wait for a
# worker that starts late (after a pause between solves) to a quarter of the
# iteration, and keep the time per iteration steady from run to run.
# The body in the DST basis (uniform steps, no coefficient), same host,
# random data, 15 solves per size (1d) or 9 (2d), 1 thread / 2 threads:
#   1d h=1/128, N=1024: 16 modes 63 / 69 ms, 32 modes 62 / 71, 64 modes
#     58 / 68, one slab 64 / 66.
#   2d h=1/32, N=256: 64 modes 144 / 155 ms, 128 modes 144 / 156, 256 modes
#     140 / 146, one slab 156 / 158.
# The differences lie within the quartiles, so the one size serves both.
SLAB_BYTES = 256 * 1024


@dataclass
class UzawaConfig:
    omega: float = 0.9
    max_iter: int = 200
    tol: float = 1e-8
    stopping: str = "preconditioned_residual"  # or "s_norm_error"
    diagnostics: bool = False  # record exact error norms against the oracle

    def __post_init__(self):
        if self.omega <= 0.0:
            raise InputError("damping parameter must be positive")
        if self.tol <= 0.0:
            raise InputError("tolerance must be positive")
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


def safe_damping(alpha: float, margin: float = 0.9) -> float:
    """Damping parameter that provably contracts with exact block solves.

    The preconditioned spectrum is bounded by 3*alpha, so any omega with
    omega * 3 * alpha < 2 converges; margin scales how close to that edge
    the returned value sits.
    """
    if alpha < 1.0:
        raise InputError("quasi-uniformity constant is at least one")
    return margin * 2.0 / (3.0 * alpha)


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
    for n in range(spec.N):
        tau = spec.grid.steps[n]
        key = (id(spec.stiffness[n]), tau)
        if key not in factors:
            factors[key] = SpdFactor(add_matrices(1.0, spec.mass, tau, spec.stiffness[n]))
        u[n] = factors[key].solve(spec.mass.dot(prev) + tau * spec.load[n])
        prev = u[n]
    return u


def _clocks(atilde: BlockDiagSolver, htilde: SchurPreconditioner) -> tuple[float, float]:
    """(fft, spatial) seconds the two preconditioners have clocked so far."""
    return htilde.fft_seconds, atilde.spatial_seconds + htilde.spatial_seconds


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
    a slab of a block with its columns (every column by default).  The
    residual sums over each slab along sum_axis: per column (0) when the
    columns are independent modes, so that the sums do not depend on the
    slabs, else over the whole block (None).  The two-stage Uzawa body and
    Schur complement form run on any set; the eigenbasis set needs an exact
    block solve, so it only meets the second.

    abd_modes holds the (dim,) weights lam_j when A_bd is lam_j times the
    identity in time on every spatial mode j: the eigenbasis set of a
    problem whose tau_n A_n is one matrix at every step.  Then the third
    Uzawa body runs the Schur complement form in the DST basis of Htilde
    as well (see ``uzawa_solve``)."""

    mass: Callable[..., np.ndarray]
    abd: Callable[..., np.ndarray]
    atilde: Callable[..., np.ndarray]
    htilde: Callable[..., np.ndarray]
    to_basis: Callable[[np.ndarray], np.ndarray] = _identity
    from_basis: Callable[[np.ndarray], np.ndarray] = _identity
    dual_to_basis: Callable[[np.ndarray], np.ndarray] = _identity
    slabs: tuple[slice, ...] = (_ALL,)
    sum_axis: int | None = None
    abd_modes: np.ndarray | None = None


def _nodal_set(system: TimeGlobalSystem, atilde: BlockDiagSolver,
               htilde: SchurPreconditioner) -> _OperatorSet:
    """The nodal operators: one slab, the whole block."""
    return _OperatorSet(
        mass=lambda x, cols=_ALL: system.apply_M(x),
        abd=lambda x, cols=_ALL: system.apply_Abd(x),
        atilde=lambda r, cols=_ALL: atilde.apply_inverse(r),
        htilde=lambda r, cols=_ALL: htilde.apply_inverse(r),
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
    w = np.asfortranarray(np.outer(tau_s / (spec.tau_ref * s_ref), basis.lam))
    width = max(1, SLAB_BYTES // (8 * spec.N))
    # each map acts on the (dim, N) view of a Fortran-order block, and
    # returns a Fortran-order block
    return _OperatorSet(
        mass=lambda x, cols=_ALL: x,
        abd=lambda x, cols=_ALL: w[:, cols] * x,
        atilde=lambda r, cols=_ALL: atilde.apply_inverse(r, weights=w[:, cols]),
        htilde=lambda r, cols=_ALL: htilde.apply_inverse(r, slab=cols),
        to_basis=lambda x: basis.analysis(spec.mass.dot(x.T)).T,
        from_basis=lambda x: basis.synthesis(x.T).T,
        dual_to_basis=lambda x: basis.analysis(x.T).T,
        slabs=tuple(slice(lo, min(lo + width, spec.dim))
                    for lo in range(0, spec.dim, width)),
        sum_axis=0,
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
    record_d = diagnostics and atilde.kind == "direct" and htilde.solver_kind == "direct"

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
    # the two residual sums of each slab: per mode, or one for the block
    sums = np.empty((2, 1 if ops.sum_axis is None else spec.dim))

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
            sums[0, cols] = np.sum(np.multiply(r1, dp, out=r1), axis=ops.sum_axis)
            # r1 is free from here on: it holds K u + K' u + A_bd u, then
            # omega y
            np.subtract(fk, time_difference_t(ops.mass(pk, cols), out=z), out=z)
            time_difference_t(mu, out=r1)
            r1 += ku
            r1 += ops.abd(uk, cols)
            z -= r1
            y = ops.htilde(z, cols)
            uk += np.multiply(y, cfg.omega, out=r1)
            sums[1, cols] = np.sum(np.multiply(z, y, out=z), axis=ops.sum_axis)
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
        residual, and u -= omega y; both sums are the same."""
        cols = slabs[k]
        pk, uk, fk = p[:, cols], u[:, cols], f[:, cols]
        t, z = (np.empty(fk.shape, order="F") for _ in range(2))
        t_old = ops.abd(pk, cols)
        while True:
            time_difference(ops.mass(uk, cols), out=t)
            t -= fk
            p_new = ops.atilde(t, cols)
            # (t - t_old) . (p' - p), then p = p' and t_old = t
            np.subtract(t, t_old, out=t_old)
            np.subtract(p_new, pk, out=pk)
            sums[0, cols] = np.sum(np.multiply(t_old, pk, out=t_old),
                                   axis=ops.sum_axis)
            np.copyto(pk, p_new)
            t, t_old = t_old, t
            # p_new is free from here on: it holds p' + u
            s = np.add(p_new, uk, out=p_new)
            time_difference_t(ops.mass(s, cols), out=z)
            z += ops.abd(s, cols)
            y = ops.htilde(z, cols)
            sums[1, cols] = np.sum(np.multiply(z, y, out=z), axis=ops.sum_axis)
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
                # exact block solves: rho_a = 0, so Atilde's forward drops out
                d_err = d_norm(
                    p + u_star, u - u_star, cfg.omega, 0.0, None, htilde.apply
                )
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


def minres_solve(
    system: TimeGlobalSystem,
    atilde: BlockDiagSolver,
    htilde: SchurPreconditioner,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> tuple[tuple[np.ndarray, np.ndarray], ConvergenceHistory]:
    """Block-diagonally preconditioned MINRES on the saddle-point system.

    Paige & Saunders' recurrence, step for step as in
    ``scipy.sparse.linalg.minres`` and with its stopping tests, on one
    (2, dim, N) array whose [0].T and [1].T are the Fortran-order (N, dim)
    blocks p and u.  Each iteration makes one saddle product and one
    preconditioner application.  The recorded residual is the recurrence's
    preconditioned residual norm phibar over beta1 = sqrt(g' P^-1 g), so it
    costs nothing extra.

    When both block solves are exact in the eigenbasis of htilde (see
    ``_modal_set``), the recurrence runs on the basis coefficients, and p and
    u are mapped back once at the end: by the exact norm's map when the last
    stop was decided on it, else by one more product each.  Its scalars pair
    a primal block with a dual one and do not depend on the basis; scipy's
    tests also read ynorm = ||x||_2 of the nodal iterate, which the basis
    does not preserve.  Each iteration therefore tests first with the bound
    ||x_hat||_2 / sqrt(sigma) >= ||x||_2, sigma a certified floor of M's
    spectrum (see ``_mass_floor``), and only when some test would stop with
    it takes the exact ||x_hat V'||_2 and decides on that.  No test can stop
    for the bound and not for the exact norm, so the stops are scipy's.
    Without a floor the exact norm is taken at every iteration.  Otherwise the
    recurrence runs on nodal values, with the arithmetic of
    ``system.apply_saddle``.  Both give the same iterates up to rounding.
    """
    if max_iter < 1:
        raise InputError("iteration limit must be at least one")
    ops = _modal_set(system, atilde, htilde)
    modal = ops is not None
    if not modal:
        ops = _nodal_set(system, atilde, htilde)
    # g = (-f, -f); the coefficients of f are not kept
    g = np.empty((2, system.spec.dim, system.spec.N))
    g[0] = -ops.dual_to_basis(system.rhs).T
    g[1] = g[0]
    eps = np.finfo(np.float64).eps

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        top, bottom = saddle_product(ops.mass, ops.abd, v[0].T, v[1].T)
        out[0], out[1] = top.T, bottom.T
        return out

    def precond(r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        out[0] = ops.atilde(r[0].T).T
        out[1] = ops.htilde(r[1].T).T
        return out

    # cheap positivity probe of the preconditioner
    rng = np.random.default_rng(1234)
    for _ in range(3):
        w = rng.standard_normal(g.shape)
        if np.vdot(w, precond(w)) <= 0.0:
            raise NotSpdError("block preconditioner is not positive definite")

    hist = ConvergenceHistory()
    fft0, spatial0 = _clocks(atilde, htilde)
    t0 = time.perf_counter()
    x = np.zeros_like(g)
    y = precond(g)
    beta1 = _preconditioned_norm(g, y)
    if beta1 == 0.0:
        hist.converged = True
        return (x[0].T, x[1].T), hist
    # 1 / sqrt(sigma) scales ||x_hat|| to the bound; 0 takes the exact norm
    bound_scale = 0.0
    if modal:
        sigma = _mass_floor(system.spec.mass)
        bound_scale = 1.0 / np.sqrt(sigma) if sigma > 0.0 else 0.0

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

    w = np.zeros_like(g)
    w2 = np.zeros_like(g)
    r1 = g
    r2 = g
    for itn in range(1, max_iter + 1):
        nodal = None  # x on nodal values, once the exact norm takes it
        v = y
        v *= 1.0 / beta
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = precond(r2)
        oldb = beta
        beta = _preconditioned_norm(r2, y)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # the preconditioned operator is a multiple of I

        # apply the previous rotation, then compute the next one (norm, not
        # hypot, so that the iterates match scipy's bit for bit)
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

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x += phi * w

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        if istop == 0:
            if bound_scale:
                istop = stop(itn, np.linalg.norm(x) * bound_scale)
            if istop or not bound_scale:
                # x.T stacks the blocks p and u: this is ||x||_2 on nodal values
                nodal = ops.from_basis(x.T)
                istop = stop(itn, np.linalg.norm(nodal))

        fft, spatial = _clocks(atilde, htilde)
        hist.append(float(phibar / beta1), None, None, time.perf_counter() - t0,
                    fft - fft0, spatial - spatial0)
        if istop != 0:
            break
    hist.converged = istop != 6
    if nodal is not None:
        return (nodal[..., 0], nodal[..., 1]), hist
    return (ops.from_basis(x[0].T), ops.from_basis(x[1].T)), hist
