"""Matrix-free time-global operators and the discrete parabolic norms.

All operators act on block vectors of shape (N, dim).  The coupling operator
pairs the backward-difference stencil in time with the mass operator; the
block-diagonal part applies tau_n * A_n per step.  Exact per-step inverses
(needed by the left-preconditioned operator, the optimal-test-function map,
and the dual norms) are a diagnostic feature built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticModeRequiredError, DimensionMismatchError
from .linalg import SpatialMatrix, SpdFactor
from .problems import ProblemSpec
from . import timing


def fold_rhs(spec: ProblemSpec) -> np.ndarray:
    """Time-global right-hand side: tau_n f_n, with M u_I added to block 1."""
    rhs = spec.grid.steps[:, None] * spec.load
    rhs[0] += spec.mass.dot(spec.u_init)
    return rhs


class TimeGlobalSystem:
    """Bundles a problem with its time-global operator applications."""

    def __init__(self, spec: ProblemSpec, diagnostic: bool = False):
        self.spec = spec
        self.rhs = fold_rhs(spec)
        self._scales = self._proportional_scales()
        self._block_factors: list[SpdFactor] | None = None
        self._base_factor: SpdFactor | None = None
        if diagnostic:
            self.build_exact_solvers()

    def _proportional_scales(self) -> np.ndarray | None:
        base = self.spec.stiffness[0]
        scales = np.empty(self.spec.N)
        for n, a_n in enumerate(self.spec.stiffness):
            s = a_n.proportionality(base)
            if s is None:
                return None
            scales[n] = s
        return scales * self.spec.grid.steps

    @property
    def diagnostic(self) -> bool:
        return self._block_factors is not None or self._base_factor is not None

    def build_exact_solvers(self) -> None:
        if self.diagnostic:
            return
        with timing.timed("spatial"):
            if self._scales is not None:
                self._base_factor = SpdFactor(self.spec.stiffness[0])
            else:
                self._block_factors = [
                    SpdFactor(a.scaled(t)) if t != 1.0 else SpdFactor(a)
                    for a, t in zip(self.spec.stiffness, self.spec.grid.steps)
                ]

    def _check(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.spec.N, self.spec.dim):
            raise DimensionMismatchError(
                f"expected block vector of shape {(self.spec.N, self.spec.dim)}, "
                f"got {u.shape}"
            )
        return u

    # --- first-order operators ------------------------------------------------

    def apply_K(self, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        mu = self.spec.mass.dot(u.T).T
        out = mu.copy()
        out[1:] -= mu[:-1]
        return out

    def apply_Kt(self, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        mu = self.spec.mass.dot(u.T).T
        out = mu.copy()
        out[:-1] -= mu[1:]
        return out

    def apply_Abd(self, u: np.ndarray) -> np.ndarray:
        u = self._check(u)
        if self._scales is not None:
            return self._scales[:, None] * self.spec.stiffness[0].dot(u.T).T
        steps = self.spec.grid.steps
        return np.stack(
            [t * a.dot(un) for t, a, un in zip(steps, self.spec.stiffness, u)]
        )

    def apply_B(self, u: np.ndarray) -> np.ndarray:
        return self.apply_K(u) + self.apply_Abd(u)

    def apply_Bt(self, u: np.ndarray) -> np.ndarray:
        return self.apply_Kt(u) + self.apply_Abd(u)

    def apply_saddle(self, p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply the symmetric indefinite two-by-two block operator."""
        ku = self.apply_K(u)
        top = self.apply_Abd(p) - ku
        bottom = -self.apply_Kt(p) - (ku + self.apply_Kt(u) + self.apply_Abd(u))
        return top, bottom

    # --- diagnostic-mode operators ---------------------------------------------

    def apply_Abd_inv(self, b: np.ndarray) -> np.ndarray:
        b = self._check(b)
        if not self.diagnostic:
            raise DiagnosticModeRequiredError(
                "exact per-step factorizations not built; pass diagnostic=True"
            )
        with timing.timed("spatial"):
            if self._base_factor is not None:
                return self._base_factor.solve(b.T).T / self._scales[:, None]
            return np.stack([f.solve(bn) for f, bn in zip(self._block_factors, b)])

    def apply_P(self, u: np.ndarray) -> np.ndarray:
        """Optimal-test-function map: per-step exact solve of the coupling."""
        return self.apply_Abd_inv(self.apply_K(u)) + u

    def apply_Pt(self, u: np.ndarray) -> np.ndarray:
        return self.apply_Kt(self.apply_Abd_inv(u)) + u

    def apply_S(self, u: np.ndarray) -> np.ndarray:
        """Left-preconditioned (Schur complement) operator."""
        ku = self.apply_K(u)
        return (
            self.apply_Kt(self.apply_Abd_inv(ku))
            + ku
            + self.apply_Kt(u)
            + self.apply_Abd(u)
        )

    # --- norms and bilinear forms ----------------------------------------------

    def a_norm(self, u: np.ndarray) -> float:
        u = self._check(u)
        return float(np.sqrt(max(np.sum(u * self.apply_Abd(u)), 0.0)))

    def jump_form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Final-value plus temporal-jump mass form (u_0 = v_0 = 0)."""
        u, v = self._check(u), self._check(v)
        du = np.diff(u, axis=0, prepend=0.0)
        dv = np.diff(v, axis=0, prepend=0.0)
        m = self.spec.mass
        return float(u[-1] @ m.dot(v[-1]) + np.sum(du * m.dot(dv.T).T))

    def _dual_term(self, u: np.ndarray, v: np.ndarray) -> float:
        """sum_n tau_n (d_t u, d_t v) in the per-step dual inner product."""
        steps = self.spec.grid.steps
        mdu = self.spec.mass.dot(np.diff(u, axis=0, prepend=0.0).T).T / steps[:, None]
        mdv = self.spec.mass.dot(np.diff(v, axis=0, prepend=0.0).T).T / steps[:, None]
        if not self.diagnostic:
            raise DiagnosticModeRequiredError("dual norms need exact factorizations")
        with timing.timed("spatial"):
            if self._base_factor is not None:
                sol = self._base_factor.solve(mdv.T).T / (self._scales / steps)[:, None]
            else:
                sol = np.stack(
                    [
                        f.solve(x) * t
                        for f, x, t in zip(self._block_factors, mdv, steps)
                    ]
                )
        return float(np.sum(steps[:, None] * mdu * sol))

    def s_bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Symmetrized form: dual-derivative term + energy term + jump form."""
        u, v = self._check(u), self._check(v)
        energy = float(np.sum(u * self.apply_Abd(v)))
        return self._dual_term(u, v) + energy + self.jump_form(u, v)

    def s_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.s_bilinear(u, u), 0.0)))

    def sd_bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Jump-free weighted form (half weight on the final energy block)."""
        u, v = self._check(u), self._check(v)
        av = self.apply_Abd(v)
        energy = float(np.sum(u[:-1] * av[:-1]) + 0.5 * (u[-1] @ av[-1]))
        return self._dual_term(u, v) + energy

    def max_m_norm(self, u: np.ndarray) -> float:
        u = self._check(u)
        return float(np.sqrt(np.max(np.sum(u * self.spec.mass.dot(u.T).T, axis=1))))


def d_norm(
    p: np.ndarray,
    u: np.ndarray,
    omega: float,
    rho_a: float,
    apply_atilde: "callable",
    apply_htilde: "callable",
) -> float:
    """Solver-analysis norm on saddle vectors.

    Needs forward applications of both preconditioners, so it is available in
    direct-solver (diagnostic) mode only; with rho_a = 0 the auxiliary term
    vanishes and apply_atilde may be None.
    """
    term = 0.0
    if omega * rho_a != 0.0:
        term = omega * rho_a * float(np.sum(p * apply_atilde(p)))
    return float(np.sqrt(term + np.sum(u * apply_htilde(u))))


def dense_operator(apply_fn, n_blocks: int, dim: int) -> np.ndarray:
    """Materialize a block-vector operator column by column (test oracle)."""
    size = n_blocks * dim
    out = np.empty((size, size))
    e = np.zeros((n_blocks, dim))
    for j in range(size):
        e.ravel()[j] = 1.0
        out[:, j] = apply_fn(e).ravel()
        e.ravel()[j] = 0.0
    return out
