"""Shared dense oracles for the test suite.

Everything here is built independently of the package's operator code:
dense Kronecker assemblies of the time-global matrices, straight from the
block structure of the implicit Euler method.
"""

import numpy as np
import pytest
import scipy.linalg

import pintsolve as ps


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run tests marked slow (full benchmark grids)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow (full benchmark grid)")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def dense_M(spec) -> np.ndarray:
    return spec.mass.todense()


def dense_block_K(spec) -> np.ndarray:
    """Lower bidiagonal in time (1 on the diagonal, -1 below) tensor M."""
    N = spec.N
    kt = np.eye(N)
    kt[np.arange(1, N), np.arange(N - 1)] = -1.0
    return np.kron(kt, dense_M(spec))


def dense_block_Abd(spec) -> np.ndarray:
    """Block diagonal of the scaled stiffness operators tau_n A_n."""
    blocks = [
        t * a.todense() for t, a in zip(spec.grid.steps, spec.stiffness)
    ]
    return scipy.linalg.block_diag(*blocks)


def dense_block_B(spec) -> np.ndarray:
    return dense_block_K(spec) + dense_block_Abd(spec)


def dense_schur(spec) -> np.ndarray:
    k = dense_block_K(spec)
    a = dense_block_Abd(spec)
    return k.T @ np.linalg.solve(a, k) + k + k.T + a


def dense_saddle(spec) -> np.ndarray:
    k = dense_block_K(spec)
    a = dense_block_Abd(spec)
    return np.block([[a, -k], [-k.T, -(k + k.T + a)]])


def dense_P(spec) -> np.ndarray:
    k = dense_block_K(spec)
    a = dense_block_Abd(spec)
    nd = a.shape[0]
    return np.linalg.solve(a, k) + np.eye(nd)


def dense_preconditioner(spec) -> np.ndarray:
    """The transform-diagonalized Schur surrogate, assembled densely."""
    N, dim = spec.N, spec.dim
    tau, a_ref = spec.tau_ref, spec.a_ref.todense()
    mass = dense_M(spec)
    phi = ps.DstPlan(N).forward_matrix()
    mu = ps.frequency_weights(N)
    blocks = []
    for k in range(N):
        h_k = mu[k] * mass + tau * a_ref
        blocks.append(h_k @ np.linalg.solve(a_ref, h_k))
    d = scipy.linalg.block_diag(*blocks) * (N / (2.0 * tau))
    big_phi = np.kron(phi, np.eye(dim))
    return big_phi.T @ d @ big_phi


def random_spec(rng, space="1d", max_cells=16, max_n=12, data="random"):
    """A random small problem instance, possibly with perturbed steps and a
    time-dependent diffusion coefficient."""
    cells = int(rng.integers(4, max_cells + 1))
    if space == "2d":
        cells = int(2 ** rng.integers(2, 4))
    N = int(rng.integers(3, max_n + 1))
    kind = "perturbed" if rng.random() < 0.5 else "uniform"
    grid = ps.build_time_grid(kind, N, float(rng.uniform(0.5, 2.0)),
                              perturbation=0.3, seed=int(rng.integers(1 << 30)))
    coeff = None
    if rng.random() < 0.5:
        c0, c1 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
        coeff = lambda t: c0 + c1 * t  # noqa: E731
    return ps.make_heat_problem(space, cells, grid, coeff=coeff, data=data,
                                seed=int(rng.integers(1 << 30)))


def per_step_spec(seed=0):
    """A small problem whose step operators are not all multiples of one
    matrix: A_n = A + c_n M, with some steps sharing an operator object, one
    step a scaled copy of another, and a_ref one of the step operators."""
    rng = np.random.default_rng(seed)
    mass, stiff = ps.assemble_mass_stiffness_1d(8)
    grid = ps.build_time_grid("perturbed", 6, 1.0, perturbation=0.3, seed=seed)
    shifted = {c: ps.add_matrices(1.0, stiff, c, mass) for c in (0.5, 1.0, 4.0)}
    stiffness = [shifted[c] for c in (0.5, 1.0, 4.0, 1.0, 0.5)]
    stiffness.append(shifted[4.0].scaled(1.5))
    tau_ref = float(np.exp(np.mean(np.log(grid.steps))))
    a_ref = stiffness[1]
    return ps.ProblemSpec(
        mass=mass,
        stiffness=stiffness,
        grid=grid,
        load=rng.standard_normal((grid.N, mass.dim)),
        u_init=rng.standard_normal(mass.dim),
        tau_ref=tau_ref,
        a_ref=a_ref,
        alpha=ps.compute_alpha(mass, stiffness, grid, tau_ref, a_ref),
        meta={"space": "1d", "mesh": 8},
    )
