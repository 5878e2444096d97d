"""Shared oracles for the test suite.

Everything here is built independently of the package's operator code:
dense Kronecker assemblies of the time-global matrices, straight from the
block structure of the implicit Euler method, and element-by-element loops
for the spatial matrices and grid transfers.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

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


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The sizes of the scipy.linalg.eigh calls made from here on."""
    sizes = []
    real = scipy.linalg.eigh

    def spy(a, b=None, **kwargs):
        sizes.append(np.shape(a)[0])
        return real(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return sizes


def loop_assembly_2d(cells):
    """(M, A) of ``assemble_mass_stiffness_2d`` by a loop over the triangles:
    the boundary-inclusive matrices without their exact zeros, then their
    interior block."""
    c = cells
    h = 1.0 / c
    nn = (c + 1) * (c + 1)

    def node(i, j):
        return j * (c + 1) + i

    stiff_el = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    mass_el = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    tris = []
    for j in range(c):
        for i in range(c):
            ll, lr = node(i, j), node(i + 1, j)
            ul, ur = node(i, j + 1), node(i + 1, j + 1)
            tris.append((lr, ur, ll))
            tris.append((ul, ll, ur))
    rows, cols, m_vals, a_vals = [], [], [], []
    area = 0.5 * h * h
    for tri in tris:
        for a in range(3):
            for b in range(3):
                rows.append(tri[a])
                cols.append(tri[b])
                a_vals.append(stiff_el[a, b])
                m_vals.append(area * mass_el[a, b])
    interior = np.array(
        [node(i, j) for j in range(1, c) for i in range(1, c)], dtype=np.int64
    )
    out = []
    for vals in (m_vals, a_vals):
        full = sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()
        full.eliminate_zeros()  # the stiffness element's ll-ur couplings
        out.append(ps.SpatialMatrix.from_sparse(full[np.ix_(interior, interior)]))
    return tuple(out)


def fold_mirror_assembly_1d(cells):
    """(M, A) of ``assemble_mass_stiffness_1d`` from the three-point stencil
    of their upper triangle, folded and mirrored by the ``SpatialMatrix``
    constructor."""
    h = 1.0 / cells
    dim = cells - 1
    main, off = np.arange(dim), np.arange(dim - 1)
    rows = np.concatenate([main, off])
    cols = np.concatenate([main, off + 1])
    m_vals = np.concatenate([np.full(dim, 4 * h / 6), np.full(dim - 1, h / 6)])
    a_vals = np.concatenate([np.full(dim, 2.0 / h), np.full(dim - 1, -1.0 / h)])
    return (ps.SpatialMatrix(dim, rows, cols, m_vals),
            ps.SpatialMatrix(dim, rows, cols, a_vals))


def nodal_sine_data(space, cells):
    """sin(pi x), times sin(pi y) in 2d, at the interior node coordinates,
    ordered as the assembly numbers the nodes (x fastest)."""
    g = np.arange(1, cells) / cells
    if space == "1d":
        return np.sin(np.pi * g)
    xx, yy = np.meshgrid(g, g)
    return np.sin(np.pi * xx.ravel()) * np.sin(np.pi * yy.ravel())


def class_sizes(space, cells):
    """The sizes of the symmetry classes of an assembled pencil, from the
    characters of the group that the reversal J, and in 2d the transpose P,
    generate: (1/|G|) sum_g chi(g) (fixed points of g)."""
    n = cells - 1
    if space == "1d":
        return [n - n // 2, n // 2]
    dim = n * n
    fixed_j = dim % 2  # the centre node, for odd n
    return [(dim + sj * fixed_j + sp * n + sj * sp * n) // 4
            for sj in (1, -1) for sp in (1, -1)]


def loop_prolongation_1d(coarse_cells):
    """Linear interpolation from (c-1) to (2c-1) interior nodes, entry by entry."""
    p = sp.lil_matrix((2 * coarse_cells - 1, coarse_cells - 1))
    for j in range(coarse_cells - 1):
        p[2 * j + 1, j] = 1.0
        p[2 * j, j] = 0.5
        p[2 * j + 2, j] = 0.5
    return p.tocsr()


def assert_same_csr(got, want):
    """Equal CSR arrays: data bit for bit, indices and indptr."""
    got, want = got.tocsr(), want.tocsr()
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)


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


def save_problem_v1(spec, path):
    """The version-1 problem file writer, kept as an oracle for the loader:
    A_ref as a matrix, then a "stepscales" section when every A_n is a
    multiple of A_ref, else one "matrix A_<n>" per step."""
    from pintsolve.problems import _write_matrix, _write_vector

    (base, _, scales), *others = spec.step_groups
    ref_scale = spec.a_ref.proportionality(base)
    proportional = not others and ref_scale is not None
    with open(path, "w") as fh:
        fh.write("pintsolve-problem 1\n")
        fh.write(f"grid {spec.N} {float(spec.grid.T)!r}\n")
        for t in spec.grid.nodes:
            fh.write(f"{float(t)!r}\n")
        fh.write(f"scalars {float(spec.tau_ref)!r} {float(spec.alpha)!r}\n")
        _write_matrix(fh, "M", spec.mass)
        _write_matrix(fh, "A_ref", spec.a_ref)
        if proportional:
            fh.write(f"stepscales {spec.N}\n")
            for s in scales / ref_scale:
                fh.write(f"{float(s)!r}\n")
        else:
            for n, a_n in enumerate(spec.stiffness):
                _write_matrix(fh, f"A_{n + 1}", a_n)
        _write_vector(fh, "u_init", spec.u_init)
        for n in range(spec.N):
            _write_vector(fh, f"f_{n + 1}", spec.load[n])


def renumbered_spec(spec, seed=0):
    """spec with its unknowns renumbered by one seeded permutation: M, every
    A_n, the load and u_init.  Each A_n stays the same multiple of its
    renumbered base, so the step groups and a_ref's proportionality hold,
    but the pencil no longer commutes with the reversal or the transpose.
    The mesh metadata is dropped: the grid transfers of mg do not apply."""
    perm = np.random.default_rng(seed).permutation(spec.dim)

    def renumber(m):
        return ps.SpatialMatrix.from_sparse(m.tocsr()[perm][:, perm])

    bases = {}

    def renumbered(a):
        base, scale = a.as_scaled()
        if base not in bases:
            bases[base] = renumber(base)
        return bases[base] if a is base else bases[base].scaled(scale)

    stiffness = [renumbered(a) for a in spec.stiffness]
    return ps.ProblemSpec(
        mass=renumber(spec.mass),
        stiffness=stiffness,
        grid=spec.grid,
        load=spec.load[:, perm],
        u_init=spec.u_init[perm],
        tau_ref=spec.tau_ref,
        a_ref=renumbered(spec.a_ref),
        alpha=spec.alpha,
    )


def strided_time_difference(mx, out):
    """``operators.time_difference`` as one strided pass over the row
    slices of the block (the form before the flat pass; test oracle)."""
    out[0] = mx[0]
    np.subtract(mx[1:], mx[:-1], out=out[1:])
    return out


def strided_time_difference_t(mx, out):
    """``operators.time_difference_t`` as one strided pass over the row
    slices of the block (test oracle)."""
    out[-1] = mx[-1]
    np.subtract(mx[:-1], mx[1:], out=out[:-1])
    return out


def strided_weighted_saddle_product(w, p, u, top, bottom):
    """``operators.weighted_saddle_product`` in its ten in-place passes
    over row slices, with 2 + w formed in bottom and a closing negation
    (the form before the flat passes; test oracle)."""
    np.multiply(w, p, out=top)
    np.subtract(top, u, out=top)
    np.add(top[1:], u[:-1], out=top[1:])
    np.add(w, 2.0, out=bottom)
    np.multiply(bottom, u, out=bottom)
    np.subtract(bottom[1:], u[:-1], out=bottom[1:])
    np.subtract(bottom[:-1], u[1:], out=bottom[:-1])
    np.add(bottom, p, out=bottom)
    np.subtract(bottom[:-1], p[1:], out=bottom[:-1])
    np.negative(bottom, out=bottom)
