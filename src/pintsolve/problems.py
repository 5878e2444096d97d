"""Discrete model problems: heat equations on uniform 1d/2d meshes.

Assembles P1 mass/stiffness pairs with homogeneous Dirichlet boundary
(interior unknowns only), builds uniform or seeded quasi-uniform time grids,
and measures the quasi-uniformity constant of the resulting problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, InputError, NotSpdError
from .linalg import SpatialMatrix, eigh_blocks


@dataclass(frozen=True)
class TimeGrid:
    """Partition of (0, T) into N steps; nodes[0] = 0, nodes[N] = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if not np.all(np.isfinite(nodes)):
            raise InputError("time grid nodes must be finite")
        if nodes[0] != 0.0:
            raise InputError("time grid must start at t = 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise InputError("time-step lengths must be positive")

    @property
    def N(self) -> int:
        return len(self.nodes) - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)


def build_time_grid(
    kind: str, N: int, T: float, perturbation: float = 0.0, seed: int = 0
) -> TimeGrid:
    """Uniform grid, or a seeded quasi-uniform perturbation of it.

    Perturbed steps are proportional to 1 + perturbation * xi_n with
    xi_n uniform on [-1, 1] from a deterministic generator, rescaled to sum T.
    """
    if N < 1:
        raise InputError("need at least one time-step")
    if T <= 0.0:
        raise InputError("final time must be positive")
    if kind == "uniform":
        raw = np.ones(N)
    elif kind == "perturbed":
        if not 0.0 <= perturbation < 1.0:
            raise InputError("perturbation must lie in [0, 1)")
        xi = np.random.default_rng(seed).uniform(-1.0, 1.0, N)
        raw = 1.0 + perturbation * xi
    else:
        raise InputError(f"unknown time grid kind {kind!r}")
    steps = T * raw / raw.sum()
    return TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))


def assemble_mass_stiffness_1d(num_cells: int) -> tuple[SpatialMatrix, SpatialMatrix]:
    """P1 mass and stiffness on (0,1), homogeneous Dirichlet, uniform mesh."""
    if num_cells < 2:
        raise InputError("need at least 2 cells")
    h = 1.0 / num_cells
    dim = num_cells - 1
    main = np.arange(dim)
    off = np.arange(dim - 1)
    rows = np.concatenate([main, off])
    cols = np.concatenate([main, off + 1])
    m_vals = np.concatenate([np.full(dim, 4 * h / 6), np.full(dim - 1, h / 6)])
    a_vals = np.concatenate([np.full(dim, 2.0 / h), np.full(dim - 1, -1.0 / h)])
    return SpatialMatrix(dim, rows, cols, m_vals), SpatialMatrix(dim, rows, cols, a_vals)


# P1 element matrices on a right triangle with legs h (vertices ordered so the
# right angle is at the first vertex): stiffness is h-independent.
_STIFF_EL = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
_MASS_EL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass_stiffness_2d(cells_per_side: int) -> tuple[SpatialMatrix, SpatialMatrix]:
    """P1 mass/stiffness on the unit square, structured triangulation.

    Each grid cell is split along the diagonal from its lower-left to its
    upper-right corner; homogeneous Dirichlet unknowns are the interior nodes.
    Assembled from index arrays in element order (cells row by row, two
    triangles each), keeping only the entries between interior nodes.  The
    exact-zero ll-ur couplings of the stiffness element are not stored.
    """
    if cells_per_side < 2:
        raise InputError("need at least 2 cells per side")
    c = cells_per_side
    h = 1.0 / c
    dim = (c - 1) ** 2
    # unknown number of every mesh node (row j, column i), -1 on the boundary
    number = np.full((c + 1, c + 1), -1, dtype=np.int64)
    number[1:-1, 1:-1] = np.arange(dim).reshape(c - 1, c - 1)
    ll, lr = number[:-1, :-1], number[:-1, 1:]
    ul, ur = number[1:, :-1], number[1:, 1:]
    # right angles at lr and ul; both triangles share the ll-ur diagonal
    tris = np.stack([lr, ur, ll, ul, ll, ur], axis=-1).reshape(-1, 3)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    area = 0.5 * h * h

    def assemble(element: np.ndarray) -> SpatialMatrix:
        vals = np.tile(element.ravel(), len(tris))[keep]
        csr = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
        csr.eliminate_zeros()
        return SpatialMatrix._from_csr(csr)

    return assemble(area * _MASS_EL), assemble(_STIFF_EL)


def interior_nodes_1d(num_cells: int) -> np.ndarray:
    return np.arange(1, num_cells) / num_cells


def interior_nodes_2d(cells_per_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior node coordinates (x, y), ordered to match the assembly."""
    c = cells_per_side
    g = np.arange(1, c) / c
    xx, yy = np.meshgrid(g, g)  # rows iterate y, matching node numbering
    return xx.ravel(), yy.ravel()


StepGroup = tuple[SpatialMatrix, "slice | np.ndarray", np.ndarray]


def group_steps(stiffness: Sequence[SpatialMatrix]) -> list[StepGroup]:
    """Groups (base, steps, scales) with stiffness[n] == scales[i] * base for
    the i-th step n of steps; steps is slice(None) when one group holds
    every step, else an index array.

    Raises NotSpdError for a scale that is not positive (NaN included).
    """
    groups: dict[SpatialMatrix, tuple[list[int], list[float]]] = {}
    for n, a_n in enumerate(stiffness):
        base, scale = a_n.as_scaled()
        if not scale > 0.0:
            raise NotSpdError(f"stiffness operator of step {n + 1} is not SPD")
        steps, scales = groups.setdefault(base, ([], []))
        steps.append(n)
        scales.append(scale)
    return [
        (base, slice(None) if len(groups) == 1 else np.array(steps),
         np.array(scales))
        for base, (steps, scales) in groups.items()
    ]


@dataclass
class ProblemSpec:
    """Fully assembled discrete parabolic problem."""

    mass: SpatialMatrix
    stiffness: list[SpatialMatrix]  # per-step operators, length N
    grid: TimeGrid
    load: np.ndarray  # shape (N, dim), load vector per step
    u_init: np.ndarray  # shape (dim,)
    tau_ref: float
    a_ref: SpatialMatrix
    alpha: float
    meta: dict = field(default_factory=dict)
    step_groups: list[StepGroup] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = self.mass.dim
        if any(a.dim != dim for a in self.stiffness):
            raise DimensionMismatchError("stiffness dimension mismatch")
        if len(self.stiffness) != self.grid.N:
            raise DimensionMismatchError("need one stiffness operator per step")
        if self.load.shape != (self.grid.N, dim) or self.u_init.shape != (dim,):
            raise DimensionMismatchError("data dimension mismatch")
        self.step_groups = group_steps(self.stiffness)

    @property
    def dim(self) -> int:
        return self.mass.dim

    @property
    def N(self) -> int:
        return self.grid.N


def compute_alpha(
    mass: SpatialMatrix,
    stiffness: Sequence[SpatialMatrix],
    grid: TimeGrid,
    tau_ref: float,
    a_ref: SpatialMatrix,
) -> float:
    """Smallest alpha with (1/alpha) tau*A <= tau_n*A_n <= alpha * tau*A.

    When a_ref is a multiple of a group's base operator (see group_steps),
    that group's pencil extremes are scale ratios; any other group needs one
    dense generalized eigensolve against a_ref.
    """
    alpha = 1.0
    for base, steps, scales in group_steps(stiffness):
        ref_scale = a_ref.proportionality(base)
        if ref_scale is not None:
            lo = hi = scales / ref_scale
        else:
            w = eigh_blocks(base.tocsr(), a_ref.tocsr()).lam
            lo, hi = w.min() * scales, w.max() * scales
        taus = grid.steps[steps]
        lo, hi = lo * taus / tau_ref, hi * taus / tau_ref
        alpha = max(alpha, np.max(hi), np.max(1.0 / lo))
    return float(alpha)


def _sine_vector_1d(num_cells: int) -> np.ndarray:
    return np.sin(np.pi * interior_nodes_1d(num_cells))


def _sine_vector_2d(cells_per_side: int) -> np.ndarray:
    x, y = interior_nodes_2d(cells_per_side)
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def make_heat_problem(
    space: str,
    mesh: int,
    grid: TimeGrid,
    coeff: Callable[[float], float] | None = None,
    data: str = "sine",
    tau_ref: float | None = None,
    a_ref: SpatialMatrix | None = None,
    seed: int = 0,
) -> ProblemSpec:
    """Heat problem with optional time-dependent diffusion coefficient.

    data: "sine" (zero forcing, product-of-sines initial condition),
    "zero" (all-zero data), "manufactured" (decaying-sine exact-solution
    load with sine initial condition), or "random" (seeded random data).

    Default reference pair: tau_ref is the geometric mean of the step sizes
    and a_ref is the mid-interval operator A_{ceil(N/2)}.
    """
    if space == "1d":
        mass, a_base = assemble_mass_stiffness_1d(mesh)
        sine = _sine_vector_1d(mesh)
    elif space == "2d":
        mass, a_base = assemble_mass_stiffness_2d(mesh)
        sine = _sine_vector_2d(mesh)
    else:
        raise InputError(f"unknown space {space!r}")
    N, dim = grid.N, mass.dim
    if coeff is None:
        coeff = lambda t: 1.0  # noqa: E731
    c_vals = np.array([coeff(t) for t in grid.nodes[1:]], dtype=np.float64)
    if not np.all(np.isfinite(c_vals) & (c_vals > 0.0)):
        raise InputError("diffusion coefficient must be positive and finite")
    stiffness = [a_base if c == 1.0 else a_base.scaled(float(c)) for c in c_vals]

    if data == "sine":
        u_init = sine.copy()
        load = np.zeros((N, dim))
    elif data == "zero":
        u_init = np.zeros(dim)
        load = np.zeros((N, dim))
    elif data == "manufactured":
        # load of the exact solution w(t) * sine with w(t) = exp(-t)
        u_init = sine.copy()
        t = grid.nodes[1:]
        w = np.exp(-t)
        load = np.outer(-w, mass.dot(sine)) + (c_vals * w)[:, None] * a_base.dot(sine)
    elif data == "random":
        rng = np.random.default_rng(seed)
        u_init = rng.standard_normal(dim)
        load = rng.standard_normal((N, dim))
    else:
        raise InputError(f"unknown data descriptor {data!r}")

    if tau_ref is None:
        tau_ref = float(np.exp(np.mean(np.log(grid.steps))))
    if a_ref is None:
        a_ref = stiffness[math.ceil(N / 2) - 1]
    alpha = compute_alpha(mass, stiffness, grid, tau_ref, a_ref)
    return ProblemSpec(
        mass=mass,
        stiffness=stiffness,
        grid=grid,
        load=load,
        u_init=u_init,
        tau_ref=tau_ref,
        a_ref=a_ref,
        alpha=alpha,
        meta={"space": space, "mesh": mesh, "data": data, "seed": seed},
    )


# --- plain-text serialization -------------------------------------------------
#
# Format (see README): a header line "pintsolve-problem 1", then sections:
#   grid <N> <T>            followed by N+1 node lines
#   scalars <tau_ref> <alpha>
#   matrix <name> <dim> <nnz>  followed by nnz upper-triangle "i j value" lines
#   stepscales <N>          per-step multiple of A_ref (one/line)
#   vector <name> <len>     followed by len value lines
# Matrices written: M and A_ref, then "stepscales" when every A_n is a
# multiple of A_ref, else each A_n as "matrix A_<n> ...".
# Every number must be finite.


def _write_matrix(fh, name: str, m: SpatialMatrix) -> None:
    upper = sp.triu(m.tocsr(), format="coo")
    fh.write(f"matrix {name} {m.dim} {upper.nnz}\n")
    for i, j, v in zip(upper.row, upper.col, upper.data):
        fh.write(f"{i} {j} {float(v)!r}\n")


def _write_vector(fh, name: str, v: np.ndarray) -> None:
    fh.write(f"vector {name} {len(v)}\n")
    for x in v:
        fh.write(f"{float(x)!r}\n")


def save_problem(spec: ProblemSpec, path: str) -> None:
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


class _LineReader:
    """Sequential reader whose errors name the 1-based line number."""

    def __init__(self, lines: list[str]):
        self._lines = lines
        self.number = 0  # lines consumed so far

    def __iter__(self):
        while self.number < len(self._lines):
            yield self.next()

    def next(self) -> str:
        if self.number == len(self._lines):
            raise self.error("unexpected end of file", self.number + 1)
        self.number += 1
        return self._lines[self.number - 1]

    def section(self, keyword: str) -> list[str]:
        tok = self.next().split()
        if tok[:1] != [keyword]:
            raise self.error(f"expected section {keyword!r}")
        return tok

    def value(self, text: str) -> float:
        """A float from the current line, which must be finite."""
        x = float(text)
        if not math.isfinite(x):
            raise self.error(f"non-finite number {text!r}")
        return x

    def floats(self, count: int) -> np.ndarray:
        return np.array([self.value(self.next()) for _ in range(count)])

    def error(self, message: str, number: int | None = None) -> InputError:
        return InputError(f"line {self.number if number is None else number}: {message}")


def load_problem(path: str) -> ProblemSpec:
    with open(path) as fh:
        lines = _LineReader(fh.read().splitlines())
    try:
        return _parse_problem(lines)
    except (InputError, NotSpdError):
        raise
    except (ValueError, IndexError) as exc:  # bad number or token count
        raise lines.error(f"malformed line ({exc})") from exc


def _parse_problem(lines: _LineReader) -> ProblemSpec:
    if lines.next() != "pintsolve-problem 1":
        raise InputError("unrecognized problem file header")
    N = int(lines.section("grid")[1])
    nodes = lines.floats(N + 1)
    tok = lines.section("scalars")
    tau_ref, alpha = lines.value(tok[1]), lines.value(tok[2])
    matrices: dict[str, SpatialMatrix] = {}
    vectors: dict[str, np.ndarray] = {}
    scales: np.ndarray | None = None
    for line in lines:
        tok = line.split()
        if tok[0] == "matrix":
            name, dim, nnz = tok[1], int(tok[2]), int(tok[3])
            rows, cols, vals = [], [], []
            for _ in range(nnz):
                i, j, v = lines.next().split()
                rows.append(int(i))
                cols.append(int(j))
                vals.append(lines.value(v))
            matrices[name] = SpatialMatrix(dim, rows, cols, vals)
        elif tok[0] == "stepscales":
            scales = lines.floats(int(tok[1]))
        elif tok[0] == "vector":
            vectors[tok[1]] = lines.floats(int(tok[2]))
        else:
            raise lines.error(f"unrecognized section {tok[0]!r}")

    def need(table: dict, name: str):
        if name not in table:
            raise lines.error(f"file ends without section {name!r}", lines.number + 1)
        return table[name]

    a_ref = need(matrices, "A_ref")
    if scales is not None:
        stiffness = [a_ref.scaled(float(s)) for s in scales]
    else:
        stiffness = [need(matrices, f"A_{n + 1}") for n in range(N)]
    return ProblemSpec(
        mass=need(matrices, "M"),
        stiffness=stiffness,
        grid=TimeGrid(nodes),
        load=np.stack([need(vectors, f"f_{n + 1}") for n in range(N)]),
        u_init=need(vectors, "u_init"),
        tau_ref=tau_ref,
        a_ref=a_ref,
        alpha=alpha,
    )
