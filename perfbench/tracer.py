"""Per-layer spans recorded by wrapping pintsolve's public entry points.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS`` with
a wrapper that records a span: its call count and its self time, which is the
span's duration minus the time covered by its child spans on the same thread.
``Tracer.remove()`` puts the original objects back.  Every ``block_map`` task
is wrapped as well, to measure how long pool threads were busy.

Each thread keeps its own span stack and totals, so spans never cross
threads.  Spans on pool worker threads run inside a ``block_map`` region of
the main thread; the main thread's self times therefore partition its wall
time, and the region's own self time covers the work done in the pool.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import pintsolve as ps

# (owner, attribute, layer key); a module-level function is replaced in every
# pintsolve module that binds it, so internal callers see the wrapper too
ENTRY_POINTS = [
    (ps.problems, "make_heat_problem", "problems.assemble"),
    (ps.SpdFactor, "__init__", "linalg.factor"),
    (ps.SpdFactor, "solve", "linalg.solve"),
    (ps.TimeGlobalSystem, "apply_K", "operators.K"),
    (ps.TimeGlobalSystem, "apply_Kt", "operators.Kt"),
    (ps.TimeGlobalSystem, "apply_Abd", "operators.Abd"),
    (ps.TimeGlobalSystem, "apply_saddle", "operators.saddle"),
    (ps.DstPlan, "forward", "dst"),
    (ps.DstPlan, "inverse", "dst"),
    (ps.DstPlan, "forward_transpose", "dst"),
    (ps.DstPlan, "inverse_transpose", "dst"),
    (ps.MgVCycleSolver, "apply", "spatial.apply"),
    (ps.DirectSolver, "apply", "spatial.apply"),
    (ps.JacobiSolver, "apply", "spatial.apply"),
    (ps.spatial, "make_solver", "spatial.setup"),
    (ps.spatial, "build_mg_hierarchy", "spatial.setup"),
    (ps.SchurPreconditioner, "apply_inverse", "schur.apply"),
    (ps.schur, "build_schur_preconditioner", "schur.build"),
    (ps.BlockDiagSolver, "__init__", "solvers.blockdiag_build"),
    (ps.BlockDiagSolver, "apply_inverse", "solvers.blockdiag"),
    (ps.solvers, "uzawa_solve", "solvers.iterate"),
    (ps.solvers, "minres_solve", "solvers.iterate"),
    (ps.parallel, "block_map", "parallel.region"),
]

# layers whose arguments and results are block vectors, so their bytes can be
# computed from the array shapes (apply_saddle is left out: it is made of
# the three below and would count their bytes twice)
COUNTS_BYTES = {"operators.K", "operators.Kt", "operators.Abd", "dst"}


def _nbytes(args, result) -> int:
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    arrays += result if isinstance(result, tuple) else [result]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # span durations, children included
    bytes: int = 0


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[float] = []  # child time covered, one slot per open span
        self.layers: dict[str, LayerTotals] = {}
        self.tasks = 0
        self.busy_s = 0.0

    def layer(self, key: str) -> LayerTotals:
        totals = self.layers.get(key)
        if totals is None:
            totals = self.layers[key] = LayerTotals()
        return totals


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident() == self._main)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, key: str, fn):
        """Return fn wrapped in a span recorded under the layer key."""
        clock = self.clock
        count_bytes = key in COUNTS_BYTES

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                totals = state.layer(key)
                totals.calls += 1
                totals.self_s += duration - covered
                totals.total_s += duration
            if count_bytes:
                totals.bytes += _nbytes(args, result)
            return result

        return span

    def _wrap_block_map(self, block_map):
        region = self.wrap("parallel.region", block_map)
        clock = self.clock

        def traced_block_map(fn, count):
            def task(k):
                start = clock()
                try:
                    fn(k)
                finally:
                    state = self._state()
                    state.tasks += 1
                    state.busy_s += clock() - start

            return region(task, count)

        return functools.wraps(block_map)(traced_block_map)

    # --- installing and removing the wrappers ----------------------------------

    def _replace(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pintsolve" or n.startswith("pintsolve."))]
        for owner, name, key in ENTRY_POINTS:
            original = owner.__dict__[name]
            if name == "block_map":
                wrapper = self._wrap_block_map(original)
            else:
                wrapper = self.wrap(key, original)
            if isinstance(owner, type):
                self._replace(owner, name, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._replace(module, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # --- reading the totals ----------------------------------------------------

    def layers(self) -> dict[str, LayerTotals]:
        """Totals per layer key, summed over all threads."""
        merged: dict[str, LayerTotals] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, t in state.layers.items():
                m = merged.setdefault(key, LayerTotals())
                m.calls += t.calls
                m.self_s += t.self_s
                m.total_s += t.total_s
                m.bytes += t.bytes
        return merged

    def main_self_s(self) -> float:
        """Self time of all spans on the main thread: the wall time they cover."""
        with self._lock:
            states = [s for s in self._states if s.is_main]
        return sum(t.self_s for s in states for t in s.layers.values())

    def tasks(self) -> tuple[int, float]:
        """Number of block_map tasks run and their summed duration."""
        with self._lock:
            states = list(self._states)
        return sum(s.tasks for s in states), sum(s.busy_s for s in states)
