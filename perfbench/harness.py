"""Closed-loop measurement of one workload: repeated setup + solve + sweep.

``run_workload`` repeats the workload's repetition until the next one would
end after ``seconds``, checks every solve against the sequential sweep, and
returns the end-to-end metrics (untraced) or the per-layer metrics (traced
run: untraced and traced repetitions alternate, so the tracing overhead is
measured in the same process).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import pintsolve as ps

from tracer import LayerTotals, Tracer
from workloads import Rep, Workload, make_inputs, run_rep, tiny

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "iter_s_p90": "s",
    "iterations": "count",
    "rel_error_digits": "digits",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "problems.assemble_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_s": "s",
    "operators.K_calls": "count",
    "operators.K_s": "s",
    "operators.Kt_calls": "count",
    "operators.Kt_s": "s",
    "operators.Abd_calls": "count",
    "operators.Abd_s": "s",
    "operators.saddle_calls": "count",
    "operators.bytes_computed": "B",
    "dst.calls": "count",
    "dst.s": "s",
    "dst.bytes_computed": "B",
    "spatial.apply_calls": "count",
    "spatial.apply_s": "s",
    "spatial.setup_s": "s",
    "schur.apply_calls": "count",
    "schur.apply_self_s": "s",
    "schur.build_s": "s",
    "schur.apply_per_iter": "1",
    "solvers.blockdiag_calls": "count",
    "solvers.blockdiag_self_s": "s",
    "solvers.blockdiag_build_s": "s",
    "solvers.iterate_self_s": "s",
    "parallel.regions": "count",
    "parallel.tasks": "count",
    "parallel.region_s": "s",
    "parallel.busy_s": "s",
    "parallel.busy_over_wall": "1",
    "trace.overhead": "1",
    "trace.solve_coverage": "1",
}


@dataclass
class Result:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    # printed next to the metrics only: sample counts and the figures the
    # result line does not carry (see perfbench/README.md)
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures and self.attempted > 0


def _median(values) -> float:
    return float(statistics.median(values))


def _layer_metrics(tracer: Tracer, iterations: int, coverage: float) -> dict[str, float]:
    layers = tracer.layers()

    def get(key: str) -> LayerTotals:
        return layers.get(key, LayerTotals())

    tasks, busy_s = tracer.tasks()
    region = get("parallel.region")
    op_keys = ("operators.K", "operators.Kt", "operators.Abd")
    return {
        "problems.assemble_s": get("problems.assemble").self_s,
        "linalg.factor_calls": get("linalg.factor").calls,
        "linalg.factor_s": get("linalg.factor").self_s,
        "linalg.solve_calls": get("linalg.solve").calls,
        "linalg.solve_s": get("linalg.solve").self_s,
        "operators.K_calls": get("operators.K").calls,
        "operators.K_s": get("operators.K").self_s,
        "operators.Kt_calls": get("operators.Kt").calls,
        "operators.Kt_s": get("operators.Kt").self_s,
        "operators.Abd_calls": get("operators.Abd").calls,
        "operators.Abd_s": get("operators.Abd").self_s,
        "operators.saddle_calls": get("operators.saddle").calls,
        "operators.bytes_computed": sum(get(k).bytes for k in op_keys),
        "dst.calls": get("dst").calls,
        "dst.s": get("dst").self_s,
        "dst.bytes_computed": get("dst").bytes,
        "spatial.apply_calls": get("spatial.apply").calls,
        "spatial.apply_s": get("spatial.apply").self_s,
        "spatial.setup_s": get("spatial.setup").self_s,
        "schur.apply_calls": get("schur.apply").calls,
        "schur.apply_self_s": get("schur.apply").self_s,
        "schur.build_s": get("schur.build").self_s,
        "schur.apply_per_iter": get("schur.apply").calls / iterations,
        "solvers.blockdiag_calls": get("solvers.blockdiag").calls,
        "solvers.blockdiag_self_s": get("solvers.blockdiag").self_s,
        "solvers.blockdiag_build_s": get("solvers.blockdiag_build").self_s,
        "solvers.iterate_self_s": get("solvers.iterate").self_s,
        "parallel.regions": region.calls,
        "parallel.tasks": tasks,
        "parallel.region_s": region.total_s,
        "parallel.busy_s": busy_s,
        "parallel.busy_over_wall": busy_s / region.total_s,
        "trace.solve_coverage": coverage,
        # only printed: apply_saddle runs on the MINRES workload alone
        "operators.saddle_s": get("operators.saddle").self_s,
    }


def traced_rep(w: Workload, inputs) -> tuple[Rep, dict[str, float]]:
    """One repetition with the wrappers installed over setup and solve only."""
    tracer = Tracer()
    marks = {}

    def on_phase(name: str) -> None:
        if name == "setup":
            tracer.install()
        marks[name] = tracer.main_self_s()
        if name == "end":
            tracer.remove()

    try:
        rep = run_rep(w, inputs, on_phase)
    finally:
        tracer.remove()
    coverage = (marks["end"] - marks["solve"]) / rep.solve_s
    return rep, _layer_metrics(tracer, rep.iterations, coverage)


def _counts(layer: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in layer.items()
            if PER_LAYER_UNITS.get(k) in ("count", "B")}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    ps.set_num_threads(w.threads)
    try:
        # fill lazy caches and start the pool on a tiny copy of the workload
        run_rep(tiny(w), make_inputs(tiny(w), seed))
        _measure(w, make_inputs(w, seed), seconds, trace, result)
    finally:
        ps.set_num_threads(1)
    return result


def _measure(w: Workload, inputs, seconds: float, trace: bool, result: Result) -> None:
    untraced: list[Rep] = []
    traced: list[tuple[Rep, dict[str, float]]] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced repetitions
        with_trace = trace and len(traced) < len(untraced)
        r0 = time.perf_counter()
        result.attempted += 1
        try:
            if with_trace:
                rep, layer = traced_rep(w, inputs)
            else:
                rep = run_rep(w, inputs)
        except Exception as exc:  # any raise is a failed solve; stop the run
            result.failures.append(f"{type(exc).__name__}: {exc}")
            return
        durations[with_trace].append(time.perf_counter() - r0)
        reason = rep.failure(w)
        if with_trace:
            if not np.array_equal(rep.u, untraced[0].u):
                reason = reason or "traced solve differs from the untraced one"
            if traced and _counts(layer) != _counts(traced[0][1]):
                reason = reason or "per-layer counts differ between traced repetitions"
            traced.append((rep, layer))
        else:
            untraced.append(rep)
        if reason:
            result.failures.append(reason)
            return
        if trace and not traced:
            continue  # a traced run measures at least one traced repetition
        upcoming = durations[trace and len(traced) < len(untraced)] or durations[False]
        if time.perf_counter() - start + _median(upcoming) > seconds:
            break

    if trace:
        _report_layers(untraced, traced, result)
    else:
        _report_end_to_end(untraced, result)


def _report_end_to_end(reps: list[Rep], result: Result) -> None:
    iter_s = [s for r in reps for s in r.iter_s]
    sweeps = [s for r in reps for s in r.sequential_s]
    rel_error = _median(r.rel_error for r in reps)
    result.metrics = {
        "setup_s": _median(r.setup_s for r in reps),
        "solve_s": _median(r.solve_s for r in reps),
        "total_s": _median(r.total_s for r in reps),
        "iter_s_p90": float(np.percentile(iter_s, 90)),
        "iterations": statistics.median_low(r.iterations for r in reps),
        # -log10 of rel_error: the seed moves rel_error itself by tens of
        # per cent between runs, its digit count by a few per cent
        "rel_error_digits": -np.log10(rel_error),
        # later repetitions only add allocator fragmentation
        "peak_rss_mb": reps[0].peak_rss_mb,
    }
    result.notes = {
        "iter_s": f"{_median(iter_s):.6g} s",
        "sequential_s": f"{_median(sweeps):.6g} s",
        "rel_error": f"{rel_error:.3e} 1",
        "total_s per repetition": [round(r.total_s, 3) for r in reps],
        "iter_s samples": len(iter_s),
        "sequential_s samples": len(sweeps),
    }


def _report_layers(untraced: list[Rep], traced, result: Result) -> None:
    layers = [layer for _, layer in traced]
    # counts repeat exactly (checked while measuring); times are medians
    metrics = {k: v if isinstance(v, int) else _median(layer[k] for layer in layers)
               for k, v in layers[0].items()}
    metrics["trace.overhead"] = (
        _median(r.total_s for r, _ in traced) / _median(r.total_s for r in untraced)
    )
    result.notes = {
        "untraced repetitions": len(untraced),
        "traced repetitions": len(traced),
        "operators.saddle_s": f"{metrics.pop('operators.saddle_s'):.6g} s",
    }
    result.metrics = metrics
