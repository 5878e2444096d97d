"""Tests of the benchmark itself, on tiny copies of its workloads.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pintsolve as ps
from conftest import BENCH
from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload, traced_rep
from tracer import ENTRY_POINTS, Tracer
from workloads import WORKLOADS, make_inputs, run_rep, tiny

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = [tiny(w) for w in WORKLOADS.values()]
IDS = list(WORKLOADS)


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in DECLARED["workloads"]] == IDS


@pytest.mark.parametrize("w", TINY, ids=IDS)
def test_untraced_run_reports_every_end_to_end_metric(w):
    result = run_workload(w, seed=3, seconds=0.0, trace=False)
    assert result.correct and result.attempted == 1
    assert set(result.metrics) == set(END_TO_END_UNITS)


@pytest.mark.parametrize("w", TINY, ids=IDS)
def test_traced_run_reports_every_per_layer_metric(w):
    result = run_workload(w, seed=3, seconds=0.0, trace=True)
    assert result.correct and result.attempted == 2
    assert set(result.metrics) == set(PER_LAYER_UNITS)
    assert result.metrics["parallel.busy_over_wall"] <= w.threads
    assert result.metrics["trace.solve_coverage"] <= 1.0


def test_failed_correctness_gate_is_counted():
    w = dataclasses.replace(TINY[0], rel_error_bound=0.0)
    result = run_workload(w, seed=3, seconds=0.0, trace=False)
    assert not result.correct
    assert result.attempted == 1 and len(result.failures) == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    inner = tr.wrap("inner", lambda: clock.advance(5.0))

    def middle_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(2.0)

    middle = tr.wrap("middle", middle_body)

    def outer_body():
        clock.advance(0.5)
        middle()
        inner()

    tr.wrap("outer", outer_body)()
    layers = tr.layers()
    assert layers["inner"].calls == 3 and layers["inner"].self_s == 15.0
    assert layers["middle"].self_s == 3.0 and layers["middle"].total_s == 13.0
    assert layers["outer"].self_s == 0.5 and layers["outer"].total_s == 18.5
    assert tr.main_self_s() == 18.5


@pytest.mark.parametrize("w", TINY, ids=IDS)
def test_traced_solve_is_bit_identical(w):
    inputs = make_inputs(w, seed=5)
    ps.set_num_threads(w.threads)
    try:
        plain = run_rep(w, inputs)
        traced, layer = traced_rep(w, inputs)
    finally:
        ps.set_num_threads(1)
    assert np.array_equal(plain.u, traced.u)
    assert plain.iterations == traced.iterations
    assert layer["solvers.blockdiag_calls"] > 0


def _bindings():
    found = {}
    for owner, name, _ in ENTRY_POINTS:
        owners = [owner] if isinstance(owner, type) else [
            m for n, m in sys.modules.items() if n.startswith("pintsolve") and m]
        for o in owners:
            if name in o.__dict__:
                found[(id(o), name)] = o.__dict__[name]
    return found


def test_remove_restores_the_original_functions():
    before = _bindings()
    tr = Tracer()
    with tr:
        during = _bindings()
        for owner, name, _ in ENTRY_POINTS:
            assert owner.__dict__[name] is not before[(id(owner), name)]
        assert ps.make_heat_problem is not before[(id(ps), "make_heat_problem")]
    after = _bindings()
    assert after.keys() == before.keys() == during.keys()
    assert all(after[k] is before[k] for k in before)
    assert ps.parallel.block_map is before[(id(ps.parallel), "block_map")]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat2d-mg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pair_verdicts():
    from pairs import verdict

    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [p - 1.0 for p in parent]
    assert verdict(parent, faster, "lower", 0.1) == (10, "gain")
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.1) == (0, "REGRESSION")
    assert verdict(parent, parent, "lower", 0.1) == (0, "same")
    assert verdict(parent, faster, "higher", 0.1) == (0, "same")
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, noisy, "lower", 0.1)[1] == "unresolved"
