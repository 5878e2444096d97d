"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload heat2d-mg --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every solve passed its
correctness check.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the workload's only threads are its own pool: BLAS and OpenMP stay serial
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "commit": _git_commit(),
    }


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_ENV:  # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "pintsolve" / "__init__.py").is_file():
        print(f"error: no pintsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import pintsolve

    if Path(pintsolve.__file__).resolve().parent != SRC / "pintsolve":
        print(f"error: imported pintsolve from {pintsolve.__file__}", file=sys.stderr)
        return 2
    from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    declared = _declared_metrics(trace)
    if declared != units:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed, w.threads)), flush=True)
    result = run_workload(w, args.seed, args.seconds, trace)
    for name, value in result.metrics.items():
        print(f"{w.name}  {name:<28} {value:.6g} {units[name]}")
    for name, value in result.notes.items():
        print(f"{w.name}  {name:<28} {value}")
    # not a metric of the result line, where a metric must never be 0
    print(f"{w.name}  {'failed_ratio':<28} {len(result.failures) / result.attempted:g} 1")
    for reason in result.failures:
        print(f"{w.name}  FAILED: {reason}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
