"""Compare a change with its parent in alternating pairs of benchmark runs.

    python3 perfbench/pairs.py --parent ../parent --change . \\
        --workload heat2d-mg --pairs 10 --seconds 40

Each checkout is run with its own ``perfbench/run.py`` and ``src``; the two
must carry identical benchmark files.  Pair i uses seed ``--seed + i`` on
both sides and alternates which side runs first, so slow drifts of the
machine hit both sides alike.  For every metric the script prints each
side's median and quartiles, the number of pairs the change won (ties count
for neither) and a verdict:

- ``gain`` when the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
- ``REGRESSION`` when the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved`` when neither holds but the parent's spread exceeds the bound;
- ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float | None):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    if wins >= 0.9 * len(parent) and abs(med_c - med_p) > spread:
        return wins, "gain"
    if bound is not None and sign * (med_c - med_p) < -bound * abs(med_p):
        return wins, "REGRESSION"
    if bound is not None and spread > bound * abs(med_p):
        return wins, "unresolved"
    return wins, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least two pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if spec != json.loads((args.parent / "BENCHMARK.json").read_text()):
        parser.error("the two checkouts declare different benchmarks")
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            results[side].append(run(checkout, args.workload, args.seed + i, seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s per run")
    for name, m in declared.items():
        p = [r[name] for r in results["parent"]]
        c = [r[name] for r in results["change"]]
        wins, outcome = verdict(p, c, m["better"], m.get("bound"))
        qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
        print(f"  {name:<26} parent {qp[1]:.6g} [{qp[0]:.6g}, {qp[2]:.6g}]  "
              f"change {qc[1]:.6g} [{qc[0]:.6g}, {qc[2]:.6g}] {m['unit']}  "
              f"wins {wins}/{args.pairs}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
