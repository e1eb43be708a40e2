"""Steadiness check: repeat each workload over several seeds and print, for
every end-to-end metric, the spread of its values against its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when the spread is within a third of its bound.
``setup_s`` only has to stay within its whole bound: it times a handful of
fresh interpreters, so its spread is wide, and what a change must not do is
move its median.  The share of failed operations must be the same in every
run, and every run must end with a correct result.  Exits 1 when anything
is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            except ValueError:
                result = None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result and result['correct']}")
                print(proc.stderr[-2000:])
                steady = False
                continue
            shares.add((result["failed"] / result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(values['setup_s'])} of {args.runs} runs, failed share {sorted(shares)}")
        if len(shares) != 1:
            steady = False
        for name, vals in values.items():
            if len(vals) < 2:
                print(f"  {name:20s} too few results")
                steady = False
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = spread <= bounds[name] / (1 if name == "setup_s" else 3)
            steady = steady and ok
            print(f"  {name:20s} median {median:12.4f}  spread {spread:7.2%}  bound {bounds[name]:5.0%}"
                  f"  {'ok' if ok else 'TOO WIDE'}  [{' '.join(f'{v:.4g}' for v in vals)}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
