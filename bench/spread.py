"""Run workloads on several seeds and print each metric's median and
quartile spread (Q3 - Q1, as a share of the median), by name and unit.

    python3 bench/spread.py                                   # every workload, seed 1
    python3 bench/spread.py --workload train-paper --seeds 1-10

Runs are untraced, sequential, one process each, from the repository root,
each as long as BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workload, seeds):
    results = []
    for seed in seeds:
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{workload}: all correct {all(r['correct'] for r in results)}, failed shares {shares}")
    for m, first in results[0]["metrics"].items():
        vals = [r["metrics"][m]["value"] for r in results]
        med = statistics.median(vals)
        line = f"  {m} {med:.6g} {first['unit']}"
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"  spread {(q3 - q1) / med if med else float('nan'):.4f}"
            line += f"  min {min(vals):.6g}  max {max(vals):.6g}"
        print(line, flush=True)
    return results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", help="a workload name or 'all'")
    p.add_argument("--seeds", default="1", help="one seed or a range such as 1-10")
    args = p.parse_args(argv)
    names = sorted(run.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        spread(name, _seeds(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
