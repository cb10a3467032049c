"""Run the workloads and print their end-to-end metrics by name, with units.

Run from the root of the checkout:

    python3 perfbench/report.py                      # one run of every workload
    python3 perfbench/report.py --runs 10 --seed 11  # seeds 11..20 per workload

Each run is its own process (``run.py --trace 0``), so ``peak_rss_mb`` is
that of one workload alone.  Runs follow one another; none overlap.  For
each workload the report gives ``failed_ratio`` over every command the runs
attempted and, per metric, the median over runs, the quartiles, and their
distance as a share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"report: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description="run every workload and summarize the end-to-end metrics")
    p.add_argument("--runs", type=int, default=1, help="runs per workload, each with its own seed")
    p.add_argument("--seed", type=int, default=1, help="seed of the first run")
    args = p.parse_args()

    root = Path.cwd().resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(args.seed, args.seed + args.runs):
            results.append(run_once(root, workload, seed, bench["run_seconds"]))
            values = {k: round(m["value"], 4) for k, m in results[-1]["metrics"].items()}
            print(f"  {workload} seed {seed}: {values}", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, failed_ratio {failed / attempted:.4f} ratio "
              f"({failed} of {attempted} commands)")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {m['name']:<12} median {med:.4f} {m['unit']}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  q1 {q1:.4f}  q3 {q3:.4f}  spread {(q3 - q1) / med:.3f} (bound {m['bound']})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
