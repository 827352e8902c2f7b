"""Run a set of benchmark runs, one process per run, and summarise them.

    python3 bench/sets.py --tag A --seeds 101-110               # 10 runs per workload
    python3 bench/sets.py --tag T --seeds 1-3 --trace 1         # traced runs

Runs each workload once per seed (workloads in turn, seeds inner), keeps
every run's result in bench/results/set-<tag>.json, and prints, per
workload and end-to-end metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
distance between the quartiles as a share of the median. These are the
figures bench/README.md records. Run nothing else on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(runs: list[dict]) -> list[tuple[str, float, float, float, float]]:
    rows = []
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows.append((metric, median, q1, q3, (q3 - q1) / median if median else 0.0))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    out_path = os.path.join(BENCH_DIR, "results", f"set-{args.tag}.json")
    results: dict[str, list[dict]] = {}
    for workload in ("sweep", "verify", "session"):
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(workload, []).append(json.loads(proc.stdout.splitlines()[-1]))
            os.makedirs(os.path.dirname(out_path), exist_ok=True)
            with open(out_path, "w") as fh:
                json.dump(results, fh, indent=1)
    for workload, runs in results.items():
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share: {failed}")
        print("| metric | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|")
        for metric, median, q1, q3, spread in summary(runs):
            print(f"| `{metric}` | {median:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
