"""Benchmark of the chromagame package: three workloads, each in its own
process, with end-to-end metrics, output checks and an optional traced run.

Run from the root of a checkout:

    python3 bench/run.py                          # all workloads, summary table
    python3 bench/run.py --quick                  # small sizes, every check, seconds
    python3 bench/run.py --workload sweep --seed 3 --trace 0

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics. A run measures for RUN_SECONDS,
the `run_seconds` of BENCHMARK.json; `--seconds` is accepted because the
runner of BENCHMARK.json passes it. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from prepare import ORACLE, SRC, import_oracle, prepare

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOAD_NAMES = ("sweep", "verify", "session")
RUN_SECONDS = 30
# setup_s: fresh-interpreter set-ups, before and after the timed part, each
# batch until it has taken SETUP_BATCH_SECONDS and has SETUP_BATCH_MIN set-ups.
SETUP_BATCH_SECONDS = 2.5
SETUP_BATCH_MIN = 3


def time_setups(name: str, quick: bool, workdir: str) -> list[float]:
    """Times set-ups of `name`, each in a fresh interpreter (`prepare.py`)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "prepare.py"), name, workdir]
    cmd += ["--quick"] if quick else []
    at_least, seconds = (1, 0.0) if quick else (SETUP_BATCH_MIN, SETUP_BATCH_SECONDS)
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < at_least or time.perf_counter() - start < seconds:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_rounds(ops, seconds, rng, after_round=None):
    """Run whole rounds of every op until `seconds` have passed, each round
    in a fresh order drawn from `rng`.

    The seed picks the orders, never the ops. Round 0's outputs are kept for
    the checks, by op index; every later round must reproduce them exactly.
    """
    clock = time.perf_counter
    durations: list[float] = []
    first: list = [None] * len(ops)
    failed = mismatched = rounds = 0
    errors: dict[str, str] = {}
    round_ends: list[float] = []
    start = clock()
    deadline = start + seconds
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            label, fn = ops[i]
            t0 = clock()
            try:
                out = fn()
            except Exception as exc:  # an op that raises is counted as failed
                failed += 1
                errors.setdefault(label, f"{type(exc).__name__}: {exc}")
                continue
            durations.append(clock() - t0)
            if rounds == 0:
                first[i] = out
            elif out != first[i]:
                mismatched += 1
        rounds += 1
        round_ends.append(clock() - start)
        if after_round is not None:
            after_round()
        if clock() >= deadline:
            break
    return SimpleNamespace(
        wall=clock() - start,
        round_ends=round_ends,
        durations=durations,
        outputs=first,
        rounds=rounds,
        attempted=rounds * len(ops),
        failed=failed,
        mismatched=mismatched,
        errors=errors,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup_times = [] if trace else time_setups(name, quick, workdir)
    pkg, workload = prepare(name, quick, workdir)
    ops = workload.ops
    rng = random.Random(seed)
    gc.collect()
    try:
        if not trace:
            run = run_rounds(ops, seconds, rng)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            layers = None
        else:
            trace_path = os.path.join(RESULTS, f"trace-{name}-seed{seed}.json")
            run, layers = traced(pkg, ops, seconds, rng, trace_path)
        problems = [f"op failed: {label}: {err}" for label, err in run.errors.items()]
        if run.mismatched:
            problems.append(f"{run.mismatched} outputs differ from the first round's")
        if not run.failed:
            problems += workload.check(run.outputs, import_oracle())
    finally:
        workload.cleanup()
    if not trace:
        setup_times += time_setups(name, quick, workdir)
    os.rmdir(workdir)

    if trace:
        metrics = layers
    else:
        q = statistics.quantiles(run.durations, n=10)
        metrics = {
            "items_per_s": {"value": (run.attempted - run.failed) / run.wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(run.durations) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": q[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for problem in problems[:20]:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "rounds": run.rounds,
        "ops_per_round": len(ops),
        "wall_s": run.wall,
        "round_ends_s": run.round_ends,
        "setup_s_each": setup_times,
        "inputs": workload.info,
        "problems": problems,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        **result,
    }
    suffix = "-quick" if quick else ""
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}{suffix}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    return result


def traced(pkg, ops, seconds, rng, trace_path):
    """First half untraced, second half traced; per-layer figures are per
    traced round, and each traced round must repeat the first one's counts."""
    from layers import Tracer

    plain = run_rounds(ops, seconds / 2, rng)
    tracer = Tracer(pkg)
    per_round = []

    def snapshot():
        per_round.append(tracer.calls())

    tracer.install()
    try:
        run = run_rounds(ops, seconds / 2, rng, after_round=snapshot)
    finally:
        tracer.uninstall()
    deltas = [
        {k: v - (per_round[i - 1][k] if i else 0) for k, v in counts.items()}
        for i, counts in enumerate(per_round)
    ]
    if any(d != deltas[0] for d in deltas):
        run.errors["trace"] = "traced rounds did different amounts of work"
    run.failed += plain.failed
    run.mismatched += plain.mismatched + sum(a != b for a, b in zip(plain.outputs, run.outputs))
    run.errors.update(plain.errors)
    layers = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.layer_metrics(run.rounds).items()
    }
    layers["trace.overhead"] = {
        "value": (run.wall / run.rounds) / (plain.wall / plain.rounds),
        "unit": "x",
    }
    run.attempted += plain.attempted
    with open(trace_path, "w") as fh:
        json.dump({"per_round_counts": deltas[0], "spans": tracer.stats}, fh, indent=1)
    return run, layers


def run_all(args) -> int:
    """Each workload in its own process; print a table and the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            r = json.loads(lines[-1])
        except (IndexError, ValueError):
            r = None
        if not isinstance(r, dict):
            print(f"{name}: no result, exit code {proc.returncode}")
            results[name] = None
            continue
        results[name] = r
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
              f" (exit code {proc.returncode})")
        for metric, m in r["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one round")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0  # one round
    if not os.path.isfile(os.path.join(SRC, "chromagame", "__init__.py")):
        print(f"error: no chromagame package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(ORACLE):
        print(f"error: no vertex oracle at {ORACLE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
