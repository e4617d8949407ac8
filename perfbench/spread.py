#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload catalog_wide --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --record

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, beside the metric's bound in ``BENCHMARK.json``. ``--record``
stores these figures in ``baseline.json`` under the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
BASELINE = HERE / "baseline.json"
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for metric in BENCH["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median,
                               "bound": metric["bound"], "unit": metric["unit"]}
    return out


def machine() -> str:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    meminfo = Path("/proc/meminfo")
    mem = ""
    if meminfo.exists():
        kib = int(meminfo.read_text().split()[1])
        mem = f", {kib / 2**20:.1f} GiB RAM"
    return (f"{model or platform.processor()}, {os.cpu_count()} CPUs{mem}, "
            f"Python {platform.python_version()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    baseline = json.loads(BASELINE.read_text("utf-8")) if BASELINE.exists() else {}
    worst = 0.0
    for name in names:
        runs = [run_once(name, seed, args.seconds) for seed in args.seeds]
        summary = summarise(runs)
        print(f"{name}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{args.seconds} s each")
        for metric, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- over bound/3"
            print(f"  {metric:20s} median {s['median']:12.5g} {s['unit']:8s} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
            print("    runs: " + " ".join(f"{r[metric]:.5g}" for r in runs))
            if metric != "setup_s":
                worst = max(worst, s["spread"] / s["bound"])
        if args.record:
            baseline.setdefault("workloads", {})[name] = {
                "seeds": args.seeds, "run_seconds": args.seconds,
                "metrics": summary}
    if args.record:
        baseline["machine"] = machine()
        baseline["threads"] = "one process per run, one BLAS thread"
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", "utf-8")
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
