#!/usr/bin/env python3
"""Benchmark of mrgsrec training and evaluation on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_wide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

A run sets up the workload (see ``workload.py``), checks the program's
outputs, trains full 256-user batches after one untimed warm-up step, then
runs full-catalog validation evaluations; the numbers of steps and passes
are planned from ``--seconds`` and the workload's nominal op times.
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
their times are scaled to the reference host speed (``HostSpeed`` in
``workload.py``) because the shared host drifts, and the wall-clock values
and slowdown factors are printed beside them. ``--trace 1`` is a separate
run that reports the per-layer metrics, as wall times (see ``traced.py``). Each run uses one process and one
BLAS thread. Human-readable lines come first; the last line of stdout is
one JSON object. The exit code is non-zero when any output check fails.

An op is a train step, an eval pass, or one of the standalone output
checks (reference-instance losses, sort-oracle ranks, and in the traced run
the replay-coverage band). ``failed_op_share`` is failed over attempted
ops; it is printed but kept out of the JSON metrics because it is 0 on a
healthy run, and the JSON carries ``attempted`` and ``failed`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TRAIN_SHARE = 0.5   # share of --seconds planned for timed train steps
MIN_STEPS = 3       # timed train steps even when one step outlasts the budget
MIN_EVALS = 3       # the first pass also pays allocator warm-up; the median drops it


class Ops:
    """Counts attempted and failed ops; a failing op is reported, not fatal."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed op is counted and its traceback shown
            self.failures.append(label)
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def run_end_to_end(workload, seed: int, seconds: float, ops: Ops
                   ) -> tuple[dict, dict]:
    """End-to-end metrics for one workload; returns (values, notes)."""
    from mrgsrec.evaluation import evaluate
    from mrgsrec.training import train_step
    from workload import (BatchStream, HostSpeed, check_losses,
                          check_oracle_ranks, check_reference_instance,
                          peak_rss_mb, repeated_set_up, train_rng)

    hyper = workload.hyper
    speed = HostSpeed()
    setup, setup_s, n_setups = repeated_set_up(workload, seed, speed)
    ops.run("reference instance", check_reference_instance)
    rng = train_rng(hyper)
    batches = BatchStream(setup.examples, hyper.batch_size, rng)

    def step(chunk):
        check_losses(train_step(chunk, setup.params, setup.adjacency, hyper,
                                setup.optimizer, rng))

    def eval_pass():
        evaluate(setup.params, setup.dataset, "validation", hyper,
                 adjacency=setup.adjacency,
                 fingerprint=workload.fingerprint).validate()

    def timed(label, fn, *args) -> float:
        start = time.perf_counter()
        ops.run(label, fn, *args)
        wall = time.perf_counter() - start
        speed.sample(force=False)
        return wall

    # Fixed op counts, planned from --seconds and the workload's nominal op
    # times, so every run of a workload does the same work in the same order.
    n_steps = max(MIN_STEPS, round(TRAIN_SHARE * seconds / workload.nominal["step_s"]))
    n_evals = max(MIN_EVALS, round((1 - TRAIN_SHARE) * seconds
                                   / workload.nominal["eval_s"]))
    ops.run("warm-up step", step, batches.next())
    train_from = speed.begin()
    step_s = [timed(f"train step {i}", step, batches.next()) for i in range(n_steps)]
    eval_from = speed.begin()
    eval_s = [timed(f"eval pass {i}", eval_pass) for i in range(n_evals)]
    speed.sample()
    ops.run("oracle ranks", check_oracle_ranks, setup, hyper)

    n_users = setup.dataset.n_users
    wall = {
        "train_users_per_s": hyper.batch_size * len(step_s) / sum(step_s),
        "train_step_s_p50": statistics.median(step_s),
        "eval_users_per_s": n_users / statistics.median(eval_s),
        "setup_s": setup_s["setup_s"],
    }
    slow = {"setup_s": speed.slowdown(0, train_from),
            "train_users_per_s": speed.slowdown(train_from, eval_from),
            "train_step_s_p50": speed.slowdown(train_from, eval_from),
            "eval_users_per_s": speed.slowdown(eval_from)}
    values = {
        "train_users_per_s": wall["train_users_per_s"] * slow["train_users_per_s"],
        "train_step_s_p50": wall["train_step_s_p50"] / slow["train_step_s_p50"],
        "eval_users_per_s": wall["eval_users_per_s"] * slow["eval_users_per_s"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": wall["setup_s"] / slow["setup_s"],
    }
    notes = {
        "train_users_per_s": f"{n_steps} timed steps of {hyper.batch_size} "
                             "users after 1 warm-up",
        "train_step_s_p50": f"median, n={n_steps}",
        "eval_users_per_s": f"{n_users} users / median of {n_evals} passes",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {n_setups} set-ups",
    }
    for key, value in wall.items():
        notes[key] += f"; wall {value:.6g} at host slowdown {slow[key]:.3f}"
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Thread caps only take effect when set before numpy first loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mrgsrec
    except ImportError as exc:
        print(f"cannot import mrgsrec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(mrgsrec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mrgsrec resolved outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workload import load_workload

    workload = load_workload(name)
    ops = Ops()
    if trace:
        from traced import run_traced
        values, notes = run_traced(workload, seed, seconds, ops)
        declared = BENCH["per_layer"]
    else:
        values, notes = run_end_to_end(workload, seed, seconds, ops)
        declared = BENCH["end_to_end"]
    if not values:
        print(f"no metrics: failed ops {ops.failures}", file=sys.stderr)
        return 1

    gen = workload.generator
    print(f"workload {name}: seed {seed}, {gen['n_users']} users x "
          f"{gen['n_items']} items, config fingerprint {workload.fingerprint}")
    for metric in declared:
        key = metric["name"]
        print(f"  {key:40s} {values[key]!r:>24} {metric['unit']:8s} "
              f"{notes.get(key, '')}")
    failed = len(ops.failures)
    print(f"  {'failed_op_share':40s} {failed / ops.attempted!r:>24} "
          f"{'ratio':8s} {failed} of {ops.attempted} ops failed"
          + (f": {', '.join(ops.failures)}" if failed else ""))
    result = {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another, never together."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
