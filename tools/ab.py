#!/usr/bin/env python3
"""Compare a base revision with HEAD in alternating benchmark pairs.

Run it from a clean checkout (it refuses a tree whose tracked files differ
from HEAD, so the comparison names the code it measured):

    python3 tools/ab.py HEAD~1                        # every workload, 10 pairs
    python3 tools/ab.py HEAD~1 --workload graph_many_users --pairs 12 --seed 7
    python3 tools/ab.py HEAD                          # A/A: the noise floor
    python3 tools/ab.py HEAD~1 --expect-new-hashes    # a change that moves the hashes

``<rev>`` and HEAD are extracted with ``git archive`` into the sibling
temporary directories ``<tmp>/base`` and ``<tmp>/head`` (local, no network,
and nothing is added to the repository's ``.git``), so both measured trees
live at paths of the same length and neither is the working tree.
Before any timed run, the working tree's ``tools/identity.py`` prints the
bit-identity record of each tree (it is copied into each tree, since it
reads the program beside it). When the records differ, the differing
entries are printed and nothing is timed (exit code 2) unless
``--expect-new-hashes`` says the change means to move them.
For each workload, pair i runs ``perfbench/run.py --workload W --seed S
--trace 0`` once in each tree, one process at a time at the benchmark's
default length; the base runs first in even pairs and the head first in
odd ones. The output is ``tools/bench_record.parse``'s reading of
each run. Per end-to-end metric of ``BENCHMARK.json`` it prints the base's
median and quartiles, the head's median, the change between the
medians, whether that median lies outside the base's quartiles, and in how
many pairs the head was better. Each metric gets a row for the
host-scaled value and, for the timed ones, a row for the wall value that
``run.py`` prints beside it. The exit code is 1 when any run failed an op
or exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import clean_head, parse  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WALL = re.compile(r"wall (\S+) at host slowdown")


def run_benchmark(tree: Path, workload: str, seed: int) -> dict:
    """One ``run.py --trace 0`` of one workload in ``tree``: its parsed
    entry (``result`` is missing if the run printed none) and exit code."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    sys.stderr.write(run.stderr)
    entry = parse(run.stdout).get(workload, {"notes": {}})
    return {**entry, "exit": run.returncode}


def identity_record(tree: Path) -> dict | None:
    """The working tree's ``tools/identity.py`` record of ``tree``'s
    program; None, with its stderr passed on, if the tool failed."""
    tool = tree / "tools" / "identity.py"
    tool.parent.mkdir(exist_ok=True)
    shutil.copyfile(ROOT / "tools" / "identity.py", tool)
    run = subprocess.run([sys.executable, str(tool)], cwd=tree,
                         capture_output=True, text=True, check=False)
    if run.returncode:
        sys.stderr.write(run.stderr)
        return None
    return json.loads(run.stdout)


def leaves(record: dict, prefix: str = "") -> dict:
    """The record's values by dotted key path."""
    out = {}
    for key, value in record.items():
        out.update(leaves(value, f"{prefix}{key}.") if isinstance(value, dict)
                   else {prefix + key: value})
    return out


def moved(base: dict, head: dict) -> list[str]:
    """The key paths whose values differ between two identity records."""
    base, head = leaves(base), leaves(head)
    return sorted(key for key in base.keys() | head.keys()
                  if base.get(key) != head.get(key))


def alternate(trees: dict[str, Path], workload: str, pairs: int, seed: int,
              run=run_benchmark) -> dict[str, list[dict]]:
    """``pairs`` runs per tree, the base first in even pairs."""
    runs = {"base": [], "head": []}
    for i in range(pairs):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            runs[side].append(run(trees[side], workload, seed))
    return runs


def failed(entry: dict) -> bool:
    result = entry.get("result")
    return entry["exit"] != 0 or result is None or result["failed"] > 0


def reading(entry: dict, metric: str, kind: str) -> float | None:
    """The scaled value from the JSON result, or the wall value from the
    note; None when the run has no such value."""
    if failed(entry):
        return None
    if kind == "scaled":
        return entry["result"]["metrics"].get(metric, {}).get("value")
    wall = WALL.search(entry["notes"].get(metric, ""))
    return float(wall.group(1)) if wall else None


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric and kind that both trees report."""
    rows = []
    for metric in metrics:
        for kind in ("scaled", "wall"):
            pairs = [(reading(b, metric["name"], kind),
                      reading(h, metric["name"], kind))
                     for b, h in zip(runs["base"], runs["head"])]
            base = [b for b, _ in pairs if b is not None]
            head = [h for _, h in pairs if h is not None]
            if not base or not head:
                continue
            sign = 1 if metric["better"] == "higher" else -1
            q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                         if len(base) > 1 else (base[0],) * 3)
            base_median, head_median = (statistics.median(base),
                                        statistics.median(head))
            rows.append({
                "metric": metric["name"], "kind": kind,
                "base_median": base_median, "q1": q1, "q3": q3,
                "head_median": head_median,
                "change": head_median / base_median - 1 if base_median else None,
                "outside_iqr": not q1 <= head_median <= q3,
                "wins": sum(sign * (h - b) > 0 for b, h in pairs
                            if b is not None and h is not None),
                "pairs": sum(b is not None and h is not None for b, h in pairs),
            })
    return rows


def table(rows: list[dict]) -> str:
    lines = [f"  {'metric':20s} {'value':6s} {'base median [q1, q3]':>34s} "
             f"{'head median':>12s} {'change':>8s} {'outside':>7s} {'wins':>6s}"]
    for r in rows:
        change = "" if r["change"] is None else f"{100 * r['change']:+.1f}%"
        spread = f"{r['base_median']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}]"
        lines.append(
            f"  {r['metric']:20s} {r['kind']:6s} {spread:>34s} "
            f"{r['head_median']:>12.6g} {change:>8s} "
            f"{'yes' if r['outside_iqr'] else 'no':>7s} "
            f"{r['wins']:>3d}/{r['pairs']:<2d}")
    return "\n".join(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """The tracked files of ``commit``, as ``git archive`` writes them."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def main(argv: list[str], run=run_benchmark, identity=identity_record) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--expect-new-hashes", action="store_true",
                        help="time the pairs even if the identity records differ")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    head = clean_head(ROOT)
    if head is None:
        print("tracked files differ from HEAD; commit first, so the comparison "
              "names the code it measured", file=sys.stderr)
        return 2
    try:
        commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"unknown revision {args.rev!r}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for side, rev in (("base", commit), ("head", head)):
            trees[side].mkdir()
            extract(rev, trees[side])
        records = {side: identity(tree) for side, tree in trees.items()}
        failed_sides = [side for side, rec in records.items() if rec is None]
        if failed_sides:
            print(f"tools/identity.py failed on {', '.join(failed_sides)}",
                  file=sys.stderr)
            return 2
        changed = moved(records["base"], records["head"])
        if changed and not args.expect_new_hashes:
            print("identity records differ: " + ", ".join(changed) + "; pass "
                  "--expect-new-hashes if the change means to move them",
                  file=sys.stderr)
            return 2
        print("identity records "
              + (f"differ, as expected: {', '.join(changed)}" if changed
                 else "are equal"))
        for workload in names if args.workload == "all" else [args.workload]:
            runs = alternate(trees, workload, args.pairs, args.seed, run)
            print(f"workload {workload}: {args.pairs} pairs, seed {args.seed}, "
                  f"base {commit[:12]} against head {head[:12]}, both "
                  "extracted; wins = pairs the head was better")
            print(table(summarise(runs, bench["end_to_end"])))
            for side in ("base", "head"):
                bad = [i for i, entry in enumerate(runs[side]) if failed(entry)]
                print(f"  {side}: {len(bad)} of {args.pairs} runs failed"
                      + (f" (pairs {bad})" if bad else ""))
                status = max(status, int(bool(bad)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
