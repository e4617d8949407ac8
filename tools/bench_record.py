#!/usr/bin/env python3
"""Record one end-to-end benchmark run as ``BENCH_<n>.json``.

Run it with the commit to record checked out and no tracked file changed
(it refuses otherwise, so the record names the code it measured):

    python3 tools/bench_record.py 26

It runs ``python3 perfbench/run.py --trace 0 --seed 1`` (every workload,
one process each) and writes, per workload, the run's last stdout line
(its JSON result), the config fingerprint and the note printed beside each
metric (step and pass counts, wall values and host slowdowns), plus the
HEAD commit. The run's exit code is passed on; the file is written anyway,
since a failed op is itself part of the record.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "perfbench/run.py", "--trace", "0", "--seed", "1"]


def parse(stdout: str) -> dict[str, dict]:
    """run.py's output, workload by workload: a ``workload <name>: ...,
    config fingerprint <fp>`` header, one ``  <metric> <value> <unit>
    <note>`` line per metric, then the JSON result line."""
    workloads, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(":")
            current = workloads[name] = {
                "fingerprint": line.rsplit(" ", 1)[1], "notes": {}}
        elif current is not None and line.startswith("{"):
            current["result"] = json.loads(line)
        elif current is not None and line.startswith("  "):
            key, _, _, *note = line.split(None, 3)
            current["notes"][key] = note[0] if note else ""
    return workloads


def clean_head(root: Path) -> str | None:
    """HEAD's commit in the repository at ``root``, or None when a tracked
    file differs from it."""
    if subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=root).returncode:
        return None
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: tools/bench_record.py <n>", file=sys.stderr)
        return 2
    commit = clean_head(ROOT)
    if commit is None:
        print("tracked files differ from HEAD; commit first, so the record "
              "names the code it measured", file=sys.stderr)
        return 2
    run = subprocess.run(COMMAND, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    sys.stderr.write(run.stderr)
    record = {"commit": commit,
              "command": "python3 perfbench/run.py --trace 0 --seed 1",
              "workloads": parse(run.stdout)}
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    print(f"wrote {path.name}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
