"""``tools/bench_record.py``: its parser of ``perfbench/run.py``'s stdout, its
refusal to record a tree that differs from HEAD, and the shape of every
committed ``BENCH_*.json``.

The tool is loaded by path. Its recording runs in a throwaway git repository
whose ``perfbench/run.py`` is a stub that prints canned output and leaves a
marker file, so no benchmark runs here.
"""

import importlib.util
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

RESULT = {"correct": True, "attempted": 17, "failed": 0,
          "metrics": {"peak_rss_mb": {"value": 357.2, "unit": "MB"}}}

# Two workloads as run.py prints them: a header, one line per metric (the
# value right-aligned, the note after the unit, possibly empty), the JSON line.
STDOUT = textwrap.dedent(f"""\
    workload catalog_wide: seed 1, 2000 users x 3600 items, config fingerprint c1af75208199b01e
      train_users_per_s                             183.7724682189977 users/s  6 timed steps of 256 users after 1 warm-up; wall 153.975 at host slowdown 1.194
      peak_rss_mb                                              357.2 MB       {' '}
      failed_op_share                                            0.0 ratio    0 of 17 ops failed
    {json.dumps(RESULT)}
    workload graph_many_users: seed 1, 30000 users x 2000 items, config fingerprint ca62599c9f0b16f0
      setup_s                                     1.5361 s        median of 3 set-ups; wall 1.9 at host slowdown 1.2
    {json.dumps({**RESULT, "attempted": 40})}
    """)

STUB = f"""\
from pathlib import Path
Path("started").write_text("")
print({STDOUT!r}, end="")
"""


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def repo(tmp_path, bench_record, monkeypatch):
    """A committed repository whose benchmark is the stub above."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    (tmp_path / "README.md").write_text("clean\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "COMMAND",
                        [sys.executable, "perfbench/run.py"])
    return tmp_path


def test_parse_reads_each_workloads_fingerprint_notes_and_result(bench_record):
    parsed = bench_record.parse(STDOUT)
    assert list(parsed) == ["catalog_wide", "graph_many_users"]
    wide = parsed["catalog_wide"]
    assert wide["fingerprint"] == "c1af75208199b01e"
    assert wide["notes"] == {
        "train_users_per_s": "6 timed steps of 256 users after 1 warm-up; "
                             "wall 153.975 at host slowdown 1.194",
        "peak_rss_mb": "",
        "failed_op_share": "0 of 17 ops failed",
    }
    assert wide["result"] == RESULT
    many = parsed["graph_many_users"]
    assert many["fingerprint"] == "ca62599c9f0b16f0"
    assert many["notes"] == {
        "setup_s": "median of 3 set-ups; wall 1.9 at host slowdown 1.2"}
    assert many["result"]["attempted"] == 40


def test_a_modified_tracked_file_is_refused_before_the_benchmark(
        bench_record, repo, capsys):
    (repo / "README.md").write_text("edited\n")
    assert bench_record.main(["99"]) == 2
    assert "differ from HEAD" in capsys.readouterr().err
    assert not list(repo.glob("BENCH_*.json"))
    assert not (repo / "started").exists()


def test_a_clean_tree_is_recorded_with_its_commit(bench_record, repo):
    assert bench_record.main(["99"]) == 0
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    record = json.loads((repo / "BENCH_99.json").read_text())
    assert record["commit"] == head
    assert record["workloads"] == bench_record.parse(STDOUT)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_each_committed_record_names_its_commit_command_and_metrics(
        bench_record, path):
    record = json.loads(path.read_text("utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert record["command"] == " ".join(["python3"] + bench_record.COMMAND[1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    pinned = json.loads((ROOT / "perfbench" / "workloads.json").read_text(
        "utf-8"))["workloads"]
    assert list(record["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, entry in record["workloads"].items():
        assert entry["fingerprint"] == pinned[name]["fingerprint"]
        result = entry["result"]
        assert 0 <= result["failed"] <= result["attempted"]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            assert result["metrics"][key]["unit"] == metric["unit"]
            assert isinstance(result["metrics"][key]["value"], float)
            assert entry["notes"][key]
