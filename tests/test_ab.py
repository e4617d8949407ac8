"""``tools/ab.py``: alternating base/HEAD benchmark pairs, both extracted.

The tool is loaded by path. Its runs go to a stub ``perfbench/run.py`` in a
throwaway git repository, which prints ``run.py``-shaped output whose
eval speed is read from a file of its own tree, so no benchmark runs here.
A stub ``tools/identity.py`` prints a record read from its tree's
``hashes.txt``.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]

# Prints what run.py prints for one workload: the eval speed is the number
# in this tree's speed.txt; ``fail`` there makes the run fail an op.
STUB = """\
import json, sys
from pathlib import Path
speed = (Path(__file__).resolve().parents[1] / "speed.txt").read_text().strip()
name = sys.argv[sys.argv.index("--workload") + 1]
failed = int(speed == "fail")
value = 1.0 if failed else float(speed)
print(f"workload {name}: seed 1, 3 users x 4 items, config fingerprint abc")
print(f"  eval_users_per_s {value!r} users/s  3 passes; wall {value / 2!r} at host slowdown 2.000")
print("  peak_rss_mb 100.0 MB  ru_maxrss of this process")
print(json.dumps({"correct": not failed, "attempted": 3, "failed": failed,
                  "metrics": {"eval_users_per_s": {"value": value, "unit": "users/s"},
                              "peak_rss_mb": {"value": 100.0, "unit": "MB"}}}))
"""

# The identity record of the tree the tool sits in: its hashes.txt, and
# which copy of the tool made it.
IDENTITY = """\
import json
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
print(json.dumps({"tool": TOOL, "workloads": {"many": {
    "params": (tree / "hashes.txt").read_text().strip()}}}))
"""


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                   capture_output=True)


@pytest.fixture
def repo(tmp_path, ab, monkeypatch):
    """Two commits: eval speed 100 at HEAD~1, 150 at HEAD, the same hashes,
    and a different identity tool at each."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    (tmp_path / "tools").mkdir()
    (tmp_path / "hashes.txt").write_text("h1\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "wide"}, {"name": "many"}],
        "end_to_end": [m for m in METRICS
                       if m["name"] in ("eval_users_per_s", "peak_rss_mb")]}))
    git(tmp_path, "init", "-q")
    for speed in ("100", "150"):
        (tmp_path / "speed.txt").write_text(speed + "\n")
        (tmp_path / "tools" / "identity.py").write_text(
            f"TOOL = {speed!r}\n" + IDENTITY)
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", speed)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    return tmp_path


def entry(eval_speed, wall, peak, failed=0, exit_code=0):
    """A parsed run.py entry, as ``run_benchmark`` returns it."""
    return {"exit": exit_code,
            "notes": {"eval_users_per_s": f"3 passes; wall {wall} at host "
                                          "slowdown 1.1",
                      "peak_rss_mb": "ru_maxrss of this process"},
            "result": {"failed": failed, "metrics": {
                "eval_users_per_s": {"value": eval_speed},
                "peak_rss_mb": {"value": peak}}}}


def test_pairs_alternate_which_tree_runs_first(ab):
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, workload, seed))
        return {}

    runs = ab.alternate({"base": "B", "head": "H"}, "many", 3, 7, run)
    assert [tree for tree, _, _ in calls] == ["B", "H", "H", "B", "B", "H"]
    assert {(w, s) for _, w, s in calls} == {("many", 7)}
    assert len(runs["base"]) == len(runs["head"]) == 3


def test_summary_reads_medians_quartiles_and_wins(ab):
    runs = {"base": [entry(100, 50, 300), entry(110, 55, 310),
                     entry(90, 45, 290), entry(105, 52, 305)],
            "head": [entry(120, 60, 280), entry(100, 49, 320),
                     entry(130, 65, 270), entry(125, 62, 275)]}
    rows = {(r["metric"], r["kind"]): r for r in ab.summarise(runs, METRICS)}
    # run.py prints no wall value for peak RSS, and these runs nothing else
    assert set(rows) == {("eval_users_per_s", "scaled"),
                         ("eval_users_per_s", "wall"),
                         ("peak_rss_mb", "scaled")}
    speed = rows["eval_users_per_s", "scaled"]
    assert speed["base_median"] == 102.5 and speed["head_median"] == 122.5
    assert (speed["q1"], speed["q3"]) == (97.5, 106.25)
    assert speed["wins"] == 3 and speed["pairs"] == 4
    assert speed["outside_iqr"]
    assert speed["change"] == pytest.approx(122.5 / 102.5 - 1)
    wall = rows["eval_users_per_s", "wall"]
    assert wall["base_median"] == 51.0 and wall["wins"] == 3
    peak = rows["peak_rss_mb", "scaled"]   # lower is better
    assert peak["wins"] == 3 and peak["head_median"] == 277.5


def test_a_failed_run_is_left_out_of_the_figures(ab):
    runs = {"base": [entry(100, 50, 300), entry(100, 50, 300, failed=1)],
            "head": [entry(120, 60, 280), entry(120, 60, 280)]}
    speed = next(r for r in ab.summarise(runs, METRICS)
                 if r["kind"] == "scaled")
    assert speed["pairs"] == 1 and speed["wins"] == 1
    assert ab.failed(entry(1, 1, 1, exit_code=1))
    assert ab.failed({"exit": 0, "notes": {}})


def test_a_modified_tracked_file_is_refused_before_any_run(ab, repo, capsys):
    (repo / "speed.txt").write_text("999\n")

    def run(*args):
        raise AssertionError("no run may start on a dirty tree")

    assert ab.main(["HEAD~1"], run) == 2
    assert "differ from HEAD" in capsys.readouterr().err


def test_an_unknown_revision_is_refused(ab, repo, capsys):
    assert ab.main(["no-such-rev"]) == 2
    assert "unknown revision" in capsys.readouterr().err


def test_the_base_revision_runs_in_its_own_extracted_tree(ab, repo, capsys):
    assert ab.main(["HEAD~1", "--workload", "many", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "workload many: 2 pairs, seed 1" in out
    assert "both extracted" in out
    speed = next(line for line in out.splitlines()
                 if "eval_users_per_s" in line and "scaled" in line)
    # HEAD~1's 100 [100, 100] against HEAD's 150: +50%, outside, won both
    assert speed.split()[2:] == ["100", "[100,", "100]", "150", "+50.0%",
                                 "yes", "2/2"]
    assert "base: 0 of 2 runs failed" in out
    assert not (repo / ".git" / "worktrees").exists()


def test_a_failed_run_sets_the_exit_code(ab, repo, capsys):
    (repo / "speed.txt").write_text("fail\n")
    git(repo, "commit", "-q", "-am", "fail")
    assert ab.main(["HEAD~1", "--workload", "wide", "--pairs", "1"]) == 1
    assert "head: 1 of 1 runs failed (pairs [0])" in capsys.readouterr().out



def records(base, head):
    """An injected identity runner: ``head`` for the extracted HEAD tree,
    ``base`` for the extracted base tree."""
    return lambda tree: head if tree.name == "head" else base


def counted(calls):
    """An injected benchmark runner that records each tree it ran in."""
    def run(tree, workload, seed):
        calls.append(tree)
        return entry(100, 50, 300)
    return run


def test_a_moved_identity_record_stops_before_any_run(ab, repo, capsys):
    def run(*args):
        raise AssertionError("no run may start when the records differ")

    identity = records({"verify_quick": "a", "workloads": {"many": {"x": "1"}}},
                       {"verify_quick": "a", "workloads": {"many": {"x": "2"}}})
    assert ab.main(["HEAD~1", "--pairs", "1"], run, identity) == 2
    err = capsys.readouterr().err
    assert "identity records differ: workloads.many.x;" in err
    assert "--expect-new-hashes" in err


def test_expect_new_hashes_times_a_moved_record(ab, repo, capsys):
    calls = []
    identity = records({"a": "1", "b": "1"}, {"a": "2", "b": "1", "c": "3"})
    assert ab.main(["HEAD~1", "--workload", "many", "--pairs", "2",
                    "--expect-new-hashes"], counted(calls), identity) == 0
    assert len(calls) == 4
    assert "differ, as expected: a, c" in capsys.readouterr().out


def test_equal_identity_records_let_the_pairs_run(ab, repo, capsys):
    calls = []
    identity = records({"a": "1"}, {"a": "1"})
    assert ab.main(["HEAD~1", "--workload", "many", "--pairs", "1"],
                   counted(calls), identity) == 0
    assert len(calls) == 2
    assert "identity records are equal" in capsys.readouterr().out


@pytest.mark.parametrize("failing", ["base", "head"])
def test_a_failed_identity_record_stops_before_any_run(ab, repo, capsys,
                                                       failing):
    def run(*args):
        raise AssertionError("no run may start without both records")

    record = {"a": "1"}
    identity = records(None if failing == "base" else record,
                       None if failing == "head" else record)
    assert ab.main(["HEAD~1"], run, identity) == 2
    assert f"identity.py failed on {failing}" in capsys.readouterr().err


def test_the_working_trees_identity_tool_runs_in_both_trees(ab, repo,
                                                            tmp_path_factory):
    base, head = tmp_path_factory.mktemp("base"), tmp_path_factory.mktemp("head")
    ab.extract("HEAD~1", base)
    ab.extract("HEAD", head)
    # HEAD~1's own tool would name itself "100"; the working tree's runs.
    assert ab.identity_record(base) == {
        "tool": "150", "workloads": {"many": {"params": "h1"}}}
    assert ab.identity_record(head)["tool"] == "150"


def test_neither_measured_tree_is_the_working_tree(ab, repo):
    calls, identified = [], []

    def identity(tree):
        identified.append(tree)
        return {"a": "1"}

    assert ab.main(["HEAD~1", "--workload", "many", "--pairs", "1"],
                   counted(calls), identity) == 0
    base, head = calls  # the base runs first in pair 0
    assert identified == [base, head] and repo not in calls
    # sibling directories whose paths have the same length
    assert (base.name, head.name) == ("base", "head")
    assert base.parent == head.parent


def test_hashes_moved_in_the_head_commit_stop_the_real_tool(ab, repo, capsys):
    (repo / "hashes.txt").write_text("h2\n")
    git(repo, "commit", "-q", "-am", "new hashes")
    assert ab.main(["HEAD~1", "--pairs", "1"]) == 2
    assert "differ: workloads.many.params;" in capsys.readouterr().err
