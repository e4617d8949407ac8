"""Pinned sha256 hashes of the datasets the program builds: the snapshot
``mrgsrec prepare`` writes from a fixed raw log, the perfbench workloads'
synthetic datasets, and the gradient instance's dataset. A refactor of the
data pipeline or the generators must leave every byte as it was."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from mrgsrec import cli
from mrgsrec import data as dp
from mrgsrec.synthetic import generate_clustered_markov
from mrgsrec.verification import random_dataset

ROOT = Path(__file__).resolve().parents[1]


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def dataset_digest(dataset: dp.SplitDataset) -> str:
    """Covers the counts, the train/val/test lists and the tokens."""
    return sha256(json.dumps(dataclasses.asdict(dataset), sort_keys=True).encode())


def test_prepared_snapshots_pinned(tmp_path, monkeypatch):
    # The 12-user log of test_cli's ``raw_log`` and test_whole_or_reject's
    # ``written_files``; relative paths keep the CLI's fingerprint fixed.
    monkeypatch.chdir(tmp_path)
    Path("raw.tsv").write_text(
        "".join(f"user{u}\titem{(u + 2 * j) % 9}\t{j * 100 + u}\n"
                for u in range(12) for j in range(7)), encoding="utf-8")
    assert cli.main(["prepare", "raw.tsv", "cli.snap", "--min-count", "3"]) == 0
    assert sha256(Path("cli.snap").read_bytes()) == (
        "9fe400e2998e1fc063ee382db70ae2eda33d57fdfbc80ecd3f9783c456a1c3fc")
    dataset, dropped = dp.prepare("raw.tsv", threshold=3)
    dp.save_snapshot("api.snap", dataset, fingerprint="0123456789abcdef",
                     extra={"dropped_short_users": dropped,
                            "filter_mode": "fixpoint"})
    assert sha256(Path("api.snap").read_bytes()) == (
        "4478e5604e7bdc24b16724c2d171ed084c4189abb8dd2afba444b92720d35edd")


@pytest.mark.parametrize("name,digest", [
    ("catalog_wide",
     "45409caff73f8e2853364afbe006b1be06ade226989b051d00a5b56d5eeca694"),
    ("graph_many_users",
     "cc33b4855e703757a9cf4bcb2efaef2a88aa44c64b00eb79975dfa941d00f9ee"),
])
def test_workload_datasets_pinned(name, digest):
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    generator = spec["workloads"][name]["generator"]
    assert dataset_digest(generate_clustered_markov(**generator, seed=1)) == digest


def test_gradient_instance_dataset_pinned():
    # What make_gradient_instance() builds with its defaults m=7, n=11, seed=7.
    assert dataset_digest(random_dataset(7, 11, 7)) == (
        "b5cc1407184a39fd077b62a467873a1a43098c2c1b1178061dbd8cf532d4cf9b")
