"""The benchmark's own output checks, run against the package.

``perfbench/workload.py`` calls ``build_batch``, ``forward_states``,
``score_batch``, ``rank_target`` and ``train_step``; a change that breaks one
of those calls, or the outputs the benchmark checks, fails here instead of
only in a benchmark run. The module is loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mrgsrec.training import train_step

WORKLOAD_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                  WORKLOAD_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_reference_instance_losses(workload):
    workload.check_reference_instance()


def checked_set_up(workload, name):
    """The workload's pinned spec (its fingerprint checked on load) and its
    seed-1 set-up, whose validation ranks must agree with the sort oracle."""
    spec = workload.load_workload(name)
    setup, _ = workload.set_up(spec, seed=1)
    workload.check_oracle_ranks(setup, spec.hyper)
    return spec, setup


def test_catalog_wide_oracle_ranks(workload):
    checked_set_up(workload, "catalog_wide")


def test_graph_many_users_oracle_ranks_and_one_step(workload):
    spec, setup = checked_set_up(workload, "graph_many_users")
    hyper = spec.hyper
    rng = workload.train_rng(hyper)
    batch = workload.BatchStream(setup.examples, hyper.batch_size, rng).next()
    workload.check_losses(train_step(batch, setup.params, setup.adjacency,
                                     hyper, setup.optimizer, rng))
