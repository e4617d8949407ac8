"""``tools/identity.py``'s digest, on the gradient instance: equal for two
fresh runs, different when one bit of one array flips. Its host entry, and
its workload record on a shrunken graph_many_users. The tool itself trains
the full benchmark workloads and runs in CI, not here."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from mrgsrec import autodiff as ad
from mrgsrec.graph import build_adjacency
from mrgsrec.synthetic import generate_clustered_markov
from mrgsrec.verification import component_loss_fn, make_gradient_instance

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"
SMALL = {"n_users": 300, "n_items": 150, "n_clusters": 6, "min_len": 5,
         "max_len": 9}


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def instance_arrays():
    """The total loss, every parameter block and its gradient."""
    instance = make_gradient_instance()
    params = instance[1].parameters()
    loss = component_loss_fn("total", *instance)()
    grads = ad.grad(loss, params)
    return [loss.data] + [p.data for p in params] + grads


def test_digest_repeats_on_a_fresh_run_and_sees_one_bit(identity):
    arrays = instance_arrays()
    want = identity.digest(arrays)
    assert identity.digest(instance_arrays()) == want
    for i in (0, len(arrays) - 1):  # the loss, the last gradient
        flipped = arrays[i].copy()
        flipped.reshape(-1).view(np.uint64)[-1] ^= 1  # the lowest bit
        assert identity.digest(arrays[:i] + [flipped] + arrays[i + 1:]) != want
    # the same bytes in another shape are another record
    assert identity.digest(arrays[:-1] + [arrays[-1][None]]) != want


def test_host_names_the_cpu_and_the_blas(identity, monkeypatch):
    host = identity.host()
    assert isinstance(host["cpu"], str) and host["cpu"]
    assert isinstance(host["blas"], dict)
    assert host["numpy"] == np.__version__
    assert host["scipy"] == scipy.__version__
    json.dumps(host)  # the record is JSON

    class Unreadable:
        def __init__(self, path):
            pass

        def read_text(self):
            raise OSError("no cpuinfo")

    monkeypatch.setattr(identity, "Path", Unreadable)
    assert identity.cpu_model()  # the platform's name instead


@pytest.fixture
def small_workload(monkeypatch):
    """``perfbench/workload.py`` as the tool imports it, with
    graph_many_users shrunk to 300 users."""
    spec = importlib.util.spec_from_file_location(
        "workload", ROOT / "perfbench" / "workload.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workload", module)
    spec.loader.exec_module(module)
    full = module.load_workload("graph_many_users")
    shrunk = dataclasses.replace(full, generator={**full.generator, **SMALL})
    monkeypatch.setattr(module, "load_workload", lambda name: shrunk)
    return shrunk


def test_workload_record_repeats_and_digests_the_adjacency(identity,
                                                           small_workload):
    record = identity.workload_record("graph_many_users", 2)
    assert identity.workload_record("graph_many_users", 2) == record
    dataset = generate_clustered_markov(**small_workload.generator,
                                        seed=identity.SEED)
    adj = build_adjacency(dataset.train, dataset.n_users, dataset.n_items).adj
    assert record["adj"] == identity.digest([adj.data, adj.indices,
                                             adj.indptr])
    assert set(record) == {"adj", "losses", "params", "moments", "generator",
                           "report"}
