"""``tools/identity.py``'s digest, on the gradient instance: equal for two
fresh runs, different when one bit of one array flips. The tool itself
trains the benchmark workloads and runs in CI, not here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mrgsrec import autodiff as ad
from mrgsrec.verification import component_loss_fn, make_gradient_instance

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


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
