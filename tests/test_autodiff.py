"""Gradient engine checks: op-level VJPs, softmax safety, FD harness."""

import numpy as np
import pytest

from mrgsrec import autodiff as ad
from mrgsrec.errors import GraphError


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_quadratic_gradient_is_x():
    x = ad.parameter(rng().normal(size=(4, 3)))
    loss = ad.mul(ad.tsum(ad.square(x)), 0.5)
    (g,) = ad.grad(loss, [x])
    np.testing.assert_array_equal(g, x.data)


def test_constant_loss_zero_gradient():
    x = ad.parameter(rng().normal(size=(3,)))
    loss = ad.Tensor(5.0)
    (g,) = ad.grad(loss, [x])
    np.testing.assert_array_equal(g, np.zeros(3))


def test_grad_of_non_parameter_raises():
    x = ad.Tensor(np.ones(3))  # not a leaf parameter
    loss = ad.tsum(ad.square(ad.parameter(np.ones(3))))
    with pytest.raises(GraphError):
        ad.grad(loss, [x])


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(GraphError):
        ad.mul(x, 2.0).backward()


def test_softmax_rows_sum_to_one_and_no_overflow():
    for scale in (1.0, 700.0):
        x = ad.Tensor(rng(1).normal(size=(16, 9)) * scale)
        y = ad.softmax(x).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_log_softmax_matches_softmax_log():
    x = ad.Tensor(rng(2).normal(size=(5, 7)))
    np.testing.assert_allclose(ad.log_softmax(x).data,
                               np.log(ad.softmax(x).data), atol=1e-12)


def test_masked_softmax_normalizes_over_allowed():
    x = ad.Tensor(rng(3).normal(size=(4, 6)) * 50)
    mask = rng(4).random((4, 6)) > 0.4
    mask[:, 0] = True  # every row keeps one allowed slot
    y = ad.masked_softmax(x, mask).data
    assert np.all(y[~np.broadcast_to(mask, y.shape)] == 0.0)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    x = ad.parameter(np.array([0.0, -1.0, 2.0]))
    (g,) = ad.grad(ad.tsum(ad.relu(x)), [x])
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])


def test_linear_function_fd_error_near_machine_precision():
    w = ad.parameter(rng(5).normal(size=(6,)))
    coef = rng(6).normal(size=(6,))
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.mul(w, coef)), {"w": w})
    assert report["w"]["max_rel_error"] < 1e-9


def test_corrupted_backward_fails_check(monkeypatch):
    original = ad.relu

    def broken_relu(a):
        a = ad.as_tensor(a)
        mask = a.data > 0.0
        out = np.where(mask, a.data, 0.0)

        def backward(g):
            a._accumulate(g * mask * 1.5)  # wrong slope on purpose

        return ad._make(out, (a,), backward)

    monkeypatch.setattr(ad, "relu", broken_relu)
    x = ad.parameter(rng(7).normal(size=(8,)) + 2.0)  # keep away from the kink
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.square(ad.relu(x))), {"x": x})
    assert not report["x"]["passed"]
    monkeypatch.setattr(ad, "relu", original)


@pytest.mark.parametrize("name,builder", [
    ("matmul", lambda p: ad.tsum(ad.matmul(p["a"], p["b"]))),
    ("batched_matmul", lambda p: ad.tsum(ad.matmul(p["t3"], p["b"]))),
    ("sigmoid", lambda p: ad.tsum(ad.sigmoid(p["a"]))),
    ("softmax", lambda p: ad.tsum(ad.square(ad.softmax(p["a"])))),
    ("log_softmax", lambda p: ad.tsum(ad.square(ad.log_softmax(p["a"])))),
    ("layer_norm", lambda p: ad.tsum(ad.square(
        ad.layer_norm(p["t3"], p["g"], p["bias"])))),
    ("lookup", lambda p: ad.tsum(ad.square(
        ad.lookup(p["a"], np.array([[0, 2], [1, 1]]))))),
    ("take_last", lambda p: ad.tsum(ad.take_last_axis(
        p["a"], np.array([0, 3, 1])))),
    ("concat_narrow", lambda p: ad.tsum(ad.square(ad.narrow(
        ad.concat([p["a"], p["a"]], axis=1), 1, 2, 3)))),
    ("swapaxes", lambda p: ad.tsum(ad.square(ad.swapaxes(p["t3"], 1, 2)))),
    ("masked_softmax", lambda p: ad.tsum(ad.square(ad.masked_softmax(
        p["a"], np.array([[True, False, True, True],
                          [True, True, False, True],
                          [False, True, True, False]]))))),
])
def test_op_gradients_match_finite_differences(name, builder):
    g = rng(11)
    params = {
        "a": ad.parameter(g.normal(size=(3, 4))),
        "b": ad.parameter(g.normal(size=(4, 5))),
        "t3": ad.parameter(g.normal(size=(2, 3, 4))),
        "g": ad.parameter(g.normal(size=(4,)) + 1.0),
        "bias": ad.parameter(g.normal(size=(4,))),
    }
    report = ad.finite_difference_check(lambda: builder(params), params)
    for block, entry in report.items():
        assert entry["passed"], f"{name}/{block}: {entry}"


def test_spmm_matches_dense_and_gradient():
    import scipy.sparse as sp
    g = rng(21)
    dense = (g.random((6, 6)) < 0.4) * g.normal(size=(6, 6))
    dense = dense + dense.T  # symmetric so adj_t defaults correctly
    adj = sp.csr_matrix(dense)
    x = ad.parameter(g.normal(size=(6, 3)))
    np.testing.assert_allclose(ad.spmm(adj, x).data, dense @ x.data, atol=1e-12)
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.square(ad.spmm(adj, x))), {"x": x})
    assert report["x"]["passed"]


def test_shared_parameter_accumulates_gradient():
    x = ad.parameter(np.array([1.0, 2.0]))
    loss = ad.tsum(ad.add(ad.square(x), ad.mul(x, 3.0)))  # d/dx = 2x + 3
    (g,) = ad.grad(loss, [x])
    np.testing.assert_allclose(g, 2 * x.data + 3.0)


def test_gradients_bit_reproducible():
    g = rng(31)
    w = ad.parameter(g.normal(size=(5, 5)))
    x = ad.Tensor(g.normal(size=(7, 5)))

    def run():
        loss = ad.tsum(ad.square(ad.softmax(ad.matmul(x, w))))
        return ad.grad(loss, [w])[0]

    first, second = run(), run()
    assert np.array_equal(first, second)
