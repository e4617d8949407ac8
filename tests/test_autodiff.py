"""Gradient engine checks: op-level VJPs, cross-entropy safety, FD harness."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec.errors import DimensionError, GraphError
from mrgsrec.seqenc import causal_attention_mask


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def masked_softmax(x, mask):
    """Softmax of ``x`` over its last axis where ``mask`` allows: one-head
    attention with identity keys, values and output projection, the queries
    scaled by sqrt(m) to undo its 1/sqrt(dh)."""
    eye = np.eye(x.shape[-1])
    return ad.attention(x * np.sqrt(x.shape[-1]), eye, eye, eye, mask, 1).data


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


def test_cross_entropy_matches_attention_softmax_log_at_scale_700():
    mask = rng(4).random((16, 9)) > 0.4
    mask[:, 0] = True
    rows = np.arange(16)
    for scale in (1.0, 700.0):
        logits = rng(1).normal(size=(16, 9)) * scale
        allowed = np.where(mask, logits, -np.inf)
        # at scale 700 only the allowed argmax keeps the oracle's p above 0
        targets = (np.zeros(16, dtype=int) if scale == 1.0
                   else allowed.argmax(axis=1))
        probs = masked_softmax(logits, mask)
        got = ad.cross_entropy(logits, targets, mask=mask).item()
        np.testing.assert_allclose(got, -np.log(probs[rows, targets]).sum(),
                                   rtol=1e-12, atol=1e-12)
        # the allowed argmin underflows the softmax but not the loss:
        # -log p_t = lse - x_t >= max - x_t
        worst = np.where(mask, logits, np.inf).argmin(axis=1)
        got = ad.cross_entropy(logits, worst, mask=mask).item()
        gap = (allowed.max(axis=1) - logits[rows, worst]).sum()
        assert np.isfinite(got) and got >= gap


def test_softmax_rows_sum_to_one_and_no_overflow():
    everything = np.ones((16, 9), dtype=bool)
    for scale in (1.0, 700.0):
        x = rng(1).normal(size=(16, 9)) * scale
        y = masked_softmax(x, everything)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        # the row argmin underflows the softmax; loss and gradient stay finite
        logits = ad.parameter(x)
        loss = ad.cross_entropy(logits, x.argmin(axis=1))
        (g,) = ad.grad(loss, [logits])
        assert np.isfinite(loss.item()) and np.all(np.isfinite(g))


def test_log_softmax_matches_softmax_log():
    x = rng(2).normal(size=(5, 7))
    probs = masked_softmax(x, np.ones(x.shape, dtype=bool))
    # one row at a time, cross_entropy is -log_softmax at the target
    log_softmax = np.array([[-ad.cross_entropy(x[r:r + 1], [j]).item()
                             for j in range(x.shape[1])]
                            for r in range(x.shape[0])])
    np.testing.assert_allclose(log_softmax, np.log(probs), atol=1e-12)


def test_attention_softmax_normalizes_over_allowed():
    x = rng(3).normal(size=(4, 6)) * 50
    mask = rng(4).random((4, 6)) > 0.4
    mask[:, 0] = True  # every row keeps one allowed slot
    y = masked_softmax(x, mask)
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
            return (g * mask * 1.5,)  # wrong slope on purpose

        return ad._make(out, (a,), backward)

    monkeypatch.setattr(ad, "relu", broken_relu)
    x = ad.parameter(rng(7).normal(size=(8,)) + 2.0)  # keep away from the kink
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.square(ad.relu(x))), {"x": x})
    assert not report["x"]["passed"]
    monkeypatch.setattr(ad, "relu", original)


MASK_3x4 = np.array([[True, False, True, True],
                     [True, True, False, True],
                     [False, True, True, False]])
KEEP_2x2x3x3 = ad.keep_mask((2, 2, 3, 3), 0.3, rng(12), train=True)
KEEP_2x3x5 = ad.keep_mask((2, 3, 5), 0.3, rng(14), train=True)
KEEP_2x3x4 = ad.keep_mask((2, 3, 4), 0.3, rng(13), train=True)


@pytest.mark.parametrize("name,builder", [
    ("matmul", lambda p: ad.tsum(ad.matmul(p["a"], p["b"]))),
    ("batched_matmul", lambda p: ad.tsum(ad.matmul(p["t3"], p["b"]))),
    ("cross_entropy", lambda p: ad.cross_entropy(p["a"], np.array([0, 3, 1]))),
    ("masked_cross_entropy", lambda p: ad.cross_entropy(
        ad.mul(p["a"], 3.0), np.array([2, 1, 2]), mask=MASK_3x4)),
    ("layer_norm", lambda p: ad.tsum(ad.square(
        ad.layer_norm(p["t3"], p["g"], p["bias"])))),
    ("lookup", lambda p: ad.tsum(ad.square(
        ad.lookup(p["a"], np.array([[0, 2], [1, 1]]))))),
    ("concat_narrow", lambda p: ad.tsum(ad.square(ad.narrow(
        ad.concat([p["a"], p["a"]], axis=1), 1, 2, 3)))),
    ("swapaxes", lambda p: ad.tsum(ad.square(ad.swapaxes(p["t3"], 1, 2)))),
    ("attention_softmax", lambda p: ad.tsum(ad.square(ad.attention(
        p["a"], np.eye(4), np.eye(4), np.eye(4), MASK_3x4, 1)))),
    ("attention", lambda p: ad.tsum(ad.square(ad.attention(
        p["t3"], p["a"], ad.swapaxes(ad.narrow(p["b"], 1, 0, 3), 0, 1),
        ad.swapaxes(p["w1"], 0, 1), MASK_3x4[:, :3], 2, KEEP_2x2x3x3,
        KEEP_2x3x5)))),
    ("feed_forward", lambda p: ad.tsum(ad.square(ad.feed_forward(
        p["t3"], p["w1"], p["b1"], p["b"], p["bias"], KEEP_2x3x4)))),
    ("linear_cross_entropy", lambda p: ad.linear_cross_entropy(
        p["a"], ad.swapaxes(p["b"], 0, 1), np.array([4, 0, 2]))),
])
def test_op_gradients_match_finite_differences(name, builder):
    g = rng(11)
    params = {
        "a": ad.parameter(g.normal(size=(3, 4))),
        "b": ad.parameter(g.normal(size=(4, 5))),
        "t3": ad.parameter(g.normal(size=(2, 3, 4))),
        "g": ad.parameter(g.normal(size=(4,)) + 1.0),
        "bias": ad.parameter(g.normal(size=(4,))),
        "w1": ad.parameter(g.normal(size=(5, 4))),
        "b1": ad.parameter(g.normal(size=(5,))),
    }
    report = ad.finite_difference_check(lambda: builder(params), params)
    for block, entry in report.items():
        assert entry["passed"], f"{name}/{block}: {entry}"


def test_spmm_matches_dense_and_gradient():
    import scipy.sparse as sp
    g = rng(21)
    square = (g.random((6, 6)) < 0.4) * g.normal(size=(6, 6))
    rectangular = (g.random((4, 6)) < 0.5) * g.normal(size=(4, 6))
    assert not np.array_equal(rectangular[:, :4], rectangular[:, :4].T)
    for dense in (square + square.T, square, rectangular):
        adj = sp.csr_matrix(dense)
        x = ad.parameter(g.normal(size=(6, 3)))
        np.testing.assert_allclose(ad.spmm(adj, x).data, dense @ x.data,
                                   atol=1e-12)
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

    targets = g.integers(0, 5, size=7)

    def run():
        loss = ad.cross_entropy(ad.matmul(x, w), targets)
        return ad.grad(loss, [w])[0]

    first, second = run(), run()
    assert np.array_equal(first, second)


TILE = ad.LCE_TILE_ROWS


@pytest.mark.parametrize("n_rows", [5, TILE, 2 * TILE, TILE + 37])
def test_linear_cross_entropy_equals_unfused_composition(n_rows):
    g = rng(41)
    xv, wv = g.normal(size=(n_rows, 16)), g.normal(size=(50, 16))
    targets = g.integers(0, 50, size=n_rows)
    x, w = ad.parameter(xv), ad.parameter(wv)
    fused = ad.linear_cross_entropy(x, w, targets)
    fused.backward()
    x_ref, w_ref = ad.parameter(xv), ad.parameter(wv)
    unfused = ad.cross_entropy(ad.matmul(x_ref, ad.swapaxes(w_ref, 0, 1)),
                               targets)
    unfused.backward()
    # per-row losses are summed once over all rows, so tiling is invisible
    assert fused.item() == unfused.item()
    np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, w_ref.grad, rtol=1e-12, atol=1e-12)


def replay(op, composed, inputs, seed):
    """(value, every input's gradient) of ``op`` and of ``composed`` under
    the same random output weights."""
    results = []
    for fn in (op, composed):
        params = [ad.parameter(x) for x in inputs]
        out = fn(*params)
        ad.tsum(ad.mul(out, rng(seed).normal(size=out.shape))).backward()
        results.append([out.data] + [p.grad for p in params])
    return results


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("layout", ["2d", "3d", "one_row"])
def test_attention_replays_the_composition_bit_for_bit(layout, n_heads, rate):
    g = rng(51)
    b, m, d, d_out = 3, 6, 6, 5  # 1/sqrt(dh) is inexact, so its place shows
    # user token plus a causal window of 5 with 5, 2 and 1 valid items
    mask = causal_attention_mask(m, np.array([5, 2, 1]))
    keys = (b, m, d)
    queries = {"2d": (m, d), "3d": keys, "one_row": (b, 1, d)}[layout]
    if layout == "2d":
        keys, mask = keys[1:], mask[1]
    elif layout == "one_row":
        mask = mask[:, m - 1:]
    inputs = [g.normal(size=queries), g.normal(size=keys), g.normal(size=keys),
              g.normal(size=(d, d_out))]
    # both dropouts at the rate: the probabilities', then the output's
    keep = ad.keep_mask(queries[:-2] + (n_heads, queries[-2], m), rate, rng(52),
                        train=True)
    keep_out = ad.keep_mask(queries[:-1] + (d_out,), rate, rng(54), train=True)
    fused, composed = replay(
        lambda *p: ad.attention(*p, mask, n_heads, keep, keep_out),
        lambda *p: composed_ops.attention(*p, mask, n_heads, keep, keep_out),
        inputs, 53)
    for got, want in zip(fused, composed, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("rows", [(6,), (3, 6)])
def test_feed_forward_replays_the_composition_bit_for_bit(rows, rate):
    g = rng(61)
    d, d_ff = 4, 10
    inputs = [g.normal(size=rows + (d,)), g.normal(size=(d_ff, d)),
              g.normal(size=d_ff), g.normal(size=(d, d_ff)), g.normal(size=d)]
    keep = ad.keep_mask(rows + (d,), rate, rng(62), train=True)
    fused, composed = replay(
        lambda *p: ad.feed_forward(*p, keep),
        lambda *p: composed_ops.feed_forward(*p, keep), inputs, 63)
    for got, want in zip(fused, composed, strict=True):
        assert np.array_equal(got, want)


def test_linear_cross_entropy_finite_at_logit_scale_700():
    g = rng(42)
    x = ad.parameter(g.normal(size=(16, 4)) * 700.0 / 4.0)
    w = ad.parameter(g.normal(size=(9, 4)))
    logits = x.data @ w.data.T
    worst = logits.argmin(axis=1)  # the target's softmax underflows to 0
    loss = ad.linear_cross_entropy(x, w, worst)
    gx, gw = ad.grad(loss, [x, w])
    rows = np.arange(16)
    assert loss.item() >= (logits.max(axis=1) - logits[rows, worst]).sum()
    assert np.isfinite(loss.item())
    assert np.all(np.isfinite(gx)) and np.all(np.isfinite(gw))


def test_linear_cross_entropy_rejects_mismatched_widths():
    with pytest.raises(DimensionError):
        ad.linear_cross_entropy(np.ones((3, 4)), np.ones((5, 3)), [0, 1, 2])


def test_no_grad_nests_and_restores_on_exception():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        with ad.no_grad():
            assert ad.square(x)._backward is None
        assert ad.square(x)._backward is None
    assert ad.square(x)._backward is not None
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    out = ad.square(x)
    assert out._parents == (x,) and out._backward is not None


def test_linear_cross_entropy_under_no_grad_is_a_plain_leaf():
    x = ad.parameter(np.ones((3, 2)))
    w = ad.parameter(np.ones((4, 2)))
    with ad.no_grad():
        loss = ad.linear_cross_entropy(x, w, np.array([0, 1, 2]))
    assert loss._backward is None and loss._parents == ()
    assert np.isclose(loss.item(), 3 * math.log(4))


def test_shared_upstream_gradient_is_never_aliased():
    # add hands the same incoming array to both parents: each must copy it
    a, b = ad.parameter(np.ones(4)), ad.parameter(np.ones(4))
    ad.tsum(ad.add(a, b)).backward()
    assert a.grad is not b.grad
    a.grad[0] = 99.0
    np.testing.assert_array_equal(b.grad, np.ones(4))


def test_owned_first_gradient_is_adopted_without_a_copy():
    # a closure's freshly allocated result becomes x.grad itself
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    out = ad.relu(x)
    closure, returned = out._backward, []

    def spy(g):
        returned.extend(closure(g))
        return returned

    out._backward = spy
    ad.tsum(out).backward()
    assert len(returned) == 1 and x.grad is returned[0]


def test_constant_operand_takes_no_gradient():
    x = ad.parameter(np.arange(4.0))
    mask = ad.Tensor(np.array([1.0, 0.0, 2.0, 1.0]))
    ad.tsum(ad.mul(x, mask)).backward()
    assert mask.grad is None
    np.testing.assert_array_equal(x.grad, mask.data)


@pytest.mark.parametrize("op", [ad.add, ad.mul, ad.matmul])
def test_closure_computes_no_gradient_for_a_constant(op):
    x = ad.parameter(np.arange(4.0).reshape(2, 2))
    constant = ad.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    g = np.ones((2, 2))
    for out, wanted in ((op(x, constant), (True, False)),
                        (op(constant, x), (False, True))):
        grads = out._backward(g)
        assert [pg is not None for pg in grads] == list(wanted)


def test_backward_frees_the_intermediates_the_caller_does_not_hold():
    x = ad.parameter(rng(3).normal(size=(4, 3)))
    hidden = ad.relu(ad.mul(x, 2.0))
    alive = weakref.ref(hidden.data)  # lives exactly as long as the node
    loss = ad.tsum(ad.square(hidden))
    del hidden
    assert alive() is not None  # the tape still holds it
    loss.backward()
    assert alive() is None
    np.testing.assert_array_equal(x.grad, 8.0 * np.maximum(x.data, 0.0))


def test_a_held_intermediate_keeps_its_grad():
    # perfbench/traced.py reads each layer output's grad after the backward
    x = ad.parameter(rng(4).normal(size=(2, 3)))
    hidden = ad.mul(x, 3.0)
    ad.tsum(ad.square(hidden)).backward()
    assert hidden._parents == ()  # consumed, its grad kept
    np.testing.assert_array_equal(hidden.grad, 2.0 * hidden.data)


def test_backward_through_a_consumed_graph_raises():
    x = ad.parameter(np.arange(3.0))
    hidden = ad.square(x)
    loss = ad.tsum(hidden)
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(GraphError):
        loss.backward()
    with pytest.raises(GraphError):
        ad.tsum(ad.mul(hidden, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, first)


def test_dropout_keeps_a_bool_mask_and_matches_the_float_mask_product():
    # ad.attention's output dropout, applied by keep_out in both passes
    g = rng(5)
    q, k, v = (ad.parameter(g.normal(size=(2, 6, 4))) for _ in range(3))
    wo = ad.parameter(g.normal(size=(4, 7)))
    wo.data[:, 0] *= 0.0  # signed zeros in the undropped output, too
    mask = causal_attention_mask(6, np.array([5, 3]))
    rate = 0.3
    keep_out = ad.keep_mask((2, 6, 7), rate, rng(7), train=True)
    assert keep_out[0].dtype == bool
    plain = ad.attention(q, k, v, wo, mask, 2)
    out = ad.attention(q, k, v, wo, mask, 2, keep_out=keep_out)
    factor = (rng(7).random(out.shape) >= rate).astype(np.float64) / (1.0 - rate)
    # a dropped negative entry is -0.0, as the product makes it
    assert np.signbit(out.data[~keep_out[0]]).any()
    assert out.data.tobytes() == (plain.data * factor).tobytes()
    grad_out = rng(8).normal(size=out.shape)
    for got, want in zip(out._backward(grad_out), plain._backward(grad_out * factor),
                         strict=True):
        assert got.tobytes() == want.tobytes()
    assert out._parents == (q, k, v, wo)


def test_relu_forward_maps_negative_zero_to_zero_and_keeps_nan():
    out = ad.relu(np.array([-0.0, -1.0, np.nan, 2.0])).data
    assert not np.signbit(out[:2]).any()
    np.testing.assert_array_equal(out, [0.0, 0.0, np.nan, 2.0])


class TestLookupScatter:
    """lookup's backward equals an ``np.add.at`` scatter bit for bit."""

    @staticmethod
    def reference(shape, *pairs):
        acc = np.zeros(shape)
        for ids, g in pairs:
            np.add.at(acc, ids, g)
        return acc

    @pytest.mark.parametrize("ids", [
        np.array([3, 3, 3, 0, 3, 1, 0, 3, 3]),            # duplicate-heavy 1-D
        np.array([[2, 2, 0], [2, 5, 2], [0, 0, 2]]),      # duplicate-heavy 2-D
        rng(4).integers(0, 3, size=(40, 7)),
    ])
    def test_matches_add_at_bitwise(self, ids):
        table = ad.parameter(rng(1).normal(size=(8, 5)))
        out = ad.lookup(table, ids)
        g = rng(2).normal(size=out.shape) * 10.0 ** rng(3).integers(-8, 8, out.shape)
        ad.tsum(ad.mul(out, g)).backward()
        want = self.reference(table.shape, (ids, g))
        assert table.grad.tobytes() == want.tobytes()
        untouched = np.setdiff1d(np.arange(8), ids)
        assert untouched.size and not table.grad[untouched].any()

    def test_repeated_lookup_into_one_table(self):
        table = ad.parameter(rng(5).normal(size=(6, 3)))
        ids_a, ids_b = np.array([[1, 1], [4, 1]]), np.array([4, 4, 1, 0])
        a, b = ad.lookup(table, ids_a), ad.lookup(table, ids_b)
        ga, gb = rng(6).normal(size=a.shape), rng(7).normal(size=b.shape)
        loss = ad.add(ad.tsum(ad.mul(a, ga)), ad.tsum(ad.mul(b, gb)))
        loss.backward()
        # backward runs the later lookup's closure first
        want = self.reference(table.shape, (ids_b, gb))
        want += self.reference(table.shape, (ids_a, ga))
        assert table.grad.tobytes() == want.tobytes()
        assert not table.grad[[2, 3, 5]].any()

    def test_grads_do_not_alias(self):
        # identity ids: a scatter that handed back its incoming gradient
        # would leave the table's grad a view of the lookup output's
        table = ad.parameter(rng(8).normal(size=(5, 2)))
        first = ad.lookup(table, np.arange(5))
        second = ad.lookup(table, np.array([4, 4]))
        loss = ad.add(ad.tsum(ad.mul(first, 2.0)), ad.tsum(second))
        loss.backward()
        for node in (first, second):
            assert not np.shares_memory(table.grad, node.grad)
        np.testing.assert_array_equal(table.grad[:, 0], [2, 2, 2, 2, 4])
        first.grad[...] = 0.0
        np.testing.assert_array_equal(table.grad[:, 1], [2, 2, 2, 2, 4])


# One DAG step: (op, first operand, partner / length, axis choice, extra ints).
# Operand indices are taken modulo the pool of tensors built so far, and a
# binary op's partner is drawn among the compatible tensors, the first
# operand included, so add(x, x), mul(x, x) and concat([x, x]) all occur.
# The fused ops draw each further operand the same way, falling back to one
# derived from an earlier operand; the extra ints give their mask and, for
# an odd axis choice, keep-masks; attention splits the largest common
# number of heads when the last extra int is odd, else one.
DAG_OPS = ("add", "mul", "concat", "reshape", "swapaxes", "tsum", "narrow",
           "lookup", "attention", "feed_forward")
dag_steps = st.lists(st.tuples(
    st.sampled_from(DAG_OPS), st.integers(0, 63), st.integers(0, 63),
    st.integers(0, 2), st.lists(st.integers(0, 63), min_size=1, max_size=4)),
    min_size=1, max_size=6)
leaf_shapes = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       min_size=1, max_size=4)


def pick(pool, fits, fallback, j):
    """The ``j``-th pool tensor whose shape ``fits``, else ``fallback``."""
    options = [t for t in pool if fits(t.shape)] or [fallback]
    return options[j % len(options)]


def dag_keep(bits, axis):
    return (bits != 1, 2.0) if axis % 2 else None


def build_dag(steps, params, constants, seed):
    """The DAG as a loss over every tensor in the pool; returns (loss, pool)."""
    pool = list(params) + list(constants)
    for op, i, j, axis, extra in steps:
        x = pool[i % len(pool)]
        rows, cols = x.shape
        if op in ("add", "mul"):
            same = [t for t in pool if t.shape == x.shape]
            y = same[j % len(same)]
            out = ad.add(x, y) if op == "add" else ad.mul(x, y)
        elif op == "concat":
            ax = axis % 2
            fits = [t for t in pool if t.shape[1 - ax] == x.shape[1 - ax]]
            out = ad.concat([x, fits[j % len(fits)]], axis=ax)
        elif op == "reshape":
            out = ad.reshape(x, (cols, rows) if axis % 2 else (1, rows * cols))
        elif op == "swapaxes":
            out = ad.swapaxes(x, 0, 1)
        elif op == "tsum":
            ax = None if axis == 2 else axis
            summed = ad.tsum(x, axis=ax)
            out = ad.reshape(summed, (1, summed.data.size))
        elif op == "narrow":
            ax = axis % 2
            start = extra[0] % x.shape[ax]
            out = ad.narrow(x, ax, start, 1 + j % (x.shape[ax] - start))
        elif op == "attention":
            k = pick(pool, lambda s: s[1] == cols, x, j)
            v = pick(pool, lambda s: s[0] == k.shape[0], k, j)
            wo = pick(pool, lambda s: s[0] == v.shape[1], ad.swapaxes(v, 0, 1), j)
            n_heads = math.gcd(cols, v.shape[1]) if extra[-1] % 2 else 1
            bits = np.resize(extra, (rows, k.shape[0])) % 3
            mask = bits > 0
            mask[:, 0] = True  # every query keeps one key
            head_bits = np.broadcast_to(bits, (n_heads,) + bits.shape)
            out_bits = np.resize(extra[::-1], (rows, wo.shape[1])) % 3
            out = ad.attention(x, k, v, wo, mask, n_heads,
                               dag_keep(head_bits, axis), dag_keep(out_bits, axis))
        elif op == "feed_forward":
            w1 = pick(pool, lambda s: s[1] == cols, x, j)
            w2 = pick(pool, lambda s: s[1] == w1.shape[0],
                      ad.swapaxes(w1, 0, 1), j)
            b1, b2 = (pick(pool, lambda s, n=w.shape[0]: s in ((1, n), (rows, n)),
                           ad.reshape(ad.tsum(w, axis=1), (1, w.shape[0])), j)
                      for w in (w1, w2))
            bits = np.resize(extra, (rows, w2.shape[0])) % 3
            out = ad.feed_forward(x, w1, b1, w2, b2, dag_keep(bits, axis))
        else:
            out = ad.lookup(x, np.array(extra) % rows)
        pool.append(out)
    weights = np.random.Generator(np.random.PCG64(seed))
    loss = ad.Tensor(0.0)
    for t in list(pool):
        w = ad.Tensor(weights.uniform(-1.0, 1.0, size=t.shape))
        term = ad.mul(t, w)
        loss = ad.add(loss, ad.tsum(term))
        pool += [w, term, loss]
    return loss, pool


@given(dag_steps, leaf_shapes, st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_random_dag_gradients_are_unaliased_and_match_fd(steps, shapes,
                                                          n_constants, seed):
    g = rng(seed)
    values = [g.uniform(0.5, 1.5, size=s) * g.choice([-1.0, 1.0], size=s)
              for s in shapes]
    params = {f"p{k}": ad.parameter(v) for k, v in enumerate(values)}
    constants = [ad.Tensor(values[k % len(values)] * 0.5)
                 for k in range(n_constants)]
    loss, pool = build_dag(steps, params.values(), constants, seed)
    # picked before backward(), which consumes every node it passes
    pool_constants = [t for t in pool if not (t.requires_grad or t._parents)]
    loss.backward()
    grads = [t.grad for t in pool if t.grad is not None]
    for k, first in enumerate(grads):
        assert not any(np.shares_memory(first, other) for other in grads[k + 1:])
    for t in pool_constants:
        assert t.grad is None
    report = ad.finite_difference_check(
        lambda: build_dag(steps, params.values(), constants, seed)[0], params)
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"
