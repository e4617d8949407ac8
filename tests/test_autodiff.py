"""Gradient engine checks: op-level VJPs, cross-entropy safety, FD harness."""

import contextlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec.errors import DimensionError, GraphError
from mrgsrec.seqenc import causal_attention_mask


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def masked_softmax(x, mask):
    """Softmax of ``x`` over its last axis where ``mask`` allows, as
    ``ad.attention`` turns its scores into probabilities."""
    return ad._masked_softmax(np.array(x, dtype=np.float64), mask)


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


def scalar_relu(x, b1=0.0, b2=0.0):
    """``ad.feed_forward`` with 1x1 weights of 1, so rows do not mix and
    each output row is relu(x + b1) + b2."""
    return ad.feed_forward(x, np.ones((1, 1)), b1, np.ones((1, 1)), b2)


def test_feed_forward_relu_subgradient_at_zero_is_zero():
    x = ad.parameter(np.array([[0.0], [-1.0], [2.0], [1.0]]))
    (g,) = ad.grad(ad.tsum(scalar_relu(x, b1=np.array([0.0]))), [x])
    np.testing.assert_array_equal(g, [[0.0], [0.0], [1.0], [1.0]])
    # a pre-activation of exactly 0 reached through the bias
    (g,) = ad.grad(ad.tsum(scalar_relu(x, b1=np.array([-1.0]))), [x])
    np.testing.assert_array_equal(g, [[0.0], [0.0], [1.0], [0.0]])


def test_linear_function_fd_error_near_machine_precision():
    w = ad.parameter(rng(5).normal(size=(6,)))
    coef = rng(6).normal(size=(6,))
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.mul(w, coef)), {"w": w})
    assert report["w"]["max_rel_error"] < 1e-9


def test_corrupted_backward_fails_check():
    def broken_relu(a):
        a = ad.as_tensor(a)
        mask = a.data > 0.0
        out = np.where(mask, a.data, 0.0)

        def backward(g):
            return (g * mask * 1.5,)  # wrong slope on purpose

        return ad._make(out, (a,), backward)

    x = ad.parameter(rng(7).normal(size=(8,)) + 2.0)  # keep away from the kink
    report = ad.finite_difference_check(
        lambda: ad.tsum(ad.square(broken_relu(x))), {"x": x})
    assert not report["x"]["passed"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_backward_fails_check(bad):
    def poisoned(a):  # identity whose backward closure returns ``bad``
        return ad._make(a.data.copy(), (a,),
                        lambda g: (np.full_like(a.data, bad),))

    x = ad.parameter(rng(8).normal(size=(4,)))
    y = ad.parameter(rng(9).normal(size=(3,)))
    report = ad.finite_difference_check(
        lambda: ad.add(ad.tsum(ad.square(poisoned(x))), ad.tsum(ad.square(y))),
        {"x": x, "y": y})
    assert report["x"] == {"max_rel_error": np.inf, "passed": False}
    assert report["y"]["passed"]
    assert max(report, key=lambda b: report[b]["max_rel_error"]) == "x"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_loss_fails_check(bad):
    x = ad.parameter(rng(10).normal(size=(3,)))
    perturbed = []

    def loss_fn():  # finite at the base point, ``bad`` once perturbed
        loss = ad.tsum(ad.square(x))
        if perturbed:
            loss.data[...] = bad
        perturbed.append(True)
        return loss

    report = ad.finite_difference_check(loss_fn, {"x": x})
    assert report["x"] == {"max_rel_error": np.inf, "passed": False}


def graph_in_closures(loss):
    """Every backward closure on ``loss``'s tape that captured a Tensor or a
    tape node, alone or in a tuple or list; the tape must hold no value a
    backward does not read."""
    found, seen, stack = [], set(), [loss.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        for cell in getattr(node.backward, "__closure__", None) or ():
            value = cell.cell_contents
            items = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, (ad.Tensor, ad.Node)) for v in items):
                found.append(node.backward)
    return found


MASK_3x4 = np.array([[True, False, True, True],
                     [True, True, False, True],
                     [False, True, True, False]])
SPARSE_5x3 = sp.csr_matrix(np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0],
                                      [0.5, 3.0, 0.0], [0.0, -1.0, 1.0],
                                      [2.0, 0.0, 0.0]]))
KEEP_2x2x3x3 = ad.keep_mask((2, 2, 3, 3), 0.3, rng(12), train=True)
KEEP_2x3x5 = ad.keep_mask((2, 3, 5), 0.3, rng(14), train=True)
KEEP_2x3x4 = ad.keep_mask((2, 3, 4), 0.3, rng(13), train=True)
KEEP_ROW_2x2x1x3 = (KEEP_2x2x3x3[0][:, :, 1:2], KEEP_2x2x3x3[1])
KEEP_ROW_2x1x5 = (KEEP_2x3x5[0][:, 1:2], KEEP_2x3x5[1])


def folded_attention(p, **kwargs):
    """``ad.attention`` over t3 with its norm, (4, 4) q, k and v projections
    and a (4, 5) output projection, one of them shared with w1."""
    return ad.attention(
        p["t3"], p["g"], p["bias"], p["w4"], ad.narrow(p["b"], 1, 0, 4),
        ad.swapaxes(ad.narrow(p["w1"], 0, 1, 4), 0, 1),
        ad.swapaxes(p["w1"], 0, 1), MASK_3x4[:, :3], 2, **kwargs)


@pytest.mark.parametrize("name,builder", [
    ("add", lambda p: ad.tsum(ad.square(ad.add(p["t3"], p["bias"])))),
    ("mul", lambda p: ad.tsum(ad.mul(ad.mul(p["a"], p["g"]), MASK_3x4))),
    ("reshape", lambda p: ad.tsum(ad.square(ad.reshape(p["t3"], (4, 6))))),
    ("spmm", lambda p: ad.tsum(ad.square(ad.spmm(SPARSE_5x3, p["a"])))),
    ("matmul", lambda p: ad.tsum(ad.matmul(p["a"], p["b"]))),
    ("batched_matmul", lambda p: ad.tsum(ad.matmul(p["t3"], p["b"]))),
    ("cross_entropy", lambda p: ad.cross_entropy(p["a"], np.array([0, 3, 1]))),
    ("masked_cross_entropy", lambda p: ad.cross_entropy(
        ad.mul(p["a"], 3.0), np.array([2, 1, 2]), mask=MASK_3x4)),
    # the norm alone: identity weights, and a b1 that keeps the ReLU open
    ("layer_norm", lambda p: ad.tsum(ad.square(ad.feed_forward(
        p["t3"], np.eye(4), np.full(4, 50.0), np.eye(4), 0.0,
        norm=(p["g"], p["bias"]))))),
    ("lookup", lambda p: ad.tsum(ad.square(
        ad.lookup(p["a"], np.array([[0, 2], [1, 1]]))))),
    ("concat_narrow", lambda p: ad.tsum(ad.square(ad.narrow(
        ad.concat([p["a"], p["a"]], axis=1), 1, 2, 3)))),
    ("swapaxes", lambda p: ad.tsum(ad.square(ad.swapaxes(p["t3"], 1, 2)))),
    ("attention_softmax", lambda p: ad.tsum(ad.square(ad.attention(
        p["t3"], p["g"], p["bias"], p["w4"], np.eye(4), np.eye(4), np.eye(4),
        MASK_3x4[:, :3], 1)))),
    ("attention", lambda p: ad.tsum(ad.square(folded_attention(
        p, keep=KEEP_2x2x3x3, keep_out=KEEP_2x3x5)))),
    ("attention_query_row", lambda p: ad.tsum(ad.square(folded_attention(
        p, keep=KEEP_ROW_2x2x1x3, keep_out=KEEP_ROW_2x1x5, query_row=1)))),
    ("feed_forward", lambda p: ad.tsum(ad.square(ad.feed_forward(
        p["t3"], p["w1"], p["b1"], p["b"], p["bias"], KEEP_2x3x4)))),
    ("feed_forward_norm", lambda p: ad.tsum(ad.square(ad.feed_forward(
        p["t3"], p["w1"], p["b1"], p["b"], p["bias"], KEEP_2x3x4,
        norm=(p["g"], ad.narrow(p["b1"], 0, 1, 4)))))),
    ("linear_cross_entropy", lambda p: ad.linear_cross_entropy(
        p["a"], ad.swapaxes(p["b"], 0, 1), np.array([4, 0, 2]))),
    # negatives repeat within a row, and a positive is another's negative
    ("sampled_logits", lambda p: ad.cross_entropy(ad.sampled_logits(
        p["a"], ad.swapaxes(p["b"], 0, 1), np.array([1, 4, 0]),
        np.array([[2, 2, 3], [0, 1, 1], [4, 0, 4]])), 0)),
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
        "w4": ad.parameter(g.normal(size=(4, 4))),
    }
    assert not graph_in_closures(builder(params))
    report = ad.finite_difference_check(lambda: builder(params), params)
    for block, entry in report.items():
        assert entry["passed"], f"{name}/{block}: {entry}"


def test_spmm_matches_dense_and_gradient():
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


def attention_inputs(g, rows, d_qk=6, d_v=4, d_out=5):
    """x (..., m, d) with the norm's gain and bias, wq, wk, wv and wo."""
    d = rows[-1]
    return [g.normal(size=rows) * 3.0 + 1.0, g.normal(size=d), g.normal(size=d),
            g.normal(size=(d, d_qk)), g.normal(size=(d, d_qk)),
            g.normal(size=(d, d_v)), g.normal(size=(d_v, d_out))]


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("layout", ["2d", "3d", "one_row", "first_row"])
def test_attention_replays_the_composition_bit_for_bit(layout, n_heads, rate):
    g = rng(51)
    b, m, d, d_out = 3, 6, 7, 5  # 1/sqrt(dh) is inexact, so its place shows
    # user token plus a causal window of 5 with 5, 2 and 1 valid items
    mask = causal_attention_mask(m, np.array([5, 2, 1]))
    rows = (m, d) if layout == "2d" else (b, m, d)
    if layout == "2d":
        mask = mask[1]
    query_row = {"one_row": m - 1, "first_row": 0}.get(layout)
    queries = rows[:-2] + ((m,) if query_row is None else (1,))
    inputs = attention_inputs(g, rows, d_out=d_out)
    # both dropouts at the rate: the probabilities', then the output's
    keep = ad.keep_mask(queries[:-1] + (n_heads, queries[-1], m), rate, rng(52),
                        train=True)
    keep_out = ad.keep_mask(queries + (d_out,), rate, rng(54), train=True)
    fused, composed = replay(
        lambda *p: ad.attention(*p, mask, n_heads, keep, keep_out, query_row),
        lambda *p: composed_ops.attention(*p, mask, n_heads, keep, keep_out,
                                          query_row),
        inputs, 53)
    for got, want in zip(fused, composed, strict=True):
        assert np.array_equal(got, want)


def ffn_inputs(g, rows, d=4, d_ff=10):
    return [g.normal(size=rows + (d,)), g.normal(size=(d_ff, d)),
            g.normal(size=d_ff), g.normal(size=(d, d_ff)), g.normal(size=d)]


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("rows", [(6,), (3, 6)])
def test_feed_forward_replays_the_composition_bit_for_bit(rows, rate):
    # without a norm (the fusion block), then with the encoder's pre-norm
    g = rng(61)
    inputs = ffn_inputs(g, rows)
    keep = ad.keep_mask(rows + (4,), rate, rng(62), train=True)
    fused, composed = replay(
        lambda *p: ad.feed_forward(*p, keep),
        lambda *p: composed_ops.feed_forward(*p, keep), inputs, 63)
    inputs = [inputs[0] * 3.0 + 1.0] + inputs[1:] + [g.normal(size=4),
                                                     g.normal(size=4)]
    normed = replay(lambda *p: ad.feed_forward(*p[:5], keep, norm=p[5:]),
                    lambda *p: composed_ops.feed_forward(*p[:5], keep,
                                                         norm=p[5:]),
                    inputs, 66)
    for got, want in zip(fused + normed[0], composed + normed[1], strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_rows", [5, TILE, 2 * TILE, TILE + 37])
def test_linear_cross_entropy_replays_the_reference_bit_for_bit(n_rows):
    g = rng(71)
    inputs = [g.normal(size=(n_rows, 16)), g.normal(size=(50, 16))]
    targets = g.integers(0, 50, size=n_rows)
    fused, reference = replay(
        lambda *p: ad.linear_cross_entropy(*p, targets),
        lambda *p: composed_ops.linear_cross_entropy(*p, targets), inputs, 72)
    for got, want in zip(fused, reference, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_rows", [1, 3, ad.SCE_CHUNK_ROWS, 2 * ad.SCE_CHUNK_ROWS + 5])
def test_sampled_logits_replays_the_composition_bit_for_bit(n_rows):
    # few items, so negatives repeat within rows and across them; signed
    # zeros, and one negative per row, whose x term the composition's mul
    # takes as it is; the logits alone, then under the fused loss's softmax
    g = rng(73)
    inputs = [g.normal(size=(n_rows, 16)), g.normal(size=(9, 16))]
    for x in inputs:
        x[g.random(x.shape) < 0.2] = 0.0
        x[g.random(x.shape) < 0.2] = -0.0
    pos = g.integers(0, 9, size=n_rows)
    for neg in (g.integers(0, 9, size=(n_rows, 12)),
                g.integers(0, 9, size=(n_rows, 1))):
        logits = replay(lambda *p: ad.sampled_logits(*p, pos, neg),
                        lambda *p: composed_ops.sampled_logits(*p, pos, neg),
                        inputs, 74)
        softmax = replay(
            lambda *p: ad.cross_entropy(ad.sampled_logits(*p, pos, neg), 0),
            lambda *p: ad.cross_entropy(
                composed_ops.sampled_logits(*p, pos, neg), 0), inputs, 75)
        for got, want in zip(logits[0] + softmax[0], logits[1] + softmax[1],
                             strict=True):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [(7,), (3, 7)])
def test_layer_norm_replays_the_reference_bit_for_bit(rows):
    # the norm attention and feed_forward fold in: its value, and the input,
    # gain and bias gradients from the value recomputed off the kept x̂
    g = rng(81)
    d = 6
    x, gain, bias = (g.normal(size=rows + (d,)) * 3.0 + 1.0, g.normal(size=d),
                     g.normal(size=d))
    grad_out = rng(82).normal(size=rows + (d,))
    params = [ad.parameter(t) for t in (x, gain, bias)]
    out = composed_ops.layer_norm(*params)
    ad.tsum(ad.mul(out, grad_out)).backward()
    value, xhat, inv = ad._norm(x, gain, bias, keep=True)
    assert value.tobytes() == out.data.tobytes()
    assert ad._affine(xhat, gain, bias).tobytes() == value.tobytes()
    grads = ad._norm_grad(grad_out, xhat, inv, gain, bias.shape)
    for got, p in zip(grads, params, strict=True):
        assert got.tobytes() == p.grad.tobytes()
    # without a tape the value overwrites x̂
    plain, none, _ = ad._norm(x, gain, bias, keep=False)
    assert none is None and plain.tobytes() == value.tobytes()


@pytest.mark.parametrize("name", ["attention", "feed_forward", "layer_norm",
                                  "sampled_logits"])
def test_no_tape_forward_matches_recording_and_leaves_inputs(name):
    # An op may write into the arrays it allocated, never into its inputs.
    g = rng(91)
    b, m, d, d_ff = 3, 6, 6, 10
    mask = causal_attention_mask(m, np.array([5, 2, 1]))
    x = g.normal(size=(b, m, d))
    ffn = [x, g.normal(size=(d_ff, d)), g.normal(size=d_ff),
           g.normal(size=(d, d_ff)), g.normal(size=d)]
    pos, neg = np.array([0, 4, 4]), np.array([[1, 1, 2], [0, 3, 4], [2, 2, 2]])
    op, inputs = {
        "attention": (lambda *p: ad.attention(*p, mask, 2),
                      [x] + attention_inputs(g, (b, m, d), d_qk=d, d_v=d,
                                             d_out=d)[1:]),
        "feed_forward": (ad.feed_forward, ffn),
        "layer_norm": (  # the norm, folded into feed_forward
            lambda *p: ad.feed_forward(*p[:5], norm=p[5:]),
            ffn + [g.normal(size=d), g.normal(size=d)]),
        "sampled_logits": (
            lambda *p: ad.cross_entropy(ad.sampled_logits(*p, pos, neg), 0),
            [x[:, 0], g.normal(size=(5, d))]),
    }[name]
    saved = [x.copy() for x in inputs]
    params = [ad.parameter(x) for x in inputs]
    recorded = op(*params)
    ad.tsum(ad.mul(recorded, rng(92).normal(size=recorded.shape))).backward()
    with ad.no_grad():
        plain = op(*inputs)
    assert plain.node.backward is None
    assert plain.data.tobytes() == recorded.data.tobytes()
    for x, p, before in zip(inputs, params, saved, strict=True):
        assert np.array_equal(x, before) and np.array_equal(p.data, before)


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
            assert ad.square(x).node.backward is None
        assert ad.square(x).node.backward is None
    assert ad.square(x).node.backward is not None
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    out = ad.square(x)
    assert out.node.parents == (x.node,) and out.node.backward is not None


def test_linear_cross_entropy_under_no_grad_is_a_plain_leaf():
    x = ad.parameter(np.ones((3, 2)))
    w = ad.parameter(np.ones((4, 2)))
    with ad.no_grad():
        loss = ad.linear_cross_entropy(x, w, np.array([0, 1, 2]))
    assert loss.node.backward is None and loss.node.parents == ()
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
    out = composed_ops.relu(x)
    closure, returned = out.node.backward, []

    def spy(g):
        returned.extend(closure(g))
        return returned

    out.node.backward = spy
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
        grads = out.node.backward(g)
        assert [pg is not None for pg in grads] == list(wanted)


@pytest.mark.parametrize("norm", [False, True])
def test_feed_forward_closure_computes_no_gradient_for_a_constant_bias(norm):
    # the fusion block's 0.0 biases take None; parameter biases their sums
    x, w1, b1, w2, b2 = (ad.parameter(a) for a in ffn_inputs(rng(64), (3, 5)))
    extra = (ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))) if norm else ()
    g = rng(65).normal(size=(3, 5, 4))
    for bias1, bias2 in ((0.0, 0.0), (b1, 0.0), (0.0, b2), (b1, b2)):
        out = ad.feed_forward(x, w1, bias1, w2, bias2, norm=extra or None)
        grads = out.node.backward(g)
        assert len(grads) == 5 + len(extra)
        assert (grads[2] is not None, grads[4] is not None) \
            == (bias1 is b1, bias2 is b2)
        assert all(grads[i] is not None for i in (0, 1, 3, *range(5, len(grads))))


def test_backward_frees_the_intermediates_the_caller_does_not_hold():
    x = ad.parameter(rng(3).normal(size=(4, 3)))
    hidden = composed_ops.relu(ad.mul(x, 2.0))
    alive = weakref.ref(hidden.data)  # lives exactly as long as the node
    loss = ad.tsum(ad.square(hidden))
    del hidden
    assert alive() is not None  # the tape still holds it
    loss.backward()
    assert alive() is None
    np.testing.assert_array_equal(x.grad, 8.0 * np.maximum(x.data, 0.0))


def test_a_value_no_backward_reads_is_freed_in_the_forward():
    # add's closure keeps shapes and mul's by a constant keeps the constant,
    # so nothing on the tape holds the sum once the caller drops it
    x = ad.parameter(rng(5).normal(size=(4, 3)))
    weights = rng(6).normal(size=(4, 3))
    total = ad.add(ad.mul(x, 2.0), x)
    alive = weakref.ref(total.data)
    loss = ad.tsum(ad.mul(total, weights))
    del total
    assert alive() is None
    loss.backward()
    assert x.grad.tobytes() == (weights * 2.0 + weights).tobytes()


def test_a_norm_output_is_freed_in_the_forward(monkeypatch):
    # attention and feed_forward keep x̂ alone and recompute x̂·gain + bias
    # in their backward, so the norm's output is gone when the op returns,
    # and the gradients still equal the composition's
    outputs, norm = [], ad._norm

    def spy(*args, **kwargs):
        result = norm(*args, **kwargs)
        outputs.append(weakref.ref(result[0]))
        return result

    monkeypatch.setattr(ad, "_norm", spy)
    g = rng(7)
    inputs = attention_inputs(g, (2, 5, 4), d_qk=4, d_v=4, d_out=4)
    inputs += [g.normal(size=(6, 4)), g.normal(size=6), g.normal(size=(4, 6)),
               g.normal(size=4), g.normal(size=4), g.normal(size=4)]
    mask = causal_attention_mask(5, np.array([4, 2]))

    def block(ops, p):
        mid = ad.add(p[0], ops.attention(*p[:7], mask, 2))
        return ad.add(mid, ops.feed_forward(mid, *p[7:11], norm=p[11:]))

    def forward(*p):  # the fused block, checked before its backward
        out = block(ad, p)
        assert len(outputs) == 2 and all(ref() is None for ref in outputs)
        return out

    fused, composed = replay(forward, lambda *p: block(composed_ops, p),
                             inputs, 8)
    for got, want in zip(fused, composed, strict=True):
        assert got.tobytes() == want.tobytes()


def test_sampled_logits_holds_no_negative_rows():
    # the (B, S, d) negatives of 256 users x 100 draws x 64 dims are 13.1 MB;
    # the op gathers them a chunk of users at a time in both passes
    g = rng(9)
    x = ad.parameter(g.normal(size=(256, 64)))
    table = ad.parameter(g.normal(size=(3600, 64)) * 0.1)
    pos, neg = g.integers(0, 3600, size=256), g.integers(0, 3600, size=(256, 100))
    rows_bytes = neg.size * 64 * 8
    tracemalloc.start()
    try:
        ad.cross_entropy(ad.sampled_logits(x, table, pos, neg), 0).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table's gradient (1.8 MB) and two CSR scatters are all it holds
    assert peak < 0.5 * rows_bytes


def test_a_held_intermediate_keeps_its_grad():
    # perfbench/traced.py reads each layer output's grad after the backward
    x = ad.parameter(rng(4).normal(size=(2, 3)))
    hidden = ad.mul(x, 3.0)
    ad.tsum(ad.square(hidden)).backward()
    assert hidden.node.parents == ()  # consumed, its grad kept
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


def stacked_weight_grad(a, g):
    """The weight gradient as the stacked per-sample products, summed."""
    return ad._unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g),
                           (a.shape[-1], g.shape[-1]))


# Exact zeros of both signs make signed-zero products and sums.
weight_grad_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                               st.floats(-1e3, 1e3))


@given(st.data(), st.lists(st.integers(1, 9), min_size=1, max_size=2),
       st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_weight_grad_equals_the_stacked_sum_bit_for_bit(data, lead, n, d_in,
                                                        d_out):
    # numpy sums the stack over axis 0 from +0.0 in sample order; a numpy
    # that changes that order fails here before it moves a training step
    lead = tuple(lead)
    a = data.draw(hnp.arrays(np.float64, lead + (n, d_in), elements=weight_grad_values))
    g = data.draw(hnp.arrays(np.float64, lead + (n, d_out), elements=weight_grad_values))
    assert ad._weight_grad(a, g).tobytes() == stacked_weight_grad(a, g).tobytes()


@pytest.mark.parametrize("d_in,d_out", [(64, 256), (256, 64)])
def test_weight_grad_equals_the_stacked_sum_at_encoder_scale(d_in, d_out):
    # a catalog_wide FFN's w1 and w2 gradients: 256 windows of 51 rows
    g = rng(31)
    a, grad_out = g.normal(size=(256, 51, d_in)), g.normal(size=(256, 51, d_out))
    got = ad._weight_grad(a, grad_out)
    assert got.tobytes() == stacked_weight_grad(a, grad_out).tobytes()


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_feed_forward_backward_leaves_its_inputs_and_gradient(rate):
    # the closure reuses the hidden activation it alone holds for the
    # pre-activation gradient, and writes nothing it was given
    g = rng(41)
    d, d_ff = 4, 10
    inputs = [g.normal(size=(3, 5, d)), g.normal(size=(d_ff, d)),
              g.normal(size=d_ff), g.normal(size=(d, d_ff)), g.normal(size=d)]
    keep = ad.keep_mask((3, 5, d), rate, rng(42), train=True)
    params = [ad.parameter(x) for x in inputs]
    out = ad.feed_forward(*params, keep)
    out_before = out.data.copy()
    grad_out = g.normal(size=out.shape)
    grad_before = grad_out.copy()
    grads = out.node.backward(grad_out)
    assert grad_out.tobytes() == grad_before.tobytes()
    assert out.data.tobytes() == out_before.tobytes()
    for x, p in zip(inputs, params, strict=True):
        assert p.data.tobytes() == x.tobytes()
    for pg in grads:
        assert not np.may_share_memory(pg, grad_out)


def test_a_second_backward_through_a_reusing_closure_raises():
    # feed_forward's closure overwrites its hidden activation, so it must
    # never run twice: the sweep consumes it, and a rerun raises
    g = rng(43)
    x = ad.parameter(g.normal(size=(2, 3, 4)))
    w1, w2 = ad.parameter(g.normal(size=(6, 4))), ad.parameter(g.normal(size=(4, 6)))
    out = ad.feed_forward(x, w1, 0.0, w2, 0.0)
    loss = ad.tsum(out)
    loss.backward()
    first = [p.grad.copy() for p in (x, w1, w2)]
    with pytest.raises(GraphError):
        loss.backward()
    with pytest.raises(GraphError):
        ad.tsum(ad.mul(out, 2.0)).backward()
    with pytest.raises(GraphError):
        out.node.backward(np.ones(out.shape))
    for p, want in zip((x, w1, w2), first, strict=True):
        assert p.grad.tobytes() == want.tobytes()


def test_dropout_keeps_a_bool_mask_and_matches_the_float_mask_product():
    # ad.attention's output dropout, applied by keep_out in both passes
    g = rng(5)
    inputs = [ad.parameter(t) for t in attention_inputs(g, (2, 6, 4), d_qk=4,
                                                        d_v=4, d_out=7)]
    inputs[-1].data[:, 0] *= 0.0  # signed zeros in the undropped output, too
    mask = causal_attention_mask(6, np.array([5, 3]))
    rate = 0.3
    keep_out = ad.keep_mask((2, 6, 7), rate, rng(7), train=True)
    assert keep_out[0].dtype == bool
    plain = ad.attention(*inputs, mask, 2)
    out = ad.attention(*inputs, mask, 2, keep_out=keep_out)
    factor = (rng(7).random(out.shape) >= rate).astype(np.float64) / (1.0 - rate)
    # a dropped negative entry is -0.0, as the product makes it
    assert np.signbit(out.data[~keep_out[0]]).any()
    assert out.data.tobytes() == (plain.data * factor).tobytes()
    grad_out = rng(8).normal(size=out.shape)
    for got, want in zip(out.node.backward(grad_out),
                         plain.node.backward(grad_out * factor), strict=True):
        assert got.tobytes() == want.tobytes()
    assert out.node.parents == tuple(t.node for t in inputs)


def test_feed_forward_relu_maps_negative_zero_to_zero_and_keeps_nan():
    # b1 = b2 = -0.0 leave every sign as it is, -0.0 included
    x = np.array([[-0.0], [-1.0], [np.nan], [2.0]])
    out = scalar_relu(x, b1=np.array([-0.0]), b2=np.array([-0.0])).data
    assert not np.signbit(out[:2]).any()
    np.testing.assert_array_equal(out, [[0.0], [0.0], [np.nan], [2.0]])


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
        np.array([], dtype=np.int64),                     # no ids: indptr [0]
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


class TestGatherIdRange:
    """``lookup`` and ``sampled_logits`` read their ids through
    ``check_ids``, recorded or not: an id outside the table's rows raises
    IndexError before they gather (-1 would read the last row and n_rows
    would reach scipy's unchecked scatter), and so does a bool or float id
    (a bool array would gather as a mask, a float one fails in numpy)."""

    @pytest.mark.parametrize("recorded", [True, False])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_lookup_rejects(self, bad, recorded):
        table = ad.parameter(np.arange(6.0).reshape(3, 2))
        with (contextlib.nullcontext() if recorded else ad.no_grad()):
            with pytest.raises(IndexError, match=r"row id out of range \[0, 3\)"):
                ad.lookup(table, np.array([[0, bad], [1, 2]]))

    @pytest.mark.parametrize("recorded", [True, False])
    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("which", ["positive", "negative"])
    def test_sampled_logits_rejects(self, which, bad, recorded):
        table = ad.parameter(rng(9).normal(size=(3, 2)))
        x = ad.parameter(rng(10).normal(size=(2, 2)))
        pos, neg = np.array([0, 1]), np.array([[1, 2], [2, 0]])
        (pos if which == "positive" else neg)[-1] = bad
        with (contextlib.nullcontext() if recorded else ad.no_grad()):
            with pytest.raises(IndexError,
                               match=rf"{which} id out of range \[0, 3\)"):
                ad.sampled_logits(x, table, pos, neg)

    @pytest.mark.parametrize("recorded", [True, False])
    @pytest.mark.parametrize("ids", [[True, False, True], [0.0, 2.0]],
                             ids=["bool", "float"])
    def test_lookup_refuses_non_integer_ids(self, ids, recorded):
        table = ad.parameter(np.arange(6.0).reshape(3, 2))
        dtype = np.asarray(ids).dtype
        with (contextlib.nullcontext() if recorded else ad.no_grad()):
            with pytest.raises(IndexError,
                               match=f"row ids must be integers, got {dtype}"):
                ad.lookup(table, ids)

    @pytest.mark.parametrize("recorded", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    @pytest.mark.parametrize("which", ["positive", "negative"])
    def test_sampled_logits_refuses_non_integer_ids(self, which, dtype,
                                                    recorded):
        table = ad.parameter(rng(9).normal(size=(3, 2)))
        x = ad.parameter(rng(10).normal(size=(2, 2)))
        pos, neg = np.array([0, 1]), np.array([[1, 0], [1, 0]])
        if which == "positive":
            pos = pos.astype(dtype)
        else:
            neg = neg.astype(dtype)
        with (contextlib.nullcontext() if recorded else ad.no_grad()):
            with pytest.raises(IndexError, match=f"{which} ids must be "
                                                 f"integers, got {np.dtype(dtype)}"):
                ad.sampled_logits(x, table, pos, neg)

    def test_lookup_of_no_ids_is_an_empty_block(self):
        table = ad.parameter(np.arange(6.0).reshape(3, 2))
        out = ad.lookup(table, [])
        assert out.shape == (0, 2)
        ad.tsum(out).backward()
        assert table.grad.tobytes() == np.zeros((3, 2)).tobytes()


# One DAG step: (op, first operand, partner / length, axis choice, extra ints).
# Operand indices are taken modulo the pool of tensors built so far, and a
# binary op's partner is drawn among the compatible tensors, the first
# operand included, so add(x, x), mul(x, x) and concat([x, x]) all occur.
# The fused ops draw each further operand the same way, falling back to one
# derived from an earlier operand; the extra ints give their mask and, for
# an odd axis choice, keep-masks; attention splits the largest common
# number of heads when the last extra int is odd, else one. An odd first
# extra int makes attention query one row and feed_forward take a norm.
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


def dag_norm(pool, x, j):
    """A gain and a bias for ``x``'s rows: (1, cols) or x-shaped pool tensors,
    else x's column sums."""
    rows, cols = x.shape
    column_sums = ad.reshape(ad.tsum(x, axis=0), (1, cols))
    return tuple(pick(pool, lambda s: s in ((1, cols), (rows, cols)),
                      column_sums, j + n) for n in (0, 1))


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
            gain, bias = dag_norm(pool, x, j)
            wq = pick(pool, lambda s: s[0] == cols, ad.swapaxes(x, 0, 1), j)
            wk = pick(pool, lambda s: s == wq.shape, wq, j + 1)
            wv = pick(pool, lambda s: s[0] == cols, wq, j + 2)
            wo = pick(pool, lambda s: s[0] == wv.shape[1], ad.swapaxes(wv, 0, 1), j)
            n_heads = (math.gcd(wq.shape[1], wv.shape[1]) if extra[-1] % 2
                       else 1)
            bits = np.resize(extra, (rows, rows)) % 3
            mask = bits > 0
            mask[:, 0] = True  # every query keeps one key
            query_row = extra[0] // 2 % rows if extra[0] % 2 else None
            if query_row is not None:
                bits = bits[query_row:query_row + 1]
            head_bits = np.broadcast_to(bits, (n_heads,) + bits.shape)
            out_bits = np.resize(extra[::-1], (bits.shape[0], wo.shape[1])) % 3
            out = ad.attention(x, gain, bias, wq, wk, wv, wo, mask, n_heads,
                               dag_keep(head_bits, axis), dag_keep(out_bits, axis),
                               query_row)
        elif op == "feed_forward":
            w1 = pick(pool, lambda s: s[1] == cols, x, j)
            w2 = pick(pool, lambda s: s[1] == w1.shape[0],
                      ad.swapaxes(w1, 0, 1), j)
            b1, b2 = (pick(pool, lambda s, n=w.shape[0]: s in ((1, n), (rows, n)),
                           ad.reshape(ad.tsum(w, axis=1), (1, w.shape[0])), j)
                      for w in (w1, w2))
            bits = np.resize(extra, (rows, w2.shape[0])) % 3
            out = ad.feed_forward(x, w1, b1, w2, b2, dag_keep(bits, axis),
                                  dag_norm(pool, x, j) if extra[0] % 2 else None)
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
    assert not graph_in_closures(loss)
    # picked before backward(), which consumes every node it passes
    pool_constants = [t for t in pool if not (t.requires_grad or t.node.parents)]
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
