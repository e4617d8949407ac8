"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its inputs and a backward closure on the value it
produces; ``backward()`` replays the graph in reverse topological order and
accumulates vector-Jacobian products into ``Tensor.grad``. The sweep
consumes the tape: once a node's closure has handed its gradients on, the
node drops its closure and parents, so an intermediate that only the tape
holds is freed as the sweep passes it, with its ``grad`` and the arrays its
closure captured. Only leaves and the nodes the caller holds keep a
``grad``; a later ``backward()`` that reaches a consumed node raises
GraphError. Conventions:

* all values are float64 (gradient checks need the headroom),
* ReLU'(0) = 0,
* attention, cross_entropy and linear_cross_entropy subtract the row max
  before exponentiating, so logits of any magnitude stay finite,
* replay order is the reverse of a depth-first post-order that visits a
  node's parents last to first: every closure runs after all consumers of
  its output, and a node's first parent's subtree runs before its later
  parents' (for ``tsum(add(a, b))``, ``a``'s closure runs before ``b``'s,
  whichever was built first). The order depends only on the graph's
  structure, so gradients are bit-reproducible.

Inside ``with no_grad():`` every op returns a plain leaf, so a forward pass
(evaluation, the finite-difference probes) keeps no tape and no closure.

Closure contract: ``backward(g)`` returns one gradient per parent, in
``_parents`` order, writing only to arrays it allocates. Each is a view of
``g`` (or ``g``) or an array allocated for that parent alone, never one the
closure keeps, or None for a parent that needs no graph (a constant:
padding masks, loss scales), whose gradient is then never computed. A
closure runs at most once: ``Tensor.backward`` drops it after the call.
``Tensor.backward`` alone writes ``grad``: constants take none, and a first
gradient sharing no memory with ``g`` is adopted, any other copied, so no
two tensors share a ``grad`` buffer.

``linear_cross_entropy`` is the one op that computes its gradient in the
forward pass: it streams fixed row tiles of the logits, and while a tile's
softmax is live it turns it into that tile's input and weight gradients.
The (R, N) logits never exist, and backward only scales the stored
gradients by the incoming scalar.

``attention`` and ``feed_forward`` fuse the two halves of an encoder block
after its q, k, v projections, dropouts included as bool keep-masks
(``keep_mask``). Each replays, in both passes, the arithmetic of the
primitive ops it replaces, so values and gradients are bit-identical to
theirs, but keeps only what its backward reads: q, k, v, the probabilities
and merged heads; the FFN's pre-activation, whose ReLU is recomputed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, GraphError

# Rows per tile in linear_cross_entropy: about 29 MB of logits at N = 3 600.
LCE_TILE_ROWS = 1024
FD_STEP, FD_TOL = 1e-5, 1e-4  # finite_difference_check's step and tolerance
Keep = tuple[np.ndarray, float]  # a dropout keep-mask (bool) and 1/(1 - rate)

_recording = True


class Tensor:
    """Node in the computation graph: a float64 array plus backward plumbing."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1. Scalar outputs only.

        Consumes the graph: each node is popped off the post-order list and
        dropped once its gradients are handed on (see the module docstring).
        """
        if self.data.size != 1:
            raise GraphError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            order.pop()._propagate()

    def _propagate(self) -> None:
        """Hand this node's gradient to its parents and consume the node: its
        closure and parents go, so what only the tape held is freed here."""
        closure, parents = self._backward, self._parents
        if closure is None:
            return
        self._backward, self._parents = _consumed, ()
        g = self.grad
        if g is None:
            return
        for parent, pg in zip(parents, closure(g), strict=True):
            if pg is None or not _needs_graph(parent):
                continue
            if parent.grad is not None:
                parent.grad += pg
            elif isinstance(pg, np.ndarray) and not np.may_share_memory(pg, g):
                parent.grad = pg
            else:  # a view of g, or a numpy scalar from a 0-d ufunc
                parent.grad = np.array(pg, dtype=np.float64)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._backward is not None for t in tensors)


def _consumed(g):
    raise GraphError("backward() reached a node that an earlier backward() "
                     "consumed; rebuild the graph to differentiate it again")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes introduced or stretched by broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


@contextmanager
def no_grad():
    """Record no graph inside the block: every op returns a plain leaf."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _records(*parents: Tensor) -> bool:
    return _recording and any(_needs_graph(p) for p in parents)


def _make(data, parents: Sequence[Tensor], backward: Callable | None) -> Tensor:
    if _records(*parents):
        return Tensor(data, parents=tuple(parents), backward=backward)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.data.shape) if _needs_graph(a) else None,
                _unbroadcast(g, b.data.shape) if _needs_graph(b) else None)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape) if _needs_graph(a) else None,
                _unbroadcast(g * a.data, b.data.shape) if _needs_graph(b) else None)

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have ndim >= 2")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None
        if _needs_graph(a):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                              a.data.shape)
        if _needs_graph(b):
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                              b.data.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _make(out, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    out = a.data * a.data

    def backward(g):
        return (2.0 * g * a.data,)

    return _make(out, (a,), backward)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(out, (a,), backward)


def _shifted_exp(e: np.ndarray, rows: np.ndarray, targets: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the (R, K) logits ``e`` with exp(e - row max); return each
    row's (R, 1) exp sum and its loss log(sum) - (e - max)[target]."""
    e -= e.max(axis=1, keepdims=True)
    picked = e[rows, targets]
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    return total, np.log(total[:, 0]) - picked


def cross_entropy(logits, targets: np.ndarray, mask: np.ndarray | None = None
                  ) -> Tensor:
    """Summed softmax cross-entropy, sum_r -log softmax(logits[r])[targets[r]].

    ``logits`` is (R, K) with one int target per row. Entries where the
    optional (R, K) ``mask`` is False are left out of the softmax; each
    row's target must be allowed. Backward is (softmax - onehot) * g.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError("cross_entropy logits must be (rows, classes)")
    rows = np.arange(logits.shape[0])
    targets = np.asarray(targets)
    e = (logits.data.copy() if mask is None
         else np.where(mask, logits.data, -np.inf))
    total, losses = _shifted_exp(e, rows, targets)
    out = losses.sum()

    def backward(g):
        probs = e * (g / total)
        probs[rows, targets] -= g
        return (probs,)

    return _make(out, (logits,), backward)


def linear_cross_entropy(x, w, targets: np.ndarray) -> Tensor:
    """``cross_entropy(matmul(x, swapaxes(w, 0, 1)), targets)`` without the
    (R, N) logits: rows go through in tiles of ``LCE_TILE_ROWS``.

    ``x`` is (R, d) and ``w`` is (N, d). Each tile's per-row losses land in
    one (R,) vector that is summed once, so the loss equals the unfused
    composition exactly. While recording, each tile's softmax becomes
    (softmax - onehot) in place and is turned at once into the tile's rows
    of the ``x`` gradient and its share of the ``w`` gradient.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"linear_cross_entropy needs (R, d) and (N, d), got {x.shape}, {w.shape}")
    targets = np.asarray(targets)
    n_rows = x.shape[0]
    losses = np.empty(n_rows)
    record = _records(x, w)
    gx = np.empty_like(x.data) if record else None
    gw = np.zeros_like(w.data) if record else None
    buffer = np.empty((min(n_rows, LCE_TILE_ROWS), w.shape[0]))
    for start in range(0, n_rows, LCE_TILE_ROWS):
        tile = slice(start, start + LCE_TILE_ROWS)
        xt, tt = x.data[tile], targets[tile]
        rows = np.arange(xt.shape[0])
        e = np.matmul(xt, w.data.T, out=buffer[:xt.shape[0]])
        total, losses[tile] = _shifted_exp(e, rows, tt)
        if record:
            e /= total
            e[rows, tt] -= 1.0
            np.matmul(e, w.data, out=gx[tile])
            gw += np.matmul(e.T, xt)
    out = losses.sum()

    def backward(g):
        return gx * g, gw * g

    return _make(out, (x, w), backward)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last axis (eps 1e-6), then apply gain and bias."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2),
                _unbroadcast(g * xhat, gain.data.shape),
                _unbroadcast(g, bias.data.shape))

    return _make(out, (a, gain, bias), backward)


def lookup(table, ids: np.ndarray) -> Tensor:
    """Row gather ``table[ids]``; scatter-adds gradients back on the backward pass.

    The scatter is a product with the (rows, ids.size) one-hot CSR matrix.
    Each CSR row keeps its entries in input order and starts from zero, so
    the sums equal ``np.add.at``'s bit for bit.
    """
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = table.data[ids]

    def backward(g):
        n = ids.size
        onehot = sp.csr_matrix((np.ones(n), (ids.ravel(), np.arange(n))),
                               shape=(table.data.shape[0], n))
        rows = g.reshape((n,) + table.data.shape[1:])
        return (onehot @ rows,)

    return _make(out, (table,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return _make(out, tuple(ts), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index]

    def backward(g):
        acc = np.zeros_like(a.data)
        acc[index] = g
        return (acc,)

    return _make(out, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out, (a,), backward)


def spmm(adj: sp.spmatrix, x) -> Tensor:
    """Sparse-dense product ``adj @ x`` with gradient ``adj.T @ g`` for ``x``.

    ``adj`` is a constant (never differentiated) of any shape, so a block of
    a matrix's rows works as well as the whole. The transpose of a CSR matrix
    is a CSC view, with no copy; for a symmetric ``adj`` its product sums
    each row in the same order as ``adj @ g``, bit for bit.
    """
    x = as_tensor(x)
    if adj.shape[1] != x.data.shape[0]:
        raise DimensionError(
            f"spmm: adjacency columns {adj.shape[1]} != rows {x.data.shape[0]}")
    out = adj @ x.data

    def backward(g):
        return (adj.T @ g,)

    return _make(out, (x,), backward)


def keep_mask(shape: tuple, rate: float, rng, train: bool) -> Keep | None:
    """Draw a dropout keep-mask; None, and no draw, when off."""
    return ((rng.random(shape) >= rate, 1.0 / (1.0 - rate))
            if train and rate != 0.0 else None)


def _drop(a: np.ndarray, keep: Keep | None) -> np.ndarray:
    """``a`` times 1/(1 - rate) where kept, 0 elsewhere, in one rounding."""
    return a if keep is None else a * np.where(*keep, 0.0)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:  # (..., H, n, d/H) view
    return np.swapaxes(a.reshape(a.shape[:-1] + (n_heads, -1)), -3, -2)


def _merge(a: np.ndarray) -> np.ndarray:  # _heads' inverse, as a copy
    return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], -1))


def attention(q, k, v, wo, mask: np.ndarray, n_heads: int,
              keep: Keep | None = None, keep_out: Keep | None = None) -> Tensor:
    """``dropout(merge(dropout(masked softmax(q kᵀ / sqrt(dh))) v) wo)`` over
    ``n_heads`` heads split from q (..., n, d), k and v (..., m, d). Each row
    of the bool (..., n, m) ``mask`` allows a key; ``keep`` drops the
    probabilities and ``keep_out`` the output."""
    q, k, v, wo = (as_tensor(t) for t in (q, k, v, wo))
    qh, kh, vh = (_heads(t.data, n_heads) for t in (q, k, v))
    mask = mask[..., None, :, :]
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    mx = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
    probs = np.exp(np.where(mask, scores - mx, -np.inf))
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = _merge(np.matmul(_drop(probs, keep), vh))

    def backward(g):
        g = _drop(g, keep_out)
        gwo = _unbroadcast(np.matmul(np.swapaxes(merged, -1, -2), g), wo.data.shape)
        g = _heads(np.matmul(g, np.swapaxes(wo.data, -1, -2)), n_heads)
        gv = np.matmul(np.swapaxes(_drop(probs, keep), -1, -2), g)
        gp = _drop(np.matmul(g, np.swapaxes(vh, -1, -2)), keep)
        gp -= (gp * probs).sum(axis=-1, keepdims=True)
        gp *= probs
        gp *= scale
        gk_t = _unbroadcast(np.matmul(np.swapaxes(qh, -1, -2), gp),
                            kh.shape[:-2] + kh.shape[:-3:-1])
        return (_merge(_unbroadcast(np.matmul(gp, kh), qh.shape)),
                _merge(np.swapaxes(gk_t, -1, -2)),
                _merge(_unbroadcast(gv, vh.shape)), gwo)

    return _make(_drop(np.matmul(merged, wo.data), keep_out), (q, k, v, wo), backward)


def feed_forward(x, w1, b1, w2, b2, keep: Keep | None = None) -> Tensor:
    """``dropout(relu(x w1ᵀ + b1) w2ᵀ + b2)`` with w1 (d_ff, d), w2 (d, d_ff)."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    pre = np.matmul(x.data, w1.data.T) + b1.data
    out = np.matmul(np.maximum(pre, 0.0), w2.data.T) + b2.data

    def backward(g):
        g = _drop(g, keep)
        gw2 = _unbroadcast(np.matmul(np.maximum(pre, 0.0).swapaxes(-1, -2), g),
                           w2.data.shape[::-1]).T
        gpre = np.matmul(g, w2.data)
        gpre *= pre > 0.0
        gw1 = _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), gpre),
                           w1.data.shape[::-1]).T
        return (np.matmul(gpre, w1.data), gw1, _unbroadcast(gpre, b1.data.shape),
                gw2, _unbroadcast(g, b2.data.shape))

    return _make(_drop(out, keep), (x, w1, b1, w2, b2), backward)


def grad(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss wrt each parameter, zeros for untouched ones.

    Raises GraphError when asked about a tensor that was never registered as
    a differentiable leaf.
    """
    for p in params:
        if not p.requires_grad:
            raise GraphError("gradient requested for a non-parameter tensor")
        p.zero_grad()
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in params]


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: dict[str, Tensor]) -> dict[str, dict]:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be a pure function of the current ``params`` data; it is
    re-evaluated with entries perturbed in place. Returns one record per
    parameter block with the max relative error and a pass flag.

    Coordinates where both gradients sit below the difference-quotient noise
    floor (cancellation error ~ eps * |loss| / h) are unmeasurable by this
    method and are not scored.
    """
    tensors = list(params.values())
    base_loss = loss_fn()
    # Smallest gradient whose relative error is resolvable: the difference
    # quotient carries ~K ulps of cancellation noise, so require
    # |grad| >= K * eps * |f| / (2h) / tol.
    eps = np.finfo(np.float64).eps
    noise = 100.0 * eps * max(1.0, abs(float(base_loss.data))) / (2.0 * FD_STEP)
    floor = max(1e-8, noise / FD_TOL)
    analytic = grad(base_loss, tensors)
    report: dict[str, dict] = {}
    for (name, p), ana in zip(params.items(), analytic):
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            with no_grad():
                flat[i] = saved + FD_STEP
                f_plus = loss_fn().item()
                flat[i] = saved - FD_STEP
                f_minus = loss_fn().item()
            flat[i] = saved
            fd[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        ana_flat = ana.reshape(-1)
        denom = np.maximum(np.abs(ana_flat), np.abs(fd))
        err = np.where(denom > floor,
                       np.abs(ana_flat - fd) / np.maximum(denom, 1e-300), 0.0)
        max_err = float(err.max()) if err.size else 0.0
        report[name] = {"max_rel_error": max_err, "passed": max_err <= FD_TOL}
    return report
