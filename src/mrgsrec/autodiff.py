"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation records its inputs and a backward closure on the value it
produces; ``backward()`` replays the graph in reverse topological order and
accumulates vector-Jacobian products into ``Tensor.grad``. Conventions:

* all values are float64 (gradient checks need the headroom),
* ReLU'(0) = 0,
* softmax / log-softmax subtract the row max before exponentiating,
* graph replay order is construction order, so gradients are bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, GraphError


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

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep seeding d(self)/d(self) = 1. Scalar outputs only."""
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
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; heavy lifting stays in the module-level functions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


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


def _make(data, parents: Sequence[Tensor], backward: Callable | None) -> Tensor:
    if any(_needs_graph(p) for p in parents):
        return Tensor(data, parents=tuple(parents), backward=backward)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have ndim >= 2")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.data.shape))
        b._accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    out = np.where(mask, a.data, 0.0)

    def backward(g):
        a._accumulate(g * mask)

    return _make(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        a._accumulate(g * out * (1.0 - out))

    return _make(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return _make(out, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    out = a.data * a.data

    def backward(g):
        a._accumulate(2.0 * g * a.data)

    return _make(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accumulate(np.broadcast_to(gg, a.data.shape))

    return _make(out, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        a._accumulate(out * (g - inner))

    return _make(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        sm = np.exp(out)
        a._accumulate(g - sm * g.sum(axis=axis, keepdims=True))

    return _make(out, (a,), backward)


def masked_softmax(a, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax restricted to entries where ``mask`` is True.

    Disallowed entries get probability exactly 0; every slice along ``axis``
    must contain at least one allowed entry.
    """
    a = as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    neg = np.where(mask, a.data, -np.inf)
    mx = neg.max(axis=axis, keepdims=True)
    e = np.exp(np.where(mask, a.data - mx, -np.inf))
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        a._accumulate(out * (g - inner))

    return _make(out, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        bias._accumulate(_unbroadcast(g, bias.data.shape))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        a._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out, (a, gain, bias), backward)


def lookup(table, ids: np.ndarray) -> Tensor:
    """Row gather ``table[ids]``; scatter-adds gradients back on the backward pass."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    out = table.data[ids]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        table._accumulate(acc)

    return _make(out, (table,), backward)


def take_last_axis(a, idx: np.ndarray) -> Tensor:
    """Pick one entry per slice along the last axis: out[...] = a[..., idx[...]]."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, idx[..., None], np.asarray(g)[..., None], axis=-1)
        a._accumulate(acc)

    return _make(out, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(out, tuple(ts), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        a._accumulate(np.asarray(g).reshape(a.data.shape))

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
        a._accumulate(acc)

    return _make(out, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        a._accumulate(np.swapaxes(g, ax1, ax2))

    return _make(out, (a,), backward)


def spmm(adj: sp.spmatrix, x, adj_t: sp.spmatrix | None = None) -> Tensor:
    """Sparse-dense product ``adj @ x`` with gradient ``adj_t @ g`` for ``x``.

    ``adj`` is a constant (never differentiated). Pass ``adj_t`` when the
    matrix is not symmetric; defaults to ``adj`` itself.
    """
    x = as_tensor(x)
    if adj.shape[1] != x.data.shape[0]:
        raise DimensionError(
            f"spmm: adjacency columns {adj.shape[1]} != rows {x.data.shape[0]}")
    back_adj = adj if adj_t is None else adj_t
    out = adj @ x.data

    def backward(g):
        x._accumulate(back_adj @ g)

    return _make(out, (x,), backward)


def dropout(a, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not train or rate == 0.0:
        return as_tensor(a)
    keep = rng.random(as_tensor(a).data.shape) >= rate
    return mul(a, keep.astype(np.float64) / (1.0 - rate))


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
                            params: dict[str, Tensor],
                            h: float = 1e-5,
                            tol: float = 1e-4) -> dict[str, dict]:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be a pure function of the current ``params`` data; it is
    re-evaluated with entries perturbed in place. Returns one record per
    parameter block with the max relative error and a pass flag.

    Coordinates where both gradients sit below the difference-quotient noise
    floor (cancellation error ~ eps * |loss| / h) are unmeasurable by this
    method and are not scored.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    tensors = list(params.values())
    base_loss = loss_fn()
    # Smallest gradient whose relative error is resolvable: the difference
    # quotient carries ~K ulps of cancellation noise, so require
    # |grad| >= K * eps * |f| / (2h) / tol.
    eps = np.finfo(np.float64).eps
    noise = 100.0 * eps * max(1.0, abs(float(base_loss.data))) / (2.0 * h)
    floor = max(1e-8, noise / tol)
    analytic = grad(base_loss, tensors)
    report: dict[str, dict] = {}
    for (name, p), ana in zip(params.items(), analytic):
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = loss_fn().item()
            flat[i] = saved - h
            f_minus = loss_fn().item()
            flat[i] = saved
            fd[i] = (f_plus - f_minus) / (2.0 * h)
        ana_flat = ana.reshape(-1)
        denom = np.maximum(np.abs(ana_flat), np.abs(fd))
        err = np.where(denom > floor,
                       np.abs(ana_flat - fd) / np.maximum(denom, 1e-300), 0.0)
        max_err = float(err.max()) if err.size else 0.0
        report[name] = {"max_rel_error": max_err, "passed": max_err <= tol}
    return report
