"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` is a value (``data``) plus a tape ``Node``: its ``grad``,
whether it is a parameter, its parents' nodes and a backward closure.
The tape links nodes, never values, and each closure captures the arrays
its backward reads, so a value no backward reads is freed in the forward
pass as soon as the caller drops its Tensor. ``backward()`` replays the
tape in reverse topological order and accumulates vector-Jacobian products
into each node's ``grad`` (``Tensor.grad`` reads it). The sweep consumes
the tape: once a node's closure has handed its gradients on, the node
drops its closure and parents, so what only the tape held is freed as the
sweep passes it, with the node's ``grad``. Only leaves and the nodes the
caller holds keep a ``grad``; a later ``backward()`` that reaches a
consumed node raises GraphError. Conventions:

* all values are float64 (gradient checks need the headroom),
* ReLU (``feed_forward``): ReLU'(0) = 0, -0.0 maps to +0.0, NaN stays NaN,
* attention and the cross-entropies subtract the row max before
  exponentiating, so logits of any magnitude stay finite,
* replay order is the reverse of a depth-first post-order that visits a
  node's parents last to first: every closure runs after all consumers of
  its output, and a node's first parent's subtree runs before its later
  parents' (for ``tsum(add(a, b))``, ``a``'s closure runs before ``b``'s,
  whichever was built first). The order depends only on the graph's
  structure, so gradients are bit-reproducible.

Inside ``with no_grad():`` every op returns a plain leaf, so a forward pass
(evaluation, the finite-difference probes) keeps no tape and no closure.

Closure contract: capture the arrays you read, never a ``Tensor`` (or a
node), and an operand's array only if a gradient you compute reads it.
``backward(g)`` returns one gradient per parent, in ``node.parents`` order,
writing only to arrays it allocates. Each is a view of ``g`` (or ``g``) or
an array allocated for that parent alone, never one the closure keeps, or
None for a parent that needs no graph (a constant: padding masks, loss
scales), whose gradient is then never computed. A closure runs at most
once: the sweep drops it after the call. So a closure may overwrite what
it alone holds, an array its op allocated that nothing else captured
(``feed_forward`` writes its pre-activation gradient into its hidden
activation), but never ``g``, an input or an output; and it releases a
captured array (``nonlocal``, set to None) after its last read, so what it
computes later never shares the heap with it (``attention`` drops its
probabilities, q, k and v before its norm's backward). The sweep alone
writes ``grad``: constants take none, and a first gradient sharing no
memory with ``g`` is adopted, any other copied, so no two nodes share a
``grad`` buffer.

In place: an op writes only into arrays it allocated, never into its
inputs or an incoming gradient; elementwise chains run in place on those,
rounding as the out-of-place expression would.

A 2-D weight applied to stacked (..., n, d) rows (``attention``'s q, k, v
and output projections, ``feed_forward``'s w1 and w2, ``matmul``'s) takes
its gradient from ``_weight_grad``: one sample's product at a time, added
into one buffer in sample order, which equals numpy's sum of the stacked
products bit for bit without allocating the (B, d_in, d_out) stack (a
1×1 weight, whose stack numpy sums pairwise, sums that small stack).

``linear_cross_entropy`` is the one op that computes its gradient in the
forward pass: it streams fixed row tiles of the logits, and while a tile's
softmax is live it turns it into that tile's input and weight gradients.
The w gradient accumulates ``xtᵀ e`` in a (d, N) buffer, handed on
transposed. The (R, N) logits never exist, and backward only scales the
stored gradients by the incoming scalar.

``sampled_logits`` scores each row against its positive and S negative
table rows, a chunk of users at a time in both passes, so its (B, S, d)
negatives never exist whole. ``cross_entropy`` takes their softmax. Its
table gradient and ``lookup``'s are one ``_scatter`` (a transposed CSR,
as in ``spmm``), of the int64 copy ``check_ids`` returns for their ids.

``attention`` and ``feed_forward`` are the two sub-layers of a pre-norm
encoder block, each with its layer norm folded in (``attention`` also
takes the q, k, v projections and, for a state-row pass, a ``query_row``),
dropouts included as bool keep-masks (``keep_mask``); the fusion block runs
on ``feed_forward`` without a norm. Each keeps only what its backward
reads: the norm's x̂ (its output x̂·gain + bias is recomputed there), q, k,
v, the probabilities and merged heads; the FFN's hidden activation.

Every fused op replays, in both passes, the arithmetic of the primitive
ops it replaces, summing each gradient in the order their tape would, so
values and gradients are bit-identical to the composition's (the norm's
output takes its query, key and value gradients as (dq + dk) + dv).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, GraphError

# Rows per tile in linear_cross_entropy: about 29 MB of logits at N = 3 600.
LCE_TILE_ROWS = 1024
# Users per chunk in sampled_logits: a (32, S, d) block of negatives.
SCE_CHUNK_ROWS = 32
FD_STEP, FD_TOL = 1e-5, 1e-4  # finite_difference_check's step and tolerance
Keep = tuple[np.ndarray, float]  # a dropout keep-mask (bool) and 1/(1 - rate)

_recording = True


class Node:
    """A tensor's place on the tape: its gradient, whether it is a parameter,
    its parents' nodes and the closure that hands its gradient on. It holds
    no value, so the tape keeps only the arrays the closures captured."""

    __slots__ = ("grad", "requires_grad", "parents", "backward")

    def __init__(self, requires_grad: bool, parents: tuple,
                 backward: Callable | None):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward = backward

    def needs_graph(self) -> bool:
        return self.requires_grad or self.backward is not None

    def propagate(self) -> None:
        """Hand this node's gradient to its parents and consume the node: its
        closure and parents go, so what only the tape held is freed here."""
        closure, parents = self.backward, self.parents
        if closure is None:
            return
        self.backward, self.parents = _consumed, ()
        g = self.grad
        if g is None:
            return
        for parent, pg in zip(parents, closure(g), strict=True):
            if pg is None or not parent.needs_graph():
                continue
            if parent.grad is not None:
                parent.grad += pg
            elif isinstance(pg, np.ndarray) and not np.may_share_memory(pg, g):
                parent.grad = pg
            else:  # a view of g, or a numpy scalar from a 0-d ufunc
                parent.grad = np.array(pg, dtype=np.float64)


def _on_node(name: str) -> property:
    return property(lambda t: getattr(t.node, name),
                    lambda t, value: setattr(t.node, name, value))


class Tensor:
    """A float64 array and its tape node, whose fields it exposes."""

    __slots__ = ("data", "node")
    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(requires_grad, parents, backward)

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
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while order:
            order.pop().propagate()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True)


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.node.needs_graph() for t in tensors)


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


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Σ_b a[b]ᵀ g[b] for (..., n, d_in) ``a`` and (..., n, d_out) ``g``: the
    (d_in, d_out) gradient of a 2-D weight applied to stacked rows.

    Each sample's product is added into one zeroed buffer in sample order,
    which is how numpy sums the stacked (B, d_in, d_out) products over
    axis 0, so the result equals ``_unbroadcast`` of that stack bit for bit
    (signed zeros included) without allocating it. A 1×1 weight is the
    exception: its stack holds one float per sample, which numpy sums
    pairwise rather than in sample order, so that stack is summed as is.
    """
    if a.ndim == 2:
        return np.matmul(a.T, g)
    if a.shape[-1] == g.shape[-1] == 1:
        return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), (1, 1))
    out = np.zeros((a.shape[-1], g.shape[-1]))
    term = np.empty_like(out)
    for b in np.ndindex(a.shape[:-2]):
        out += np.matmul(a[b].T, g[b], out=term)
    return out


def _norm(a: np.ndarray, gd: np.ndarray, bd: np.ndarray, keep: bool
          ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Layer norm over the last axis (eps 1e-6): ``(x̂·gain + bias, x̂, 1/σ)``.
    Unless ``keep``, the output overwrites x̂, which is returned as None."""
    xhat = a - a.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    var += 1e-6
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = _affine(xhat, gd, bd, out=None if keep else xhat)
    return out, xhat if keep else None, inv


def _affine(xhat: np.ndarray, gd: np.ndarray, bd: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """``x̂·gain + bias``: the norm's output, which a backward recomputes."""
    out = np.multiply(xhat, gd, out=out)
    out += bd
    return out


def _norm_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
               gd: np.ndarray, shape_b: tuple
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The norm's input, gain and bias gradients for its output's ``g``."""
    dx = g * gd
    m1 = dx.mean(axis=-1, keepdims=True)
    t = dx * xhat
    m2 = t.mean(axis=-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=t)
    dx *= inv
    return dx, _unbroadcast(g * xhat, gd.shape), _unbroadcast(g, shape_b)


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
    """The op's output, linked on the tape to its parents' nodes when any of
    them needs the graph; ``backward`` must hold no Tensor (module docstring)."""
    if _records(*parents):
        return Tensor(data, parents=tuple(p.node for p in parents),
                      backward=backward)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    shape_a = a.shape if _needs_graph(a) else None
    shape_b = b.shape if _needs_graph(b) else None

    def backward(g):
        return (None if shape_a is None else _unbroadcast(g, shape_a),
                None if shape_b is None else _unbroadcast(g, shape_b))

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    shape_a, shape_b = a.shape, b.shape
    bv = b.data if _needs_graph(a) else None  # what a's gradient reads
    av = a.data if _needs_graph(b) else None

    def backward(g):
        return (None if bv is None else _unbroadcast(g * bv, shape_a),
                None if av is None else _unbroadcast(g * av, shape_b))

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have ndim >= 2")
    out = np.matmul(a.data, b.data)
    shape_a, shape_b = a.shape, b.shape
    bv = b.data if _needs_graph(a) else None  # what a's gradient reads
    av = a.data if _needs_graph(b) else None

    def backward(g):
        ga = gb = None
        if bv is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), shape_a)
        if av is not None:
            gb = (_weight_grad(av, g) if len(shape_b) == 2 else
                  _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), shape_b))
        return ga, gb

    return _make(out, (a, b), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    av = a.data
    out = av * av

    def backward(g):
        return (2.0 * g * av,)

    return _make(out, (a,), backward)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)
    shape = a.shape

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

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

    ``logits`` is (R, K) with an int target per row (or one for all rows).
    Entries where the optional (R, K) ``mask`` is False are left out of the
    softmax (a target must be allowed). Backward is (softmax - onehot) * g.
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
    gw = np.zeros(w.shape[::-1]) if record else None  # (d, N): wᵀ's gradient
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
            gw += np.matmul(xt.T, e)
    out = losses.sum()

    def backward(g):
        return gx * g, gw.T * g

    return _make(out, (x, w), backward)


def check_ids(ids, limit: int, what: str) -> np.ndarray:
    """The one id gate: a new int64 array of ``ids``. IndexError unless each
    id is an integer (dtype kind i or u: no bool, no float) in [0, limit)."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise IndexError(f"{what} ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise IndexError(f"{what} id out of range [0, {limit})")
    return ids.astype(np.int64)


def _scatter(ids: np.ndarray, weights: np.ndarray, n_rows: int
             ) -> sp.csc_matrix:
    """(n_rows, B), ``weights[b, s]`` at ``(ids[b, s], b)``: the transpose
    of the (B, n_rows) CSR whose row b is ``ids[b]`` in order. Its product
    adds into each row from zero in (b, s) order, duplicates apart. scipy
    reads the ids unchecked: they must lie in [0, n_rows)."""
    b, s = ids.shape
    return sp.csr_matrix((weights.reshape(-1), ids.reshape(-1),
                          s * np.arange(b + 1)), shape=(b, n_rows)).T


def sampled_logits(x, table, pos_ids: np.ndarray, neg_ids: np.ndarray
                   ) -> Tensor:
    """The (B, 1 + S) logits of each row ``x[b]`` of the (B, d) ``x`` against
    its positive ``table[pos_ids[b]]`` (column 0) and its S negatives
    ``table[neg_ids[b]]``, rows of the (N, d) ``table``; ids pass ``check_ids``.

    The composition ``concat([tsum(mul(x, lookup(table, pos)), -1) as
    (B, 1), tsum(mul(x as (B, 1, d), lookup(table, neg)), -1)])`` without
    its (B, S, d) arrays: the negatives are gathered and scored
    ``SCE_CHUNK_ROWS`` users at a time, each logit with the composition's
    sum over d. The backward sums x's negative terms over S chunk by chunk
    as the composition's ``mul`` does (one negative's -0.0 stays -0.0), and
    scatters the table's gradient as two ``_scatter`` products (positives,
    negatives) of the logit gradients with x, in the lookups' entry order.
    """
    x, table = as_tensor(x), as_tensor(table)
    if x.ndim != 2 or table.ndim != 2 or np.ndim(neg_ids) != 2:
        raise DimensionError(
            f"sampled_logits needs (B, d) rows, an (N, d) table and "
            f"(B, S) negatives, got {x.shape}, {table.shape}, {np.shape(neg_ids)}")
    pos_ids = check_ids(pos_ids, table.shape[0], "positive")
    neg_ids = check_ids(neg_ids, table.shape[0], "negative")
    xd, td = x.data, table.data
    n_rows = x.shape[0]
    logits = np.empty((n_rows, 1 + neg_ids.shape[1]))
    for start in range(0, n_rows, SCE_CHUNK_ROWS):
        chunk = slice(start, start + SCE_CHUNK_ROWS)
        logits[chunk, 0] = (xd[chunk] * td[pos_ids[chunk]]).sum(axis=-1)
        logits[chunk, 1:] = (xd[chunk, None] * td[neg_ids[chunk]]).sum(axis=-1)
    td = td if _needs_graph(x) else None  # what x's gradient reads
    xd = xd if _needs_graph(table) else None
    n_table = table.shape[0]

    def backward(g):
        gpos, gneg = g[:, 0], g[:, 1:]
        gx = gt = None
        if td is not None:
            gx = gpos[:, None] * td[pos_ids]
            for start in range(0, n_rows, SCE_CHUNK_ROWS):
                chunk = slice(start, start + SCE_CHUNK_ROWS)
                terms = gneg[chunk, :, None] * td[neg_ids[chunk]]
                gx[chunk] += _unbroadcast(terms, terms[:, :1].shape)[:, 0]
        if xd is not None:
            gt = _scatter(pos_ids[:, None], gpos, n_table) @ xd
            gt += _scatter(neg_ids, gneg, n_table) @ xd
        return gx, gt

    return _make(logits, (x, table), backward)


def lookup(table, ids: np.ndarray) -> Tensor:
    """Row gather ``table[ids]``; scatter-adds gradients back on the backward pass.

    ``ids`` pass ``check_ids``, and the backward keeps that private copy: one
    ``_scatter`` with one id per row, equal to ``np.add.at``'s bit for bit.
    """
    table = as_tensor(table)
    ids = check_ids(ids, table.shape[0], "row")
    out = table.data[ids]
    flat = ids.reshape(-1, 1)
    shape = table.shape

    def backward(g):
        rows = g.reshape((flat.shape[0],) + shape[1:])
        return (_scatter(flat, np.ones(flat.shape), shape[0]) @ rows,)

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
    shape_a = a.shape

    def backward(g):
        return (g.reshape(shape_a),)

    return _make(out, (a,), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index]
    shape = a.shape

    def backward(g):
        acc = np.zeros(shape)
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
    a matrix's rows works as well as the whole. Only its ``shape``, ``@``
    and ``.T @`` are read, so an operator with those works too (the
    full-table hop ``graph.NormalizedAdjacency``). The transpose of a CSR
    matrix is a CSC view, with no copy; for a symmetric ``adj`` its product
    sums each row in the same order as ``adj @ g``, bit for bit.
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
    """``a`` times 1/(1 - rate) where kept, a signed 0 elsewhere, as a new
    array. Each kept value takes one rounding, ``a * (1/(1 - rate))``; the
    bool mask then multiplies by an exact 1 or 0."""
    if keep is None:
        return a
    out = a * keep[1]
    out *= keep[0]
    return out


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:  # (..., H, n, d/H) view
    return np.swapaxes(a.reshape(a.shape[:-1] + (n_heads, -1)), -3, -2)


def _merge(a: np.ndarray) -> np.ndarray:  # _heads' inverse, as a copy
    return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], -1))


def _masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Overwrite ``scores`` with their softmax over the last axis where the
    bool ``mask`` allows, exactly 0 elsewhere; return it."""
    np.copyto(scores, -np.inf, where=~mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def attention(x, gain, bias, wq, wk, wv, wo, mask: np.ndarray, n_heads: int,
              keep: Keep | None = None, keep_out: Keep | None = None,
              query_row: int | None = None) -> Tensor:
    """A pre-norm self-attention sub-layer over the rows of x (..., n, d):
    ``h = layer_norm(x, gain, bias)``, then ``dropout(merge(dropout(masked
    softmax(q kᵀ / sqrt(dh))) v) wo)`` with ``q, k, v = h wq, h wk, h wv``
    split into ``n_heads`` heads. Each row of the bool (..., n, n) ``mask``
    allows a key; ``keep`` drops the probabilities and ``keep_out`` the
    output. With ``query_row`` only that row queries (its mask row alone is
    read), and the output is (..., 1, d_out)."""
    x, gain, bias, wq, wk, wv, wo = (
        as_tensor(t) for t in (x, gain, bias, wq, wk, wv, wo))
    wqd, wkd, wvd, wod, gd, bd = (t.data for t in (wq, wk, wv, wo, gain, bias))
    shape_x, shape_b = x.shape, bias.shape
    record = _records(x, gain, bias, wq, wk, wv, wo)
    rows = (None if query_row is None
            else (..., slice(query_row, query_row + 1), slice(None)))
    h, xhat, inv = _norm(x.data, gd, bd, keep=record)
    qh = _heads(np.matmul(h if rows is None else h[rows], wqd), n_heads)
    kh, vh = (_heads(np.matmul(h, w), n_heads) for w in (wkd, wvd))
    del h  # the backward recomputes it from x̂
    if rows is not None:
        mask = mask[rows]
    scale = 1.0 / np.sqrt(qh.shape[-1])
    probs = np.matmul(qh, np.swapaxes(kh, -1, -2))  # the scores, until softmax
    probs *= scale
    _masked_softmax(probs, mask[..., None, :, :])
    merged = _merge(np.matmul(_drop(probs, keep), vh))

    def backward(g):
        nonlocal qh, kh, vh, probs, merged
        g = _drop(g, keep_out)
        gwo = _weight_grad(merged, g)
        merged = None
        g = _heads(np.matmul(g, wod.T), n_heads)
        gv = _merge(np.matmul(np.swapaxes(_drop(probs, keep), -1, -2), g))
        gp = _drop(np.matmul(g, np.swapaxes(vh, -1, -2)), keep)
        vh = g = None
        gp -= (gp * probs).sum(axis=-1, keepdims=True)
        gp *= probs
        probs = None
        gp *= scale
        gk = _merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gp), -1, -2))
        gq = _merge(np.matmul(gp, kh))
        qh = kh = gp = None
        # The norm's output takes the query, key and value gradients in the
        # order the composed tape adds them: (dq + dk) + dv.
        h = _affine(xhat, gd, bd)
        gwq = _weight_grad(h if rows is None else h[rows], gq)
        gh = np.matmul(gq, wqd.T)
        gq = None
        if rows is not None:  # the query row's gradient, zero-padded
            padded = np.zeros(shape_x)
            padded[rows] = gh
            gh = padded
        gwk, gwv = _weight_grad(h, gk), _weight_grad(h, gv)
        h = None
        gh += np.matmul(gk, wkd.T)
        gk = None
        gh += np.matmul(gv, wvd.T)
        gv = None
        return (*_norm_grad(gh, xhat, inv, gd, shape_b), gwq, gwk, gwv, gwo)

    return _make(_drop(np.matmul(merged, wod), keep_out),
                 (x, gain, bias, wq, wk, wv, wo), backward)


def feed_forward(x, w1, b1, w2, b2, keep: Keep | None = None,
                 norm: tuple | None = None) -> Tensor:
    """``dropout(relu(h w1ᵀ + b1) w2ᵀ + b2)``, w1 (d_ff, d_in), w2 (d_out, d_ff),
    where ``h`` is x, or ``layer_norm(x, gain, bias)`` for a ``norm`` of
    ``(gain, bias)``: an encoder FFN sub-layer, or the fusion block (no norm,
    d_in = 2 d_out, zero biases)."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    norm = None if norm is None else tuple(as_tensor(t) for t in norm)
    parents = (x, w1, b1, w2, b2) + (norm or ())
    w1d, w2d = w1.data, w2.data
    # None: a constant bias (the fusion block's 0.0), whose sum is skipped
    shape_b1 = b1.shape if _needs_graph(b1) else None
    shape_b2 = b2.shape if _needs_graph(b2) else None
    # the w1 gradient reads x, or the norm's output recomputed from x̂
    xd = xhat = inv = gd = bd = None
    if norm is None:
        h = xd = x.data
    else:
        gd, bd = norm[0].data, norm[1].data
        h, xhat, inv = _norm(x.data, gd, bd, keep=_records(*parents))
    hidden = np.matmul(h, w1d.T)
    del h  # with a norm, the backward recomputes it from x̂
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)  # relu(pre) > 0 exactly where pre > 0
    out = np.matmul(hidden, w2d.T)
    out += b2.data

    def backward(g):
        nonlocal hidden
        g = _drop(g, keep)
        gw2 = _weight_grad(hidden, g).T
        gb2 = None if shape_b2 is None else _unbroadcast(g, shape_b2)
        active = hidden > 0.0
        gpre = np.matmul(g, w2d, out=hidden)  # hidden is read for the last time
        hidden = g = None
        gpre *= active
        del active
        gw1 = _weight_grad(xd if xhat is None else _affine(xhat, gd, bd), gpre).T
        gb1 = None if shape_b1 is None else _unbroadcast(gpre, shape_b1)
        gh = np.matmul(gpre, w1d)
        del gpre
        if xhat is None:
            return gh, gw1, gb1, gw2, gb2
        dx, dgain, dbias = _norm_grad(gh, xhat, inv, gd, bd.shape)
        return dx, gw1, gb1, gw2, gb2, dgain, dbias

    return _make(_drop(out, keep), parents, backward)


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
    method and are not scored. A coordinate where either gradient is not
    finite scores inf.
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
        finite = np.isfinite(ana_flat) & np.isfinite(fd)
        ana_flat, fd = np.where(finite, ana_flat, 0.0), np.where(finite, fd, 0.0)
        denom = np.maximum(np.abs(ana_flat), np.abs(fd))
        err = np.where(denom > floor,
                       np.abs(ana_flat - fd) / np.maximum(denom, 1e-300), 0.0)
        err[~finite] = np.inf
        max_err = float(err.max()) if err.size else 0.0
        report[name] = {"max_rel_error": max_err, "passed": max_err <= FD_TOL}
    return report
