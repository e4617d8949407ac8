"""Bipartite interaction graph: build, symmetric-normalize, propagate, gather.

The adjacency stacks users then items ((M+N) nodes) with nonzeros only in
the user-item and item-user blocks. It is built from TRAIN interactions
only; validation/test targets never contribute edges. Zero-degree nodes
get zero rows (0^{-1/2} is taken as 0), so with one or more propagation
layers their global embedding is zero. Each layer is one ``ad.spmm``.

A full-table hop runs over the (M, N) user-item block R alone
(``BlockHop``): the user rows are ``R @ X_items``, a gather, and the item
rows ``R.T @ X_users``, a scatter that streams the user rows once into the
small item table. The adjacency is exactly symmetric with sorted indices,
so every row sums the same terms in the same order as ``adj @ X``, and the
result is the same bit for bit. On a graph with many more users than items
the scatter is the faster form of the item half: gathering an item row
reads users from all over the user table, while the scatter reads that
table in order and writes into an item table that stays in cache.

A training step reads only a few node rows of the propagated table: the
batch's users, plus the BPR items when the global loss is on and the window
items when the contrastive loss is on. ``propagated_embeddings``
with ``rows`` computes its last hop for those rows alone, as the sparse
product of the adjacency's row block with the full previous layer (the
per-batch computation graph of PinSage, Ying et al., KDD 2018). Each row's
product is the same sum as in the full table, so the result is exact.
Earlier hops stay full-table: two hops from a 256-user batch already reach
most of the graph, so restricting them would save little and cost the
bookkeeping of a growing neighbourhood per hop. Evaluation's last hop is
the whole user block, which is a view of the adjacency's first M rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import EmbeddingTables, SequenceBatch, flatten
from .errors import DataError, GraphError


class BlockHop:
    """``adj @ X`` for one full-table hop, computed over the user-item block
    R (``NormalizedAdjacency.r``): the user rows are ``R @ X[M:]`` and the
    item rows ``R.T @ X[:M]``, bit for bit ``adj @ X`` (module docstring).
    ``ad.spmm`` reads only ``shape``, ``@`` and ``.T``; ``adj`` is
    symmetric, so ``.T`` is the operator itself."""

    def __init__(self, r: sp.csr_matrix):
        m, n = r.shape
        self.shape = (m + n, m + n)
        self.r = r
        # R over N empty rows: its product is the whole (M+N, d) result with
        # the item rows still zero, so the user half needs no copy.
        indptr = np.append(r.indptr, np.full(n, r.nnz, r.indptr.dtype))
        self._upper = sp.csr_matrix((r.data, r.indices, indptr), shape=(m + n, n))

    @property
    def T(self) -> BlockHop:
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m = self.r.shape[0]
        out = self._upper @ x[m:]
        out[m:] = self.r.T @ x[:m]
        return out


@dataclass
class NormalizedAdjacency:
    """``adj``, the (M+N, M+N) symmetric-normalized adjacency, and what a
    hop multiplies. ``r`` is its (M, N) user-item block R: ``data`` and
    ``indptr`` are views of ``adj``'s first M rows, only the shifted column
    indices are a copy. Raises GraphError unless ``adj`` is bipartite (user
    rows hold item columns only, item rows user columns only), exactly
    symmetric and has sorted indices, since ``BlockHop`` reads R alone."""
    adj: sp.csr_matrix
    n_users: int
    n_items: int
    r: sp.csr_matrix = field(init=False, repr=False, compare=False)
    _full: BlockHop = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n, adj = self.n_users, self.n_items, self.adj
        if adj.shape != (m + n, m + n):
            raise GraphError(f"adjacency shape {adj.shape} is not "
                             f"({m + n}, {m + n})")
        if not adj.has_sorted_indices:
            raise GraphError("adjacency column indices are not sorted")
        cut = adj.indptr[m]
        if (adj.indices[:cut] < m).any() or (adj.indices[cut:] >= m).any():
            raise GraphError("adjacency is not bipartite: a user row holds a "
                             "user column or an item row an item column")
        self.r = sp.csr_matrix(
            (adj.data[:cut], adj.indices[:cut] - m, adj.indptr[:m + 1]),
            shape=(m, n))
        by_item = self.r.tocsc()
        if not (np.array_equal(by_item.indptr, adj.indptr[m:] - cut)
                and np.array_equal(by_item.indices, adj.indices[cut:])
                and np.array_equal(by_item.data, adj.data[cut:])):
            raise GraphError("adjacency is not symmetric")
        self._full = BlockHop(self.r)

    def hop(self, rows: np.ndarray | None = None):
        """What ``ad.spmm`` multiplies for one hop to the sorted, unique
        nodes ``rows`` (None: all): a ``BlockHop``, the first M rows of
        ``adj`` as views when ``rows`` is the whole user block, or
        ``adj[rows]``. Each has the products of ``adj[rows]`` bit for bit."""
        m = self.n_users
        if rows is None:
            return self._full
        if rows.size == m and m and rows[-1] == m - 1:  # rows is arange(M)
            cut = self.adj.indptr[m]
            return sp.csr_matrix((self.adj.data[:cut], self.adj.indices[:cut],
                                  self.adj.indptr[:m + 1]),
                                 shape=(m, self.adj.shape[1]))
        return self.adj[rows]


def interaction_matrix(train: list[list[int]], n_users: int, n_items: int
                       ) -> sp.csr_matrix:
    """R: the (M, N) binary CSR matrix of distinct (user, item) train pairs,
    with sorted column indices."""
    lengths, cols = flatten(train)
    rows = np.repeat(np.arange(len(train)), lengths)
    r = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(n_users, n_items))
    r.sum_duplicates()
    r.data[:] = 1.0
    return r


def build_adjacency(train: list[list[int]], n_users: int, n_items: int
                    ) -> NormalizedAdjacency:
    """Assemble R from deduplicated train interactions and return
    D^{-1/2} A D^{-1/2} over the stacked user+item node set."""
    r = interaction_matrix(train, n_users, n_items)
    if r.nnz == 0:
        raise GraphError("interaction graph has no edges")
    adj = sp.bmat([[None, r], [r.T, None]], format="csr")
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    d_half = sp.diags(inv_sqrt)
    normalized = (d_half @ adj @ d_half).tocsr()
    normalized.sort_indices()
    return NormalizedAdjacency(normalized, n_users, n_items)


def propagated_embeddings(tables: EmbeddingTables, adjacency: NormalizedAdjacency,
                          k: int, layer_mean: bool = False,
                          initial: ad.Tensor | None = None,
                          rows: np.ndarray | None = None) -> ad.Tensor:
    """(M+N, d) node embeddings after k propagation layers; gradients flow
    back into the user and item tables. ``layer_mean=True`` averages all
    k+1 layer outputs instead of taking the last one.

    ``rows``, a sorted array of unique node ids, asks for those rows alone:
    the result is (len(rows), d), its row i is node ``rows[i]``, and the
    last hop multiplies only the adjacency's ``rows`` block. Earlier layers
    are full-table and, for ``layer_mean``, read at ``rows``; with k = 0 the
    result is the initial table's ``rows``. Values and gradients equal the
    full table's bit for bit. ``node_positions`` maps node ids to rows.
    """
    if k < 0:
        raise ValueError("layer count k must be >= 0")
    if adjacency.n_users != tables.n_users or adjacency.n_items != tables.n_items:
        raise DataError("adjacency and tables disagree on M or N")
    current = initial if initial is not None else ad.concat(
        [tables.user, tables.item_rows()], axis=0)
    layers = [current]
    for hop in range(k):
        current = ad.spmm(adjacency.hop(rows if hop == k - 1 else None), current)
        layers.append(current)
    if rows is not None:
        if k == 0:
            current = ad.lookup(current, rows)
            layers = [current]
        elif layer_mean:
            layers[:-1] = [ad.lookup(layer, rows) for layer in layers[:-1]]
    if layer_mean and len(layers) > 1:
        total = layers[0]
        for extra in layers[1:]:
            total = ad.add(total, extra)
        return ad.mul(total, 1.0 / len(layers))
    return current


def node_positions(rows: np.ndarray | None, ids: np.ndarray) -> np.ndarray:
    """Row positions of node ``ids`` in a table propagated for the sorted
    node set ``rows``; ``rows=None`` is the whole table, where a node's row
    is its id. Raises GraphError for an id that is not in ``rows``."""
    ids = np.asarray(ids, dtype=np.int64)
    if rows is None:
        return ids
    positions = np.searchsorted(rows, ids)
    missing = np.append(rows, -1)[positions] != ids  # -1: past the last row
    if missing.any():
        raise GraphError(
            f"node {ids[missing][0]} is not among the propagated rows")
    return positions


def gather_users(node_embeddings: ad.Tensor, batch: SequenceBatch,
                 n_users: int, rows: np.ndarray | None = None) -> ad.Tensor:
    """e_g of shape (B, d): the batch's user rows of the node table, which
    holds the nodes ``rows`` (None: all M+N)."""
    if batch.user_ids.size and batch.user_ids.max() >= n_users:
        raise IndexError("user id out of range")
    return ad.lookup(node_embeddings, node_positions(rows, batch.user_ids))


def window_nodes(batch: SequenceBatch, n_users: int) -> np.ndarray:
    """(B, c) node ids that ``gather_windows`` reads for the window slots;
    padding slots read item 0's node and are zeroed."""
    return n_users + np.where(batch.valid_mask(), batch.item_windows, 0)


def gather_windows(node_embeddings: ad.Tensor, batch: SequenceBatch,
                   n_users: int, n_items: int, rows: np.ndarray | None = None
                   ) -> ad.Tensor:
    """E_g of shape (B, c, d): the window items' rows of the node table,
    which holds the nodes ``rows`` (None: all M+N); padding slots gather
    zeros."""
    nodes = window_nodes(batch, n_users)
    if nodes.max(initial=n_users) >= n_users + n_items:
        raise IndexError("item id out of range")
    gathered = ad.lookup(node_embeddings, node_positions(rows, nodes))
    return ad.mul(gathered, batch.valid_mask().astype(np.float64)[:, :, None])


def gather_batch(node_embeddings: ad.Tensor, batch: SequenceBatch,
                 n_users: int, n_items: int, rows: np.ndarray | None = None
                 ) -> tuple[ad.Tensor, ad.Tensor]:
    """(e_g, E_g): ``gather_users`` and ``gather_windows`` of one batch."""
    return (gather_users(node_embeddings, batch, n_users, rows),
            gather_windows(node_embeddings, batch, n_users, n_items, rows))


def check_leakage(adjacency: NormalizedAdjacency, dataset: SplitDataset) -> None:
    """Raise if any validation/test target has an edge in the graph's
    user-item block that the user's own train interactions do not explain."""
    graph = adjacency.r
    train = interaction_matrix(dataset.train, dataset.n_users, dataset.n_items)
    users = np.arange(dataset.n_users)
    for split, targets in (("validation", dataset.val), ("test", dataset.test)):
        targets = np.asarray(targets, dtype=np.int64)
        in_graph = np.asarray(graph[users, targets]).ravel()
        in_train = np.asarray(train[users, targets]).ravel()
        leaked = np.flatnonzero((in_graph > 0) & (in_train == 0))
        if leaked.size:
            raise GraphError(
                f"{split} target of user {leaked[0]} leaked into the graph")
