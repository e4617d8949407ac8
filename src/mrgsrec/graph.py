"""Bipartite interaction graph: build, symmetric-normalize, propagate, gather.

The adjacency stacks users then items ((M+N) nodes) with nonzeros only in
the user-item and item-user blocks. It is built from TRAIN interactions
only; validation/test targets never contribute edges. Zero-degree nodes
get zero rows (0^{-1/2} is taken as 0), so with one or more propagation
layers their global embedding is zero.

A training step reads only a few node rows of the propagated table: the
batch's users, plus the BPR items when the global loss is on and the window
items when the contrastive loss is on. ``propagated_embeddings``
with ``rows`` computes its last hop for those rows alone, as the sparse
product of the adjacency's row block with the full previous layer (the
per-batch computation graph of PinSage, Ying et al., KDD 2018). Each row's
product is the same sum as in the full table, so the result is exact.
Earlier hops stay full-table: two hops from a 256-user batch already reach
most of the graph, so restricting them would save little and cost the
bookkeeping of a growing neighbourhood per hop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import EmbeddingTables, SequenceBatch
from .errors import DataError, GraphError


@dataclass
class NormalizedAdjacency:
    adj: sp.csr_matrix        # (M+N, M+N) symmetric-normalized
    n_users: int
    n_items: int


def interaction_matrix(train: list[list[int]], n_users: int, n_items: int
                       ) -> sp.csr_matrix:
    """R: the (M, N) binary CSR matrix of distinct (user, item) train pairs,
    with sorted column indices."""
    lengths = np.fromiter(map(len, train), dtype=np.int64, count=len(train))
    rows = np.repeat(np.arange(len(train)), lengths)
    cols = np.fromiter(itertools.chain.from_iterable(train), dtype=np.int64,
                       count=rows.size)
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


def propagate(embeddings: ad.Tensor, adjacency: NormalizedAdjacency) -> ad.Tensor:
    """One layer: sparse product of the normalized adjacency with (M+N, d)."""
    return ad.spmm(adjacency.adj, embeddings)


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
        if rows is not None and hop == k - 1:
            current = ad.spmm(adjacency.adj[rows], current)
        else:
            current = propagate(current, adjacency)
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
    graph = adjacency.adj[:adjacency.n_users, adjacency.n_users:]
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
