"""Bipartite interaction graph: build, symmetric-normalize, propagate, gather.

The adjacency stacks users then items ((M+N) nodes) with nonzeros only in
the user-item and item-user blocks. It is built from TRAIN interactions
only; validation/test targets never contribute edges. Zero-degree nodes
get zero rows (0^{-1/2} is taken as 0), so with one or more propagation
layers their global embedding is zero.
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
    interactions: sp.csr_matrix  # R, (M, N) binary, train edges only
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
    return NormalizedAdjacency(normalized, r, n_users, n_items)


def propagate(embeddings: ad.Tensor, adjacency: NormalizedAdjacency) -> ad.Tensor:
    """One layer: sparse product of the normalized adjacency with (M+N, d)."""
    return ad.spmm(adjacency.adj, embeddings)


def propagated_embeddings(tables: EmbeddingTables, adjacency: NormalizedAdjacency,
                          k: int, layer_mean: bool = False,
                          initial: ad.Tensor | None = None) -> ad.Tensor:
    """(M+N, d) node embeddings after k propagation layers; gradients flow
    back into the user and item tables. ``layer_mean=True`` averages all
    k+1 layer outputs instead of taking the last one."""
    if k < 0:
        raise ValueError("layer count k must be >= 0")
    if adjacency.n_users != tables.n_users or adjacency.n_items != tables.n_items:
        raise DataError("adjacency and tables disagree on M or N")
    current = initial if initial is not None else ad.concat(
        [tables.user, tables.item_rows()], axis=0)
    layers = [current]
    for _ in range(k):
        current = propagate(current, adjacency)
        layers.append(current)
    if layer_mean and len(layers) > 1:
        total = layers[0]
        for extra in layers[1:]:
            total = ad.add(total, extra)
        return ad.mul(total, 1.0 / len(layers))
    return current


def gather_users(node_embeddings: ad.Tensor, batch: SequenceBatch,
                 n_users: int) -> ad.Tensor:
    """e_g of shape (B, d): the batch's user rows of (M+N, d)."""
    if batch.user_ids.size and batch.user_ids.max() >= n_users:
        raise IndexError("user id out of range")
    return ad.lookup(node_embeddings, batch.user_ids)


def gather_batch(node_embeddings: ad.Tensor, batch: SequenceBatch,
                 n_users: int, n_items: int) -> tuple[ad.Tensor, ad.Tensor]:
    """Pick user rows and per-window item rows out of (M+N, d).

    Returns (e_g of shape (B, d), E_g of shape (B, c, d)); padding slots
    gather zeros.
    """
    e_g = gather_users(node_embeddings, batch, n_users)
    mask = batch.valid_mask()
    ids = np.where(mask, batch.item_windows, 0)
    if ids.max(initial=0) >= n_items:
        raise IndexError("item id out of range")
    gathered = ad.lookup(node_embeddings, n_users + ids)
    E_g = ad.mul(gathered, mask.astype(np.float64)[:, :, None])
    return e_g, E_g


def check_leakage(adjacency: NormalizedAdjacency, dataset: SplitDataset) -> None:
    """Raise if any validation/test target has an edge in R that the user's
    own train interactions do not explain."""
    train = interaction_matrix(dataset.train, dataset.n_users, dataset.n_items)
    users = np.arange(dataset.n_users)
    for split, targets in (("validation", dataset.val), ("test", dataset.test)):
        targets = np.asarray(targets, dtype=np.int64)
        in_graph = np.asarray(adjacency.interactions[users, targets]).ravel()
        in_train = np.asarray(train[users, targets]).ravel()
        leaked = np.flatnonzero((in_graph > 0) & (in_train == 0))
        if leaked.size:
            raise GraphError(
                f"{split} target of user {leaked[0]} leaked into the graph")
