"""Bipartite interaction graph: build, symmetric-normalize, propagate, gather.

The graph is built from its (M, N) user-item block R of TRAIN interactions
only; validation/test targets never contribute edges. ``build_adjacency``
weighs each edge (u, i) of R by deg(u)^{-1/2} deg(i)^{-1/2}, and
``NormalizedAdjacency`` derives from R the stacked adjacency over users
then items ((M+N) nodes), ``[[0, R], [Rᵀ, 0]]`` with sorted indices. So
the adjacency is bipartite and exactly symmetric by construction.
Zero-degree nodes get zero rows, so with one or more propagation layers
their global embedding is zero. Each layer is one ``ad.spmm``.

A full-table hop runs over R alone (``NormalizedAdjacency`` is that
operator): the user rows are ``R @ X_items``, a gather, and the item rows
``R.T @ X_users``, a scatter that streams the user rows once into the
small item table. Since the adjacency is exactly symmetric with sorted
indices, every row sums the same terms in the same order as ``adj @ X``,
and the result is the same bit for bit. On a graph with many more users
than items the scatter is the faster form of the item half: gathering an
item row reads users from all over the user table, while the scatter
reads that table in order and writes into an item table that stays in
cache.

A training step reads only a few node rows of the propagated table: the
batch's users, plus the BPR items when the global loss is on and the window
items when the contrastive loss is on. ``propagated_embeddings`` with
``rows`` computes its last hop for those rows alone, as the sparse product
of the adjacency's row block ``adj[rows]`` with the full previous layer
(the per-batch computation graph of PinSage, Ying et al., KDD 2018). Each
row's product is the same sum as in the full table, so the result is
exact. Earlier hops stay full-table: two hops from a 256-user batch
already reach most of the graph, so restricting them would save little
and cost the bookkeeping of a growing neighbourhood per hop. Evaluation's
last hop is one more such block, the user rows ``adj[arange(M)]``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import EmbeddingTables, SequenceBatch, flatten
from .errors import DataError, GraphError


class NormalizedAdjacency:
    """The symmetric-normalized interaction graph, built from its (M, N)
    user-item block R, and the operator of one full-table hop.

    ``adj`` is the stacked (M+N, M+N) matrix ``[[0, R], [Rᵀ, 0]]`` with
    sorted indices; so it is bipartite and exactly symmetric by
    construction. ``r`` is R again, with ``data`` and ``indptr`` views of
    ``adj``'s first M rows (only the shifted column indices are a copy).
    As an operator it is ``adj`` for ``ad.spmm``, which reads only
    ``shape``, ``@`` and ``.T``: the user rows are ``R @ X[M:]`` and the
    item rows ``R.T @ X[:M]``, bit for bit ``adj @ X`` (module docstring),
    and ``.T`` is the operator itself. A hop to some rows alone multiplies
    ``adj[rows]``."""

    def __init__(self, r: sp.csr_matrix):
        m, n = self.n_users, self.n_items = r.shape
        self.shape = (m + n, m + n)
        self.adj = sp.bmat([[None, r], [r.T, None]], format="csr")
        self.adj.sort_indices()
        cut = self.adj.indptr[m]
        self.r = sp.csr_matrix((self.adj.data[:cut], self.adj.indices[:cut] - m,
                                self.adj.indptr[:m + 1]), shape=(m, n))
        # R over N empty rows: its product is the whole (M+N, d) result with
        # the item rows still zero, so the user half needs no copy.
        indptr = np.append(self.r.indptr, np.full(n, cut, self.r.indptr.dtype))
        self._upper = sp.csr_matrix((self.r.data, self.r.indices, indptr),
                                    shape=(m + n, n))

    @property
    def T(self) -> NormalizedAdjacency:
        return self

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m = self.n_users
        out = self._upper @ x[m:]
        out[m:] = self.r.T @ x[:m]
        return out


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
    """D^{-1/2} A D^{-1/2} over the stacked user+item node set, from R of
    the deduplicated train interactions: edge (u, i) weighs
    deg(u)^{-1/2} deg(i)^{-1/2}."""
    r = interaction_matrix(train, n_users, n_items)
    if r.nnz == 0:
        raise GraphError("interaction graph has no edges")
    users = np.diff(r.indptr)
    with np.errstate(divide="ignore"):  # a zero-degree node owns no edge
        inv_user = 1.0 / np.sqrt(users)
        inv_item = 1.0 / np.sqrt(np.bincount(r.indices, minlength=n_items))
    r.data = np.repeat(inv_user, users) * inv_item[r.indices]
    return NormalizedAdjacency(r)


def propagated_embeddings(tables: EmbeddingTables, adjacency: NormalizedAdjacency,
                          k: int, layer_mean: bool = False,
                          initial: ad.Tensor | None = None,
                          rows: np.ndarray | None = None) -> ad.Tensor:
    """(M+N, d) node embeddings after k propagation layers; gradients flow
    back into the user and item tables. ``layer_mean=True`` averages all
    k+1 layer outputs instead of taking the last one.

    ``rows``, a sorted array of unique node ids, asks for those rows alone:
    the result is (len(rows), d), its row i is node ``rows[i]``, and the
    last hop multiplies ``adjacency.adj[rows]`` alone. Earlier layers
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
        last = rows is not None and hop == k - 1
        current = ad.spmm(adjacency.adj[rows] if last else adjacency, current)
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
    is its id and ``ids`` come back as given. Raises GraphError for an id,
    a non-integer one included, that is not in ``rows``."""
    if rows is None:
        return ids
    ids = np.asarray(ids)
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
    users = ad.check_ids(batch.user_ids, n_users, "user")
    return ad.lookup(node_embeddings, node_positions(rows, users))


def window_nodes(batch: SequenceBatch, n_users: int, n_items: int
                 ) -> np.ndarray:
    """(B, c) node ids that ``gather_windows`` reads for the window slots;
    padding slots read item 0's node and are zeroed. Raises IndexError for
    a window item outside [0, N)."""
    items = np.where(batch.valid_mask(), batch.item_windows, 0)
    return n_users + ad.check_ids(items, n_items, "item")


def gather_windows(node_embeddings: ad.Tensor, batch: SequenceBatch,
                   n_users: int, n_items: int, rows: np.ndarray | None = None
                   ) -> ad.Tensor:
    """E_g of shape (B, c, d): the window items' rows of the node table,
    which holds the nodes ``rows`` (None: all M+N); padding slots gather
    zeros."""
    nodes = window_nodes(batch, n_users, n_items)
    gathered = ad.lookup(node_embeddings, node_positions(rows, nodes))
    return ad.mul(gathered, batch.valid_mask().astype(np.float64)[:, :, None])


def gather_batch(node_embeddings: ad.Tensor, batch: SequenceBatch,
                 n_users: int, n_items: int) -> tuple[ad.Tensor, ad.Tensor]:
    """(e_g, E_g): ``gather_users`` and ``gather_windows`` of one batch from
    the full node table, whose row i is node i."""
    return (gather_users(node_embeddings, batch, n_users),
            gather_windows(node_embeddings, batch, n_users, n_items))


def checked_adjacency(dataset: SplitDataset) -> NormalizedAdjacency:
    """A run's graph: ``build_adjacency`` over ``dataset.train``, which
    ``check_leakage`` has found free of validation and test targets."""
    adjacency = build_adjacency(dataset.train, dataset.n_users, dataset.n_items)
    check_leakage(adjacency, dataset)
    return adjacency


def check_leakage(adjacency: NormalizedAdjacency, dataset: SplitDataset) -> None:
    """Raise if any validation/test target has an edge in the graph's
    user-item block that the user's own train interactions do not explain."""
    graph = adjacency.r
    train = interaction_matrix(dataset.train, dataset.n_users, dataset.n_items)
    users = np.arange(dataset.n_users)
    for split, targets in (("validation", dataset.val), ("test", dataset.test)):
        targets = ad.check_ids(targets, dataset.n_items, f"{split} target")
        in_graph = np.asarray(graph[users, targets]).ravel()
        in_train = np.asarray(train[users, targets]).ravel()
        leaked = np.flatnonzero((in_graph > 0) & (in_train == 0))
        if leaked.size:
            raise GraphError(
                f"{split} target of user {leaked[0]} leaked into the graph")
