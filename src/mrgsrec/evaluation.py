"""Leave-one-out full-catalog ranking with HR@n and NDCG@n.

The input window is the user's train sequence for the validation split and
the train sequence plus the validation item for the test split; a pass
flattens these inputs once (``embeddings.flatten``) and picks the targets
once, and each chunk slices that layout for its windows
(``embeddings.window_batch``) and its seen items.
Candidates are the whole catalog minus (optionally) the user's already
seen items; the target itself is never excluded. Ties rank by ascending
item id. A non-finite parameter raises NumericError before any scoring:
``rank_targets`` counts no NaN score ahead of the target, so a NaN model
would score perfectly.

The parameters are fixed during a pass, so the graph is propagated once
per pass, for the user rows alone (no head reads an item's propagated row),
and every chunk of ``EVAL_BATCH`` users gathers its user rows from that
table. No head reads ``E_l``, so ``encoder_paths`` turns ``positions`` off:
each chunk builds the user states alone, and the final encoder block runs
on the state row only. Each chunk's (B, N) score block is ranked in two
comparisons. ``scores > target`` with the seen items ((row, item) pairs)
cleared gives the count ahead. ``scores == target`` holds
each target's tie with itself; when it holds B ties and no target is NaN,
that count is the rank. Only when some row ties another item are the
exclusions re-applied to the ties, those with a smaller id than the target
added. Row counts sum the bool rows as 8-byte words, which runs on numpy
1.24 (no ``np.bitwise_count``). The pass runs under ``autodiff.no_grad``,
so it records no tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import flatten, window_batch
from .errors import DataError, NumericError, ProtocolError
from .graph import NormalizedAdjacency, checked_adjacency, propagated_embeddings
from .model import ModelParams, encoder_paths, forward_states, score_batch

# Users per chunk: small enough that a chunk's blocks fit in the free space
# a training heap leaves, so a pass after training does not re-fault its
# pages. Not below 128: at 64 the fusion FFN's (B, 2d) GEMM takes another
# BLAS kernel and the fused head's scores change; at 128 they equal 512's.
EVAL_BATCH = 128


@dataclass
class MetricsReport:
    split: str
    hr5: float
    hr10: float
    ndcg5: float
    ndcg10: float
    n_users: int
    fingerprint: str = ""

    def validate(self) -> None:
        pairs = ((self.hr5, self.ndcg5), (self.hr10, self.ndcg10))
        for hr, ndcg in pairs:
            if not (0.0 <= hr <= 1.0 and 0.0 <= ndcg <= hr):
                raise ProtocolError(f"metric bounds violated in {self}")
        if self.hr5 > self.hr10 or self.ndcg5 > self.ndcg10:
            raise ProtocolError(f"cutoff monotonicity violated in {self}")

    def text(self) -> str:
        lines = [f"split: {self.split}", f"n_users: {self.n_users}"]
        for name in ("hr5", "hr10", "ndcg5", "ndcg10"):
            lines.append(f"{name}: {getattr(self, name):.6f}")
        lines.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(lines)

    def row(self) -> str:
        return "\t".join([
            self.split, str(self.n_users),
            f"{self.hr5:.6f}", f"{self.hr10:.6f}",
            f"{self.ndcg5:.6f}", f"{self.ndcg10:.6f}", self.fingerprint])


def rank_targets(scores: np.ndarray, targets, excluded=None) -> np.ndarray:
    """1-based rank of each row's target among that row's non-excluded items.

    rank = 1 + #(strictly better) + #(equal score with smaller id).
    ``scores`` is (B, N) and is not modified; ``excluded`` is None or two
    equal-length id arrays (rows in [0, B), item ids), one excluded
    (row, item) pair per position, in any order and possibly repeated. A
    target must stay a candidate: excluding it raises ``ProtocolError``.
    Targets and excluded items pass ``ad.check_ids`` against N, excluded
    rows against B: a non-integer or out-of-range id raises IndexError.
    """
    scores = np.asarray(scores)
    n_rows, n_items = scores.shape
    targets = ad.check_ids(targets, n_items, "target")
    target_scores = scores[np.arange(n_rows), targets][:, None]
    if excluded is not None:
        item_rows, items = excluded
        item_rows = ad.check_ids(item_rows, n_rows, "excluded row")
        items = ad.check_ids(items, n_items, "excluded item")
        hit = items == targets[item_rows]
        if hit.any():
            raise ProtocolError(
                f"target item {items[hit][0]} is excluded from ranking")
    # One bool buffer, its rows padded with False to whole 8-byte words.
    buffer = np.empty((n_rows, -(-n_items // 8) * 8), dtype=bool)
    buffer[:, n_items:] = False
    mask = buffer[:, :n_items]
    np.greater(scores, target_scores, out=mask)
    if excluded is not None:
        mask[item_rows, items] = False
    ranks = 1 + _row_counts(buffer)
    # Each target ties with itself, so B ties in all, none of them NaN,
    # leave no row another tie; otherwise equal scores with a smaller id
    # count as ahead too.
    np.equal(scores, target_scores, out=mask)
    if np.count_nonzero(buffer) != n_rows or np.isnan(target_scores).any():
        if excluded is not None:
            mask[item_rows, items] = False
        mask &= np.arange(n_items) < targets[:, None]
        ranks += _row_counts(buffer)
    return ranks


def _row_counts(buffer: np.ndarray) -> np.ndarray:
    """True entries per row of a (B, 8k) bool array, summed as 8-byte words.

    Each byte of a word is 0 or 1, so up to 255 words add without carrying
    from one byte into the next; the bytes of each partial sum are then
    added. ``np.count_nonzero(axis=1)`` converts every entry instead.
    """
    words = buffer.view(np.uint64)
    counts = np.zeros(len(buffer), dtype=np.int64)
    for start in range(0, words.shape[1], 255):
        partial = words[:, start:start + 255].sum(axis=1, dtype=np.uint64)
        counts += partial.view(np.uint8).reshape(-1, 8).sum(
            axis=1, dtype=np.int64)
    return counts


def rank_target(scores: np.ndarray, target: int, excluded=()) -> int:
    """``rank_targets`` (its id checks too) for one score row and excluded ids."""
    items = list(excluded)
    return int(rank_targets(np.asarray(scores)[None, :], [target],
                            (np.zeros(len(items), dtype=np.int64), items))[0])


def seen_items(lengths: np.ndarray, items: np.ndarray, targets: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The excluded (row, item) pairs ``rank_targets`` takes, for ``evaluate``
    and ``verify``'s metric oracle: each sequence's items minus its target,
    from the flat layout (``embeddings.flatten``); repeated items stay
    repeated, which ranking ignores."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    keep = items != targets[rows]
    return rows[keep], items[keep]


def hr_at_k(rank: int, k: int) -> float:
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 if rank <= k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    """Single relevant item, so ideal DCG is 1: 1/log2(rank+1) inside top-k."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


@ad.no_grad()
def evaluate(params: ModelParams, dataset: SplitDataset, split: str,
             hyper, adjacency: NormalizedAdjacency | None = None,
             fingerprint: str = "") -> MetricsReport:
    """Score every user against the full catalog and average the metrics.

    ``hyper`` supplies k, scoring_head, layer_mean and exclude_seen; the
    window length is the model's (``params.tables.c``). Parameters sized
    for another dataset (DataError) or not finite (NumericError) raise
    before any scoring. A graph it builds itself (no ``adjacency``) is
    checked for leakage, as in ``fit``.
    """
    if split not in ("validation", "test"):
        raise ValueError("split must be 'validation' or 'test'")
    tables = params.tables
    if (tables.n_users, tables.n_items) != (dataset.n_users, dataset.n_items):
        raise DataError(
            f"model has {tables.n_users} users x {tables.n_items} items, "
            f"dataset has {dataset.n_users} users x {dataset.n_items} items")
    if (block := params.first_nonfinite()) is not None:
        raise NumericError(f"parameter block {block} holds a non-finite value")
    head = hyper.scoring_head
    paths = encoder_paths(head)
    nodes = None
    if paths["need_graph"]:
        if adjacency is None:
            adjacency = checked_adjacency(dataset)
        nodes = propagated_embeddings(tables, adjacency, hyper.k,
                                      layer_mean=hyper.layer_mean,
                                      rows=np.arange(dataset.n_users))
    # The seen items are exactly the input sequence's items.
    lengths, items = flatten(dataset.train)
    targets = ad.check_ids(dataset.val, dataset.n_items, "validation target")
    if split == "test":
        items = np.insert(items, np.cumsum(lengths), targets)
        lengths = lengths + 1
        targets = ad.check_ids(dataset.test, dataset.n_items, "test target")
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    n, chunk_ranks = dataset.n_users, []
    for start in range(0, n, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, n)
        chunk_lengths = lengths[start:stop]
        chunk_items = items[offsets[start]:offsets[stop]]
        batch = window_batch(np.arange(start, stop), chunk_lengths,
                             chunk_items, tables.c, tables.padding_id)
        states = forward_states(params, batch, adjacency, hyper.k,
                                layer_mean=hyper.layer_mean,
                                node_embeddings=nodes, **paths)
        scores = score_batch(params, states, head).data
        excluded = (seen_items(chunk_lengths, chunk_items, targets[start:stop])
                    if hyper.exclude_seen else None)
        chunk_ranks.append(rank_targets(scores, targets[start:stop], excluded))
    # Each user's value is looked up in a table of the metric at ranks
    # 1..k+1 (every rank past k scores as k+1 does), then added per user in
    # user order (np.cumsum), as perfbench's traced recomposition and
    # tests/test_evaluation.py's ``_recomposed`` do: they compare with ==.
    ranks = np.concatenate(chunk_ranks)
    means = []
    for metric, k in ((hr_at_k, 5), (hr_at_k, 10), (ndcg_at_k, 5), (ndcg_at_k, 10)):
        table = np.array([metric(rank, k) for rank in range(1, k + 2)])
        values = table[np.minimum(ranks, k + 1) - 1]
        means.append(float(np.cumsum(values)[-1]) / n)
    report = MetricsReport(split, *means, n, fingerprint)
    report.validate()
    return report
