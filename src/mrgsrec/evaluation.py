"""Leave-one-out full-catalog ranking with HR@n and NDCG@n.

For the validation split the input window is the user's train sequence;
for the test split it is the train sequence plus the validation item.
Candidates are the whole catalog minus (optionally) the user's already
seen items; the target itself is never excluded. Ties rank by ascending
item id.

The parameters are fixed during a pass, so the graph is propagated once
per pass, for the user rows alone (no head reads an item's propagated row),
and every chunk of ``EVAL_BATCH`` users gathers its user rows from that
table. No head reads ``E_l``, so ``encoder_paths`` turns ``positions`` off:
each chunk builds the user states alone, and the final encoder block runs
on the state row only.
Each chunk's (B, N) score block is ranked in one vectorised step, with the
seen items given as CSR-style (indptr, items) arrays. The pass runs under
``autodiff.no_grad``, so it records no tape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import build_batch
from .errors import DataError, ProtocolError
from .graph import (NormalizedAdjacency, build_adjacency, check_leakage,
                    propagated_embeddings)
from .model import ModelParams, encoder_paths, forward_states, score_batch

EVAL_BATCH = 512


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
    ``scores`` is (B, N); ``excluded`` is None or a CSR-style pair
    (indptr of length B+1, item ids) listing each row's excluded items.
    A target must stay a candidate: excluding it raises ``ProtocolError``.
    """
    scores = np.asarray(scores)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(scores.shape[0])
    target_scores = scores[rows, targets][:, None]
    ahead = scores > target_scores
    ahead |= (scores == target_scores) & (
        np.arange(scores.shape[1]) < targets[:, None])
    if excluded is not None:
        indptr, items = excluded
        item_rows = np.repeat(rows, np.diff(indptr))
        hit = items == targets[item_rows]
        if hit.any():
            raise ProtocolError(
                f"target item {items[hit][0]} is excluded from ranking")
        ahead[item_rows, items] = False
    return 1 + np.count_nonzero(ahead, axis=1)


def rank_target(scores: np.ndarray, target: int, excluded=()) -> int:
    """``rank_targets`` for one score row and a collection of excluded ids."""
    items = np.fromiter(excluded, dtype=np.int64)
    return int(rank_targets(np.asarray(scores)[None, :], [target],
                            (np.array([0, items.size]), items))[0])


def _seen_items(sequences: list[list[int]], targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style (indptr, items) of each sequence's items minus its target;
    repeated items stay repeated, which ranking ignores."""
    lengths = np.fromiter(map(len, sequences), dtype=np.int64,
                          count=len(sequences))
    items = np.fromiter(itertools.chain.from_iterable(sequences),
                        dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(sequences)), lengths)
    keep = items != targets[rows]
    counts = np.bincount(rows[keep], minlength=len(sequences))
    return np.concatenate([[0], np.cumsum(counts)]), items[keep]


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
    for another dataset raise DataError before any scoring. A graph it
    builds itself (no ``adjacency``) is checked for leakage, as in ``fit``.
    """
    if split not in ("validation", "test"):
        raise ValueError("split must be 'validation' or 'test'")
    tables = params.tables
    if (tables.n_users, tables.n_items) != (dataset.n_users, dataset.n_items):
        raise DataError(
            f"model has {tables.n_users} users x {tables.n_items} items, "
            f"dataset has {dataset.n_users} users x {dataset.n_items} items")
    head = hyper.scoring_head
    paths = encoder_paths(head)
    nodes = None
    if paths["need_graph"]:
        if adjacency is None:
            adjacency = build_adjacency(dataset.train, dataset.n_users,
                                        dataset.n_items)
            check_leakage(adjacency, dataset)
        nodes = propagated_embeddings(tables, adjacency, hyper.k,
                                      layer_mean=hyper.layer_mean,
                                      rows=np.arange(dataset.n_users))
    users = list(range(dataset.n_users))
    totals = {"hr5": 0.0, "hr10": 0.0, "ndcg5": 0.0, "ndcg10": 0.0}
    for start in range(0, len(users), EVAL_BATCH):
        chunk = users[start:start + EVAL_BATCH]
        # The seen items are exactly the input sequence's items.
        if split == "validation":
            sequences = [dataset.train[u] for u in chunk]
            targets = np.array([dataset.val[u] for u in chunk], dtype=np.int64)
        else:
            sequences = [dataset.train[u] + [dataset.val[u]] for u in chunk]
            targets = np.array([dataset.test[u] for u in chunk], dtype=np.int64)
        batch = build_batch(chunk, sequences, tables.c, tables.padding_id)
        states = forward_states(params, batch, adjacency, hyper.k,
                                layer_mean=hyper.layer_mean,
                                node_embeddings=nodes, **paths)
        scores = score_batch(params, states, head).data
        excluded = _seen_items(sequences, targets) if hyper.exclude_seen else None
        # Per-user sums in user order keep the totals' rounding unchanged.
        for rank in rank_targets(scores, targets, excluded).tolist():
            totals["hr5"] += hr_at_k(rank, 5)
            totals["hr10"] += hr_at_k(rank, 10)
            totals["ndcg5"] += ndcg_at_k(rank, 5)
            totals["ndcg10"] += ndcg_at_k(rank, 10)
    n = len(users)
    report = MetricsReport(
        split=split, hr5=totals["hr5"] / n, hr10=totals["hr10"] / n,
        ndcg5=totals["ndcg5"] / n, ndcg10=totals["ndcg10"] / n,
        n_users=n, fingerprint=fingerprint)
    report.validate()
    return report
