"""Leave-one-out full-catalog ranking with HR@n and NDCG@n.

For the validation split the input window is the user's train sequence;
for the test split it is the train sequence plus the validation item.
Candidates are the whole catalog minus (optionally) the user's already
seen items; the target itself is never excluded. Ties rank by ascending
item id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .embeddings import build_batch
from .errors import ProtocolError
from .graph import NormalizedAdjacency, build_adjacency
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

    def row(self, sep: str = "\t") -> str:
        return sep.join([
            self.split, str(self.n_users),
            f"{self.hr5:.6f}", f"{self.hr10:.6f}",
            f"{self.ndcg5:.6f}", f"{self.ndcg10:.6f}", self.fingerprint])


def rank_target(scores: np.ndarray, target: int, excluded=()) -> int:
    """1-based rank of the target among non-excluded items.

    rank = 1 + #(strictly better) + #(equal score with smaller id).
    """
    scores = np.asarray(scores)
    keep = np.ones(scores.shape[0], dtype=bool)
    excluded = np.asarray(sorted(excluded), dtype=np.int64)
    if excluded.size:
        keep[excluded] = False
    if not keep[target]:
        raise ProtocolError(f"target item {target} is excluded from ranking")
    target_score = scores[target]
    better = np.count_nonzero(keep & (scores > target_score))
    tied_before = np.count_nonzero(
        keep[:target] & (scores[:target] == target_score))
    return 1 + better + tied_before


def hr_at_k(rank: int, k: int) -> float:
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 if rank <= k else 0.0


def ndcg_at_k(rank: int, k: int) -> float:
    """Single relevant item, so ideal DCG is 1: 1/log2(rank+1) inside top-k."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 / math.log2(rank + 1) if rank <= k else 0.0


def evaluate(params: ModelParams, dataset: SplitDataset, split: str,
             hyper, adjacency: NormalizedAdjacency | None = None,
             fingerprint: str = "") -> MetricsReport:
    """Score every user against the full catalog and average the metrics.

    ``hyper`` supplies c, k, scoring_head, layer_mean and exclude_seen.
    """
    if split not in ("validation", "test"):
        raise ValueError("split must be 'validation' or 'test'")
    head = hyper.scoring_head
    need_seq, need_graph, need_fused = encoder_paths(head)
    if adjacency is None and need_graph:
        adjacency = build_adjacency(dataset.train, dataset.n_users,
                                    dataset.n_items)
    pad = params.tables.padding_id
    users = list(range(dataset.n_users))
    totals = {"hr5": 0.0, "hr10": 0.0, "ndcg5": 0.0, "ndcg10": 0.0}
    for start in range(0, len(users), EVAL_BATCH):
        chunk = users[start:start + EVAL_BATCH]
        sequences, targets, exclusions = [], [], []
        for u in chunk:
            if split == "validation":
                seq, target = dataset.train[u], dataset.val[u]
                seen = set(dataset.train[u])
            else:
                seq = dataset.train[u] + [dataset.val[u]]
                target = dataset.test[u]
                seen = set(dataset.train[u]) | {dataset.val[u]}
            seen.discard(target)  # the target itself is always a candidate
            sequences.append(seq)
            targets.append(target)
            exclusions.append(seen if hyper.exclude_seen else set())
        batch = build_batch(chunk, sequences, hyper.c, pad)
        states = forward_states(params, batch, adjacency, hyper.k,
                                need_seq=need_seq, need_graph=need_graph,
                                need_fused=need_fused,
                                layer_mean=hyper.layer_mean, train_mode=False)
        scores = score_batch(params, states, head).data
        for row, target, seen in zip(scores, targets, exclusions):
            rank = rank_target(row, target, seen)
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
