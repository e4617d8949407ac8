"""Mini-batch training loop: batching, negative sampling, Adam, early stopping.

Each epoch visits every eligible user once (one example per user: the last
train item is the positive, the preceding items form the input window).
The adjacency is fixed per run but propagation is recomputed from the
current tables every step, so the graph path stays differentiable.
All randomness comes from one seeded generator; runs are reproducible
bit-for-bit at a fixed thread count.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import build_batch
from .errors import DataError, NumericError
from .fusion import SCORING_HEADS
from .graph import NormalizedAdjacency, build_adjacency
from .losses import (LossWeights, contrastive_loss, fused_loss, global_loss,
                     local_loss, total_loss)
from .model import (ModelParams, ForwardStates, encoder_paths, forward_states,
                    init_model)
from .schema import setting
from .seqenc import SeqEncoderConfig


@dataclass
class Hyperparams(SeqEncoderConfig):
    """Every run setting, flat: the encoder's own settings are inherited."""

    c: int = setting("window_length", 50, minimum=1,
                     help="c: most recent interactions kept per user")
    k: int = setting("graph_layers", 2, minimum=0,
                     help="k: propagation steps over the interaction graph")
    scoring_head: str = setting("scoring_head", "fused", choices=SCORING_HEADS,
                                help="fused, sequential, or graph")
    layer_mean: bool = setting(
        "graph_layer_mean", False,
        help="average propagation layers instead of taking the last")
    weights: LossWeights = field(default_factory=LossWeights)
    n_negatives: int = setting("negative_samples", 100,
                               help="negatives drawn per user per step")
    learning_rate: float = setting("learning_rate", 1e-3, help="Adam step size")
    beta1: float = setting("adam_beta1", 0.9, help="Adam first-moment decay")
    beta2: float = setting("adam_beta2", 0.999, help="Adam second-moment decay")
    epsilon: float = setting("adam_epsilon", 1e-8, help="Adam denominator floor")
    batch_size: int = setting("batch_size", 256, minimum=1,
                              help="users per training step")
    max_epochs: int = setting("max_epochs", 200, minimum=0,
                              help="upper bound on training epochs")
    patience: int = setting("patience", 10, minimum=1,
                            help="non-improving validation epochs before stopping")
    seed: int = setting("seed", 0,
                        help="seed for init, shuffling, sampling, dropout")
    exclude_seen: bool = setting("exclude_seen", True,
                                 help="mask already-consumed items at evaluation")

    def seq_config(self) -> SeqEncoderConfig:
        return SeqEncoderConfig(**{f.name: getattr(self, f.name)
                                   for f in fields(SeqEncoderConfig)})


class Adam:
    """Plain Adam with bias correction; moment shapes mirror the parameters."""

    def __init__(self, params: list[ad.Tensor],
                 lr: float = Hyperparams.learning_rate,
                 beta1: float = Hyperparams.beta1,
                 beta2: float = Hyperparams.beta2,
                 eps: float = Hyperparams.epsilon):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / b1c
            v_hat = self.v[i] / b2c
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_negatives(forbidden: np.ndarray, n_items: int, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform draw without replacement from the items NOT in ``forbidden``.

    Shrinks the request with a warning when the complement is too small.
    """
    complement = np.setdiff1d(np.arange(n_items, dtype=np.int64),
                              np.asarray(forbidden, dtype=np.int64))
    if complement.size == 0:
        raise DataError("user has interacted with the whole catalog")
    if size > complement.size:
        warnings.warn(
            f"negative sample resized {size} -> {complement.size}", stacklevel=2)
        size = complement.size
    return rng.choice(complement, size=size, replace=False)


@dataclass
class TrainExample:
    user: int
    inputs: list[int]       # window source: train sequence minus its last item
    step_targets: list[int]  # inputs shifted by one; ends with the positive
    positive: int
    forbidden: np.ndarray   # train items + both held-out targets


def build_examples(dataset: SplitDataset) -> list[TrainExample]:
    """One example per user with at least 2 train interactions."""
    examples = []
    for u, seq in enumerate(dataset.train):
        if len(seq) < 2:
            continue
        forbidden = np.unique(np.asarray(
            seq + [dataset.val[u], dataset.test[u]], dtype=np.int64))
        examples.append(TrainExample(
            user=u, inputs=seq[:-1], step_targets=seq[1:],
            positive=seq[-1], forbidden=forbidden))
    if not examples:
        raise DataError("no user has enough train interactions to learn from")
    return examples


def batch_losses(params: ModelParams, states: ForwardStates,
                 batch_examples: list[TrainExample], windows_targets: np.ndarray,
                 valid_mask: np.ndarray, negatives: np.ndarray,
                 hyper: Hyperparams) -> dict[str, ad.Tensor | None]:
    """Assemble whichever of the four components the weights require."""
    w = hyper.weights
    n_users = params.tables.n_users
    positives = np.asarray([ex.positive for ex in batch_examples], dtype=np.int64)
    components: dict[str, ad.Tensor | None] = {
        "local": None, "global": None, "fused": None, "contrastive": None}
    if w.alpha > 0:
        components["local"] = local_loss(
            states.E_l, windows_targets, params.tables.item_rows(), valid_mask)
    if w.beta > 0:
        pos_emb = ad.lookup(states.node_embeddings, n_users + positives)
        neg_emb = ad.lookup(states.node_embeddings, n_users + negatives[:, 0])
        user_ids = np.asarray([ex.user for ex in batch_examples], dtype=np.int64)
        ego_ids = np.concatenate(
            [user_ids, n_users + positives, n_users + negatives[:, 0]])
        ego_rows = ad.lookup(states.initial_nodes, ego_ids)
        components["global"] = global_loss(
            states.e_g, pos_emb, neg_emb, ego_rows, w.lambda_reg)
    if w.gamma > 0:
        components["fused"] = fused_loss(
            states.e_f, positives, negatives, params.tables.item_rows())
    if w.delta > 0:
        components["contrastive"] = contrastive_loss(
            states.E_l, states.E_g, valid_mask)
    return components


def train_step(batch_examples: list[TrainExample], params: ModelParams,
               adjacency: NormalizedAdjacency | None, hyper: Hyperparams,
               optimizer: Adam, rng: np.random.Generator
               ) -> dict[str, float]:
    """One forward/backward/Adam update; returns the component loss values."""
    need_seq, need_graph, need_fused = encoder_paths(hyper.scoring_head,
                                                     hyper.weights)
    pad = params.tables.padding_id
    users = [ex.user for ex in batch_examples]
    batch = build_batch(users, [ex.inputs for ex in batch_examples],
                        hyper.c, pad)
    targets = build_batch(users, [ex.step_targets for ex in batch_examples],
                          hyper.c, 0).item_windows
    negatives = np.stack([
        sample_negatives(ex.forbidden, params.tables.n_items,
                         hyper.n_negatives, rng)
        for ex in batch_examples])
    states = forward_states(
        params, batch, adjacency, hyper.k,
        need_seq=need_seq, need_graph=need_graph, need_fused=need_fused,
        layer_mean=hyper.layer_mean, train_mode=True, rng=rng)
    components = batch_losses(params, states, batch_examples,
                              targets, batch.valid_mask(), negatives, hyper)
    loss = total_loss(components, hyper.weights)
    if not np.isfinite(loss.data):
        raise NumericError(
            "total loss is not finite; components: "
            + json.dumps({k: (None if v is None else float(v.data))
                          for k, v in components.items()}))
    params.zero_grad()
    loss.backward()
    if params.tables.item.grad is not None:
        params.tables.item.grad[pad, :] = 0.0  # padding row never learns
    optimizer.step()
    scalars = {name: (float(t.data) if t is not None else 0.0)
               for name, t in components.items()}
    scalars["total"] = float(loss.data)
    return scalars


@dataclass
class EpochRecord:
    epoch: int
    losses: dict[str, float]
    val_hr5: float
    val_hr10: float
    val_ndcg5: float
    val_ndcg10: float
    seconds: float


def fit(dataset: SplitDataset, hyper: Hyperparams,
        log_path: str | Path | None = None,
        fingerprint: str = "") -> tuple[ModelParams, list[EpochRecord]]:
    """Train up to ``max_epochs`` with early stopping on validation NDCG@10.

    Returns the best parameters (by validation NDCG@10) and the epoch log.
    With ``max_epochs == 0`` the initial parameters come back untouched.
    """
    from .evaluation import evaluate  # local import to avoid a cycle

    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), hyper.seed)
    need_graph = encoder_paths(hyper.scoring_head, hyper.weights)[1]
    adjacency = build_adjacency(dataset.train, dataset.n_users,
                                dataset.n_items) if need_graph else None
    if hyper.max_epochs == 0:
        return params, []
    examples = build_examples(dataset)
    optimizer = Adam(params.parameters(), lr=hyper.learning_rate,
                     beta1=hyper.beta1, beta2=hyper.beta2, eps=hyper.epsilon)
    best = params.copy()
    best_metric = -np.inf
    flat_epochs = 0
    history: list[EpochRecord] = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, hyper.max_epochs + 1):
            started = time.perf_counter()
            order = rng.permutation(len(examples))
            sums: dict[str, float] = {}
            n_batches = 0
            for start in range(0, len(order), hyper.batch_size):
                chunk = [examples[i] for i in order[start:start + hyper.batch_size]]
                scalars = train_step(chunk, params, adjacency, hyper,
                                     optimizer, rng)
                for key, value in scalars.items():
                    sums[key] = sums.get(key, 0.0) + value
                n_batches += 1
            means = {key: value / n_batches for key, value in sums.items()}
            report = evaluate(params, dataset, "validation", hyper,
                              adjacency=adjacency, fingerprint=fingerprint)
            record = EpochRecord(
                epoch=epoch, losses=means,
                val_hr5=report.hr5, val_hr10=report.hr10,
                val_ndcg5=report.ndcg5, val_ndcg10=report.ndcg10,
                seconds=time.perf_counter() - started)
            history.append(record)
            if log_fh:
                log_fh.write(json.dumps({
                    "epoch": record.epoch, "losses": record.losses,
                    "val_hr5": record.val_hr5, "val_hr10": record.val_hr10,
                    "val_ndcg5": record.val_ndcg5, "val_ndcg10": record.val_ndcg10,
                    "seconds": record.seconds, "fingerprint": fingerprint,
                    "seed": hyper.seed}, sort_keys=True) + "\n")
                log_fh.flush()
            if report.ndcg10 > best_metric:
                best_metric = report.ndcg10
                best = params.copy()
                flat_epochs = 0
            else:
                flat_epochs += 1
                if flat_epochs >= hyper.patience:
                    break
    finally:
        if log_fh:
            log_fh.close()
    return best, history
