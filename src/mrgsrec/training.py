"""Mini-batch training loop: batching, negative sampling, Adam, early stopping.

Each epoch visits every eligible user once (one example per user: the last
train item is the positive, the preceding items form the input window).
The adjacency is fixed per run but propagation is recomputed from the
current tables every step, so the graph path stays differentiable; its last
hop builds only the node rows the step's losses read (see ``graph``), and
when no loss reads ``E_l`` the sequence path builds user states alone.
All randomness comes from one seeded generator; runs are reproducible
bit-for-bit at a fixed thread count.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import EmbeddingTables, SequenceBatch, build_batch
from .errors import DataError
from .evaluation import evaluate
from .graph import (NormalizedAdjacency, build_adjacency, check_leakage,
                    gather_windows, interaction_matrix, node_positions,
                    window_nodes)
from .losses import (LossWeights, contrastive_loss, fused_loss, global_loss,
                     local_loss, total_loss)
from .model import (SCORING_HEADS, ModelParams, encoder_paths, forward_states,
                    init_model)
from .schema import setting
from .seqenc import SeqEncoderConfig


@dataclass
class Hyperparams(SeqEncoderConfig):
    """Every run setting, flat: the encoder's own settings are inherited."""

    c: int = setting("window_length", 50, minimum=1,
                     help="c: most recent interactions kept per user; sizes "
                          "a new model, whose positional table then fixes it")
    k: int = setting("graph_layers", 2, minimum=0,
                     help="k: propagation steps over the interaction graph")
    scoring_head: str = setting("scoring_head", "fused", choices=SCORING_HEADS,
                                help="fused, sequential, or graph")
    layer_mean: bool = setting(
        "graph_layer_mean", False,
        help="average propagation layers instead of taking the last")
    weights: LossWeights = field(default_factory=LossWeights)
    n_negatives: int = setting("negative_samples", 100, minimum=1,
                               help="negatives drawn per user per step")
    learning_rate: float = setting("learning_rate", 1e-3, minimum=0.0,
                                   help="Adam step size")
    beta1: float = setting("adam_beta1", 0.9, minimum=0.0,
                           help="Adam first-moment decay")
    beta2: float = setting("adam_beta2", 0.999, minimum=0.0,
                           help="Adam second-moment decay")
    epsilon: float = setting("adam_epsilon", 1e-8, help="Adam denominator floor")
    batch_size: int = setting("batch_size", 256, minimum=1,
                              help="users per training step")
    max_epochs: int = setting("max_epochs", 200, minimum=0,
                              help="upper bound on training epochs")
    patience: int = setting("patience", 10, minimum=1,
                            help="non-improving validation epochs before stopping")
    seed: int = setting("seed", 0, minimum=0,
                        help="seed for init, shuffling, sampling, dropout")
    exclude_seen: bool = setting("exclude_seen", True,
                                 help="mask already-consumed items at evaluation")

    def __post_init__(self):
        super().__post_init__()
        for key, beta in (("adam_beta1", self.beta1), ("adam_beta2", self.beta2)):
            if beta >= 1.0:
                raise ValueError(f"{key} must be in [0, 1), got {beta!r}")
        if not self.epsilon > 0.0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.epsilon!r}")
        if self.attention_mode == "bidirectional" and self.weights.alpha > 0:
            # Window slot s would attend slot s+1, its own next-item target.
            raise ValueError("attention_mode 'bidirectional' shows the local "
                             "loss its targets; it needs alpha = 0, got "
                             f"alpha = {self.weights.alpha!r}")

    def seq_config(self) -> SeqEncoderConfig:
        return SeqEncoderConfig(**{f.name: getattr(self, f.name)
                                   for f in fields(SeqEncoderConfig)})


ADAM_CHUNK = 16_384  # values per chunk: 128 KB per array, so a chunk stays in L2


class Adam:
    """Plain Adam with bias correction; moment shapes mirror the parameters.

    ``step`` walks each flattened block in chunks of ``ADAM_CHUNK`` values
    with two scratch buffers and ``out=`` ufuncs, in the fixed order of the
    closed form, so each value is bit-identical to it:

        m = β1·m + (1−β1)·g
        v = β2·v + (1−β2)·(g·g)
        p −= (lr·(m/b1c)) / (√(v/b2c) + ε)

    Parameters and moments are updated in place; parameters must be
    C-contiguous.
    """

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
        self._scratch = (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))

    def step(self) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:
                raise ValueError(f"Adam: parameter block {i} is not "
                                 "C-contiguous, so it cannot be updated in place")
            self._step_block(p.data.reshape(-1), p.grad.reshape(-1),
                             self.m[i].reshape(-1), self.v[i].reshape(-1),
                             b1c, b2c)

    def _step_block(self, p, g, m, v, b1c, b2c) -> None:
        """One block's update over flat views; ``p``, ``m``, ``v`` are written."""
        for start in range(0, p.size, ADAM_CHUNK):
            s = slice(start, start + ADAM_CHUNK)
            gs, ms, vs = g[s], m[s], v[s]
            a, b = (buf[:gs.size] for buf in self._scratch)
            np.multiply(ms, self.beta1, out=ms)
            np.multiply(gs, 1.0 - self.beta1, out=a)
            np.add(ms, a, out=ms)
            np.multiply(gs, gs, out=a)
            np.multiply(a, 1.0 - self.beta2, out=a)
            np.multiply(vs, self.beta2, out=vs)
            np.add(vs, a, out=vs)
            np.divide(vs, b2c, out=a)
            np.sqrt(a, out=a)
            np.add(a, self.eps, out=a)
            np.divide(ms, b1c, out=b)
            np.multiply(b, self.lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(p[s], b, out=p[s])


def sample_negatives(forbidden: np.ndarray, n_items: int, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform draw without replacement from the items NOT in ``forbidden``.

    Forbidden ids lie in ``[0, n_items)``. The complement is the sorted array
    of allowed ids; a request larger than it raises DataError.
    """
    allowed = np.ones(n_items, dtype=bool)
    allowed[np.asarray(forbidden, dtype=np.int64)] = False
    complement = np.flatnonzero(allowed)
    if size > complement.size:
        raise DataError(f"{size} negatives requested, but the user has only "
                        f"{complement.size} unseen items")
    return rng.choice(complement, size=size, replace=False)


@dataclass
class TrainExample:
    user: int
    inputs: list[int]       # window source: train sequence minus its last item
    step_targets: list[int]  # inputs shifted by one; ends with the positive
    positive: int
    forbidden: np.ndarray   # train items + both held-out targets


def build_examples(dataset: SplitDataset) -> list[TrainExample]:
    """One example per user with at least 2 train interactions.

    A user's ``forbidden`` set is their row of the interaction matrix over
    train, validation and test: sorted, distinct item ids.
    """
    seen = interaction_matrix(
        [seq + [v, t] for seq, v, t in
         zip(dataset.train, dataset.val, dataset.test)],
        dataset.n_users, dataset.n_items)
    items, bounds = seen.indices.astype(np.int64), seen.indptr.tolist()
    examples = [
        TrainExample(user=u, inputs=seq[:-1], step_targets=seq[1:],
                     positive=seq[-1], forbidden=items[bounds[u]:bounds[u + 1]])
        for u, seq in enumerate(dataset.train) if len(seq) >= 2]
    if not examples:
        raise DataError("no user has enough train interactions to learn from")
    return examples


def fewest_unseen(examples: list[TrainExample], n_items: int) -> int:
    """The most negatives every example's user has unseen items for."""
    return min(n_items - ex.forbidden.size for ex in examples)


def step_inputs(batch_examples: list[TrainExample], tables: EmbeddingTables,
                n_negatives: int, rng: np.random.Generator
                ) -> tuple[SequenceBatch, np.ndarray, np.ndarray, np.ndarray]:
    """(batch, targets, positives, negatives): windows left-padded to the
    model's c, their next-item targets, each user's positive, and
    ``n_negatives`` unseen items per user."""
    users = [ex.user for ex in batch_examples]
    batch = build_batch(users, [ex.inputs for ex in batch_examples],
                        tables.c, tables.padding_id)
    targets = build_batch(users, [ex.step_targets for ex in batch_examples],
                          tables.c, 0).item_windows
    negatives = np.stack([
        sample_negatives(ex.forbidden, tables.n_items, n_negatives, rng)
        for ex in batch_examples])
    positives = np.asarray([ex.positive for ex in batch_examples], dtype=np.int64)
    return batch, targets, positives, negatives


def step_losses(params: ModelParams, adjacency: NormalizedAdjacency | None,
                hyper: Hyperparams, batch: SequenceBatch, targets: np.ndarray,
                positives: np.ndarray, negatives: np.ndarray,
                train_mode: bool = False, rng: np.random.Generator | None = None
                ) -> tuple[dict[str, ad.Tensor | None], ad.Tensor]:
    """(components, total): each of the four losses its weight turns on
    (None when off) over the encoder paths it reads, and their weighted sum.
    The graph path propagates the users plus the rows the losses name."""
    w = hyper.weights
    tables = params.tables
    bpr_nodes = tables.n_users + np.stack([positives, negatives[:, 0]])
    node_rows = [np.empty(0, dtype=np.int64)]
    if w.beta > 0:
        node_rows.append(bpr_nodes.ravel())
    if w.delta > 0:
        node_rows.append(window_nodes(batch, tables.n_users).ravel())
    states = forward_states(
        params, batch, adjacency, hyper.k,
        layer_mean=hyper.layer_mean, train_mode=train_mode, rng=rng,
        node_rows=np.concatenate(node_rows),
        **encoder_paths(hyper.scoring_head, w))
    valid_mask = batch.valid_mask()
    components: dict[str, ad.Tensor | None] = {
        "local": None, "global": None, "fused": None, "contrastive": None}
    if w.alpha > 0:
        components["local"] = local_loss(
            states.E_l, targets, tables.item_rows(), valid_mask)
    if w.beta > 0:
        pos_rows, neg_rows = node_positions(states.node_rows, bpr_nodes)
        pos_emb = ad.lookup(states.node_embeddings, pos_rows)
        neg_emb = ad.lookup(states.node_embeddings, neg_rows)
        ego_ids = np.concatenate([batch.user_ids, *bpr_nodes])
        ego_rows = ad.lookup(states.initial_nodes, ego_ids)
        components["global"] = global_loss(
            states.e_g, pos_emb, neg_emb, ego_rows, w.lambda_reg)
    if w.gamma > 0:
        components["fused"] = fused_loss(
            states.e_f, positives, negatives, tables.item_rows())
    if w.delta > 0:
        E_g = gather_windows(states.node_embeddings, batch, tables.n_users,
                             tables.n_items, states.node_rows)
        components["contrastive"] = contrastive_loss(states.E_l, E_g, valid_mask)
    return components, total_loss(components, w)


def train_step(batch_examples: list[TrainExample], params: ModelParams,
               adjacency: NormalizedAdjacency | None, hyper: Hyperparams,
               optimizer: Adam, rng: np.random.Generator
               ) -> dict[str, float]:
    """One forward/backward/Adam update; returns the component loss values."""
    pad = params.tables.padding_id
    components, loss = step_losses(
        params, adjacency, hyper,
        *step_inputs(batch_examples, params.tables, hyper.n_negatives, rng),
        train_mode=True, rng=rng)
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
    Raises DataError before the first step when ``n_negatives`` exceeds
    some user's count of unseen items.
    """
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), hyper.seed)
    adjacency = None
    if encoder_paths(hyper.scoring_head, hyper.weights)["need_graph"]:
        adjacency = build_adjacency(dataset.train, dataset.n_users,
                                    dataset.n_items)
        check_leakage(adjacency, dataset)
    if hyper.max_epochs == 0:
        return params, []
    examples = build_examples(dataset)
    fewest = fewest_unseen(examples, dataset.n_items)
    if hyper.n_negatives > fewest:
        raise DataError(f"negative_samples={hyper.n_negatives} exceeds the "
                        f"{fewest} unseen items of some user")
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
                log_fh.write(json.dumps(
                    {**asdict(record), "fingerprint": fingerprint,
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
