"""Self-check suites: gradient finite differences, sparse-vs-dense graph
oracle, restricted-vs-full graph propagation, ranking-metric oracle, and
state-only-vs-full encoder parity. Each returns flat ``{measure: scalar,
..., "passed": bool}`` records; ``mrgsrec verify`` prints one line per record
(``report_line``) and fails unless all pass. A non-finite difference scores
inf, so a NaN never passes. The test suite reuses the same functions.

The paper's ablation lives here too: ``ablate`` trains and tests the
variants ``ablation_configs`` derives from one run, for ``mrgsrec ablate``,
demo 05 and the acceptance suite. It trains models, so ``verify`` does not
run it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .config import fingerprint, to_hyperparams
from .data import SplitDataset, leave_one_out
from .embeddings import EmbeddingTables, build_batch, flatten, init_tables
from .errors import ParseError
from .evaluation import (MetricsReport, evaluate, hr_at_k, ndcg_at_k,
                         rank_targets, seen_items)
from .graph import NormalizedAdjacency, build_adjacency, propagated_embeddings
from .losses import LossWeights
from .model import HEAD_STATES, ModelParams, forward_states, init_model
from .seqenc import ATTENTION_MODES, USER_STATES, SeqEncoderConfig
from .training import (Hyperparams, build_examples, fewest_unseen, fit,
                       step_inputs, step_losses)

# The oracles' fixed settings; ``verify`` and the tests run exactly these.
GRAPH_ORACLE_GRAPHS, GRAPH_ORACLE_SEED, GRAPH_ORACLE_TOL = 20, 11, 1e-10
GRAPH_ORACLE_MAX_USERS, GRAPH_ORACLE_MAX_ITEMS, GRAPH_ORACLE_K = 50, 80, 3
METRIC_ORACLE_USERS, METRIC_ORACLE_ITEMS, METRIC_ORACLE_SEED = 100, 50, 13
STATE_ONLY_TOL = 1e-12
# The gradient instance of ``verify --quick`` (``make_gradient_instance``).
QUICK_GRADIENT_INSTANCE = dict(d=4, c=3, m=5, n=7, k=1, n_layers=1)

# The synthetic ablation check: ``generate_clustered_markov(seed=
# ABLATION_DATA_SEED)`` (600 users x 240 items) and this base run.
ABLATION_DATA_SEED = 5
ABLATION_RUN = {
    "window_length": 8, "embedding_dim": 32, "graph_layers": 2,
    "encoder_layers": 1, "attention_heads": 2, "dropout_rate": 0.1,
    "user_state": "last_position", "negative_samples": 200,
    "batch_size": 128, "max_epochs": 120, "patience": 20, "learning_rate": 5e-3,
    "alpha": 1.0, "beta": 0.1, "gamma": 0.05, "delta": 0.2,
}


def random_dataset(m: int, n: int, seed: int,
                   min_len: int = 4, max_len: int = 9) -> SplitDataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    sequences = []
    for _ in range(m):
        length = int(rng.integers(min_len, max_len + 1))
        sequences.append(rng.integers(0, n, size=length).tolist())
    return leave_one_out(sequences, n)


def redraw_at_unit_scale(params: ModelParams, rng: np.random.Generator) -> None:
    """Re-draw every block from N(0, 0.5) and re-zero the padding row: FD at
    the tiny init sits on layer-norm curvature and drowns in truncation noise."""
    for tensor in params.parameters():
        tensor.data[...] = rng.normal(0.0, 0.5, size=tensor.data.shape)
    params.tables.item.data[params.tables.padding_id] = 0.0


def make_gradient_instance(d: int = 8, c: int = 5, m: int = 7, n: int = 11,
                           k: int = 2, n_layers: int = 2, seed: int = 7):
    """A tiny end-to-end model plus one fixed batch of all its users, for
    gradient checking: (hyper, params, adjacency, *step_inputs)."""
    hyper = Hyperparams(
        c=c, d=d, k=k, n_layers=n_layers, n_heads=2, dropout_rate=0.0,
        user_state="first_token",  # the recorded reference losses read row 0
        weights=LossWeights(alpha=1.0, beta=0.7, gamma=0.9, delta=0.5,
                            lambda_reg=1e-3),
        n_negatives=3, batch_size=m, max_epochs=1, patience=1, seed=seed)
    dataset = random_dataset(m, n, seed)
    params = init_model(m, n, c, hyper.seq_config(), seed)
    redraw_at_unit_scale(params, np.random.Generator(np.random.PCG64(seed + 2)))
    adjacency = build_adjacency(dataset.train, m, n)
    examples = build_examples(dataset)
    hyper.n_negatives = min(hyper.n_negatives, fewest_unseen(examples, n))
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    return (hyper, params, adjacency,
            *step_inputs(examples, params.tables, hyper.n_negatives, rng))


def component_loss_fn(name: str, hyper, params, adjacency, *inputs):
    """A pure function of the current parameter data for one loss component
    or ``"total"``, by ``training.step_losses`` as in ``train_step``."""
    def loss_fn() -> ad.Tensor:
        components, total = step_losses(params, adjacency, hyper, *inputs)
        return total if name == "total" else components[name]

    return loss_fn


def gradient_suite(**instance_kwargs) -> dict[str, dict]:
    """Finite-difference check of each loss and the total: a record
    ``gradient/<loss>`` naming the worst block, then ``gradient/<loss>/<b>``."""
    instance = make_gradient_instance(**instance_kwargs)
    records: dict[str, dict] = {}
    for name in ("local", "global", "fused", "contrastive", "total"):
        report = ad.finite_difference_check(component_loss_fn(name, *instance),
                                            instance[1].named())
        worst_block = max(report, key=lambda b: report[b]["max_rel_error"])
        records[f"gradient/{name}"] = {
            "max_rel_error": report[worst_block]["max_rel_error"],
            "worst_block": worst_block,
            "passed": all(entry["passed"] for entry in report.values()),
        }
        records.update((f"gradient/{name}/{block}", entry)
                       for block, entry in report.items())
    return records


def max_abs_difference(pairs) -> float:
    """The largest ``|a - b|`` over the (a, b) array pairs, 0.0 for none;
    any non-finite difference makes it inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = [float(np.abs(np.subtract(a, b)).max(initial=0.0))
                for a, b in pairs]
    return max(gaps, default=0.0) if np.isfinite(gaps).all() else np.inf


def dense_normalized_adjacency(train: list[list[int]], m: int, n: int) -> np.ndarray:
    """Brute-force oracle: dense D^{-1/2} A D^{-1/2} built row by row."""
    r = np.zeros((m, n))
    for u, seq in enumerate(train):
        for item in set(seq):
            r[u, item] = 1.0
    a = np.zeros((m + n, m + n))
    a[:m, m:] = r
    a[m:, :m] = r.T
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv[:, None] * a * inv[None, :]


def oracle_graphs():
    """The graph oracle's ``GRAPH_ORACLE_GRAPHS`` random graphs, each as
    (train, m, n, x) with x a random (m + n, d) node matrix, d in 1..4."""
    rng = np.random.Generator(np.random.PCG64(GRAPH_ORACLE_SEED))
    for _ in range(GRAPH_ORACLE_GRAPHS):
        m = int(rng.integers(3, GRAPH_ORACLE_MAX_USERS + 1))
        n = int(rng.integers(3, GRAPH_ORACLE_MAX_ITEMS + 1))
        train = [rng.integers(0, n, size=rng.integers(1, 7)).tolist()
                 for _ in range(m)]
        x = rng.normal(size=(m + n, int(rng.integers(1, 5))))
        yield train, m, n, x


def oracle_tables(x: np.ndarray, m: int, n: int) -> EmbeddingTables:
    """Embedding tables whose stacked user and item rows are ``x``."""
    tables = init_tables(m, n, 1, x.shape[1], seed=0)
    tables.user.data[...] = x[:m]
    tables.item.data[:n] = x[m:]
    return tables


def sparse_dense_suite() -> dict:
    """Compare the sparse adjacency, and ``propagated_embeddings`` as the
    model runs it, with the dense oracle."""
    pairs = []
    for train, m, n, x in oracle_graphs():
        adjacency = build_adjacency(train, m, n)
        dense = dense_normalized_adjacency(train, m, n)
        # structural assertions: exact symmetry, zero diagonal blocks
        blocks = adjacency.adj.toarray()
        if not np.array_equal(blocks, blocks.T):
            return {"reason": "adjacency not symmetric", "passed": False}
        if blocks[:m, :m].any() or blocks[m:, m:].any():
            return {"reason": "diagonal blocks not zero", "passed": False}
        with ad.no_grad():
            sparse_prop = propagated_embeddings(
                oracle_tables(x, m, n), adjacency, GRAPH_ORACLE_K).data
        dense_prop = x
        for _ in range(GRAPH_ORACLE_K):
            dense_prop = dense @ dense_prop
        pairs += [(blocks, dense), (sparse_prop, dense_prop)]
    worst = max_abs_difference(pairs)
    return {"max_abs_error": worst, "passed": worst <= GRAPH_ORACLE_TOL}


def restricted_and_full(tables: EmbeddingTables, adjacency: NormalizedAdjacency,
                        k: int, layer_mean: bool, rows: np.ndarray,
                        weights: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """[full, restricted]: each is (node values at ``rows``, user-table
    gradient, item-table gradient) of ``sum(weights * nodes[rows])``, once
    read off the full propagated table and once propagated for ``rows``."""
    out = []
    for restricted in (False, True):
        tables.user.zero_grad()
        tables.item.zero_grad()
        if restricted:
            nodes = propagated_embeddings(tables, adjacency, k, layer_mean,
                                          rows=rows)
        else:
            nodes = ad.lookup(
                propagated_embeddings(tables, adjacency, k, layer_mean), rows)
        ad.tsum(ad.mul(nodes, weights)).backward()
        out.append((nodes.data, tables.user.grad, tables.item.grad))
    return out


def rows_suite() -> dict:
    """Restricted against full propagation on the graph oracle's graphs,
    for k in 0..GRAPH_ORACLE_K, with and without the layer mean, each on a
    random node subset; values and both table gradients must be equal."""
    rng = np.random.Generator(np.random.PCG64(GRAPH_ORACLE_SEED + 1))
    cases = []
    for train, m, n, x in oracle_graphs():
        adjacency = build_adjacency(train, m, n)
        tables = oracle_tables(x, m, n)
        rows = np.flatnonzero(rng.random(m + n) < 0.3)
        weights = rng.normal(size=(rows.size, x.shape[1]))
        cases += [(tables, adjacency, k, layer_mean, rows, weights)
                  for k in range(GRAPH_ORACLE_K + 1)
                  for layer_mean in (False, True)]
    worst = max_abs_difference(pair for case in cases
                               for pair in zip(*restricted_and_full(*case)))
    return {"max_abs_error": worst, "cases": len(cases), "passed": worst == 0.0}


def metric_oracle_rank(scores: np.ndarray, target: int, excluded=()) -> int:
    """Sort-and-scan oracle: stable argsort by (-score, id), find the target."""
    order = sorted((i for i in range(len(scores)) if i not in set(excluded)),
                   key=lambda i: (-scores[i], i))
    return order.index(target) + 1


def metric_suite() -> dict:
    """Rank random score rows as one block, the way ``evaluate`` ranks a
    chunk (excluded pairs from ``seen_items``), and check each rank, HR and
    NDCG against the sort-based oracle."""
    n_users, n_items = METRIC_ORACLE_USERS, METRIC_ORACLE_ITEMS
    rng = np.random.Generator(np.random.PCG64(METRIC_ORACLE_SEED))
    scores = np.empty((n_users, n_items))
    targets = np.empty(n_users, dtype=np.int64)
    exclusions = []
    for u in range(n_users):
        scores[u] = rng.normal(size=n_items)
        if rng.random() < 0.3:  # force ties sometimes
            scores[u] = np.round(scores[u], 1)
        targets[u] = rng.integers(n_items)
        exclusions.append(sorted(
            set(rng.integers(0, n_items, size=5).tolist()) - {int(targets[u])}))
    ranks = rank_targets(scores, targets,
                         seen_items(*flatten(exclusions), targets)).tolist()
    for got, row, target, excluded in zip(ranks, scores, targets, exclusions):
        want = metric_oracle_rank(row, int(target), excluded)
        if got != want:
            return {"reason": f"rank mismatch: {got} vs oracle {want}",
                    "passed": False}
        for k in (5, 10):
            if hr_at_k(got, k) != (1.0 if want <= k else 0.0):
                return {"reason": "hr mismatch", "passed": False}
            expected = 1.0 / np.log2(want + 1) if want <= k else 0.0
            if abs(ndcg_at_k(got, k) - expected) > 1e-15:
                return {"reason": "ndcg mismatch", "passed": False}
    return {"ranks": n_users, "passed": True}


def state_only_gaps(user_state: str = "first_token",
                    attention_mode: str = "causal", n_layers: int = 2,
                    seed: int = 5) -> dict[str, float]:
    """Max abs difference, per scoring head, between the user states that
    ``forward_states`` builds with ``positions=False`` and those of the full
    pass, on a small random fused model. The windows hold 1 to c+2 items, so
    both padded and full windows occur. A state-only pass that still builds
    ``E_l`` reads inf on every head."""
    c, m, n = 5, 9, 13
    config = SeqEncoderConfig(d=8, n_layers=n_layers, n_heads=2,
                              dropout_rate=0.0, attention_mode=attention_mode,
                              user_state=user_state)
    params = init_model(m, n, c, config, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    redraw_at_unit_scale(params, rng)
    train = [rng.integers(0, n, size=length).tolist()
             for length in (1, c, 2, c + 2, 3, 1, c, 4, c + 1)]
    adjacency = build_adjacency(train, m, n)
    batch = build_batch(list(range(m)), train, c, params.tables.padding_id)
    with ad.no_grad():
        full = forward_states(params, batch, adjacency, k=2)
        state = forward_states(params, batch, adjacency, k=2, positions=False)
    if state.E_l is not None:
        return {head: float("inf") for head in HEAD_STATES}
    return {head: max_abs_difference([(getattr(state, name).data,
                                       getattr(full, name).data)])
            for head, name in HEAD_STATES.items()}


def state_only_suite() -> dict:
    """``state_only_gaps`` over both user states and attention modes; the
    worst gap per scoring head."""
    runs = [state_only_gaps(user_state, mode)
            for user_state in USER_STATES for mode in ATTENTION_MODES]
    worst = {head: max(gaps[head] for gaps in runs) for head in HEAD_STATES}
    return {**worst, "passed": max(worst.values()) <= STATE_ONLY_TOL}


def report_line(name: str, record: dict) -> str:
    """``name: key=value ... PASS|FAIL`` from a suite's record."""
    entries = " ".join(f"{key}={value:.3e}" if isinstance(value, float)
                       else f"{key}={value}"
                       for key, value in record.items() if key != "passed")
    return f"{name}: {entries} {'PASS' if record['passed'] else 'FAIL'}"


def run_all(quick: bool = False) -> tuple[bool, str]:
    """Run every suite; returns (every record passed, one line per record)."""
    records = {
        **gradient_suite(**(QUICK_GRADIENT_INSTANCE if quick else {})),
        "graph/sparse-vs-dense": sparse_dense_suite(),
        "graph/rows": rows_suite(),
        "metrics/sort-oracle": metric_suite(),
        "encoder/state-only": state_only_suite(),
    }
    return (all(record["passed"] for record in records.values()),
            "\n".join(report_line(name, record)
                      for name, record in records.items()))


def ablation_configs(run: dict) -> dict[str, dict]:
    """The ablation of a resolved run: ``full`` is the run scored by the
    fused head; ``sequential`` (SASRec-style) and ``graph`` (LightGCN-style)
    train the local or the global loss alone, at weight 1.0 (under Adam a
    lone loss's weight only rescales its gradient), scored by their own
    head. Every other key is the run's."""
    lone = {**run, "alpha": 0.0, "beta": 0.0, "gamma": 0.0, "delta": 0.0}
    return {"full": {**run, "scoring_head": "fused"},
            "sequential": {**lone, "alpha": 1.0, "scoring_head": "sequential"},
            "graph": {**lone, "beta": 1.0, "scoring_head": "graph"}}


def ablate(dataset: SplitDataset, run: dict
           ) -> dict[str, tuple[MetricsReport, int, str]]:
    """Train each of ``ablation_configs(run)`` on ``dataset`` and evaluate it
    on the test split: variant -> (report, epochs run, config fingerprint).
    Every variant's settings are checked before the first one trains; a
    variant that breaks a rule raises ParseError naming it."""
    hypers = {}
    for name, variant in ablation_configs(run).items():
        try:
            hypers[name] = (to_hyperparams(variant), fingerprint(variant))
        except ParseError as exc:
            raise ParseError(f"ablation variant {name!r}: {exc}") from exc
    results = {}
    for name, (hyper, fp) in hypers.items():
        params, history = fit(dataset, hyper, fingerprint=fp)
        report = evaluate(params, dataset, "test", hyper, fingerprint=fp)
        results[name] = (report, len(history), fp)
    return results
