"""Self-check suites: gradient finite differences, sparse-vs-dense graph
oracle, and ranking-metric oracle. The CLI ``verify`` subcommand runs all
three and fails on any mismatch; the test suite reuses the same functions.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import SplitDataset
from .embeddings import build_batch
from .evaluation import hr_at_k, ndcg_at_k, rank_target
from .graph import build_adjacency
from .losses import LossWeights
from .model import forward_states, init_model
from .training import Hyperparams, batch_losses, build_examples, sample_negatives
from .losses import total_loss


def random_dataset(m: int, n: int, seed: int,
                   min_len: int = 4, max_len: int = 9) -> SplitDataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    train, val, test = [], [], []
    for _ in range(m):
        length = int(rng.integers(min_len, max_len + 1))
        seq = rng.integers(0, n, size=length).tolist()
        train.append(seq[:-2])
        val.append(seq[-2])
        test.append(seq[-1])
    return SplitDataset(m, n, train, val, test,
                        [f"u{i}" for i in range(m)],
                        [f"i{i}" for i in range(n)])


def make_gradient_instance(d: int = 8, c: int = 5, m: int = 7, n: int = 11,
                           k: int = 2, n_layers: int = 2, seed: int = 7):
    """A tiny end-to-end model plus one fixed batch for gradient checking."""
    hyper = Hyperparams(
        c=c, d=d, k=k, n_layers=n_layers, n_heads=2, dropout_rate=0.0,
        weights=LossWeights(alpha=1.0, beta=0.7, gamma=0.9, delta=0.5,
                            lambda_reg=1e-3),
        n_negatives=3, batch_size=m, max_epochs=1, patience=1, seed=seed)
    dataset = random_dataset(m, n, seed)
    params = init_model(m, n, c, hyper.seq_config(), seed)
    # Re-draw every block at O(1) scale: finite differences at the tiny
    # training init sit on layer-norm curvature and drown in truncation noise.
    redraw = np.random.Generator(np.random.PCG64(seed + 2))
    for name, tensor in params.named().items():
        tensor.data[...] = redraw.normal(0.0, 0.5, size=tensor.data.shape)
    params.tables.item.data[n, :] = 0.0
    adjacency = build_adjacency(dataset.train, m, n)
    examples = build_examples(dataset)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    smallest_complement = min(n - ex.forbidden.size for ex in examples)
    hyper.n_negatives = min(hyper.n_negatives, smallest_complement)
    negatives = np.stack([
        sample_negatives(ex.forbidden, n, hyper.n_negatives, rng)
        for ex in examples])
    batch = build_batch([ex.user for ex in examples],
                        [ex.inputs for ex in examples], c,
                        params.tables.padding_id)
    targets = build_batch([ex.user for ex in examples],
                          [ex.step_targets for ex in examples], c, 0).item_windows
    return hyper, params, adjacency, examples, batch, targets, negatives


def component_loss_fn(name: str, hyper, params, adjacency, examples,
                      batch, targets, negatives):
    """A pure function of the current parameter data for one loss component."""
    weights = hyper.weights

    def loss_fn() -> ad.Tensor:
        states = forward_states(params, batch, adjacency, hyper.k,
                                need_seq=True, need_graph=True, need_fused=True,
                                train_mode=False)
        components = batch_losses(params, states, examples, targets,
                                  batch.valid_mask(), negatives, hyper)
        if name == "total":
            return total_loss(components, weights)
        return components[name]

    return loss_fn


def gradient_suite(h: float = 1e-5, tol: float = 1e-4,
                   **instance_kwargs) -> dict[str, dict]:
    """Finite-difference check of each loss and the total; one record per loss."""
    instance = make_gradient_instance(**instance_kwargs)
    hyper, params = instance[0], instance[1]
    results: dict[str, dict] = {}
    for name in ("local", "global", "fused", "contrastive", "total"):
        loss_fn = component_loss_fn(name, *instance)
        report = ad.finite_difference_check(loss_fn, params.named(), h=h, tol=tol)
        worst_block = max(report, key=lambda b: report[b]["max_rel_error"])
        results[name] = {
            "max_rel_error": report[worst_block]["max_rel_error"],
            "worst_block": worst_block,
            "passed": all(entry["passed"] for entry in report.values()),
        }
    return results


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


def sparse_dense_suite(n_graphs: int = 20, max_users: int = 50,
                       max_items: int = 80, k_max: int = 3,
                       tol: float = 1e-10, seed: int = 11) -> dict:
    """Compare sparse construction/propagation with the dense oracle."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(n_graphs):
        m = int(rng.integers(3, max_users + 1))
        n = int(rng.integers(3, max_items + 1))
        train = [rng.integers(0, n, size=rng.integers(1, 7)).tolist()
                 for _ in range(m)]
        adjacency = build_adjacency(train, m, n)
        dense = dense_normalized_adjacency(train, m, n)
        diff = np.abs(adjacency.adj.toarray() - dense).max()
        worst = max(worst, float(diff))
        # structural assertions: exact symmetry, zero diagonal blocks
        transpose_gap = (adjacency.adj - adjacency.adj.T)
        if transpose_gap.nnz and np.abs(transpose_gap.data).max() != 0.0:
            return {"passed": False, "reason": "adjacency not symmetric"}
        blocks = adjacency.adj.toarray()
        if blocks[:m, :m].any() or blocks[m:, m:].any():
            return {"passed": False, "reason": "diagonal blocks not zero"}
        x = rng.normal(size=(m + n, int(rng.integers(1, 5))))
        sparse_prop = x.copy()
        dense_prop = x.copy()
        for _ in range(k_max):
            sparse_prop = adjacency.adj @ sparse_prop
            dense_prop = dense @ dense_prop
        worst = max(worst, float(np.abs(sparse_prop - dense_prop).max()))
    return {"passed": worst <= tol, "max_abs_error": worst}


def metric_oracle_rank(scores: np.ndarray, target: int, excluded=()) -> int:
    """Sort-and-scan oracle: stable argsort by (-score, id), find the target."""
    order = sorted((i for i in range(len(scores)) if i not in set(excluded)),
                   key=lambda i: (-scores[i], i))
    return order.index(target) + 1


def metric_suite(n_users: int = 100, n_items: int = 50, seed: int = 13) -> dict:
    """Check rank/HR/NDCG against the sort-based oracle on random scores."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(n_users):
        scores = rng.normal(size=n_items)
        if rng.random() < 0.3:  # force ties sometimes
            scores = np.round(scores, 1)
        target = int(rng.integers(n_items))
        excluded = set(rng.integers(0, n_items, size=5).tolist()) - {target}
        got = rank_target(scores, target, excluded)
        want = metric_oracle_rank(scores, target, excluded)
        if got != want:
            return {"passed": False,
                    "reason": f"rank mismatch: {got} vs oracle {want}"}
        for k in (5, 10):
            if hr_at_k(got, k) != (1.0 if want <= k else 0.0):
                return {"passed": False, "reason": "hr mismatch"}
            expected = 1.0 / np.log2(want + 1) if want <= k else 0.0
            if abs(ndcg_at_k(got, k) - expected) > 1e-15:
                return {"passed": False, "reason": "ndcg mismatch"}
    return {"passed": True}


def run_all(quick: bool = False) -> tuple[bool, str]:
    """Run every suite; returns (all passed, printable report)."""
    lines = []
    if quick:
        grads = gradient_suite(d=4, c=3, m=5, n=7, k=1, n_layers=1)
    else:
        grads = gradient_suite()
    ok = True
    for name, entry in grads.items():
        ok &= entry["passed"]
        lines.append(
            f"gradient/{name}: max_rel_error={entry['max_rel_error']:.3e} "
            f"(worst block {entry['worst_block']}) "
            f"{'PASS' if entry['passed'] else 'FAIL'}")
    sparse = sparse_dense_suite()
    ok &= sparse["passed"]
    lines.append(f"graph/sparse-vs-dense: {sparse} "
                 f"{'PASS' if sparse['passed'] else 'FAIL'}")
    metrics = metric_suite()
    ok &= metrics["passed"]
    lines.append(f"metrics/sort-oracle: {metrics} "
                 f"{'PASS' if metrics['passed'] else 'FAIL'}")
    return ok, "\n".join(lines)
