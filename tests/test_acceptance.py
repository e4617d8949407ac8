"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 (benchmark dataset statistics) is skipped unless raw files are
supplied via the MRGS_BEAUTY_PATH / MRGS_ML1M_PATH environment variables.
The directional-ablation criterion trains 9 models and dominates the
runtime (a few minutes of CPU).
"""

import math
import os
import time

import numpy as np
import pytest

from mrgsrec import autodiff as ad
from mrgsrec import data as dp
from mrgsrec import evaluation as ev
from mrgsrec import losses as ls
from mrgsrec import verification as vf
from mrgsrec.config import resolve_config
from mrgsrec.graph import build_adjacency, check_leakage
from mrgsrec.losses import LossWeights
from mrgsrec.synthetic import generate_clustered_markov
from mrgsrec.training import Hyperparams, fit


def report(name, passed, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name} failed: {detail}"


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    records = vf.gradient_suite()  # gradient/<loss> and gradient/<loss>/<block>
    elapsed = time.perf_counter() - started
    worst = max(records, key=lambda name: records[name]["max_rel_error"])
    ok = all(record["passed"] for record in records.values()) and elapsed < 120
    report("1 gradient-suite", ok,
           f"max_rel_error={records[worst]['max_rel_error']:.2e} ({worst}) "
           f"runtime={elapsed:.1f}s")


def test_criterion_2_graph_oracle():
    result = vf.sparse_dense_suite()
    report("2 graph-oracle", result["passed"], str(result))


def test_criterion_3_metric_oracle():
    g = np.random.Generator(np.random.PCG64(33))
    exact = True
    for _ in range(100):
        n = int(g.integers(20, 60))
        scores = np.round(g.normal(size=n), 1)
        target = int(g.integers(n))
        excluded = set(g.integers(0, n, size=4).tolist()) - {target}
        rank = ev.rank_target(scores, target, excluded)
        oracle = vf.metric_oracle_rank(scores, target, excluded)
        exact &= rank == oracle
        for k in (5, 10):
            exact &= ev.hr_at_k(rank, k) == (1.0 if oracle <= k else 0.0)
            want = 1.0 / math.log2(oracle + 1) if oracle <= k else 0.0
            exact &= ev.ndcg_at_k(rank, k) == want
    n_users, n_items = 2000, 40
    hits = {5: 0.0, 10: 0.0}
    for _ in range(n_users):
        scores = g.normal(size=n_items)
        target = int(g.integers(n_items))
        rank = ev.rank_target(scores, target)
        for k in hits:
            hits[k] += ev.hr_at_k(rank, k)
    expectation_ok = True
    detail = []
    for k in (5, 10):
        p = k / n_items
        sigma = math.sqrt(p * (1 - p) / n_users)
        gap = abs(hits[k] / n_users - p)
        expectation_ok &= gap < 3 * sigma
        detail.append(f"HR@{k} gap={gap:.4f} (3sigma={3 * sigma:.4f})")
    report("3 metric-oracle", exact and expectation_ok, "; ".join(detail))


def test_criterion_4_closed_form_losses():
    checks = []
    # uniform-logit sampled softmax with S negatives -> ln(S+1)
    for s in (1, 4, 9):
        loss = ls.fused_loss(ad.Tensor(np.zeros((3, 4))),
                             np.zeros(3, dtype=int),
                             np.tile(np.arange(1, s + 1), (3, 1)),
                             ad.Tensor(np.zeros((s + 1, 4))))
        checks.append(abs(loss.item() - math.log(s + 1)) < 1e-10)
    # single-position contrastive loss is exactly 0
    g = np.random.Generator(np.random.PCG64(44))
    lc = ls.contrastive_loss(ad.Tensor(g.normal(size=(4, 1, 6))),
                             ad.Tensor(g.normal(size=(4, 1, 6))),
                             np.ones((4, 1), dtype=bool))
    checks.append(abs(lc.item()) < 1e-10)
    # equal-score BPR -> ln 2
    e = ad.Tensor(g.normal(size=(5, 6)))
    same = ad.Tensor(g.normal(size=(5, 6)))
    lg = ls.global_loss(e, same, same, ad.Tensor(np.zeros((1, 6))), 0.0)
    checks.append(abs(lg.item() - math.log(2)) < 1e-10)
    # two-item uniform local cross-entropy -> ln 2
    ll = ls.local_loss(ad.Tensor(np.zeros((2, 3, 4))),
                       np.zeros((2, 3), dtype=int),
                       ad.Tensor(np.zeros((2, 4))),
                       np.ones((2, 3), dtype=bool))
    checks.append(abs(ll.item() - math.log(2)) < 1e-10)
    report("4 closed-form-losses", all(checks),
           f"{sum(checks)}/{len(checks)} identities hold")


TABLE1 = {
    "beauty": {"env": "MRGS_BEAUTY_PATH", "users": 22363, "items": 12101,
               "interactions": 198502},
    "ml-1m": {"env": "MRGS_ML1M_PATH", "users": 6040, "items": 3706,
              "interactions": 1000209},
}


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_criterion_5_benchmark_statistics(name):
    spec = TABLE1[name]
    path = os.environ.get(spec["env"])
    if not path or not os.path.exists(path):
        pytest.skip(f"raw {name} data not available (set {spec['env']})")
    delimiter = "::" if name == "ml-1m" else ","
    matched = []
    for mode in ("single_pass", "fixpoint"):
        log = dp.load_interactions(path, delimiter=delimiter)
        filtered = dp.min_count_filter(log, 5, mode=mode)
        # Five or more interactions each: every user splits, none is dropped.
        stats = dp.dataset_stats(dp.chronological_split(filtered))
        if (stats.n_users, stats.n_items, stats.n_interactions) == \
                (spec["users"], spec["items"], spec["interactions"]):
            matched.append(mode)
    report(f"5 table1-{name}", bool(matched), f"matching modes: {matched}")


def test_criterion_6_directional_ablation():
    dataset = generate_clustered_markov(seed=vf.ABLATION_DATA_SEED)
    assert dataset.n_users >= 500 and dataset.n_items >= 200
    started = time.perf_counter()
    per_seed = {}
    for seed in (0, 1, 2):
        run = resolve_config({**vf.ABLATION_RUN, "seed": seed})
        for name, (test, _, _) in vf.ablate(dataset, run).items():
            per_seed.setdefault(name, []).append(test.ndcg10)
    elapsed = time.perf_counter() - started
    means = {name: float(np.mean(values)) for name, values in per_seed.items()}
    full = means["full"]
    singles = [mean for name, mean in means.items() if name != "full"]
    ok = (all(full >= single - 0.005 for single in singles)
          and any(full > single for single in singles)
          and elapsed < 900)
    per_seed = {name: [round(v, 4) for v in values]
                for name, values in per_seed.items()}
    report("6 directional-ablation", ok,
           f"means={ {k: round(v, 4) for k, v in means.items()} } "
           f"per-seed={per_seed} runtime={elapsed:.0f}s")


def test_criterion_7_training_determinism():
    dataset = generate_clustered_markov(n_users=80, n_items=60, n_clusters=6,
                                        min_len=10, max_len=16, seed=2)
    hyper = Hyperparams(c=6, d=16, k=1, n_layers=1, n_heads=2,
                        dropout_rate=0.2, weights=LossWeights(1.0, 0.2, 0.5, 0.1),
                        n_negatives=20, batch_size=32, max_epochs=3,
                        patience=3, seed=7, learning_rate=1e-3)
    finals = []
    for _ in range(2):
        params, history = fit(dataset, hyper)
        rep = ev.evaluate(params, dataset, "test", hyper)
        finals.append((tuple(h.val_ndcg10 for h in history),
                       rep.hr5, rep.hr10, rep.ndcg5, rep.ndcg10))
    report("7 determinism", finals[0] == finals[1],
           f"final metrics identical: {finals[0][1:]}" )


def test_criterion_8_leakage_guard():
    dataset = generate_clustered_markov(n_users=120, n_items=80,
                                        n_clusters=8, seed=3)
    adjacency = build_adjacency(dataset.train, dataset.n_users,
                                dataset.n_items)
    check_leakage(adjacency, dataset)  # raises on any target edge
    # evaluation inputs must never contain the test target
    hyper = Hyperparams(c=6, d=16, k=1, n_layers=0, n_heads=2,
                        weights=LossWeights(), batch_size=32, max_epochs=0,
                        patience=1, seed=0)
    from mrgsrec.model import init_model
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    captured = []
    original = ev.window_batch

    def spy(users, lengths, items, c, pad):
        sequences = np.split(items, np.cumsum(lengths)[:-1])
        captured.append((list(users), [s.tolist() for s in sequences]))
        return original(users, lengths, items, c, pad)

    ev.window_batch = spy
    try:
        ev.evaluate(params, dataset, "test", hyper)
    finally:
        ev.window_batch = original
    clean = bool(captured)
    for users, sequences in captured:
        for u, seq in zip(users, sequences):
            expected = dataset.train[u] + [dataset.val[u]]
            clean &= seq == expected
            if dataset.test[u] not in expected:
                clean &= dataset.test[u] not in seq
    report("8 leakage-guard", clean,
           f"checked {dataset.n_users} users' graph edges and eval inputs")
