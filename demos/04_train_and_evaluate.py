"""End-to-end training on synthetic data, then leave-one-out evaluation.

The synthetic generator plants two signals: users stick to a few item
clusters (visible to the graph encoder through co-occurrence) and items
inside a cluster follow a cyclic chain (visible to the sequential
encoder). A few seconds of CPU are enough to learn both.
"""

import time

from mrgsrec.evaluation import evaluate
from mrgsrec.losses import LossWeights
from mrgsrec.synthetic import generate_clustered_markov, popularity_hr_at_k
from mrgsrec.training import Hyperparams, fit

dataset = generate_clustered_markov(
    n_users=200, n_items=100, n_clusters=10, min_len=16, max_len=26, seed=1)
print(f"dataset: {dataset.n_users} users x {dataset.n_items} items")
print(f"popularity baseline HR@10: {popularity_hr_at_k(dataset):.3f}")

hyper = Hyperparams(
    c=8, d=32, k=2, n_layers=1, n_heads=2, dropout_rate=0.1,
    user_state="last_position",      # read the user state off the last slot
    weights=LossWeights(alpha=1.0, beta=0.1, gamma=0.1, delta=0.1),
    n_negatives=50, batch_size=64, max_epochs=40, patience=8,
    seed=0, learning_rate=5e-3)

started = time.perf_counter()
params, history = fit(dataset, hyper)
print(f"\ntrained {len(history)} epochs in "
      f"{time.perf_counter() - started:.0f}s")
for record in history[:: max(1, len(history) // 6)]:
    losses = {k: round(v, 3) for k, v in record.losses.items()}
    print(f"  epoch {record.epoch:3d}  val NDCG@10={record.val_ndcg10:.4f}  "
          f"losses={losses}")

for split in ("validation", "test"):
    report = evaluate(params, dataset, split, hyper)
    print(f"\n{report.text()}")
