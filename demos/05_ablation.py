"""Ablation: the fused model against its two single-path parts.

Each variant trains on the same data with the same seed; only the loss
weights and the scoring head change, by the one rule in
``mrgsrec.verification.ablation_configs``. The graph variant recovers a
LightGCN-style recommender (BPR on propagated embeddings), the sequential
variant a SASRec-style one (full cross-entropy over the catalog), and the
full model trains all four objectives and scores with the fused state.
This is the acceptance suite's ablation check at one seed. Expect about
20 s of CPU.
"""

import time

from mrgsrec.config import resolve_config
from mrgsrec.synthetic import generate_clustered_markov
from mrgsrec.verification import ABLATION_DATA_SEED, ABLATION_RUN, ablate

dataset = generate_clustered_markov(seed=ABLATION_DATA_SEED)  # 600 x 240

started = time.perf_counter()
results = ablate(dataset, resolve_config({**ABLATION_RUN, "seed": 0}))

print(f"{'variant':12s} {'HR@5':>7s} {'HR@10':>7s} {'NDCG@5':>7s} "
      f"{'NDCG@10':>8s} {'epochs':>7s}")
for name, (report, epochs, _) in results.items():
    print(f"{name:12s} {report.hr5:7.4f} {report.hr10:7.4f} "
          f"{report.ndcg5:7.4f} {report.ndcg10:8.4f} {epochs:7d}")

full = results.pop("full")[0].ndcg10
best_single = max(report.ndcg10 for report, _, _ in results.values())
print(f"\nfused vs best single path: {full:.4f} vs {best_single:.4f}"
      f"   ({time.perf_counter() - started:.0f}s)")
