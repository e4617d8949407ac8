"""Walk through the data pipeline: parse, filter, split, snapshot.

We fabricate a small interaction log, push it through every preprocessing
stage, and show what each stage guarantees. Run with:

    python3 demos/01_data_pipeline.py
"""

import tempfile
from pathlib import Path

from mrgsrec import data as dp

# --- fabricate a log: 10 users, the last two are too sparse to survive ---
lines = []
for u in range(8):
    for j in range(6):
        lines.append(f"user{u}\titem{(u + j) % 7}\t{1000 + j}")
lines.append("user8\titem0\t1000")          # 1 interaction: filtered out
lines.append("user9\titem1\t1000")
raw = Path(tempfile.mkdtemp()) / "toy.tsv"
raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

log = dp.load_interactions(raw)
print(f"loaded: {log.n_users} users, {log.n_items} items, "
      f"{log.n_interactions} interactions")

# --- minimum-count filtering, iterated to a fixpoint ---------------------
filtered = dp.min_count_filter(log, threshold=3)
print(f"after 3-core filter: {filtered.n_users} users, "
      f"{filtered.n_items} items (sparse users gone, ids re-compacted)")

# filtering is idempotent: a second pass changes nothing
again = dp.min_count_filter(filtered, threshold=3)
assert again.interactions == filtered.interactions

# --- leave-one-out split --------------------------------------------------
filtered, dropped = dp.drop_short_users(filtered)
split = dp.chronological_split(filtered)
stats = dp.compute_stats(filtered)
print(f"split: {split.n_users} users; dropped {dropped} too-short users")
print(f"stats: avg {stats.avg_length:.2f} interactions per user")
u = 0
print(f"user 0 -> train={split.train[u]}, val={split.val[u]}, "
      f"test={split.test[u]}")
# rejoining the pieces reproduces the full chronological sequence
assert len(split.train[u]) + 2 == sum(
    1 for r in filtered.interactions
    if filtered.user_index[r.user] == u)

# --- versioned snapshot ---------------------------------------------------
snap = raw.parent / "toy.snap"
dp.save_snapshot(snap, split, stats, fingerprint="demo")
reloaded, _, meta = dp.load_snapshot(snap)
assert reloaded.train == split.train
print(f"snapshot round-trips; header line: "
      f"{snap.read_text().splitlines()[0]!r}")
