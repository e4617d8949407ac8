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
print(f"loaded: {len({r.user for r in log})} users, "
      f"{len({r.item for r in log})} items, {len(log)} interactions")

# --- minimum-count filtering, iterated to a fixpoint ---------------------
filtered = dp.min_count_filter(log, threshold=3)
print(f"after 3-core filter: {len({r.user for r in filtered})} users, "
      f"{len({r.item for r in filtered})} items (sparse users gone)")

# filtering is idempotent: a second pass changes nothing
assert dp.min_count_filter(filtered, threshold=3) == filtered

# --- leave-one-out split: ids are assigned here, once ---------------------
filtered, dropped = dp.drop_short_users(filtered)
split = dp.chronological_split(filtered)
stats = dp.dataset_stats(split)
print(f"split: {split.n_users} users; dropped {dropped} too-short users")
print(f"stats: avg {stats.avg_length:.2f} interactions per user")
u = 0
print(f"user 0 ({split.user_tokens[u]}) -> train={split.train[u]}, "
      f"val={split.val[u]}, test={split.test[u]}")
# rejoining the pieces reproduces the full chronological sequence
sequence = split.train[u] + [split.val[u], split.test[u]]
assert [split.item_tokens[i] for i in sequence] == [
    r.item for r in sorted(filtered, key=lambda r: r.timestamp)
    if r.user == split.user_tokens[u]]

# --- versioned snapshot: the writer derives the stats it stores -----------
snap = raw.parent / "toy.snap"
dp.save_snapshot(snap, split, fingerprint="demo")
reloaded, meta = dp.load_snapshot(snap)
assert reloaded == split
print(f"snapshot round-trips; header line: "
      f"{snap.read_text().splitlines()[0]!r}")
