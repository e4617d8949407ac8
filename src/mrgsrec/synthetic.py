"""Synthetic interaction data with both co-occurrence and order structure.

Items are partitioned into clusters. Each user has a small set of
preferred clusters and moves in bursts: within a burst, consecutive items
tend to follow the cluster's fixed cyclic chain (a sequence-friendly
signal); burst switches land in another preferred cluster (predictable
only from the user's whole history, i.e. a graph-friendly signal, since
a short attention window rarely shows all preferred clusters).
"""

from __future__ import annotations

import numpy as np

from .data import SplitDataset, leave_one_out
from .embeddings import flatten

PREFERRED_WEIGHTS = (0.5, 0.3, 0.2)  # primary, secondary, tertiary cluster


def generate_clustered_markov(n_users: int = 600, n_items: int = 240,
                              n_clusters: int = 12, n_preferred: int = 3,
                              min_len: int = 30, max_len: int = 50,
                              p_switch: float = 0.25, p_chain: float = 0.6,
                              seed: int = 0) -> SplitDataset:
    """Build a SplitDataset directly (sequences are already chronological).

    Each step: with ``p_switch`` jump to a random item of one of the user's
    preferred clusters (weighted toward the primary); otherwise stay in the
    current cluster and take the chain-next item with ``p_chain`` or a
    uniform cluster item. ``n_preferred`` is at most
    ``len(PREFERRED_WEIGHTS)``; a ``min_len`` below ``MIN_USER_LENGTH``
    raises DataError when a user that short is drawn.
    """
    if n_clusters < 1 or n_preferred < 1:
        raise ValueError("n_clusters and n_preferred must be >= 1")
    if n_items % n_clusters != 0:
        raise ValueError("n_items must be divisible by n_clusters")
    if n_preferred > n_clusters:
        raise ValueError("n_preferred cannot exceed n_clusters")
    if n_preferred > len(PREFERRED_WEIGHTS):
        raise ValueError(f"n_preferred must be <= {len(PREFERRED_WEIGHTS)}, "
                         "the number of preferred-cluster weights")
    cluster_size = n_items // n_clusters
    pref_weights = np.array(PREFERRED_WEIGHTS[:n_preferred], dtype=np.float64)
    # rng.choice(n_preferred, p=<normalised pref_weights>) builds this cdf on
    # every call and searches it with one rng.random(): same index and state.
    pref_cdf = (pref_weights / pref_weights.sum()).cumsum()
    pref_cdf /= pref_cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    sequences = []
    for _ in range(n_users):
        preferred = rng.choice(n_clusters, size=n_preferred, replace=False)
        length = int(rng.integers(min_len, max_len + 1))
        g = int(preferred[0])
        base = g * cluster_size
        item = base + int(rng.integers(cluster_size))
        seq = [item]
        for _ in range(length - 1):
            if rng.random() < p_switch:
                g = int(preferred[pref_cdf.searchsorted(rng.random(), "right")])
                base = g * cluster_size
                item = base + int(rng.integers(cluster_size))
            elif rng.random() < p_chain:
                item = base + (item - base + 1) % cluster_size
            else:
                item = base + int(rng.integers(cluster_size))
            seq.append(item)
        sequences.append(seq)
    return leave_one_out(sequences, n_items)


def popularity_hr_at_k(dataset: SplitDataset, k: int = 10) -> float:
    """Hit rate of always recommending the k globally most frequent train items.

    Baseline for learnability checks; cluster/chain structure should beat it.
    """
    counts = np.bincount(flatten(dataset.train)[1], minlength=dataset.n_items)
    top = np.argsort(-counts, kind="stable")[:k]
    return float(np.isin(dataset.test, top).mean())
