"""The four training objectives and their weighted combination.

Reduction convention: every component is divided by the batch size (the
local loss by the number of valid positions), so loss weights mean the
same thing at any batch size. All softmax-style terms subtract the row
max first and stay finite for logits up to several hundred in magnitude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericError
from .schema import check_settings, setting


@dataclass
class LossWeights:
    alpha: float = setting("alpha", 1.0, minimum=0.0,
                           help="weight of the local next-item loss")
    beta: float = setting("beta", 0.1, minimum=0.0,
                          help="weight of the global BPR loss")
    gamma: float = setting("gamma", 1.0, minimum=0.0,
                           help="weight of the fused sampled-softmax loss")
    delta: float = setting("delta", 0.1, minimum=0.0,
                           help="weight of the contrastive alignment loss")
    lambda_reg: float = setting("lambda_reg", 1e-4, minimum=0.0,
                                help="L2 coefficient inside the global loss")

    def __post_init__(self):
        check_settings(self)


def local_loss(E_l: ad.Tensor, next_items: np.ndarray, item_table: ad.Tensor,
               valid_mask: np.ndarray) -> ad.Tensor:
    """Full-catalog cross-entropy of each valid position against its next item.

    ``next_items[b, t]`` is the item following window slot t; padding slots
    are flagged False in ``valid_mask``. The padding row never enters the
    softmax because ``item_table`` excludes it.
    """
    mask = np.asarray(valid_mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise DataError("local loss needs at least one valid position")
    logits = ad.matmul(E_l, ad.swapaxes(item_table, 0, 1))  # (B, c, N)
    logp = ad.log_softmax(logits, axis=-1)
    targets = np.where(mask, next_items, 0)
    picked = ad.take_last_axis(logp, targets)
    return ad.mul(ad.tsum(ad.mul(picked, mask.astype(np.float64))), -1.0 / count)


def global_loss(e_g: ad.Tensor, pos_emb: ad.Tensor, neg_emb: ad.Tensor,
                ego_rows: ad.Tensor, lambda_reg: float) -> ad.Tensor:
    """BPR over one (positive, negative) pair per user plus L2 on the
    batch's initial-layer rows: mean(-ln sigmoid(s_pos - s_neg)) +
    lambda * ||ego_rows||^2 / B."""
    b = e_g.shape[0]
    s_pos = ad.tsum(ad.mul(e_g, pos_emb), axis=-1)
    s_neg = ad.tsum(ad.mul(e_g, neg_emb), axis=-1)
    bpr = ad.mul(ad.tsum(ad.log(ad.sigmoid(ad.sub(s_pos, s_neg)))), -1.0 / b)
    if lambda_reg == 0.0:
        return bpr
    reg = ad.mul(ad.tsum(ad.square(ego_rows)), lambda_reg / b)
    return ad.add(bpr, reg)


def fused_loss(e_f: ad.Tensor, pos_ids: np.ndarray, neg_ids: np.ndarray,
               item_table: ad.Tensor) -> ad.Tensor:
    """Sampled softmax on the fused state: the positive against S sampled
    negatives, summed over users and divided by the batch size."""
    b = e_f.shape[0]
    neg_ids = np.asarray(neg_ids)
    if neg_ids.ndim != 2:
        raise ValueError("neg_ids must be (B, S)")
    if neg_ids.shape[1] == 0:
        warnings.warn("fused loss with no negatives is degenerate (always 0)",
                      stacklevel=2)
        return ad.Tensor(0.0)
    pos_emb = ad.lookup(item_table, np.asarray(pos_ids))        # (B, d)
    neg_emb = ad.lookup(item_table, neg_ids)                    # (B, S, d)
    pos_logit = ad.reshape(ad.tsum(ad.mul(e_f, pos_emb), axis=-1), (b, 1))
    neg_logits = ad.tsum(ad.mul(ad.reshape(e_f, (b, 1, -1)), neg_emb), axis=-1)
    logits = ad.concat([pos_logit, neg_logits], axis=-1)        # (B, 1+S)
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.take_last_axis(logp, np.zeros(b, dtype=np.int64))
    return ad.mul(ad.tsum(picked), -1.0 / b)


def contrastive_loss(E_l: ad.Tensor, E_g: ad.Tensor,
                     valid_mask: np.ndarray) -> ad.Tensor:
    """Align local and global views of the same position against the other
    positions of the same window; summed over users and valid positions,
    divided by the batch size. Users with no valid positions contribute 0."""
    if E_l.shape != E_g.shape:
        raise ValueError(f"shape mismatch {E_l.shape} vs {E_g.shape}")
    b, c, _ = E_l.shape
    mask = np.asarray(valid_mask, dtype=bool)
    sims = ad.matmul(E_l, ad.swapaxes(E_g, 1, 2))  # (B, c, c); [i, j] = l_i . g_j
    col_mask = np.repeat(mask[:, None, :], c, axis=1)
    empty = ~mask.any(axis=1)
    if empty.any():
        col_mask = col_mask.copy()
        col_mask[empty, :, 0] = True  # keep softmax defined; contribution masked out
    probs = ad.masked_softmax(sims, col_mask, axis=-1)
    diag_idx = np.broadcast_to(np.arange(c), (b, c))
    diag = ad.take_last_axis(probs, diag_idx)      # (B, c)
    fmask = mask.astype(np.float64)
    safe = ad.add(diag, 1.0 - fmask)               # masked entries -> log(1) = 0
    return ad.mul(ad.tsum(ad.mul(ad.log(safe), fmask)), -1.0 / b)


def total_loss(components: dict[str, ad.Tensor | None],
               weights: LossWeights) -> ad.Tensor:
    """Weighted sum alpha*local + beta*global + gamma*fused + delta*contrastive.

    Zero-weighted components are skipped entirely (no gradient dependence);
    a NaN component aborts with its name.
    """
    pairs = (("local", weights.alpha), ("global", weights.beta),
             ("fused", weights.gamma), ("contrastive", weights.delta))
    total: ad.Tensor | None = None
    for name, weight in pairs:
        if weight == 0.0:
            continue
        term = components.get(name)
        if term is None:
            raise ValueError(f"{name} loss has weight {weight} but was not computed")
        if not np.isfinite(term.data):
            raise NumericError(f"{name} loss is not finite")
        weighted = ad.mul(term, weight) if weight != 1.0 else term
        total = weighted if total is None else ad.add(total, weighted)
    return total if total is not None else ad.Tensor(0.0)
