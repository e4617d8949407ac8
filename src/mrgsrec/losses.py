"""The four training objectives and their weighted combination.

Each objective is one softmax cross-entropy over its own candidate set;
BPR is the two-candidate case. The global, fused and contrastive losses
call ``ad.cross_entropy`` on logits the first two score with
``ad.sampled_logits``, and the last with a matmul; the local loss calls
``ad.linear_cross_entropy``, which never builds its full-catalog logits.
Reduction convention: every component is divided by the batch size (the
local loss by the number of valid positions), so loss weights mean the
same thing at any batch size.
"""

from __future__ import annotations

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
    are flagged False in ``valid_mask`` and get no logits. The padding row
    never enters the softmax because ``item_table`` excludes it. The
    (valid, N) logits are streamed in row tiles, never held whole.
    """
    valid = np.flatnonzero(np.asarray(valid_mask, dtype=bool))
    if valid.size == 0:
        raise DataError("local loss needs at least one valid position")
    states = ad.lookup(ad.reshape(E_l, (-1, E_l.shape[-1])), valid)
    targets = np.asarray(next_items).reshape(-1)[valid]
    loss = ad.linear_cross_entropy(states, item_table, targets)
    return ad.mul(loss, 1.0 / valid.size)


def global_loss(e_g: ad.Tensor, pos_emb: ad.Tensor, neg_emb: ad.Tensor,
                ego_rows: ad.Tensor, lambda_reg: float) -> ad.Tensor:
    """BPR over one (positive, negative) pair per user plus L2 on the
    batch's initial-layer rows: mean(-ln sigmoid(s_pos - s_neg)) +
    lambda * ||ego_rows||^2 / B. Row b of [pos; neg] is b's positive, and
    row B + b its negative."""
    b = e_g.shape[0]
    users = np.arange(b)
    logits = ad.sampled_logits(e_g, ad.concat([pos_emb, neg_emb], axis=0),
                               users, (users + b)[:, None])      # (B, 2)
    bpr = ad.mul(ad.cross_entropy(logits, 0), 1.0 / b)
    if lambda_reg == 0.0:
        return bpr
    reg = ad.mul(ad.tsum(ad.square(ego_rows)), lambda_reg / b)
    return ad.add(bpr, reg)


def fused_loss(e_f: ad.Tensor, pos_ids: np.ndarray, neg_ids: np.ndarray,
               item_table: ad.Tensor) -> ad.Tensor:
    """Sampled softmax on the fused state: the positive against S sampled
    negatives, summed over users and divided by the batch size."""
    logits = ad.sampled_logits(e_f, item_table, pos_ids, neg_ids)
    return ad.mul(ad.cross_entropy(logits, 0), 1.0 / e_f.shape[0])


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
    valid = np.flatnonzero(mask)                   # row-major (user, slot)
    users, slots = np.divmod(valid, c)
    rows = ad.lookup(ad.reshape(sims, (b * c, c)), valid)
    return ad.mul(ad.cross_entropy(rows, slots, mask=mask[users]), 1.0 / b)


def total_loss(components: dict[str, ad.Tensor | None],
               weights: LossWeights) -> ad.Tensor:
    """Weighted sum alpha*local + beta*global + gamma*fused + delta*contrastive.

    Zero-weighted components are skipped entirely (no gradient dependence).
    A total that is not finite raises NumericError with every component's
    value, naming the ones that are not finite (none when finite components
    overflow the weighted sum).
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
        weighted = ad.mul(term, weight) if weight != 1.0 else term
        total = weighted if total is None else ad.add(total, weighted)
    if total is None:
        return ad.Tensor(0.0)
    if not np.isfinite(total.data):
        values = {name: None if components.get(name) is None
                  else float(components[name].data) for name, _ in pairs}
        bad = [name for name, v in values.items()
               if v is not None and not np.isfinite(v)]
        raise NumericError(f"total loss is {float(total.data)}; not finite: "
                           f"{', '.join(bad) or 'no component'}; "
                           f"components: {values}")
    return total
