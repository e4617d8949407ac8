"""Reference ops, kept as oracles for the optimised ones in ``autodiff``.

``ad.attention`` and ``ad.feed_forward`` must replay the encoder blocks'
compositions of primitive ops below (``relu`` included, and ``layer_norm``,
the out-of-place form of the norm each folds in), ``ad.linear_cross_entropy``
its out-of-place form kept below, and ``ad.sampled_logits`` the fused
loss's chain of lookups, products, sums and ``concat``, bit for bit:
values and every parent's gradient. Patched into ``autodiff``, they also
give ``seq_encode``, the fusion block and the local, global and fused
losses the arithmetic the optimised ops replace. ``global_loss`` is BPR
scored pair by pair, which ``losses.global_loss`` must equal in value and
gradients (its pair rows' gradients up to the sign of a zero).

``build_batch`` assembles one window per user in Python; the vectorised
``embeddings.build_batch`` must equal it, dtypes included.
"""

import numpy as np

from mrgsrec import autodiff as ad
from mrgsrec.embeddings import SequenceBatch
from mrgsrec.errors import DataError, DimensionError


def build_batch(user_ids, sequences, c, pad_value):
    """One Python window per user: its last min(len, c) items, left-padded."""
    windows, lengths = [], []
    for seq in sequences:
        if c < 1:
            raise ValueError("window length must be >= 1")
        if not seq:
            raise DataError("cannot build a window from an empty sequence")
        tail = list(seq[-c:])
        windows.append([pad_value] * (c - len(tail)) + tail)
        lengths.append(len(tail))
    return SequenceBatch(np.asarray(user_ids, dtype=np.int64),
                         np.asarray(windows, dtype=np.int64),
                         np.asarray(lengths, dtype=np.int64))


def masked_softmax(a, mask):
    """Softmax over the last axis where ``mask`` is True, exactly 0 elsewhere."""
    a = ad.as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    mx = np.where(mask, a.data, -np.inf).max(axis=-1, keepdims=True)
    e = np.exp(np.where(mask, a.data - mx, -np.inf))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return ad._make(out, (a,), backward)


def relu(a):
    """max(a, 0), whose gradient passes where a > 0 only: ReLU'(0) = 0."""
    a = ad.as_tensor(a)

    def backward(g):
        return (g * (a.data > 0.0),)

    return ad._make(np.maximum(a.data, 0.0), (a,), backward)


def dropped(a, keep):
    """Inverted dropout by a given keep-mask, which its closure keeps alone."""
    if keep is None:
        return a
    a = ad.as_tensor(a)

    def backward(g):
        return (g * np.where(*keep, 0.0),)

    return ad._make(a.data * np.where(*keep, 0.0), (a,), backward)


def attention(x, gain, bias, wq, wk, wv, wo, mask, n_heads, keep=None,
              keep_out=None, query_row=None):
    def heads(t):  # (..., n, d) -> (..., n_heads, n, dh)
        split = ad.reshape(t, t.shape[:-1] + (n_heads, t.shape[-1] // n_heads))
        return ad.swapaxes(split, -3, -2)

    h = layer_norm(x, gain, bias)
    queries = h
    if query_row is not None:
        queries = ad.narrow(h, h.ndim - 2, query_row, 1)
        mask = mask[..., query_row:query_row + 1, :]
    q, k, v = (heads(ad.matmul(t, w))
               for t, w in ((queries, wq), (h, wk), (h, wv)))
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)),
                    1.0 / np.sqrt(q.shape[-1]))
    probs = dropped(masked_softmax(scores, mask[..., None, :, :]), keep)
    out = ad.swapaxes(ad.matmul(probs, v), -3, -2)  # (..., n, n_heads, dh)
    merged = ad.reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],))
    return dropped(ad.matmul(merged, wo), keep_out)


def feed_forward(x, w1, b1, w2, b2, keep=None, norm=None):
    if norm is not None:
        x = layer_norm(x, *norm)
    hidden = relu(ad.add(ad.matmul(x, ad.swapaxes(w1, 0, 1)), b1))
    return dropped(ad.add(ad.matmul(hidden, ad.swapaxes(w2, 0, 1)), b2), keep)


def layer_norm(a, gain, bias):
    """Normalize over the last axis (eps 1e-6), then apply gain and bias."""
    a, gain, bias = ad.as_tensor(a), ad.as_tensor(gain), ad.as_tensor(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2),
                ad._unbroadcast(g * xhat, gain.data.shape),
                ad._unbroadcast(g, bias.data.shape))

    return ad._make(out, (a, gain, bias), backward)


def linear_cross_entropy(x, w, targets):
    """The tiled local loss with its w gradient accumulated as (N, d)."""
    x, w = ad.as_tensor(x), ad.as_tensor(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise DimensionError(
            f"linear_cross_entropy needs (R, d) and (N, d), got {x.shape}, {w.shape}")
    targets = np.asarray(targets)
    n_rows = x.shape[0]
    losses = np.empty(n_rows)
    record = ad._records(x, w)
    gx = np.empty_like(x.data) if record else None
    gw = np.zeros_like(w.data) if record else None
    buffer = np.empty((min(n_rows, ad.LCE_TILE_ROWS), w.shape[0]))
    for start in range(0, n_rows, ad.LCE_TILE_ROWS):
        tile = slice(start, start + ad.LCE_TILE_ROWS)
        xt, tt = x.data[tile], targets[tile]
        rows = np.arange(xt.shape[0])
        e = np.matmul(xt, w.data.T, out=buffer[:xt.shape[0]])
        total, losses[tile] = ad._shifted_exp(e, rows, tt)
        if record:
            e /= total
            e[rows, tt] -= 1.0
            np.matmul(e, w.data, out=gx[tile])
            gw += np.matmul(e.T, xt)
    out = losses.sum()

    def backward(g):
        return gx * g, gw * g

    return ad._make(out, (x, w), backward)


def sampled_logits(x, table, pos_ids, neg_ids):
    """The fused loss's (B, 1 + S) logits as lookups, products and sums."""
    b = x.shape[0]
    pos_emb = ad.lookup(table, np.asarray(pos_ids))             # (B, d)
    neg_emb = ad.lookup(table, np.asarray(neg_ids))             # (B, S, d)
    pos_logit = ad.reshape(ad.tsum(ad.mul(x, pos_emb), axis=-1), (b, 1))
    neg_logits = ad.tsum(ad.mul(ad.reshape(x, (b, 1, -1)), neg_emb), axis=-1)
    return ad.concat([pos_logit, neg_logits], axis=-1)


def global_loss(e_g, pos_emb, neg_emb, ego_rows, lambda_reg):
    """BPR scored pair by pair with products and sums, plus the L2 term."""
    b = e_g.shape[0]
    s_pos = ad.reshape(ad.tsum(ad.mul(e_g, pos_emb), axis=-1), (b, 1))
    s_neg = ad.reshape(ad.tsum(ad.mul(e_g, neg_emb), axis=-1), (b, 1))
    logits = ad.concat([s_pos, s_neg], axis=-1)                # (B, 2)
    bpr = ad.mul(ad.cross_entropy(logits, np.zeros(b, dtype=np.int64)), 1.0 / b)
    if lambda_reg == 0.0:
        return bpr
    reg = ad.mul(ad.tsum(ad.square(ego_rows)), lambda_reg / b)
    return ad.add(bpr, reg)


def patch_into(monkeypatch):
    """Make every ``ad`` call of an optimised op call its reference here."""
    for name in ("attention", "feed_forward", "linear_cross_entropy",
                 "sampled_logits"):
        monkeypatch.setattr(ad, name, globals()[name])
