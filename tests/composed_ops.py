"""The encoder blocks as compositions of primitive ops, kept as oracles.

``ad.attention`` and ``ad.feed_forward`` must replay these compositions bit
for bit, values and every parent's gradient. Patched into ``autodiff``, they
also give ``seq_encode`` the tape the fused ops replace.
"""

import numpy as np

from mrgsrec import autodiff as ad


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


def dropped(a, keep):
    """Inverted dropout by a given keep-mask, which its closure keeps alone."""
    if keep is None:
        return a
    a = ad.as_tensor(a)

    def backward(g):
        return (g * np.where(*keep, 0.0),)

    return ad._make(a.data * np.where(*keep, 0.0), (a,), backward)


def attention(q, k, v, wo, mask, n_heads, keep=None, keep_out=None):
    def heads(t):  # (..., n, d) -> (..., n_heads, n, dh)
        split = ad.reshape(t, t.shape[:-1] + (n_heads, t.shape[-1] // n_heads))
        return ad.swapaxes(split, -3, -2)

    q, k, v = heads(q), heads(k), heads(v)
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)),
                    1.0 / np.sqrt(q.shape[-1]))
    probs = dropped(masked_softmax(scores, mask[..., None, :, :]), keep)
    out = ad.swapaxes(ad.matmul(probs, v), -3, -2)  # (..., n, n_heads, dh)
    merged = ad.reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],))
    return dropped(ad.matmul(merged, wo), keep_out)


def feed_forward(x, w1, b1, w2, b2, keep=None):
    hidden = ad.relu(ad.add(ad.matmul(x, ad.swapaxes(w1, 0, 1)), b1))
    return dropped(ad.add(ad.matmul(hidden, ad.swapaxes(w2, 0, 1)), b2), keep)


def patch_into(monkeypatch):
    """Make every ``ad.attention`` / ``ad.feed_forward`` call the composition."""
    monkeypatch.setattr(ad, "attention", attention)
    monkeypatch.setattr(ad, "feed_forward", feed_forward)
