"""Transformer encoder over the user-token-prefixed item window.

The input per user is a (c+1) x d matrix: user embedding first, then the
padded item window. Blocks are pre-layer-norm residual (attention, then a
two-layer ReLU feed-forward); the output keeps the input shape, with the
first row read as the local behavioral representation and the remaining c
rows as the local enriched embeddings.

Attention policy: items attend causally over valid item positions and may
always see the user token; in causal mode the user token attends only to
itself, so it cannot leak future items. Padding slots are never attended
to and see only the user token (their outputs are ignored downstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DimensionError
from .schema import check_settings, setting

ATTENTION_MODES = ("causal", "bidirectional")
USER_STATES = ("first_token", "last_position")


@dataclass
class SeqEncoderConfig:
    d: int = setting("embedding_dim", 64, minimum=1,
                     help="d: width of every embedding and encoder layer")
    n_layers: int = setting("encoder_layers", 2, minimum=0,
                            help="transformer blocks in the sequential encoder")
    n_heads: int = setting("attention_heads", 2, minimum=1,
                           help="heads per attention layer")
    d_ff: int | None = setting("feed_forward_dim", None,
                               help="FFN width; null means 4x embedding_dim")
    dropout_rate: float = setting("dropout_rate", 0.2, minimum=0.0,
                                  help="dropout on attention probs and block outputs")
    attention_mode: str = setting("attention_mode", "causal", choices=ATTENTION_MODES,
                                  help="causal or bidirectional")
    user_state: str = setting(
        "user_state", "first_token", choices=USER_STATES,
        help="row read as the user state: first_token or last_position")

    def __post_init__(self):
        check_settings(self)
        if self.d_ff is None:
            self.d_ff = 4 * self.d
        if self.d % self.n_heads != 0:
            raise ValueError(f"embedding_dim={self.d} not divisible by "
                             f"attention_heads={self.n_heads}")
        if self.dropout_rate >= 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


@dataclass
class SeqEncoderParams:
    """One dict of named tensors per layer (projections, FFN, layer norms)."""

    layers: list[dict[str, ad.Tensor]] = field(default_factory=list)

    def named(self, prefix: str = "encoder") -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"{prefix}.layer{i}.{key}"] = tensor
        return out


def init_seq_params(config: SeqEncoderConfig, seed: int) -> SeqEncoderParams:
    """Normal(0, 0.02) projections, zero biases, identity layer norms."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d, d_ff = config.d, config.d_ff
    layers = []
    for _ in range(config.n_layers):
        layers.append({
            "wq": ad.parameter(rng.normal(0.0, 0.02, (d, d))),
            "wk": ad.parameter(rng.normal(0.0, 0.02, (d, d))),
            "wv": ad.parameter(rng.normal(0.0, 0.02, (d, d))),
            "wo": ad.parameter(rng.normal(0.0, 0.02, (d, d))),
            "w1": ad.parameter(rng.normal(0.0, 0.02, (d_ff, d))),
            "b1": ad.parameter(np.zeros(d_ff)),
            "w2": ad.parameter(rng.normal(0.0, 0.02, (d, d_ff))),
            "b2": ad.parameter(np.zeros(d)),
            "ln1_g": ad.parameter(np.ones(d)),
            "ln1_b": ad.parameter(np.zeros(d)),
            "ln2_g": ad.parameter(np.ones(d)),
            "ln2_b": ad.parameter(np.zeros(d)),
        })
    return SeqEncoderParams(layers)


def causal_attention_mask(c_plus_1: int, valid_lengths: np.ndarray,
                          mode: str = "causal") -> np.ndarray:
    """(B, c+1, c+1) boolean mask; True where position i may attend to j.

    Position 0 is the user token. Padding positions are excluded from every
    row; padding rows fall back to seeing the user token only so their
    softmax stays well defined.
    """
    if mode not in ATTENTION_MODES:
        raise ValueError(f"unknown attention mode {mode!r}")
    lengths = np.asarray(valid_lengths, dtype=np.int64)
    c = c_plus_1 - 1
    if np.any(lengths > c):
        raise ValueError("valid length exceeds window size")
    pos = np.arange(c_plus_1)
    # token validity: user token always, item slot s iff s >= c - length
    vt = np.ones((lengths.shape[0], c_plus_1), dtype=bool)
    vt[:, 1:] = pos[None, 1:] - 1 >= (c - lengths[:, None])
    j_is_user = (pos == 0)[None, None, :]
    pair_valid = vt[:, :, None] & vt[:, None, :] & (pos > 0)[None, None, :]
    if mode == "causal":
        pair_valid &= (pos[None, :, None] >= pos[None, None, :])
    return j_is_user | pair_valid


def _attention(x: ad.Tensor, layer: dict[str, ad.Tensor], mask: np.ndarray,
               n_heads: int, dropout_rate: float, train: bool,
               rng: np.random.Generator | None) -> ad.Tensor:
    b, t, d = x.shape
    dh = d // n_heads

    def heads(proj):
        h = ad.reshape(ad.matmul(x, proj), (b, t, n_heads, dh))
        return ad.swapaxes(h, 1, 2)  # (B, H, T, dh)

    q, k, v = heads(layer["wq"]), heads(layer["wk"]), heads(layer["wv"])
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, 2, 3)), 1.0 / np.sqrt(dh))
    probs = ad.masked_softmax(scores, mask[:, None, :, :])
    if train and dropout_rate > 0.0:
        probs = ad.dropout(probs, dropout_rate, rng, train)
    out = ad.matmul(probs, v)  # (B, H, T, dh)
    out = ad.reshape(ad.swapaxes(out, 1, 2), (b, t, d))
    return ad.matmul(out, layer["wo"])


def _feed_forward(x: ad.Tensor, layer: dict[str, ad.Tensor]) -> ad.Tensor:
    hidden = ad.relu(ad.add(ad.matmul(x, ad.swapaxes(layer["w1"], 0, 1)),
                            layer["b1"]))
    return ad.add(ad.matmul(hidden, ad.swapaxes(layer["w2"], 0, 1)), layer["b2"])


def seq_encode(e_u: ad.Tensor, E_u: ad.Tensor, params: SeqEncoderParams,
               config: SeqEncoderConfig, valid_lengths: np.ndarray,
               train_mode: bool = False,
               rng: np.random.Generator | None = None
               ) -> tuple[ad.Tensor, ad.Tensor]:
    """Run the encoder; returns (e_l of shape (B, d), E_l of shape (B, c, d)).

    With ``n_layers == 0`` the encoder is the identity. ``rng`` drives
    dropout and is required only when ``train_mode`` and dropout_rate > 0.
    """
    if e_u.ndim != 2 or E_u.ndim != 3:
        raise DimensionError("expected e_u (B, d) and E_u (B, c, d)")
    b, d = e_u.shape
    if E_u.shape[0] != b or E_u.shape[2] != d or d != config.d:
        raise DimensionError(
            f"shape mismatch: e_u {e_u.shape}, E_u {E_u.shape}, d={config.d}")
    if train_mode and config.dropout_rate > 0.0 and rng is None:
        raise ValueError("train_mode with dropout requires an rng")
    c = E_u.shape[1]
    x = ad.concat([ad.reshape(e_u, (b, 1, d)), E_u], axis=1)
    mask = causal_attention_mask(c + 1, valid_lengths, config.attention_mode)
    for layer in params.layers:
        attn = _attention(ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"]),
                          layer, mask, config.n_heads,
                          config.dropout_rate, train_mode, rng)
        if train_mode and config.dropout_rate > 0.0:
            attn = ad.dropout(attn, config.dropout_rate, rng, train_mode)
        x = ad.add(x, attn)
        ff = _feed_forward(ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer)
        if train_mode and config.dropout_rate > 0.0:
            ff = ad.dropout(ff, config.dropout_rate, rng, train_mode)
        x = ad.add(x, ff)
    if config.user_state == "last_position":
        e_l = ad.reshape(ad.narrow(x, 1, c, 1), (b, d))
    else:
        e_l = ad.reshape(ad.narrow(x, 1, 0, 1), (b, d))
    E_l = ad.narrow(x, 1, 1, c)
    return e_l, E_l
